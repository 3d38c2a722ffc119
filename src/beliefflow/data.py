"""Dataset ingestion and preparation.

Three on-disk formats are read: LIBSVM sparse text, numeric CSV with a
designated label column, and the IDX image/label binary pair. Labels are
normalized to 0-based integers; binary LIBSVM files using {-1, +1}, {0, 1}
or {1, 2} become {0, 1}. Non-finite values fail at the line holding them.
Text files are read as ASCII, with a byte above 0x7f kept as an undecodable
character (surrogateescape): it fails as a bad field or token of its line,
and never reads as a digit, as an Arabic-Indic one would under UTF-8.
Every example keeps two labels: the (possibly noise-flipped) training label
the learner sees and the true label used for judging predictions.
"""

from __future__ import annotations

import csv as _csv
import dataclasses
import math
import struct
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    # Loaded at run time only where LIBSVM files are read.
    from scipy import sparse as sp


@dataclasses.dataclass(frozen=True)
class LabeledExample:
    x: np.ndarray
    label: int
    true_label: int


@dataclasses.dataclass
class Dataset:
    """Feature matrix plus paired training/true label vectors."""

    name: str
    X: np.ndarray | sp.csr_matrix
    labels: np.ndarray
    true_labels: np.ndarray
    n_features: int
    n_classes: int
    sparse: bool

    def __len__(self) -> int:
        return self.labels.shape[0]

    def example(self, i: int) -> LabeledExample:
        if self.sparse:
            # Row i straight from the CSR arrays; bincount sums duplicate
            # entries the way toarray() does (and gives ints on an empty row).
            lo, hi = self.X.indptr[i], self.X.indptr[i + 1]
            x = np.bincount(self.X.indices[lo:hi], weights=self.X.data[lo:hi],
                            minlength=self.X.shape[1]).astype(float, copy=False)
        else:
            x = self.X[i]
        return LabeledExample(x, int(self.labels[i]), int(self.true_labels[i]))

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.name, self.X[indices], self.labels[indices].copy(),
                       self.true_labels[indices].copy(), self.n_features,
                       self.n_classes, self.sparse)

    def __setstate__(self, state):
        # Only a pool pickles a dataset, and a worker's runs share the copy
        # they unpickle, so it is read-only like the command's parse.
        self.__dict__.update(state)
        read_only(self)


def read_only(dataset: Dataset) -> Dataset:
    """Mark the dataset's arrays read-only and return it, so that runs
    which share one parse cannot write into it."""
    X = dataset.X
    arrays = (X.data, X.indices, X.indptr) if dataset.sparse else (X,)
    for arr in (*arrays, dataset.labels, dataset.true_labels):
        arr.flags.writeable = False
    return dataset


def _make(name, X, labels, n_classes, sparse_flag) -> Dataset:
    labels = np.asarray(labels, dtype=np.int64)
    return Dataset(name, X, labels, labels.copy(),
                   X.shape[1], n_classes, sparse_flag)


# Label sets a binary LIBSVM file may use, each mapped to {0, 1}. -1 and 0
# share one set (both mean negative), so {-1, +1} and {0, 1} files fit it.
_BINARY_LABEL_SETS = ({-1.0: 0, 0.0: 0, 1.0: 1}, {1.0: 0, 2.0: 1})


def _binary_labels(raw: list[float], linenos: list[int], where: str) -> list[int]:
    """Map one file's labels to {0, 1} through the first label set that
    holds all of them; raise at the first line whose label fits no set
    together with the labels above it."""
    fitting = _BINARY_LABEL_SETS
    for label, lineno in zip(raw, linenos):
        fitting = [m for m in fitting if label in m]
        if not fitting:
            raise ValueError(f"{where} line {lineno}: label {label:g} does not fit one binary "
                             "label set ({-1,0,+1} or {1,2}) with the labels above it")
    return [fitting[0][label] for label in raw]


def parse_libsvm(path, n_features: int | None = None, name: str | None = None) -> Dataset:
    """Read LIBSVM sparse text: one 'label idx:val ...' line per example.

    Indices are 1-based in the file. The feature count defaults to the
    largest index seen; passing n_features overrides it (it must cover the
    data). Labels map to {0, 1} as one set per file (see _binary_labels).
    Malformed tokens, non-finite values and labels outside the file's set
    raise with the offending line number.
    """
    from scipy import sparse as sp

    path = Path(path)
    rows, cols, vals, labels, linenos = [], [], [], [], []
    max_idx = 0
    with path.open("r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split()
            try:
                raw = float(tokens[0])
            except ValueError:
                raise ValueError(f"{path.name} line {lineno}: bad label {tokens[0]!r}") from None
            labels.append(raw)
            linenos.append(lineno)
            row = len(labels) - 1
            for tok in tokens[1:]:
                idx_s, _, val_s = tok.partition(":")
                if not val_s:
                    raise ValueError(f"{path.name} line {lineno}: token {tok!r} is not idx:val")
                try:
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise ValueError(f"{path.name} line {lineno}: token {tok!r} is not idx:val") from None
                if idx < 1:
                    raise ValueError(f"{path.name} line {lineno}: index {idx} is not 1-based")
                max_idx = max(max_idx, idx)
                rows.append(row)
                cols.append(idx - 1)
                vals.append(val)
    labels = _binary_labels(labels, linenos, path.name)
    vals = np.asarray(vals, dtype=float)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise ValueError(f"{path.name} line {linenos[rows[bad[0]]]}: non-finite value")
    if n_features is None:
        n_features = max_idx
    elif n_features < max_idx:
        raise ValueError(f"n_features={n_features} below largest index {max_idx}")
    X = sp.coo_matrix((vals, (rows, cols)), shape=(len(labels), n_features)).tocsr()
    return _make(name or path.stem, X, labels, 2, True)


def parse_csv(path, label_column: int = -1, scale_minmax: bool = False,
              name: str | None = None) -> Dataset:
    """Read a numeric CSV; one column holds integer labels, the rest features.

    Row order is preserved (time-ordered streams rely on this). Ragged rows
    raise with the row number, nan or inf fields with the line number.
    scale_minmax rescales every feature column to [0, 1]; constant columns
    map to 0.
    """
    path = Path(path)
    rows, linenos = [], []
    width = None
    with path.open("r", newline="", encoding="ascii", errors="surrogateescape") as fh:
        reader = _csv.reader(fh)
        for rowno, rec in enumerate(reader, start=1):
            if not rec:
                continue
            if width is None:
                width = len(rec)
            elif len(rec) != width:
                raise ValueError(f"{path.name} row {rowno}: {len(rec)} fields, expected {width}")
            try:
                rows.append(np.array(rec, dtype=float))
                linenos.append(reader.line_num)
            except ValueError:
                if rowno == 1:
                    width = None  # header row, skip it
                    continue
                raise ValueError(f"{path.name} row {rowno}: non-numeric field") from None
    if not rows:
        raise ValueError(f"{path.name}: no data rows")
    table = np.stack(rows)
    del rows  # one copy of the table at a time
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        raise ValueError(f"{path.name} line {linenos[bad[0]]}: non-finite value")
    label_column = label_column % table.shape[1]
    raw_labels = table[:, label_column]
    X = np.delete(table, label_column, axis=1)
    labels, n_classes = _normalize_labels(raw_labels, path.name)
    if scale_minmax:
        lo = X.min(axis=0)
        span = X.max(axis=0) - lo
        span[span == 0.0] = 1.0
        X = (X - lo) / span
    return _make(name or path.stem, X, labels, n_classes, False)


def _normalize_labels(raw: np.ndarray, where: str) -> tuple[np.ndarray, int]:
    # A plain set: np.unique imports numpy.ma (numpy 2.4), which no run needs.
    vals = set(raw.tolist())
    if vals <= {-1.0, 1.0}:
        return (raw > 0).astype(np.int64), 2
    if np.any(raw != np.round(raw)) or raw.min() < 0:
        raise ValueError(f"{where}: labels must be integers >= 0 or -1/+1")
    labels = raw.astype(np.int64)
    return labels, max(2, int(labels.max()) + 1)


IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049


def parse_idx(images_path, labels_path, name: str | None = None) -> Dataset:
    """Read an IDX image/label file pair (big-endian, magic 2051/2049).

    Pixels are scaled to [0, 1] by dividing by 255; each image becomes one
    flat row of rows*cols features. Labels must be one byte per image and
    the counts must agree.
    """
    images_path, labels_path = Path(images_path), Path(labels_path)
    (count, n_rows, n_cols), pixels = _read_idx(images_path, IDX_IMAGE_MAGIC, 3)
    (label_count,), labels = _read_idx(labels_path, IDX_LABEL_MAGIC, 1)
    if label_count != count:
        raise ValueError(f"image count {count} != label count {label_count}")
    X = pixels.reshape(count, n_rows * n_cols).astype(float) / 255.0
    return _make(name or images_path.stem, X, labels.astype(np.int64), 10, False)


def _read_idx(path: Path, magic: int, n_dims: int) -> tuple[list[int], np.ndarray]:
    """The sizes and the byte payload of one IDX file: a header of the magic
    and n_dims big-endian u32 sizes, then one byte per entry."""
    raw = path.read_bytes()
    head = 4 + 4 * n_dims
    if len(raw) < head:
        raise ValueError(f"{path.name}: {len(raw)} bytes, shorter than its {head}-byte header")
    found, *dims = struct.unpack_from(f">{1 + n_dims}I", raw)
    if found != magic:
        raise ValueError(f"{path.name}: bad magic {found}, expected {magic}")
    payload = np.frombuffer(raw, dtype=np.uint8, offset=head)
    if payload.size != math.prod(dims):
        raise ValueError(f"{path.name}: {payload.size} payload bytes, its header says "
                         f"{math.prod(dims)}")
    return dims, payload


def flip_labels(dataset: Dataset, fraction: float, seed: int) -> Dataset:
    """Flip each binary training label independently with the given
    probability; true labels are preserved for evaluation."""
    if dataset.n_classes != 2:
        raise ValueError("label flipping is defined for binary datasets only")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    flip = rng.random(len(dataset)) < fraction
    labels = np.where(flip, 1 - dataset.labels, dataset.labels)
    return dataclasses.replace(dataset, labels=labels, true_labels=dataset.true_labels.copy())


def split_shuffle(dataset: Dataset, train_fraction: float, seed: int,
                  shuffle: bool = True) -> tuple[Dataset, Dataset]:
    """Split into train/test after an optional seeded shuffle.

    With shuffle=False the stream order is kept and the split is a plain
    prefix/suffix cut (time-ordered data must never be shuffled).
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be strictly between 0 and 1")
    n = len(dataset)
    order = np.random.default_rng(seed).permutation(n) if shuffle else np.arange(n)
    cut = int(n * train_fraction)
    return dataset.subset(order[:cut]), dataset.subset(order[cut:])


def synthetic_linear(n: int, n_features: int, seed: int,
                     flip_fraction: float = 0.0, name: str = "synthetic") -> Dataset:
    """Linearly separable Gaussian features labeled by a random teacher.

    Demo and test plumbing: standard normal features, label = sign of the
    teacher margin, optional independent label flips.
    """
    rng = np.random.default_rng(seed)
    teacher = rng.standard_normal(n_features)
    X = rng.standard_normal((n, n_features))
    labels = (X @ teacher >= 0.0).astype(np.int64)
    ds = _make(name, X, labels, 2, False)
    if flip_fraction > 0.0:
        ds = flip_labels(ds, flip_fraction, seed + 1)
    return ds
