"""Dataset parsing, label handling, splits, noise injection."""

import pickle
import struct

import numpy as np
import pytest

from beliefflow import data as dat


# ---------------------------------------------------------------------------
# LIBSVM


def test_libsvm_basic_parse(tmp_path):
    p = tmp_path / "toy.libsvm"
    p.write_text("+1 1:0.5 3:2.0\n-1 2:1.5\n0 1:1.0\n")
    ds = dat.parse_libsvm(p)
    assert ds.n_features == 3
    assert ds.n_classes == 2
    assert list(ds.labels) == [1, 0, 0]  # -1 and 0 both map to class 0
    np.testing.assert_allclose(ds.example(0).x, [0.5, 0.0, 2.0])
    np.testing.assert_allclose(ds.example(1).x, [0.0, 1.5, 0.0])
    assert ds.sparse


def test_libsvm_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(8, 5))
    X[rng.random(size=X.shape) < 0.5] = 0.0
    labels = rng.integers(0, 2, size=8)
    p = tmp_path / "rt.libsvm"
    p.write_text("".join(
        " ".join([str(y)] + [f"{j + 1}:{v:.17g}" for j, v in enumerate(row) if v != 0.0]) + "\n"
        for y, row in zip(labels, X)))
    back = dat.parse_libsvm(p, n_features=5)
    for i in range(8):
        np.testing.assert_allclose(back.example(i).x, X[i], rtol=1e-12, atol=1e-15)
    np.testing.assert_array_equal(back.labels, labels)


def test_libsvm_reports_bad_line_number(tmp_path):
    p = tmp_path / "bad.libsvm"
    p.write_text("+1 1:0.5\n+1 nonsense\n")
    with pytest.raises(ValueError, match="line 2"):
        dat.parse_libsvm(p)


def test_libsvm_rejects_too_small_feature_override(tmp_path):
    p = tmp_path / "wide.libsvm"
    p.write_text("+1 7:1.0\n")
    with pytest.raises(ValueError):
        dat.parse_libsvm(p, n_features=3)
    assert dat.parse_libsvm(p, n_features=10).n_features == 10


def test_libsvm_accepts_one_two_labels(tmp_path):
    # the mushrooms file on the LIBSVM site labels its classes 1 and 2
    p = tmp_path / "mushrooms"
    p.write_text("1 1:1 3:1\n2 2:1\n2 1:1\n1 3:1\n")
    ds = dat.parse_libsvm(p)
    assert list(ds.labels) == [0, 1, 1, 0]
    assert ds.n_classes == 2


def test_libsvm_rejects_mixed_label_sets_at_first_offending_line(tmp_path):
    p = tmp_path / "mixed.libsvm"
    p.write_text("-1 1:1\n1 2:1\n-1 1:1\n2 2:1\n1 1:1\n")
    with pytest.raises(ValueError, match="line 4: label 2"):
        dat.parse_libsvm(p)
    p.write_text("+1 1:1\n3 2:1\n")
    with pytest.raises(ValueError, match="line 2: label 3"):
        dat.parse_libsvm(p)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_libsvm_rejects_non_finite_values(tmp_path, value):
    p = tmp_path / "nan.libsvm"
    p.write_text(f"+1 1:0.5\n-1 1:1.0 2:{value}\n+1 2:1.0\n")
    with pytest.raises(ValueError, match=r"nan\.libsvm line 2: non-finite"):
        dat.parse_libsvm(p)


@pytest.mark.parametrize("text", [
    "+1 1:0.5 3:2.0\n-1 2:1.5\n0 1:1.0\n",
    "1 1:1 3:1\n2 2:1\n2 1:1\n1 3:1\n",
    "+1 7:1.0\n-1\n+1 1:-0.25 7:3e-300\n",
])
def test_libsvm_example_rows_match_toarray(tmp_path, text):
    p = tmp_path / "rows.libsvm"
    p.write_text(text)
    ds = dat.parse_libsvm(p, n_features=9)
    for i in range(len(ds)):
        x = ds.example(i).x
        assert x.dtype == np.float64 and x.shape == (9,)
        np.testing.assert_array_equal(x, ds.X[i].toarray().ravel())
    # a subset keeps its own row pointers
    sub = ds.subset(np.array([len(ds) - 1, 0]))
    np.testing.assert_array_equal(sub.example(0).x, ds.example(len(ds) - 1).x)


def test_csr_example_sums_duplicate_entries_like_toarray():
    from scipy import sparse as sp

    X = sp.csr_matrix((np.array([1.0, 2.0, 0.5]), np.array([2, 2, 0]), np.array([0, 3])),
                      shape=(1, 4))
    ds = dat.Dataset("dup", X, np.zeros(1, np.int64), np.zeros(1, np.int64), 4, 2, sparse=True)
    np.testing.assert_array_equal(ds.example(0).x, X.toarray().ravel())
    np.testing.assert_array_equal(ds.example(0).x, [0.5, 0.0, 3.0, 0.0])


# ---------------------------------------------------------------------------
# CSV


def test_csv_parses_with_and_without_header(tmp_path):
    body = "1.0,2.0,1\n3.0,4.0,0\n"
    p1 = tmp_path / "nohdr.csv"
    p1.write_text(body)
    p2 = tmp_path / "hdr.csv"
    p2.write_text("a,b,label\n" + body)
    for p in (p1, p2):
        ds = dat.parse_csv(p)
        assert ds.n_features == 2
        np.testing.assert_allclose(ds.X, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ds.labels, [1, 0])


def test_csv_label_column_selection(tmp_path):
    p = tmp_path / "front.csv"
    p.write_text("1,0.5,0.6\n0,0.7,0.8\n")
    ds = dat.parse_csv(p, label_column=0)
    assert ds.n_features == 2
    np.testing.assert_allclose(ds.X, [[0.5, 0.6], [0.7, 0.8]])
    np.testing.assert_array_equal(ds.labels, [1, 0])


def test_csv_preserves_row_order(tmp_path):
    # time-ordered sources rely on the parser never reordering rows
    rows = ["%d,%f,%d" % (i, i * 0.5, i % 2) for i in range(10)]
    p = tmp_path / "ts.csv"
    p.write_text("\n".join(rows) + "\n")
    ds = dat.parse_csv(p)
    np.testing.assert_allclose(ds.X[:, 0], np.arange(10.0))


def test_csv_negative_positive_labels_map_to_binary(tmp_path):
    p = tmp_path / "pm.csv"
    p.write_text("0.1,-1\n0.2,1\n0.3,-1\n")
    ds = dat.parse_csv(p)
    np.testing.assert_array_equal(ds.labels, [0, 1, 0])
    assert ds.n_classes == 2


def test_csv_multiclass_labels(tmp_path):
    p = tmp_path / "mc.csv"
    p.write_text("0.1,0\n0.2,2\n0.3,1\n")
    ds = dat.parse_csv(p)
    assert ds.n_classes == 3
    np.testing.assert_array_equal(ds.labels, [0, 2, 1])


def test_csv_ragged_row_reports_number(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("1.0,2.0,1\n3.0,0\n")
    with pytest.raises(ValueError, match="row 2"):
        dat.parse_csv(p)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_csv_rejects_non_finite_values(tmp_path, value):
    p = tmp_path / "nan.csv"
    p.write_text(f"a,b,label\n1.0,2.0,1\n\n3.0,{value},0\n")  # header and blank line count
    with pytest.raises(ValueError, match=r"nan\.csv line 4: non-finite"):
        dat.parse_csv(p)


def test_csv_reads_each_field_as_float_does(tmp_path):
    # fields float() reads or rejects in ways that are easy to get wrong; a
    # field it accepts keeps its bytes (-0 stays negative), one it rejects
    # names its row, and one it reads as infinite names its line
    accepted = ["1_0", " 1.5 ", "-0", "+.5"]
    p = tmp_path / "fields.csv"
    p.write_text("a,b,c,d,label\n" + ",".join(accepted) + ",1\n1,2,3,4,0\n")
    ds = dat.parse_csv(p)
    want = np.array([[float(f) for f in accepted], [1.0, 2.0, 3.0, 4.0]])
    assert ds.X.tobytes() == want.tobytes()
    np.testing.assert_array_equal(ds.labels, [1, 0])
    for field, message in [("infinity", "line 3: non-finite value"),
                           ("1e400", "line 3: non-finite value"),
                           ("0x1p3", "row 3: non-numeric field"),
                           ("", "row 3: non-numeric field")]:
        p.write_text(f"a,b,label\n1,2,1\n0.5,{field},0\n")
        with pytest.raises(ValueError, match=f"fields\\.csv {message}"):
            dat.parse_csv(p)


def test_csv_minmax_scaling(tmp_path):
    p = tmp_path / "scale.csv"
    p.write_text("0.0,5.0,1\n10.0,5.0,0\n5.0,5.0,1\n")
    ds = dat.parse_csv(p, scale_minmax=True)
    np.testing.assert_allclose(ds.X[:, 0], [0.0, 1.0, 0.5])
    # constant column: left at zero rather than dividing by zero
    np.testing.assert_allclose(ds.X[:, 1], [0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# IDX


def idx_bytes(images, labels):
    n, rows, cols = images.shape
    img = struct.pack(">IIII", 0x803, n, rows, cols) + images.astype(np.uint8).tobytes()
    lab = struct.pack(">II", 0x801, n) + labels.astype(np.uint8).tobytes()
    return img, lab


def test_idx_parse(tmp_path):
    rng = np.random.default_rng(5)
    images = rng.integers(0, 256, size=(4, 3, 3), dtype=np.uint8)
    labels = np.array([0, 9, 3, 3], dtype=np.uint8)
    img, lab = idx_bytes(images, labels)
    pi = tmp_path / "imgs"
    pl = tmp_path / "labs"
    pi.write_bytes(img)
    pl.write_bytes(lab)
    ds = dat.parse_idx(pi, pl)
    assert ds.n_features == 9
    assert ds.n_classes == 10
    np.testing.assert_allclose(ds.X[1], images[1].ravel() / 255.0)
    np.testing.assert_array_equal(ds.labels, labels)


def test_idx_rejects_wrong_magic(tmp_path):
    pi = tmp_path / "imgs"
    pl = tmp_path / "labs"
    pi.write_bytes(struct.pack(">IIII", 0x999, 1, 2, 2) + b"\x00" * 4)
    pl.write_bytes(struct.pack(">II", 0x801, 1) + b"\x00")
    with pytest.raises(ValueError):
        dat.parse_idx(pi, pl)


def test_idx_rejects_count_mismatch(tmp_path):
    images = np.zeros((2, 2, 2), dtype=np.uint8)
    labels = np.zeros(3, dtype=np.uint8)
    img, lab = idx_bytes(images, np.zeros(2, dtype=np.uint8))
    lab = struct.pack(">II", 0x801, 3) + labels.tobytes()
    pi = tmp_path / "imgs"
    pl = tmp_path / "labs"
    pi.write_bytes(img)
    pl.write_bytes(lab)
    with pytest.raises(ValueError):
        dat.parse_idx(pi, pl)


# ---------------------------------------------------------------------------
# noise and splits


def test_flip_labels_fraction_and_truth():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(2000, 3))
    labels = rng.integers(0, 2, size=2000)
    ds = dat.Dataset("t", X, labels, labels.copy(), 3, 2, sparse=False)
    noisy = dat.flip_labels(ds, 0.2, seed=11)
    flipped = np.mean(noisy.labels != ds.labels)
    assert 0.15 < flipped < 0.25
    np.testing.assert_array_equal(noisy.true_labels, ds.true_labels)
    same = dat.flip_labels(ds, 0.0, seed=11)
    np.testing.assert_array_equal(same.labels, ds.labels)


def test_flip_labels_rejects_multiclass():
    X = np.zeros((3, 2))
    labels = np.array([0, 1, 2])
    ds = dat.Dataset("t", X, labels, labels.copy(), 2, 3, sparse=False)
    with pytest.raises(ValueError):
        dat.flip_labels(ds, 0.1, seed=0)


def test_split_sizes_and_disjointness():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(101, 2))
    X[:, 0] = np.arange(101)  # row identity tag
    labels = rng.integers(0, 2, size=101)
    ds = dat.Dataset("t", X, labels, labels.copy(), 2, 2, sparse=False)
    train, test = dat.split_shuffle(ds, 0.8, seed=3, shuffle=True)
    assert len(train) == 80 and len(test) == 21
    ids = np.concatenate([train.X[:, 0], test.X[:, 0]])
    assert sorted(ids.tolist()) == list(range(101))


def test_split_without_shuffle_preserves_order():
    X = np.arange(20, dtype=float).reshape(10, 2)
    labels = np.zeros(10, dtype=np.int64)
    ds = dat.Dataset("t", X, labels, labels.copy(), 2, 2, sparse=False)
    train, test = dat.split_shuffle(ds, 0.7, seed=99, shuffle=False)
    np.testing.assert_array_equal(train.X, X[:7])
    np.testing.assert_array_equal(test.X, X[7:])


def test_split_is_seed_deterministic():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(50, 2))
    labels = rng.integers(0, 2, size=50)
    ds = dat.Dataset("t", X, labels, labels.copy(), 2, 2, sparse=False)
    a1, _ = dat.split_shuffle(ds, 0.5, seed=4, shuffle=True)
    a2, _ = dat.split_shuffle(ds, 0.5, seed=4, shuffle=True)
    np.testing.assert_array_equal(a1.X, a2.X)


def test_an_unpickled_dataset_is_read_only_with_the_same_bytes(tmp_path):
    # a pool worker's runs share the copy of the parse they unpickle
    p = tmp_path / "toy.libsvm"
    p.write_text("+1 1:0.5 3:2.0\n-1 2:1.5\n")
    for ds in (dat.parse_libsvm(p), dat.synthetic_linear(20, 3, 7)):
        a, b = pickle.loads(pickle.dumps([ds, ds]))
        assert a is b
        arrays = [a.X.data, a.X.indices, a.X.indptr] if a.sparse else [a.X]
        want = [ds.X.data, ds.X.indices, ds.X.indptr] if ds.sparse else [ds.X]
        for got, ref in zip(arrays + [a.labels, a.true_labels],
                            want + [ds.labels, ds.true_labels]):
            assert got.tobytes() == ref.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 0


# ---------------------------------------------------------------------------
# synthetic


def test_synthetic_linear_is_deterministic_and_separable():
    a = dat.synthetic_linear(200, 6, seed=21)
    b = dat.synthetic_linear(200, 6, seed=21)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert a.n_classes == 2
    assert 0.2 < np.mean(a.labels) < 0.8  # both classes present


def test_synthetic_linear_flip_fraction():
    clean = dat.synthetic_linear(1000, 4, seed=2)
    noisy = dat.synthetic_linear(1000, 4, seed=2, flip_fraction=0.2)
    np.testing.assert_array_equal(clean.true_labels, noisy.true_labels)
    frac = np.mean(noisy.labels != noisy.true_labels)
    assert 0.15 < frac < 0.25
