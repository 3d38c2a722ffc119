"""Gaussian beliefs over model weights.

A belief is a Gaussian distribution N(mu, Sigma) over the flattened weight
vector of a model. Three covariance families are supported:

* ``full``      - Sigma kept as a square-root pair: a factor L with
                  Sigma = L L^T, its inverse W = L^{-1}, and log det Sigma,
* ``diagonal``  - Sigma = diag(variances),
* ``spherical`` - Sigma = variances * I, with ``variances`` one float.

A spherical belief is a diagonal one whose variances are one shared number,
so the two share the ``variances`` field: where a diagonal belief holds an
array, a spherical one holds a float, which broadcasts the same way.

Any square root of Sigma whitens (W (w - mu) has identity covariance), and
the KL-minimal flow does not depend on which root is used. So full beliefs
never store or decompose a dense covariance: a flow round updates L and W by
rank-2 products in O(d^2), and sampling (mu + L xi) and whitening (W v) are
matrix-vector products.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

FULL = "full"
DIAGONAL = "diagonal"
SPHERICAL = "spherical"
VARIANTS = (FULL, DIAGONAL, SPHERICAL)

# Default eigenvalue floor; keeps whitening well conditioned in float64.
LAMBDA_MIN = 1e-8

# A full belief's W is recomputed from L (O(d^3)) after this many flow
# rounds, which keeps the amortized cost per round at O(d^2) for d <= 1000.
RESYNC_EVERY = 1000
# ... or sooner, once the probe residual ||L W z - z|| (unit z) exceeds this.
RESYNC_TOL = 1e-9

_LOG_2PI_E = math.log(2.0 * math.pi) + 1.0


@dataclasses.dataclass(frozen=True)
class BeliefState:
    """Gaussian belief. Use the factory functions to build one. Fields are
    never reassigned; a belief-flow learner updates its own diagonal arrays
    and its own full factor pair (an :class:`OwnedFull`) in place, so hold a
    :func:`snapshot` of its belief across rounds.

    Exactly one covariance payload is populated, matching ``variant``:
    (``factor``, ``inv_factor``, ``logdet``) for full, ``variances`` for
    diagonal (an array) and spherical (one float). A full belief read back
    from a snapshot stores W only; ``factor`` and ``logdet`` are then None
    and are rebuilt on demand by :func:`root` and :func:`log_det`. ``age``
    counts the flow rounds since L and W were last made consistent.
    """

    variant: str
    mean: np.ndarray
    factor: np.ndarray | None = None
    inv_factor: np.ndarray | None = None
    logdet: float | None = None
    age: int = 0
    variances: np.ndarray | float | None = None

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclasses.dataclass(frozen=True)
class OwnedFull(BeliefState):
    """A full belief whose L and W belong to a learner, which
    ``flow.apply_flow`` updates in place instead of building a fresh pair.

    L and W are C-ordered and are the owner's alone: a copy from :func:`own`
    or a fresh pair that :func:`correct_spectrum` rebuilt. Each round returns
    a new OwnedFull over the same two arrays, so hold a :func:`snapshot` of
    it across rounds, not the object.
    """


class ActiveArrays:
    """Named work arrays on a round's active coordinates, which their owner
    reuses from round to round. A subclass names its float rows in _FLOATS
    and its bool rows in _FLAGS; :meth:`resize` grows them to the largest
    active set seen, never to d, and points each name at its first k
    entries."""

    _FLOATS: tuple[str, ...] = ()
    _FLAGS: tuple[str, ...] = ()

    def __init__(self):
        self._floats = np.empty((len(self._FLOATS), 0))
        self._flags = np.empty((len(self._FLAGS), 0), dtype=bool)

    def resize(self, k: int) -> None:
        if k > self._floats.shape[1]:
            self._floats = np.empty((len(self._FLOATS), k))
            self._flags = np.empty((len(self._FLAGS), k), dtype=bool)
        for names, rows in ((self._FLOATS, self._floats), (self._FLAGS, self._flags)):
            for name, row in zip(names, rows):
                setattr(self, name, row[:k])

    @staticmethod
    def gather(src: np.ndarray, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
        """src[idx] into out; idx must be valid (mode "raise" would buffer)."""
        return np.take(src, idx, out=out, mode="clip")


class ActiveDiagonal(ActiveArrays):
    """A diagonal belief on one round's active coordinates, carried as
    standard deviations sigma in work arrays that its owner reuses.

    :meth:`load` gathers the mean and variances of a stored diagonal belief
    on idx and takes the square roots once. The round's updates run on
    these arrays through the usual calls: :func:`sample` draws xi and
    writes w = mu + sigma xi, ``flow.solve`` uses xi as the whitened draw
    u, ``flow.apply_flow`` moves mean and sigma (sigma' = a sigma) in place
    and :func:`correct_spectrum` floors sigma at sqrt(lam_min).
    :meth:`store` squares sigma back once and writes the round into the
    stored belief.

    Every step writes into the arrays with out=, so an update allocates no
    float array the size of the active set. ``grad`` and ``w_prime`` are
    for the caller's gradient step; ``v``, ``uv``, ``scales``, ``neg`` and
    ``pin`` are the flow's work space.
    """

    variant = DIAGONAL
    _FLOATS = ("mean", "variances", "sigma", "xi", "w", "w_prime", "grad", "v", "uv", "scales")
    _FLAGS = ("neg", "pin")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def load(self, belief: BeliefState, idx: np.ndarray) -> "ActiveDiagonal":
        """Gather a stored diagonal belief on the coordinates idx."""
        self.resize(idx.shape[0])
        self.gather(belief.mean, idx, self.mean)
        self.gather(belief.variances, idx, self.variances)
        np.sqrt(self.variances, out=self.sigma)
        return self

    def store(self, belief: BeliefState, idx: np.ndarray) -> None:
        """Write the round into the stored belief on idx: the mean, and
        sigma^2 (at least LAMBDA_MIN) where sigma moved. A coordinate whose
        sigma is still the square root that :meth:`load` took keeps its
        variance bit for bit."""
        np.sqrt(self.variances, out=self.v)
        np.equal(self.sigma, self.v, out=self.pin)
        np.square(self.sigma, out=self.v)
        np.maximum(self.v, LAMBDA_MIN, out=self.v)
        np.copyto(self.v, self.variances, where=self.pin)
        belief.mean[idx] = self.mean
        belief.variances[idx] = self.v


def full_belief(mean, eigenvectors, eigenvalues) -> BeliefState:
    """Belief with covariance U diag(D) U^T given by its eigenfactors.

    The factor pair is L = U D^{1/2} and W = D^{-1/2} U^T, so U must be
    orthonormal; nothing is decomposed.
    """
    mean = np.asarray(mean, dtype=float)
    u = np.asarray(eigenvectors, dtype=float)
    d = np.asarray(eigenvalues, dtype=float)
    n = mean.shape[0]
    if u.shape != (n, n) or d.shape != (n,):
        raise ValueError(f"eigenfactor shapes {u.shape}, {d.shape} do not match dim {n}")
    if not np.all(d > 0.0):
        raise ValueError("eigenvalues must be positive")
    sqrt_d = np.sqrt(d)
    return BeliefState(FULL, mean, factor=u * sqrt_d, inv_factor=u.T / sqrt_d[:, None],
                       logdet=float(np.sum(np.log(d))))


def full_belief_from_factor(mean, factor) -> BeliefState:
    """Belief with covariance L L^T for any nonsingular square root L.

    Inverts L once, O(d^3); this is also how a drifted pair is re-synced.
    """
    mean = np.asarray(mean, dtype=float)
    factor = np.asarray(factor, dtype=float)
    n = mean.shape[0]
    if factor.shape != (n, n):
        raise ValueError(f"factor shape {factor.shape} does not match dim {n}")
    sign, logabs = np.linalg.slogdet(factor)
    if sign == 0.0 or not math.isfinite(logabs):
        raise ValueError("factor is singular")
    return BeliefState(FULL, mean, factor=factor, inv_factor=np.linalg.inv(factor),
                       logdet=2.0 * float(logabs))


def full_belief_from_cov(mean, cov) -> BeliefState:
    """Cholesky-factor a dense SPD covariance into a full belief."""
    cov = np.asarray(cov, dtype=float)
    try:
        factor = np.linalg.cholesky(0.5 * (cov + cov.T))
    except np.linalg.LinAlgError:
        raise ValueError("covariance is not positive definite") from None
    return full_belief_from_factor(mean, factor)


def own(belief: BeliefState) -> BeliefState:
    """What a belief-flow learner holds of a belief: a full one as an
    :class:`OwnedFull` whose L and W are copied into fresh C-ordered arrays
    (the caller keeps its belief, and ``full_belief`` gives a Fortran-ordered
    W; the mean and log det, which no round writes into, are shared), and
    any other as its :func:`snapshot`: copies of a diagonal belief's arrays,
    which the learner's rounds write into, and a spherical belief as it is."""
    if belief.variant != FULL:
        return snapshot(belief)
    return OwnedFull(FULL, belief.mean, factor=np.array(root(belief), order="C"),
                     inv_factor=np.array(belief.inv_factor, order="C"),
                     logdet=belief.logdet, age=belief.age)


def diagonal_belief(mean, variances) -> BeliefState:
    mean = np.asarray(mean, dtype=float)
    v = np.asarray(variances, dtype=float)
    if v.shape != mean.shape:
        raise ValueError("variances and mean have different shapes")
    if not np.all(v > 0.0):
        raise ValueError("variances must be positive")
    return BeliefState(DIAGONAL, mean, variances=v)


def spherical_belief(mean, variance: float) -> BeliefState:
    mean = np.asarray(mean, dtype=float)
    if not variance > 0.0:
        raise ValueError("variance must be positive")
    return BeliefState(SPHERICAL, mean, variances=float(variance))


def validate(belief: BeliefState, lam_min: float | None = None) -> None:
    """Raise ValueError if the belief violates its structural invariants.

    For full beliefs this decomposes W (O(d^3)); it is a test and debugging
    aid, not part of a round.
    """
    if belief.variant not in VARIANTS:
        raise ValueError(f"unknown variant {belief.variant!r}")
    if not np.all(np.isfinite(belief.mean)):
        raise ValueError("mean has non-finite entries")
    floor = 0.0 if lam_min is None else lam_min
    if belief.variant == FULL:
        w = belief.inv_factor
        if w is None or w.shape != (belief.dim, belief.dim) or not np.all(np.isfinite(w)):
            raise ValueError("full belief is missing a finite inverse factor")
        if belief.factor is not None:
            drift = np.max(np.abs(belief.factor @ w - np.eye(belief.dim)))
            if drift > RESYNC_TOL:
                raise ValueError(f"factor pair drift {drift:.3e} exceeds {RESYNC_TOL}")
        # Eigenvalues of Sigma are the inverse squared singular values of W.
        evals = 1.0 / np.linalg.svd(w, compute_uv=False) ** 2
        if np.any(evals < floor) or not np.all(evals > 0.0):
            raise ValueError("eigenvalues below floor")
    elif belief.variances is None or np.any(belief.variances < floor) or not np.all(belief.variances > 0.0):
        raise ValueError("variances below floor")


def root(belief: BeliefState) -> np.ndarray:
    """The square-root factor L of a full belief, Sigma = L L^T.

    A belief read back from a snapshot carries W only; its L is rebuilt as
    W^{-1} here, O(d^3).
    """
    if belief.factor is not None:
        return belief.factor
    return np.linalg.inv(belief.inv_factor)


def log_det(belief: BeliefState) -> float:
    """log det Sigma."""
    if belief.variant == FULL:
        if belief.logdet is not None:
            return belief.logdet
        return -2.0 * float(np.linalg.slogdet(belief.inv_factor)[1])
    if belief.variant == DIAGONAL:
        return float(np.sum(np.log(belief.variances)))
    return belief.dim * math.log(belief.variances)


def snapshot(belief: BeliefState) -> BeliefState:
    """What a held copy of a belief keeps: a full belief without L (the mean
    and W are what gets written), with a copy of W when its learner owns it
    (an :class:`OwnedFull`, whose W each round writes into), copies of a
    diagonal belief's arrays, which its learner updates in place, and a
    spherical belief as it is."""
    if belief.variant == DIAGONAL:
        return BeliefState(DIAGONAL, belief.mean.copy(), variances=belief.variances.copy())
    if isinstance(belief, OwnedFull):
        return BeliefState(FULL, belief.mean, inv_factor=belief.inv_factor.copy(),
                           logdet=belief.logdet, age=belief.age)
    if belief.factor is None:  # spherical, or a full belief without L
        return belief
    return dataclasses.replace(belief, factor=None)


def covariance(belief: BeliefState) -> np.ndarray:
    """Densify the covariance. Intended for desk-scale dimensions only."""
    if belief.variant == FULL:
        factor = root(belief)
        return factor @ factor.T
    return belief.variances * np.eye(belief.dim)


def sample(belief: BeliefState, rng: np.random.Generator) -> np.ndarray:
    """Draw one weight vector from the belief. An :class:`ActiveDiagonal`
    keeps the whitened draw in ``xi`` and returns its ``w`` array."""
    if isinstance(belief, ActiveDiagonal):
        rng.standard_normal(out=belief.xi)
        np.multiply(belief.sigma, belief.xi, out=belief.w)
        belief.w += belief.mean
        return belief.w
    return belief.mean + unwhiten(belief, rng.standard_normal(belief.dim))


def whiten(belief: BeliefState, vec: np.ndarray) -> np.ndarray:
    """Map a difference vector into whitened coordinates (W vec for full).

    The argument is a displacement (for example w - mu), not a point, so no
    mean shift is applied. vec may also be a (d, k) matrix of displacements,
    one per column.
    """
    vec = np.asarray(vec, dtype=float)
    if belief.variant == FULL:
        return belief.inv_factor @ vec
    return vec / _per_row(np.sqrt(belief.variances), vec)


def unwhiten(belief: BeliefState, vec: np.ndarray) -> np.ndarray:
    """Inverse of :func:`whiten` (L vec for full)."""
    vec = np.asarray(vec, dtype=float)
    if belief.variant == FULL:
        return root(belief) @ vec
    return _per_row(np.sqrt(belief.variances), vec) * vec


def _per_row(scales: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Per-coordinate scales shaped to broadcast along the rows of vec; a
    spherical belief's one 0-d scale broadcasts as it is."""
    return scales if vec.ndim == 1 or scales.ndim == 0 else scales[:, None]


def kl_divergence(posterior: BeliefState, prior: BeliefState) -> float:
    """KL(posterior || prior) between two Gaussian beliefs of any variants.

    Equals 1/2 (mu'-mu)^T Sigma^{-1} (mu'-mu) + 1/2 tr(Sigma^{-1} Sigma')
    - 1/2 log det(Sigma^{-1} Sigma') - d/2. With W0 whitening the prior and
    L1 a root of the posterior, tr(Sigma^{-1} Sigma') = ||W0 L1||_F^2; both
    are densified as the maps applied to the identity, O(d^3) for every
    variant, which suits tests and verification, not a round.
    """
    if posterior.dim != prior.dim:
        raise ValueError("dimension mismatch")
    d = prior.dim
    eye = np.eye(d)
    w0 = whiten(prior, eye)
    white = w0 @ (posterior.mean - prior.mean)
    m = w0 @ unwhiten(posterior, eye)
    logdet = log_det(posterior) - log_det(prior)
    return 0.5 * (float(white @ white) + float(np.sum(m * m)) - logdet - d)


def entropy(belief: BeliefState) -> float:
    """Differential entropy, 1/2 log((2 pi e)^d det Sigma)."""
    return 0.5 * (belief.dim * _LOG_2PI_E + log_det(belief))


def correct_spectrum(belief: BeliefState, lam_min: float = LAMBDA_MIN) -> BeliefState:
    """Numerical correction: floor the spectrum at lam_min and, for full
    beliefs, re-sync the factor pair when it has drifted.

    Full beliefs define the floor on the factor: every singular value of L
    must be at least sqrt(lam_min), which is the same as every eigenvalue of
    Sigma = L L^T being at least lam_min. The check costs O(d^2):
    ||W||_F^2 = tr(Sigma^{-1}) bounds the largest precision 1/lambda_min(Sigma)
    from above, so a belief with ||W||_F^2 <= 1/lam_min passes untouched.
    Only when that bound fails is L decomposed (SVD, O(d^3)), and only when
    a singular value is below sqrt(lam_min) is it lifted there and L, W
    and log det rebuilt from the decomposition, which also re-syncs them.

    Otherwise W is recomputed from L (O(d^3)) once RESYNC_EVERY flow rounds
    have passed since the last sync, or as soon as the probe residual
    ||L (W z) - z|| for a fixed unit z exceeds RESYNC_TOL.

    Returns the input object unchanged when no correction is needed, so a
    clean belief passes through bit for bit, and a rebuilt full pair keeps
    the input's class (an :class:`OwnedFull`'s new L and W are its owner's).
    An :class:`ActiveDiagonal` is floored in place, at sigma >= sqrt(lam_min).
    """
    if isinstance(belief, ActiveDiagonal):
        np.maximum(belief.sigma, math.sqrt(lam_min), out=belief.sigma)
        return belief
    if belief.variant != FULL:
        if np.all(belief.variances >= lam_min):
            return belief
        return BeliefState(belief.variant, belief.mean, variances=np.maximum(belief.variances, lam_min))
    w = belief.inv_factor
    if float(np.vdot(w, w)) > 1.0 / lam_min:
        u, s, vt = np.linalg.svd(root(belief))
        if s[-1] < math.sqrt(lam_min):  # s is in descending order
            s = np.maximum(s, math.sqrt(lam_min))
            return dataclasses.replace(belief, factor=(u * s) @ vt, inv_factor=(vt.T / s) @ u.T,
                                       logdet=2.0 * float(np.sum(np.log(s))), age=0)
    z = _probe(belief.dim)
    if belief.age >= RESYNC_EVERY or np.linalg.norm(root(belief) @ (w @ z) - z) > RESYNC_TOL:
        synced = full_belief_from_factor(belief.mean, root(belief))
        return dataclasses.replace(belief, **vars(synced))
    return belief


@functools.lru_cache(maxsize=None)
def _probe(d: int) -> np.ndarray:
    """The probe's unit vector, cos(0..d-1) normalized; built once per d
    and read-only."""
    z = np.cos(np.arange(d))
    z /= np.linalg.norm(z)
    z.flags.writeable = False
    return z
