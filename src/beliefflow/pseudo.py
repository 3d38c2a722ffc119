"""Pseudo datapoints: the virtual observations a belief update implies.

Any move from N(mu, Sigma) to N(mu', Sigma') can be read as an exact
Bayesian update on one Gaussian observation with location x and effective
covariance R:

    x = (Sigma'^{-1} - Sigma^{-1})^{-1} (Sigma'^{-1} mu' - Sigma^{-1} mu)
    R = (Sigma'^{-1} - Sigma^{-1})^{-1}

A negative eigenvalue of R means the update increased variance along that
direction, that is, it forgot rather than learned. For spherical beliefs R
has a single eigenvalue lambda; its inverse rho = 1/lambda is the precision
the round contributed, and the running sum of rho measures accumulated
evidence.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import flow as fl
from .belief import DIAGONAL, FULL, SPHERICAL, BeliefState, full_belief

# Relative variance change below which a diagonal or spherical update counts
# as the identity.
NO_DATAPOINT_TOL = 1e-12


@dataclasses.dataclass(frozen=True)
class PseudoDatapoint:
    """Location and effective covariance of the implied observation.

    cov is shaped to the beliefs' variant, which the record does not hold:
    (d, d) for full, per-coordinate vector for diagonal, scalar for
    spherical. Diagonal coordinates the update never touched carry infinite
    covariance (a zero-precision observation), which keeps the conjugate
    round trip exact on sparse updates.
    """

    x: np.ndarray
    cov: np.ndarray | float


def extract_pseudo(prior: BeliefState, posterior: BeliefState) -> PseudoDatapoint | None:
    """Invert one belief update into its pseudo datapoint.

    Returns None when the posterior equals the prior within tolerance (an
    identity update implies no observation at all). Raises ValueError when
    the precision difference is singular but not zero, which happens for
    updates that only move a proper subspace. For full beliefs both checks
    use the roundoff floor of :func:`_precision_change`.
    """
    if prior.variant != posterior.variant:
        raise ValueError("prior and posterior must share a variant")
    if prior.dim != posterior.dim:
        raise ValueError("dimension mismatch")
    v0, v1 = prior.variances, posterior.variances
    if prior.variant == SPHERICAL:
        if abs(v1 - v0) <= NO_DATAPOINT_TOL * v0:
            return None
        dprec = 1.0 / v1 - 1.0 / v0
        r = 1.0 / dprec
        x = r * (posterior.mean / v1 - prior.mean / v0)
        return PseudoDatapoint(x, r)
    if prior.variant == DIAGONAL:
        dprec = v1 - v0
        if np.linalg.norm(dprec) <= NO_DATAPOINT_TOL * np.linalg.norm(v0):
            return None
        # Three d-vectors at a time, written in place, so a trace of a large
        # diagonal run holds little beside its two beliefs.
        np.divide(1.0, v1, out=dprec)
        part = 1.0 / v0
        dprec -= part
        untouched = dprec == 0.0
        dprec[untouched] = 1.0  # a safe divisor; those coordinates are set below
        x = posterior.mean / v1
        x -= np.divide(prior.mean, v0, out=part)
        x /= dprec
        np.copyto(x, posterior.mean, where=untouched)
        r = np.divide(1.0, dprec, out=dprec)
        r[untouched] = np.inf
        return PseudoDatapoint(x, r)
    prec0 = _full_precision(prior)
    prec1 = _full_precision(posterior)
    dprec, _, informative = _precision_change(prec0, prec1)
    if not informative.any():
        return None
    # np.linalg.inv happily "inverts" a numerically singular difference, so
    # check the spectrum explicitly: a linear flow moves only a low-rank
    # precision subspace and has no whole-space pseudo datapoint.
    if not informative.all():
        raise ValueError("precision difference is singular; the update moved a proper "
                         "subspace only (use trace_rows for its informative eigenvalues)")
    r = np.linalg.inv(dprec)
    r = 0.5 * (r + r.T)
    x = r @ (prec1 @ posterior.mean - prec0 @ prior.mean)
    return PseudoDatapoint(x, r)


def _full_precision(belief: BeliefState) -> np.ndarray:
    """Sigma^{-1} = W^T W."""
    return belief.inv_factor.T @ belief.inv_factor


def _precision_change(prec0: np.ndarray, prec1: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The symmetrized difference Sigma'^{-1} - Sigma^{-1}, and which of its
    eigenvalues (ascending, as ``eigvalsh`` orders them) stand above roundoff.

    The subtraction cancels digits at the scale of the operands, not of the
    difference, so the floor is d eps max(tr Sigma^{-1}, tr Sigma'^{-1}); the
    trace bounds each operand's largest eigenvalue. Returns (dprec, evals,
    informative).
    """
    dprec = prec1 - prec0
    dprec = 0.5 * (dprec + dprec.T)
    evals = np.linalg.eigvalsh(dprec)
    floor = _roundoff_floor(prec0.shape[0], np.trace(prec0), np.trace(prec1))
    return dprec, evals, np.abs(evals) > floor


def _roundoff_floor(d: int, trace0: float, trace1: float) -> float:
    """d eps max(tr Sigma^{-1}, tr Sigma'^{-1})."""
    return d * np.finfo(float).eps * max(trace0, trace1)


def bayes_update_gaussian(prior: BeliefState, x, cov) -> BeliefState:
    """Conjugate Gaussian update of the prior on one observation N(x; w, cov).

    Posterior precision is Sigma^{-1} + R^{-1} and the posterior mean is the
    precision-weighted combination. cov may be indefinite (a forgetting
    observation) as long as the resulting precision stays positive definite;
    otherwise the pair is inconsistent and a ValueError is raised.
    """
    x = np.asarray(x, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if prior.variant != FULL:
        # A spherical prior's variance and cov are scalars, which broadcast
        # as a diagonal one's arrays do, so spherical stays spherical.
        with np.errstate(divide="ignore"):
            obs_prec = np.where(np.isinf(cov), 0.0, 1.0 / cov)
        prec = 1.0 / prior.variances + obs_prec
        if not np.all(prec > 0.0):
            raise ValueError("inconsistent pseudo datapoint: posterior precision not positive")
        var = 1.0 / prec
        mean = var * (prior.mean / prior.variances + np.where(obs_prec == 0.0, 0.0, x * obs_prec))
        return BeliefState(prior.variant, mean, variances=var)
    prec0 = _full_precision(prior)
    obs_prec = np.linalg.inv(cov)
    post_prec = prec0 + 0.5 * (obs_prec + obs_prec.T)
    post_prec = 0.5 * (post_prec + post_prec.T)
    evals, evecs = np.linalg.eigh(post_prec)
    if np.any(evals <= 0.0):
        raise ValueError("inconsistent pseudo datapoint: posterior precision not positive")
    rhs = prec0 @ prior.mean + obs_prec @ x
    mean = evecs @ ((evecs.T @ rhs) / evals)
    return full_belief(mean, evecs, 1.0 / evals)


@dataclasses.dataclass(frozen=True)
class TraceRow:
    """One snapshot-to-snapshot pseudo extraction (``harness.write_trace``).

    eigenvalues holds R: its informative eigenvalues for full beliefs (x is
    None), the single lambda for spherical ones, and the whole diagonal for
    diagonal ones, so a value's position is its coordinate; a coordinate
    the interval did not touch has R = +inf, and its x is the mean there.
    Both are None on a degenerate (identity) interval.
    """

    round: int
    x: np.ndarray | None
    eigenvalues: np.ndarray | None
    rho: float | None
    cum_rho: float | None
    degenerate: bool


def pseudo_trace(snapshots) -> list[TraceRow]:
    """Every row of :func:`trace_rows` as a list. The list holds each row's
    vectors (for a diagonal run, 2 d floats a row); the CLI streams
    ``trace_rows`` into ``harness.write_trace`` instead."""
    return list(trace_rows(snapshots))


def trace_rows(snapshots):
    """Pseudo datapoints between consecutive belief snapshots of one run,
    yielded one :class:`TraceRow` at a time.

    snapshots is an iterable of (round, record) pairs in round order, as
    ``harness.iter_snapshots`` yields them; a ``flow.FlowLog`` record is
    replayed (``flow.replay``). Two beliefs are held at a time, so with a
    consumer that drops each row before drawing the next, memory is O(d)
    (O(d^2) for full beliefs) whatever the snapshot count. Spherical runs
    also report rho = 1/lambda per row and its running sum; identity
    intervals become degenerate marker rows and do not contribute to the
    sum. Full-covariance rows report the informative-subspace eigenvalues of
    R only (the location has no stable basis to live in): from the logged
    flows where the interval has them, else from the dense precisions.
    """
    cum_rho = 0.0
    prev = prev_prec = None  # full runs: a dense route builds each precision once
    for rnd, cur, logged in fl.replay(snapshots):
        if prev is None:
            prev = cur
            continue
        if prev.variant != cur.variant:
            raise ValueError("snapshots mix belief variants")
        if logged is not None:
            row = _logged_trace_row(rnd, prev.inv_factor, cur.inv_factor, logged)
            prev_prec = None
        elif cur.variant == FULL:
            if prev_prec is None:
                prev_prec = _full_precision(prev)
            cur_prec = _full_precision(cur)
            _, evals, informative = _precision_change(prev_prec, cur_prec)
            row = _eigen_row(rnd, evals, informative)
            prev_prec = cur_prec
        else:
            spherical = cur.variant == SPHERICAL
            pd = extract_pseudo(prev, cur)
            if pd is None:
                row = TraceRow(rnd, None, None, None, cum_rho if spherical else None, True)
            elif spherical:
                lam = float(pd.cov)
                rho = 1.0 / lam
                cum_rho += rho
                row = TraceRow(rnd, pd.x, np.array([lam]), rho, cum_rho, False)
            else:
                row = TraceRow(rnd, pd.x, pd.cov, None, None, False)
            pd = None
        prev = cur
        yield row
        row = None  # the consumer's row is the only one held while the next is computed


def _logged_trace_row(rnd: int, prev_inv: np.ndarray, cur_inv: np.ndarray,
                      logged: list) -> TraceRow:
    """The informative eigenvalues of R for an interval given by its logged
    flows, as the dense route reads them from the precision difference.

    Flow j moves the precision by G_j^T S_j G_j, with G_j = B_j^T W_{j-1}
    and S_j = a2_j^{-T} a2_j^{-1} - I. So Sigma'^{-1} - Sigma^{-1} = H^T D H,
    with H stacking the G_j and D block-diagonal in the S_j, and with
    H^T = Q R its nonzero eigenvalues are those of the r x r matrix R D R^T
    (r = 2 per flow): O(d r^2), against O(d^3) for the dense spectrum. The
    roundoff floor is the dense route's.
    """
    if not logged:
        return TraceRow(rnd, None, None, None, None, True)
    r = np.linalg.qr(np.concatenate([g for g, _ in logged]).T, mode="r")
    blocks = np.zeros((r.shape[1], r.shape[1]))
    for j, (_, a2) in enumerate(logged):
        inv = np.linalg.inv(a2)
        blocks[2 * j:2 * j + 2, 2 * j:2 * j + 2] = inv.T @ inv - np.eye(2)
    small = r @ blocks @ r.T
    evals = np.linalg.eigvalsh(0.5 * (small + small.T))
    floor = _roundoff_floor(prev_inv.shape[0], np.vdot(prev_inv, prev_inv),
                            np.vdot(cur_inv, cur_inv))
    return _eigen_row(rnd, evals, np.abs(evals) > floor)


def _eigen_row(rnd: int, evals: np.ndarray, informative: np.ndarray) -> TraceRow:
    if not informative.any():
        return TraceRow(rnd, None, None, None, None, True)
    return TraceRow(rnd, None, 1.0 / evals[informative], None, None, False)
