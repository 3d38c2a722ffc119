"""KL-minimizing linear flows between Gaussian beliefs.

One online round produces a sampled weight vector w and its gradient-stepped
target w'. The flow is the affine map w -> A w + b that carries w exactly to
w' while moving the belief N(mu, Sigma) to N(A(mu - w) + w', A Sigma A^T) at
minimal KL divergence from the prior belief.

For a full covariance the problem reduces, after whitening, to a 2x2 problem
in the plane spanned by the whitened displacement and its target. Diagonal
covariances reduce to independent scalar problems, and spherical ones to
one at u / sqrt(d) and v / sqrt(d) (see :func:`solve_spherical`), with the
positive-root scale

    a = (u v + sqrt(4 + u^2 (4 + v^2))) / (2 (1 + u^2)),

the unique solution of a^2 (1 + u^2) - a u v - 1 = 0 connected to the
identity (a > 0). For u v < 0 it is computed as 2 / (sqrt(...) - u v),
which does not cancel (see :func:`scalar_scale`).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .belief import (
    DIAGONAL,
    FULL,
    SPHERICAL,
    ActiveDiagonal,
    BeliefState,
    OwnedFull,
    log_det,
    root,
    whiten,
)

# Whitened displacements below this are treated as degenerate.
EPS_DEGENERATE = 1e-10
# Bytes of an add_product row block: cache-sized, and under
# glibc's 128 KiB mmap threshold, so each block's product comes from the heap.
_BLOCK_BYTES = 120 * 1024


@dataclasses.dataclass(frozen=True)
class FlowSolution:
    """Solved flow in the representation natural to the belief variant.

    full:      the plane's basis B = [mu_hat, nu_hat], a C-ordered d x 2
               array whose columns are the whitened orthonormal pair, the
               whitened draw's norm u = ||W (w - mu)|| and the in-plane 2x2
               matrix a2. nu_hat is a zero column when the plane degenerates
               to a line (or when d = 1).
    diagonal:  per-coordinate scales.
    spherical: one scale, a float in scales that broadcasts as the diagonal
               array does, the unit target direction d_hat and the draw's
               distance u = ||w - mu|| from the mean, not whitened.

    identity marks a bitwise no-op step (w' == w), which :func:`solve`
    decides; such a flow carries no payload, and apply returns the belief
    unchanged.
    """

    variant: str
    identity: bool = False
    basis: np.ndarray | None = None
    u: float | None = None
    a2: np.ndarray | None = None
    scales: np.ndarray | float | None = None
    d_hat: np.ndarray | None = None


@dataclasses.dataclass(frozen=True)
class FlowLog:
    """A full belief given by the flows applied to the one before it.

    Holds the mean and, in the order applied, the full-variant
    FlowSolutions whose basis and a2 (as applied, after any clamp)
    move the previous W onto this one; see :func:`replay`. Snapshot files
    store such deltas in place of W.
    """

    mean: np.ndarray
    flows: tuple
    variant = FULL

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def scalar_scale(u, v):
    """Positive-root scale of the 1-D flow problem; broadcasts over arrays.

    With D = 4 + u^2 (4 + v^2) and r = sqrt(D) + |u v|, the positive root is
    r / (2 (1 + u^2)) when u v >= 0 and 2 / r otherwise: the same root with
    its numerator rationalized, so a step that overshoots the mean (u v << 0)
    gets a positive scale to full precision instead of the difference of two
    nearly equal numbers. For u v >= 0 it is the textbook formula, operation
    for operation.

    v == u means the step landed exactly where it started, so the scale is
    pinned to 1.0 rather than trusting sqrt to cancel.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    uv = u * v
    r = np.sqrt(4.0 + u * u * (4.0 + v * v)) + np.abs(uv)
    a = np.where(uv < 0.0, 2.0 / r, r / (2.0 * (1.0 + u * u)))
    return np.where(u == v, 1.0, a)


def scale_into(u, v, out, uv, neg, pin) -> np.ndarray:
    """Write the scale of :func:`scalar_scale` into out, in place, with the
    same operations in the same order, for an :class:`ActiveDiagonal` round.

    All arguments are float arrays of one shape, except the bool work
    arrays neg and pin; v is overwritten and uv is work space. Nothing is
    allocated, so a round can run it in arrays it owns.
    """
    np.equal(u, v, out=pin)
    np.multiply(u, v, out=uv)
    np.less(uv, 0.0, out=neg)
    np.abs(uv, out=uv)
    np.multiply(u, u, out=out)
    np.multiply(v, v, out=v)
    v += 4.0
    v *= out
    v += 4.0
    np.sqrt(v, out=v)
    v += uv  # r
    out += 1.0
    out *= 2.0
    np.divide(v, out, out=out)
    np.divide(2.0, v, out=out, where=neg)
    np.copyto(out, 1.0, where=pin)
    return out


def solve_2x2(u: float, v_par: float, v_perp: float) -> np.ndarray:
    """In-plane 2x2 flow matrix for whitened offsets (u, 0) -> (v_par, v_perp).

    Requires u > 0 and v_perp >= 0; the target norm must not vanish. The
    returned matrix maps the mu_hat axis onto the target direction and fixes
    the KL-optimal scale along it. It is the stationary branch connected to
    the identity map, the one every update uses; ``oracles.branch_2x2``
    derives the other three sign branches from it.
    """
    if not u > 0.0:
        raise ValueError("u must be positive; degenerate samples are handled by the caller")
    if v_perp < 0.0:
        raise ValueError("v_perp is a norm and cannot be negative")
    s2 = v_par * v_par + v_perp * v_perp
    if s2 <= EPS_DEGENERATE * EPS_DEGENERATE:
        raise ValueError("target vector vanished in whitened coordinates")
    s = np.sqrt(s2)
    c = (u * s + np.sqrt(4.0 + u * u * (4.0 + s2))) / (2.0 * (1.0 + u * u))
    return np.array([
        [c * v_par / s, -v_perp / s],
        [c * v_perp / s, v_par / s],
    ])


def solve_full(belief: BeliefState, w: np.ndarray, w_prime: np.ndarray) -> FlowSolution:
    """Optimal flow for a full belief, where :func:`solve` ruled out w' == w.

    Whitens both displacements, solves the in-plane 2x2 problem, and returns
    the pieces needed to embed the plane back into weight space. Three cases:
    a draw on the mean (u below eps) translates only; a target on mu_hat's
    line, colinear or collapsed onto the mean, scales along it; else the plane.
    """
    # One pass over W whitens both displacements.
    dt, dtp = whiten(belief, np.column_stack([w - belief.mean, w_prime - belief.mean])).T
    u = float(np.linalg.norm(dt))
    if u <= EPS_DEGENERATE:
        # Sampled the mean: nothing to anchor a scale on, translate only.
        return FlowSolution(FULL, basis=np.zeros((belief.dim, 2)), u=u, a2=np.eye(2))
    mu_hat = dt / u
    v_par = float(dtp @ mu_hat)
    resid = dtp - v_par * mu_hat
    # A second Gram-Schmidt pass: near antiparallel, the first leaves resid
    # off orthogonal to mu_hat by about eps |dtp| / |resid|.
    again = float(resid @ mu_hat)
    resid -= again * mu_hat
    v_par += again
    v_perp = float(np.linalg.norm(resid))
    if v_perp <= EPS_DEGENERATE:
        # The plane is a line: a2 = diag(a, 1) leaves the second axis alone,
        # so nu_hat is zero. The scalar problem with signed v_par covers a
        # colinear target and one collapsed onto the mean (v_par ~ 0) alike.
        a = float(scalar_scale(u, v_par))
        return FlowSolution(FULL, basis=np.stack([mu_hat, np.zeros(belief.dim)], axis=1), u=u,
                            a2=np.diag([a, 1.0]))
    return FlowSolution(FULL, basis=np.stack([mu_hat, resid / v_perp], axis=1), u=u,
                        a2=solve_2x2(u, v_par, v_perp))


def solve_diagonal(belief: BeliefState, w: np.ndarray, w_prime: np.ndarray) -> FlowSolution:
    """Per-coordinate scales for a diagonal belief; :func:`solve` ruled out w' == w.

    Coordinates the step never touched (w'_i == w_i) have u_i == v_i, so
    scalar_scale gives them the exact scale 1.0, which keeps sparse online
    updates bit-stable. An :class:`ActiveDiagonal` is solved in its own
    work arrays, from the draw that :func:`belief.sample` left in it.
    """
    if isinstance(belief, ActiveDiagonal):
        # u is the draw xi that gave w. v = xi + (w' - w) / sigma follows
        # the step as taken, so an untouched coordinate has v == u exactly.
        v = np.subtract(w_prime, w, out=belief.v)
        v /= belief.sigma
        v += belief.xi
        scales = scale_into(belief.xi, v, belief.scales, belief.uv, belief.neg, belief.pin)
        return FlowSolution(DIAGONAL, scales=scales)
    sig = np.sqrt(belief.variances)
    u = (w - belief.mean) / sig
    v = (w_prime - belief.mean) / sig
    return FlowSolution(DIAGONAL, scales=scalar_scale(u, v))


def solve_spherical(belief: BeliefState, w: np.ndarray, w_prime: np.ndarray) -> FlowSolution:
    """Isotropic flow, where :func:`solve` ruled out w' == w: rotate and scale.

    u and v are the whitened norms of w - mu and w' - mu. Once the rotation,
    implicit in the stored target direction d_hat, aligns them, the KL of a
    scale a is 1/2 ((v - a u)^2 + d (a^2 - 2 log a - 1)), least at the
    scalar problem's root at u / sqrt(d) and v / sqrt(d). The flow's u is
    the unwhitened ||w - mu||, by which :func:`apply_flow` moves the mean.
    """
    sigma = np.sqrt(belief.variances)
    dw = w - belief.mean
    dwp = w_prime - belief.mean
    norm_dw = float(np.linalg.norm(dw))
    norm_dwp = float(np.linalg.norm(dwp))
    if norm_dwp <= EPS_DEGENERATE * sigma:
        # Target at the mean: contract along the original direction, which
        # apply_flow needs however short it is, so that A w + b = w'.
        d_hat = dw / norm_dw if norm_dw > 0.0 else np.zeros(belief.dim)
    else:
        d_hat = dwp / norm_dwp
    root_d = sigma * math.sqrt(belief.dim)
    a = float(scalar_scale(norm_dw / root_d, norm_dwp / root_d))
    return FlowSolution(SPHERICAL, u=norm_dw, scales=a, d_hat=d_hat)


_SOLVERS = {FULL: solve_full, DIAGONAL: solve_diagonal, SPHERICAL: solve_spherical}


def solve(belief: BeliefState, w: np.ndarray, w_prime: np.ndarray) -> FlowSolution:
    """The flow of one update w -> w' for the belief. This entry alone
    decides the identity: a flow with no payload when w' == w bit for bit.
    Otherwise it hands w and w' as float arrays to the solver of the
    belief's variant, whose step is then never the identity."""
    w = np.asarray(w, dtype=float)
    w_prime = np.asarray(w_prime, dtype=float)
    if np.array_equal(w, w_prime):
        return FlowSolution(belief.variant, identity=True)
    return _SOLVERS[belief.variant](belief, w, w_prime)


def clamp_nonexpansive(flow: FlowSolution) -> FlowSolution:
    """Clamp the flow's singular values to at most 1.

    Under a clamped flow the posterior covariance is dominated by the prior
    in the Loewner order, so entropy cannot grow and extracted pseudo
    datapoints carry nonnegative precision. Returns the input unchanged when
    it is already non-expansive.
    """
    if flow.identity:
        return flow
    if flow.variant != FULL:
        if np.all(flow.scales <= 1.0):
            return flow
        return dataclasses.replace(flow, scales=np.minimum(flow.scales, 1.0))
    left, sing, right = np.linalg.svd(flow.a2)
    if np.all(sing <= 1.0):
        return flow
    a2 = (left * np.minimum(sing, 1.0)) @ right
    return dataclasses.replace(flow, a2=a2)


def apply_flow(belief: BeliefState, flow: FlowSolution,
               w: np.ndarray, w_prime: np.ndarray) -> BeliefState:
    """Transport the belief along the flow.

    The posterior is N(A (mu - w) + w', A Sigma A^T). The constraint
    A w + b = w' holds exactly by construction of b.

    For full beliefs A = L M W with the whitened flow M = I + B (a2 - I) B^T
    and B = [mu_hat, nu_hat] the flow's basis, so the posterior root is L M
    and its inverse M^{-1} W = W + B (a2^{-1} - I) B^T W: two rank-2
    updates, O(d^2), and log det Sigma grows by 2 log|det a2|. Both go
    through :func:`add_product`: into fresh arrays for a plain BeliefState,
    which stays as it was, and in place for an :class:`belief.OwnedFull`,
    whose L and W the returned belief shares.
    """
    if flow.variant != belief.variant:
        raise ValueError(f"flow variant {flow.variant} does not match belief {belief.variant}")
    if flow.identity:
        return belief
    w = np.asarray(w, dtype=float)
    w_prime = np.asarray(w_prime, dtype=float)
    if isinstance(belief, ActiveDiagonal):
        # sigma' = a sigma and mu' = w' - sigma' u, in place; an untouched
        # coordinate has scale 1.0 and keeps its mean as well.
        belief.sigma *= flow.scales
        moved = np.multiply(belief.sigma, belief.xi, out=belief.v)
        np.not_equal(w, w_prime, out=belief.pin)
        np.subtract(w_prime, moved, out=belief.mean, where=belief.pin)
        return belief
    if belief.variant == DIAGONAL:
        # An untouched coordinate has scale 1.0, so its variance stays as it
        # is; its mean needs the mask, since (mu - w) + w' may round off mu.
        mean = np.where(w == w_prime, belief.mean, flow.scales * (belief.mean - w) + w_prime)
        variances = flow.scales * flow.scales * belief.variances
        return BeliefState(DIAGONAL, mean, variances=variances)
    if belief.variant == SPHERICAL:
        mean = w_prime - flow.scales * flow.u * flow.d_hat
        return BeliefState(SPHERICAL, mean, variances=flow.scales ** 2 * belief.variances)
    basis, a2 = flow.basis, flow.a2
    det = a2[0, 0] * a2[1, 1] - a2[0, 1] * a2[1, 0]
    inner = a2 - np.eye(2)
    factor = root(belief)
    lb = factor @ basis
    # W (mu - w) = -u mu_hat, so A (mu - w) = (mu - w) - u L B (a2 - I) e1.
    mean = w_prime + (belief.mean - w) - flow.u * (lb @ inner[:, 0])
    logdet = log_det(belief) + 2.0 * math.log(abs(det))
    owned = isinstance(belief, OwnedFull)
    factor = add_product(factor, lb, inner @ basis.T, owned)
    inv_factor, _ = transport_inverse(belief.inv_factor, flow, owned)
    return dataclasses.replace(belief, mean=mean, factor=factor, inv_factor=inv_factor,
                               logdet=logdet, age=belief.age + 1)


def add_product(src: np.ndarray, left: np.ndarray, right: np.ndarray,
                in_place: bool = False) -> np.ndarray:
    """src + left @ right, the one rank-k update of a factor, into a fresh
    C-ordered array or in place into src. It goes one block of rows at a
    time, so src is read once and the result written once. No block holds
    one row unless src does: a one-row product takes another BLAS routine,
    with other rounding.
    """
    out = src if in_place else np.empty(src.shape)
    n, start = src.shape[0], 0
    step = max(2, _BLOCK_BYTES // (src.itemsize * src.shape[1]))
    while start < n:
        stop = n if n - start <= step + 1 else start + step
        np.add(src[start:stop], left[start:stop] @ right, out=out[start:stop])
        start = stop
    return out


def transport_inverse(inv_factor: np.ndarray, flow: FlowSolution,
                      in_place: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """W' = W + B (a2^{-1} - I) G for a full flow, with B its basis and
    G = B^T W; returns (W', G). In place, W is moved where it is (see
    :func:`add_product`).

    This is the whole of a full flow's effect on W, and both
    :func:`apply_flow` and :func:`replay` call it, so a W replayed from
    logged flows has the learner's bytes. G is what a trace row needs: the
    precision W^T W moves by G^T (a2^{-T} a2^{-1} - I) G.
    """
    basis, a2 = flow.basis, flow.a2
    det = a2[0, 0] * a2[1, 1] - a2[0, 1] * a2[1, 0]
    inv_inner = np.array([[a2[1, 1], -a2[0, 1]], [-a2[1, 0], a2[0, 0]]]) / det - np.eye(2)
    g = basis.T @ inv_factor
    return add_product(inv_factor, basis, inv_inner @ g, in_place), g


def flow_matrix(belief: BeliefState, flow: FlowSolution, w: np.ndarray) -> np.ndarray:
    """Densify the transformation matrix A of the flow that :func:`solve`
    gave for the draw w. Diagnostic helper for verification; no update
    needs it. Only a spherical flow reads w: its rotation carries the
    direction of w - mu onto d_hat."""
    d = belief.dim
    if flow.identity:
        return np.eye(d)
    if flow.variant == DIAGONAL:
        return np.diag(flow.scales)
    if flow.variant == SPHERICAL:
        if flow.u == 0.0:  # no direction to rotate from; d_hat is zero only here
            return flow.scales * np.eye(d)
        dw = np.asarray(w, dtype=float) - belief.mean
        return flow.scales * _rotation_between(dw / flow.u, flow.d_hat)
    basis = flow.basis
    return np.eye(d) + (root(belief) @ basis) @ (flow.a2 - np.eye(2)) @ (basis.T @ belief.inv_factor)


def _rotation_between(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rotation taking unit x to unit y, identity on their complement."""
    d = x.shape[0]
    c = float(x @ y)
    resid = y - c * x
    s = float(np.linalg.norm(resid))
    if s < 1e-14:
        if c > 0.0:
            return np.eye(d)
        if d == 1:
            # No plane to rotate in; fall back to the reflection.
            return -np.eye(1)
        k = int(np.argmin(np.abs(x)))
        q = np.zeros(d)
        q[k] = 1.0
        q -= (q @ x) * x
        q /= np.linalg.norm(q)
        return np.eye(d) - 2.0 * np.outer(x, x) - 2.0 * np.outer(q, q)
    y_hat = resid / s
    rot = np.eye(d)
    rot += (c - 1.0) * (np.outer(x, x) + np.outer(y_hat, y_hat))
    rot += s * (np.outer(y_hat, x) - np.outer(x, y_hat))
    return rot


def replay(snapshots):
    """Yield (round, belief, logged) for an iterable of snapshot records,
    one record at a time, as ``harness.iter_snapshots`` yields them.

    A :class:`FlowLog` becomes a full belief whose W is the previous one's
    moved by each logged flow through :func:`transport_inverse`, as the
    learner moved it, so the bytes are the learner's. Its logged are the
    (G, a2) pair of each flow, G = B^T W before that flow; a BeliefState
    comes through as it is, with logged None. Each replayed W is an array
    of its own, which the record's first flow writes and any later flow
    moves in place; a record is drawn only when the one before it has been
    yielded.
    """
    inv_factor = None
    for rnd, record in snapshots:
        if not isinstance(record, FlowLog):
            inv_factor = record.inv_factor
            yield rnd, record, None
            continue
        logged = []
        for j, flow in enumerate(record.flows):
            # The first flow writes a fresh W, so the one yielded before stays as it was.
            inv_factor, g = transport_inverse(inv_factor, flow, in_place=j > 0)
            logged.append((g, flow.a2))
        yield rnd, BeliefState(FULL, record.mean, inv_factor=inv_factor), logged
