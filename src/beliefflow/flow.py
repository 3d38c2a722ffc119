"""KL-minimizing linear flows between Gaussian beliefs.

One online round produces a sampled weight vector w and its gradient-stepped
target w'. The flow is the affine map w -> A w + b that carries w exactly to
w' while moving the belief N(mu, Sigma) to N(A(mu - w) + w', A Sigma A^T) at
minimal KL divergence from the prior belief.

For a full covariance the problem reduces, after whitening, to a 2x2 problem
in the plane spanned by the whitened displacement and its target. Diagonal
and spherical covariances reduce to independent scalar problems with the
positive-root scale

    a = (u v + sqrt(4 + u^2 (4 + v^2))) / (2 (1 + u^2)),

the unique solution of a^2 (1 + u^2) - a u v - 1 = 0 connected to the
identity (a > 0).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .belief import (
    DIAGONAL,
    FULL,
    SPHERICAL,
    BeliefState,
    log_det,
    root,
    whiten,
)

# Whitened displacements below this are treated as degenerate.
EPS_DEGENERATE = 1e-10


class DegenerateTargetError(ValueError):
    """The in-plane target vector vanished; the caller must branch."""


@dataclasses.dataclass(frozen=True)
class FlowSolution:
    """Solved flow in the representation natural to the belief variant.

    full:      whitened orthonormal pair (mu_hat, nu_hat), scalars u, v_par,
               v_perp and the in-plane 2x2 matrix a2. nu_hat is a zero vector
               when the plane degenerates to a line (or when d = 1).
    diagonal:  per-coordinate scales.
    spherical: one scale and the unit target direction d_hat.

    identity marks a bitwise no-op step (w' == w); apply returns the belief
    unchanged in that case.
    """

    variant: str
    identity: bool = False
    mu_hat: np.ndarray | None = None
    nu_hat: np.ndarray | None = None
    u: float | None = None
    v_par: float | None = None
    v_perp: float | None = None
    a2: np.ndarray | None = None
    scales: np.ndarray | None = None
    scale: float | None = None
    d_hat: np.ndarray | None = None
    s_hat: np.ndarray | None = None


def scalar_scale(u, v):
    """Positive-root scale of the 1-D flow problem; broadcasts over arrays.

    v == u means the step landed exactly where it started, so the scale is
    pinned to 1.0 rather than trusting sqrt to cancel.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    raw = (u * v + np.sqrt(4.0 + u * u * (4.0 + v * v))) / (2.0 * (1.0 + u * u))
    return np.where(u == v, 1.0, raw)


def solve_2x2(u: float, v_par: float, v_perp: float,
              delta1: int = 1, delta2: int = 1) -> np.ndarray:
    """In-plane 2x2 flow matrix for whitened offsets (u, 0) -> (v_par, v_perp).

    Requires u > 0 and v_perp >= 0; the target norm must not vanish. The
    returned matrix maps the mu_hat axis onto the target direction and fixes
    the KL-optimal scale along it. delta1 = delta2 = +1 selects the branch
    connected to the identity map, the one every update uses; the other
    sign branches exist to verify the stationarity condition.
    """
    if not u > 0.0:
        raise ValueError("u must be positive; degenerate samples are handled by the caller")
    if v_perp < 0.0:
        raise ValueError("v_perp is a norm and cannot be negative")
    if delta1 not in (-1, 1) or delta2 not in (-1, 1):
        raise ValueError("sign branches must be +1 or -1")
    s2 = v_par * v_par + v_perp * v_perp
    if s2 <= EPS_DEGENERATE * EPS_DEGENERATE:
        raise DegenerateTargetError("target vector vanished in whitened coordinates")
    s = np.sqrt(s2)
    c = (u * s + delta1 * np.sqrt(4.0 + u * u * (4.0 + s2))) / (2.0 * (1.0 + u * u))
    return np.array([
        [c * v_par / s, -delta2 * v_perp / s],
        [c * v_perp / s, delta2 * v_par / s],
    ])


def _complement_unit(mu_hat: np.ndarray) -> np.ndarray:
    """Deterministic unit vector orthogonal to mu_hat (zero vector if d = 1)."""
    d = mu_hat.shape[0]
    if d == 1:
        return np.zeros(1)
    k = int(np.argmin(np.abs(mu_hat)))
    v = np.zeros(d)
    v[k] = 1.0
    v -= (v @ mu_hat) * mu_hat
    return v / np.linalg.norm(v)


def solve_full(belief: BeliefState, w: np.ndarray, w_prime: np.ndarray) -> FlowSolution:
    """Optimal flow for a full-covariance belief.

    Whitens both displacements, solves the in-plane 2x2 problem, and returns
    the pieces needed to embed the plane back into weight space. Degenerate
    geometries fall back to pure translation (u below eps) or to a 1-D scale
    along mu_hat (target colinear with the sample or vanished).
    """
    if belief.variant != FULL:
        raise ValueError("solve_full needs a full belief")
    w = np.asarray(w, dtype=float)
    w_prime = np.asarray(w_prime, dtype=float)
    if np.array_equal(w, w_prime):
        return FlowSolution(FULL, identity=True, a2=np.eye(2))
    # One pass over W whitens both displacements.
    dt, dtp = whiten(belief, np.column_stack([w - belief.mean, w_prime - belief.mean])).T
    u = float(np.linalg.norm(dt))
    if u <= EPS_DEGENERATE:
        # Sampled the mean: nothing to anchor a scale on, translate only.
        d = belief.dim
        return FlowSolution(FULL, mu_hat=np.zeros(d), nu_hat=np.zeros(d),
                            u=u, v_par=0.0, v_perp=0.0, a2=np.eye(2))
    mu_hat = dt / u
    v_par = float(dtp @ mu_hat)
    resid = dtp - v_par * mu_hat
    v_perp = float(np.linalg.norm(resid))
    target_norm = float(np.linalg.norm(dtp))
    if target_norm <= EPS_DEGENERATE:
        # Target collapsed onto the mean: contract along mu_hat.
        a = 1.0 / np.sqrt(1.0 + u * u)
        a2 = np.diag([a, 1.0])
        nu_hat = _complement_unit(mu_hat)
        return FlowSolution(FULL, mu_hat=mu_hat, nu_hat=nu_hat,
                            u=u, v_par=v_par, v_perp=0.0, a2=a2)
    if v_perp <= EPS_DEGENERATE:
        # Colinear geometry: scalar problem along mu_hat with signed v_par.
        a = float(scalar_scale(u, v_par))
        a2 = np.diag([a, 1.0])
        nu_hat = _complement_unit(mu_hat)
        return FlowSolution(FULL, mu_hat=mu_hat, nu_hat=nu_hat,
                            u=u, v_par=v_par, v_perp=0.0, a2=a2)
    nu_hat = resid / v_perp
    a2 = solve_2x2(u, v_par, v_perp)
    return FlowSolution(FULL, mu_hat=mu_hat, nu_hat=nu_hat,
                        u=u, v_par=v_par, v_perp=v_perp, a2=a2)


def solve_diagonal(belief: BeliefState, w: np.ndarray, w_prime: np.ndarray) -> FlowSolution:
    """Per-coordinate optimal scales for a diagonal-covariance belief.

    Coordinates the step never touched (w'_i == w_i) have u_i == v_i, so
    scalar_scale gives them the exact scale 1.0, which keeps sparse online
    updates bit-stable.
    """
    if belief.variant != DIAGONAL:
        raise ValueError("solve_diagonal needs a diagonal belief")
    w = np.asarray(w, dtype=float)
    w_prime = np.asarray(w_prime, dtype=float)
    if np.array_equal(w, w_prime):
        return FlowSolution(DIAGONAL, identity=True, scales=np.ones(belief.dim))
    sig = np.sqrt(belief.variances)
    u = (w - belief.mean) / sig
    v = (w_prime - belief.mean) / sig
    return FlowSolution(DIAGONAL, scales=scalar_scale(u, v))


def solve_spherical(belief: BeliefState, w: np.ndarray, w_prime: np.ndarray) -> FlowSolution:
    """Isotropic flow: rotate the displacement onto the target and scale.

    u and v are the whitened norms of w - mu and w' - mu; the scale follows
    the same positive-root formula as the scalar problem, and the rotation is
    implicit in the stored target direction d_hat.
    """
    if belief.variant != SPHERICAL:
        raise ValueError("solve_spherical needs a spherical belief")
    w = np.asarray(w, dtype=float)
    w_prime = np.asarray(w_prime, dtype=float)
    if np.array_equal(w, w_prime):
        return FlowSolution(SPHERICAL, identity=True, scale=1.0, d_hat=np.zeros(belief.dim))
    sigma = np.sqrt(belief.variance)
    dw = w - belief.mean
    dwp = w_prime - belief.mean
    norm_dw = float(np.linalg.norm(dw))
    norm_dwp = float(np.linalg.norm(dwp))
    u = norm_dw / sigma
    v = norm_dwp / sigma
    s_hat = dw / norm_dw if norm_dw > 0.0 else np.zeros(belief.dim)
    if norm_dwp <= EPS_DEGENERATE * sigma:
        # Target at the mean: contract along the original direction.
        d_hat = dw / norm_dw if norm_dw > EPS_DEGENERATE * sigma else np.zeros(belief.dim)
    else:
        d_hat = dwp / norm_dwp
    a = 1.0 if u == v else float(scalar_scale(u, v))
    return FlowSolution(SPHERICAL, scale=a, d_hat=d_hat, s_hat=s_hat, u=u)


def solve(belief: BeliefState, w: np.ndarray, w_prime: np.ndarray) -> FlowSolution:
    """Dispatch to the solver matching the belief variant."""
    if belief.variant == FULL:
        return solve_full(belief, w, w_prime)
    if belief.variant == DIAGONAL:
        return solve_diagonal(belief, w, w_prime)
    return solve_spherical(belief, w, w_prime)


def clamp_nonexpansive(flow: FlowSolution) -> FlowSolution:
    """Clamp the flow's singular values to at most 1.

    Under a clamped flow the posterior covariance is dominated by the prior
    in the Loewner order, so entropy cannot grow and extracted pseudo
    datapoints carry nonnegative precision. Returns the input unchanged when
    it is already non-expansive.
    """
    if flow.identity:
        return flow
    if flow.variant == DIAGONAL:
        if np.all(flow.scales <= 1.0):
            return flow
        return dataclasses.replace(flow, scales=np.minimum(flow.scales, 1.0))
    if flow.variant == SPHERICAL:
        if flow.scale <= 1.0:
            return flow
        return dataclasses.replace(flow, scale=1.0)
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
    and B = [mu_hat, nu_hat], so the posterior root is L M and its inverse
    M^{-1} W = W + B (a2^{-1} - I) B^T W: two rank-2 updates, O(d^2), and
    log det Sigma grows by 2 log|det a2|.
    """
    if flow.variant != belief.variant:
        raise ValueError(f"flow variant {flow.variant} does not match belief {belief.variant}")
    if flow.identity:
        return belief
    w = np.asarray(w, dtype=float)
    w_prime = np.asarray(w_prime, dtype=float)
    if belief.variant == DIAGONAL:
        # An untouched coordinate has scale 1.0, so its variance stays as it
        # is; its mean needs the mask, since (mu - w) + w' may round off mu.
        mean = np.where(w == w_prime, belief.mean, flow.scales * (belief.mean - w) + w_prime)
        variances = flow.scales * flow.scales * belief.variances
        return BeliefState(DIAGONAL, mean, variances=variances)
    if belief.variant == SPHERICAL:
        norm_dw = float(np.linalg.norm(w - belief.mean))
        mean = w_prime - flow.scale * norm_dw * flow.d_hat
        return BeliefState(SPHERICAL, mean, variance=flow.scale ** 2 * belief.variance)
    basis = np.stack([flow.mu_hat, flow.nu_hat], axis=1)
    a2 = flow.a2
    det = a2[0, 0] * a2[1, 1] - a2[0, 1] * a2[1, 0]
    inner = a2 - np.eye(2)
    inv_inner = np.array([[a2[1, 1], -a2[0, 1]], [-a2[1, 0], a2[0, 0]]]) / det - np.eye(2)
    factor = root(belief)
    lb = factor @ basis
    # W (mu - w) = -u mu_hat, so A (mu - w) = (mu - w) - u L B (a2 - I) e1.
    mean = w_prime + (belief.mean - w) - flow.u * (lb @ inner[:, 0])
    factor = lb @ (inner @ basis.T) + factor
    # The rank-2 product is a fresh array, so W adds to it in place.
    inv_factor = basis @ (inv_inner @ (basis.T @ belief.inv_factor))
    inv_factor += belief.inv_factor
    logdet = log_det(belief) + 2.0 * math.log(abs(det))
    return BeliefState(FULL, mean, factor=factor, inv_factor=inv_factor, logdet=logdet,
                       age=belief.age + 1)


def flow_matrix(belief: BeliefState, flow: FlowSolution) -> np.ndarray:
    """Densify the flow's transformation matrix A. Diagnostic helper for
    verification; no update needs it."""
    d = belief.dim
    if flow.identity:
        return np.eye(d)
    if flow.variant == DIAGONAL:
        return np.diag(flow.scales)
    if flow.variant == SPHERICAL:
        if not np.any(flow.d_hat) or not np.any(flow.s_hat):
            return flow.scale * np.eye(d)
        # Rotation carrying the sampled displacement direction onto d_hat.
        return flow.scale * _rotation_between(flow.s_hat, flow.d_hat)
    basis = np.stack([flow.mu_hat, flow.nu_hat], axis=1)
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
