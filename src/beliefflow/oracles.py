"""Independent numerical checks for the flow math.

Everything here but :func:`branch_2x2` avoids the closed-form solver paths:
KL values come from dense matrix algebra or quadrature, and optimal
transformations come from generic numerical minimization. The test suite
and the ``verify`` command compare the production code against these routes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize

from . import flow as fl


def gaussian_kl_dense(mu_post, cov_post, mu_prior, cov_prior) -> float:
    """KL(N(mu_post, cov_post) || N(mu_prior, cov_prior)) via dense algebra."""
    mu_post = np.asarray(mu_post, dtype=float)
    mu_prior = np.asarray(mu_prior, dtype=float)
    cov_post = np.atleast_2d(np.asarray(cov_post, dtype=float))
    cov_prior = np.atleast_2d(np.asarray(cov_prior, dtype=float))
    d = mu_prior.shape[0]
    dm = mu_post - mu_prior
    solved = np.linalg.solve(cov_prior, np.column_stack([cov_post, dm]))
    trace = float(np.trace(solved[:, :d]))
    quad = float(dm @ solved[:, d])
    sign_post, logdet_post = np.linalg.slogdet(cov_post)
    sign_prior, logdet_prior = np.linalg.slogdet(cov_prior)
    if sign_post <= 0 or sign_prior <= 0:
        raise ValueError("covariances must be positive definite")
    return 0.5 * (quad + trace - (logdet_post - logdet_prior) - d)


def gaussian_kl_quad_1d(mu_post, var_post, mu_prior, var_prior) -> float:
    """1-D KL by adaptive quadrature of p' log(p'/p). Slow, reference only."""

    def integrand(x):
        lp_post = -0.5 * (x - mu_post) ** 2 / var_post - 0.5 * math.log(2 * math.pi * var_post)
        lp_prior = -0.5 * (x - mu_prior) ** 2 / var_prior - 0.5 * math.log(2 * math.pi * var_prior)
        return math.exp(lp_post) * (lp_post - lp_prior)

    val, _ = integrate.quad(integrand, -np.inf, np.inf, limit=200)
    return val


def scalar_flow_objective(a: float, u: float, v: float) -> float:
    """KL cost of scaling a unit-variance 1-D belief by a > 0.

    With the sampled point at whitened offset u and its target at v, the
    posterior is N(v - a u, a^2) relative to a N(0, 1) prior.
    """
    return 0.5 * (v - a * u) ** 2 + 0.5 * a * a - math.log(a) - 0.5


def minimize_scalar_flow(u: float, v: float) -> tuple[float, float]:
    """Numerically minimize the 1-D flow cost over a > 0.

    Works on log(a) so the search space is unconstrained. Returns (a, kl).
    The positive axis is the component of scale maps connected to the
    identity; negative scales are reflections and are out of scope here.
    """
    res = optimize.minimize_scalar(
        lambda t: scalar_flow_objective(math.exp(t), u, v),
        bounds=(-25.0, 25.0),
        method="bounded",
        options={"xatol": 1e-14},
    )
    a = math.exp(res.x)
    return a, scalar_flow_objective(a, u, v)


def minimize_matrix_flow(mean, cov, w, w_prime, n_starts: int = 4, seed: int = 0):
    """Numerically minimize KL(A Sigma A^T-posterior || prior) over A.

    The constraint w' = A w + b fixes b = w' - A w, leaving the d x d matrix
    free. BFGS with the analytic gradient is run from the identity and a few
    perturbed starts; the barrier at det(A) = 0 keeps iterates inside the
    identity-connected component. Returns (kl, A).
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    w = np.asarray(w, dtype=float)
    w_prime = np.asarray(w_prime, dtype=float)
    d = mean.shape[0]
    prec = np.linalg.inv(cov)
    delta = w - mean
    delta_p = w_prime - mean

    def objective(avec):
        a = avec.reshape(d, d)
        sign, logdet = np.linalg.slogdet(a)
        if sign <= 0:
            return np.inf, np.zeros(d * d)
        r = delta_p - a @ delta
        pa = prec @ a
        # tr(P A Sigma A^T) computed entrywise as sum((P A Sigma) * A).
        val = 0.5 * float(r @ prec @ r) + 0.5 * float(np.sum((pa @ cov) * a)) - logdet - 0.5 * d
        grad = -np.outer(prec @ r, delta) + pa @ cov - np.linalg.inv(a).T
        return val, grad.ravel()

    rng = np.random.default_rng(seed)
    starts = [np.eye(d)]
    for _ in range(n_starts - 1):
        starts.append(np.eye(d) + 0.2 * rng.standard_normal((d, d)))
    best_val, best_a = np.inf, None
    for start in starts:
        res = optimize.minimize(
            objective, start.ravel(), jac=True, method="BFGS",
            options={"gtol": 1e-12, "maxiter": 500},
        )
        if np.isfinite(res.fun) and res.fun < best_val:
            best_val, best_a = float(res.fun), res.x.reshape(d, d)
    if best_a is None:
        raise RuntimeError("matrix flow minimization failed from every start")
    return best_val, best_a


def plane_optimality_residual(u: float, v_par: float, v_perp: float, a2: np.ndarray) -> float:
    """Max-abs residual of the stationarity condition for the in-plane 2x2 map.

    A stationary A2 satisfies A2 diag(1+u^2, 1) A2^T - [[v_par u, 0],
    [v_perp u, 0]] A2^T = I. All four sign branches satisfy it.
    """
    a2 = np.asarray(a2, dtype=float)
    lhs = a2 @ np.diag([1.0 + u * u, 1.0]) @ a2.T
    lhs -= np.array([[v_par * u, 0.0], [v_perp * u, 0.0]]) @ a2.T
    return float(np.max(np.abs(lhs - np.eye(2))))


def branch_2x2(u: float, v_par: float, v_perp: float, delta1: int, delta2: int) -> np.ndarray:
    """Sign branch (delta1, delta2) = (+-1, +-1) of the stationary in-plane
    map, derived from ``flow.solve_2x2``'s (+1, +1). Its first column's norm
    c is a root of c^2 (1 + u^2) - c u s - 1 = 0 (s the target norm): delta1
    = -1 takes the other root, -1/((1 + u^2) c); delta2 = -1 negates column 2."""
    a2 = fl.solve_2x2(u, v_par, v_perp)
    a2[:, 0] *= 1.0 if delta1 == 1 else -1.0 / ((1.0 + u * u) * float(a2[:, 0] @ a2[:, 0]))
    a2[:, 1] *= delta2
    return a2
