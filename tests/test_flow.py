"""Flow solver: closed forms vs oracles, frozen examples, degenerate branches."""

import dataclasses
import decimal
import math
import tracemalloc

import numpy as np
import pytest

from beliefflow import belief as bel
from beliefflow import flow as fl
from beliefflow import oracles as orc

# Frozen 1-D scales, verified against the bounded scalar minimizer.
A_U1_V2 = 1.3660254037844386   # (uv + sqrt(4 + u^2(4 + v^2))) / (2(1+u^2)) at (1,2)
A_U1_V0 = 0.7071067811865476   # 1/sqrt(2) at (1,0)

# Frozen in-plane solution at u=1, v_par=1, v_perp=1, deltas (+1,+1),
# verified against the constrained 2x2 minimizer.
A2_SYMMETRIC_CASE = np.array([[0.8090169943749475, -0.7071067811865476],
                              [0.8090169943749475, 0.7071067811865476]])

# Frozen full d=2 posterior for Sigma=I, mu=0, w=(1,0), w'=(1,1).
FULL_D2_COV = np.array([[1.1545084971874737, 0.15450849718747373],
                        [0.15450849718747373, 1.1545084971874737]])
FULL_D2_MEAN = np.array([0.19098300562505255, 0.19098300562505255])


def random_belief(variant, d, rng):
    mean = rng.normal(size=d)
    if variant == bel.FULL:
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        return bel.full_belief(mean, q, rng.uniform(0.2, 3.0, size=d) ** 2)
    if variant == bel.DIAGONAL:
        return bel.diagonal_belief(mean, rng.uniform(0.2, 3.0, size=d))
    return bel.spherical_belief(mean, float(rng.uniform(0.2, 3.0)))


def constraint_residual(prior, post, flow, w, w_prime):
    if flow.identity:
        return float(np.linalg.norm(w - w_prime))
    a = fl.flow_matrix(prior, flow, w)
    b = post.mean - a @ prior.mean
    return float(np.linalg.norm(a @ w + b - w_prime))


# ---------------------------------------------------------------------------
# scalar scale


def test_scalar_scale_frozen_values():
    np.testing.assert_allclose(fl.scalar_scale(1.0, 2.0), A_U1_V2, atol=1e-6)
    np.testing.assert_allclose(fl.scalar_scale(1.0, 0.0), A_U1_V0, atol=1e-6)


def test_scalar_scale_is_exactly_one_when_sample_hits_target():
    for u in (0.1, 1.0, 3.7):
        assert fl.scalar_scale(u, u) == 1.0


def test_scalar_scale_solves_its_quadratic():
    rng = np.random.default_rng(3)
    u = rng.uniform(0.05, 4.0, size=200)
    v = rng.normal(scale=2.0, size=200)
    a = fl.scalar_scale(u, v)
    resid = a * a * (1.0 + u * u) - a * u * v - 1.0
    np.testing.assert_allclose(resid, 0.0, atol=1e-12)
    assert np.all(a > 0.0)


def test_scalar_scale_matches_scalar_minimizer():
    rng = np.random.default_rng(7)
    for _ in range(100):
        u = float(rng.uniform(0.05, 3.0))
        v = float(rng.normal(scale=2.0))
        a_star, _ = orc.minimize_scalar_flow(u, v)
        np.testing.assert_allclose(fl.scalar_scale(u, v), a_star, rtol=1e-6, atol=1e-8)


def test_scalar_scale_objective_is_optimal():
    # the closed form never loses to nearby scales
    rng = np.random.default_rng(9)
    for _ in range(50):
        u = float(rng.uniform(0.05, 3.0))
        v = float(rng.normal(scale=2.0))
        a = float(fl.scalar_scale(u, v))
        base = orc.scalar_flow_objective(a, u, v)
        for bump in (0.9, 0.99, 1.01, 1.1):
            assert base <= orc.scalar_flow_objective(a * bump, u, v) + 1e-12


def decimal_scale(u: float, v: float) -> decimal.Decimal:
    """The positive root of a^2 (1 + u^2) - a u v - 1 = 0, to 60 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        u, v = decimal.Decimal(u), decimal.Decimal(v)
        return (u * v + (4 + u * u * (4 + v * v)).sqrt()) / (2 * (1 + u * u))


def ulps_from(a: float, ref: decimal.Decimal) -> float:
    return float(abs(decimal.Decimal(a) - ref) / decimal.Decimal(math.ulp(float(ref))))


@pytest.mark.parametrize("u, v", [(1.0, -1e4), (1.0, -1e6), (1.0, -1e8), (2.0, -1e9),
                                  (1e-8, -1e10), (1e8, -1e10), (3.0, -2.0), (0.5, 1e9),
                                  (1.0, 2.0), (1e8, 1e-8)])
def test_scalar_scale_is_accurate_when_the_step_overshoots(u, v):
    # (u v + sqrt(D)) / (2 (1 + u^2)) cancels for u v << 0: at the parent it
    # was 12 % off at (1, -1e8) and 0 at (2, -1e9)
    for sign in (1.0, -1.0):  # the root depends on u and v through u^2 and u v
        a = float(fl.scalar_scale(sign * u, sign * v))
        assert ulps_from(a, decimal_scale(u, v)) <= 4.0


def test_scale_into_has_the_bytes_of_scalar_scale():
    # the in-place kernel of an ActiveDiagonal round runs the same
    # operations in the same order as scalar_scale
    rng = np.random.default_rng(29)
    u = np.concatenate([[1.0, 1.0, 2.0, 1e-8, 1e8, 0.0, -0.0, 3.0],
                        rng.normal(size=200) * 10.0 ** rng.uniform(-8, 8, size=200)])
    v = np.concatenate([[-1e8, 1.0, -1e9, -1e10, 1e-8, 0.0, 2.0, -3.0],
                        rng.normal(size=200) * 10.0 ** rng.uniform(-8, 10, size=200)])
    v[-20:] = u[-20:]
    want = fl.scalar_scale(u, v)
    out, uv = np.empty(u.size), np.empty(u.size)
    neg, pin = np.empty(u.size, dtype=bool), np.empty(u.size, dtype=bool)
    got = fl.scale_into(u, v.copy(), out, uv, neg, pin)
    assert got is out
    assert got.tobytes() == want.tobytes()


def test_overshooting_step_on_a_one_dimensional_full_belief():
    # w = 0.1 -> w' = -2e7 at sigma = 0.1: the scale used to be 0, so
    # apply_flow divided by det a2 = 0 and raised a math domain error
    prior = bel.full_belief(np.zeros(1), np.eye(1), np.array([0.01]))
    w, w_prime = np.array([0.1]), np.array([-2e7])
    flow = fl.solve(prior, w, w_prime)
    a = flow.a2[0, 0]
    assert ulps_from(a, decimal_scale(1.0, -2e8)) <= 4.0
    post = fl.apply_flow(prior, flow, w, w_prime)
    # L' = L + L B (a2 - I) B^T carries a - 1, so L' keeps ~1e-16 / a of its
    # relative precision; the scale itself is exact to a few ulp
    np.testing.assert_allclose(bel.covariance(post), [[0.01 * a * a]], rtol=1e-6)
    np.testing.assert_allclose(post.mean, w_prime - a * w, rtol=1e-15)
    assert math.isfinite(bel.log_det(post))
    # a diagonal belief gets the same scale, not 0
    diag = bel.diagonal_belief(np.zeros(1), np.array([0.01]))
    assert fl.solve(diag, w, w_prime).scales[0] == a


# ---------------------------------------------------------------------------
# in-plane 2x2 solver


def test_solve_2x2_frozen_matrix():
    a2 = fl.solve_2x2(1.0, 1.0, 1.0)
    np.testing.assert_allclose(a2, A2_SYMMETRIC_CASE, atol=1e-5)


def test_solve_2x2_stationarity_all_branches():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(200):
        u = float(rng.uniform(0.05, 3.0))
        v_par = float(rng.normal(scale=1.5))
        v_perp = float(rng.uniform(0.05, 3.0))
        for d1 in (1, -1):
            for d2 in (1, -1):
                a2 = orc.branch_2x2(u, v_par, v_perp, d1, d2)
                worst = max(worst, orc.plane_optimality_residual(u, v_par, v_perp, a2))
    assert worst <= 1e-8


def test_solve_2x2_delta_branches_tie_or_lose():
    # delta2 flips leave the KL unchanged; delta1=-1 never beats delta1=+1
    rng = np.random.default_rng(17)
    for _ in range(100):
        u = float(rng.uniform(0.05, 3.0))
        v_par = float(rng.normal(scale=1.5))
        v_perp = float(rng.uniform(0.05, 3.0))
        kls = {}
        for d1 in (1, -1):
            for d2 in (1, -1):
                a2 = orc.branch_2x2(u, v_par, v_perp, d1, d2)
                cov = a2 @ a2.T
                sign, logdet = np.linalg.slogdet(cov)
                assert sign > 0
                mean_term = a2 @ np.array([u, 0.0]) - np.array([v_par, v_perp])
                kls[d1, d2] = 0.5 * float(mean_term @ mean_term) \
                    + 0.5 * float(np.trace(cov)) - 0.5 * float(logdet) - 1.0
        np.testing.assert_allclose(kls[1, 1], kls[1, -1], rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(kls[-1, 1], kls[-1, -1], rtol=1e-10, atol=1e-12)
        assert kls[1, 1] <= kls[-1, 1] + 1e-10


def test_solve_2x2_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fl.solve_2x2(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        fl.solve_2x2(1.0, 1.0, -1.0)
    with pytest.raises(fl.DegenerateTargetError):
        fl.solve_2x2(1.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# full variant


def test_full_d2_frozen_example():
    prior = bel.full_belief(np.zeros(2), np.eye(2), np.ones(2))
    w = np.array([1.0, 0.0])
    w_prime = np.array([1.0, 1.0])
    flow = fl.solve_full(prior, w, w_prime)
    a = fl.flow_matrix(prior, flow, w)
    np.testing.assert_allclose(a, A2_SYMMETRIC_CASE, atol=1e-4)
    post = fl.apply_flow(prior, flow, w, w_prime)
    np.testing.assert_allclose(bel.covariance(post), FULL_D2_COV, atol=1e-5)
    np.testing.assert_allclose(post.mean, FULL_D2_MEAN, atol=1e-5)
    # the transported sample direction lines up with the target direction
    img = a @ (w - prior.mean)
    cross = img[0] * (w_prime - prior.mean)[1] - img[1] * (w_prime - prior.mean)[0]
    assert abs(cross) <= 1e-9
    assert img @ (w_prime - prior.mean) > 0


def test_full_matches_matrix_minimizer():
    rng = np.random.default_rng(19)
    for d in (2, 3):
        for _ in range(25):
            prior = random_belief(bel.FULL, d, rng)
            w = bel.sample(prior, rng)
            w_prime = w + rng.normal(scale=0.5, size=d)
            flow = fl.solve_full(prior, w, w_prime)
            post = fl.apply_flow(prior, flow, w, w_prime)
            kl = bel.kl_divergence(post, prior)
            kl_oracle, _ = orc.minimize_matrix_flow(prior.mean, bel.covariance(prior),
                                                    w, w_prime,
                                                    seed=int(rng.integers(2 ** 31)))
            assert kl <= kl_oracle + 1e-5


def dense_reference_step(mean, cov, w, w_prime):
    """One flow round on a dense covariance: eigen-root whitening, the
    in-plane 2x2 solve, then A (mu - w) + w' and A Sigma A^T."""
    evals, evecs = np.linalg.eigh(cov)
    sqrt_root = evecs * np.sqrt(evals)
    inv_root = (evecs / np.sqrt(evals)).T
    dt, dtp = inv_root @ (w - mean), inv_root @ (w_prime - mean)
    u = np.linalg.norm(dt)
    mu_hat = dt / u
    v_par = dtp @ mu_hat
    resid = dtp - v_par * mu_hat
    v_perp = np.linalg.norm(resid)
    basis = np.stack([mu_hat, resid / v_perp], axis=1)
    a2 = fl.solve_2x2(u, v_par, v_perp)
    a = sqrt_root @ (np.eye(mean.shape[0]) + basis @ (a2 - np.eye(2)) @ basis.T) @ inv_root
    return a @ (mean - w) + w_prime, a @ cov @ a.T


@pytest.mark.parametrize("d", [2, 5, 30])
def test_full_chain_matches_dense_reference(d):
    # the square-root pair is a different root than the eigen root the
    # reference whitens with; the KL-minimal posterior must not care
    rng = np.random.default_rng(100 + d)
    state = random_belief(bel.FULL, d, rng)
    mean, cov = state.mean, bel.covariance(state)
    for _ in range(25):
        w = bel.sample(state, rng)
        w_prime = w + rng.normal(scale=0.3, size=d)
        flow = fl.solve(state, w, w_prime)
        state = bel.correct_spectrum(fl.apply_flow(state, flow, w, w_prime), bel.LAMBDA_MIN)
        mean, cov = dense_reference_step(mean, cov, w, w_prime)
        assert np.linalg.norm(state.mean - mean) <= 1e-10 * np.linalg.norm(mean)
        assert np.linalg.norm(bel.covariance(state) - cov) <= 1e-10 * np.linalg.norm(cov)
    np.testing.assert_allclose(state.logdet, np.linalg.slogdet(cov)[1], rtol=1e-10)


def test_full_d1_matches_scalar_minimizer():
    rng = np.random.default_rng(23)
    for _ in range(50):
        prior = random_belief(bel.FULL, 1, rng)
        w = bel.sample(prior, rng)
        w_prime = w + rng.normal(scale=0.5, size=1)
        flow = fl.solve_full(prior, w, w_prime)
        post = fl.apply_flow(prior, flow, w, w_prime)
        sig = math.sqrt(bel.covariance(prior)[0, 0])
        u = ((w - prior.mean) / sig).item()
        v = ((w_prime - prior.mean) / sig).item()
        _, kl_oracle = orc.minimize_scalar_flow(u, v)
        assert bel.kl_divergence(post, prior) <= kl_oracle + 1e-7


def test_constraint_exactness_across_variants():
    rng = np.random.default_rng(29)
    for variant in (bel.FULL, bel.DIAGONAL, bel.SPHERICAL):
        for d in (1, 2, 5, 20):
            for _ in range(20):
                prior = random_belief(variant, d, rng)
                w = bel.sample(prior, rng)
                w_prime = w + rng.normal(scale=0.5, size=d)
                flow = fl.solve(prior, w, w_prime)
                post = fl.apply_flow(prior, flow, w, w_prime)
                resid = constraint_residual(prior, post, flow, w, w_prime)
                assert resid <= 1e-9 * (1.0 + float(np.linalg.norm(w_prime)))


# ---------------------------------------------------------------------------
# degenerate branches


def test_identity_when_target_equals_sample():
    rng = np.random.default_rng(31)
    for variant in (bel.FULL, bel.DIAGONAL, bel.SPHERICAL):
        prior = random_belief(variant, 3, rng)
        w = bel.sample(prior, rng)
        flow = fl.solve(prior, w, w.copy())
        assert flow.identity
        post = fl.apply_flow(prior, flow, w, w.copy())
        np.testing.assert_array_equal(post.mean, prior.mean)
        np.testing.assert_allclose(bel.covariance(post), bel.covariance(prior), rtol=0)


def test_solve_alone_decides_the_identity_and_its_flow_carries_no_payload():
    rng = np.random.default_rng(37)
    for variant in bel.VARIANTS:
        prior = random_belief(variant, 3, rng)
        w = bel.sample(prior, rng)
        flow = fl.solve(prior, w, w.copy())
        assert flow == fl.FlowSolution(variant, identity=True)
        assert fl.clamp_nonexpansive(flow) is flow
        assert fl.apply_flow(prior, flow, w, w.copy()) is prior
        assert np.array_equal(fl.flow_matrix(prior, flow, w), np.eye(3))


def test_translation_when_sample_is_at_the_mean():
    prior = bel.full_belief(np.array([1.0, 2.0]), np.eye(2), np.array([1.0, 4.0]))
    w = prior.mean.copy()
    w_prime = w + np.array([0.3, -0.2])
    flow = fl.solve_full(prior, w, w_prime)
    post = fl.apply_flow(prior, flow, w, w_prime)
    np.testing.assert_allclose(post.mean, prior.mean + (w_prime - w), rtol=1e-12)
    np.testing.assert_allclose(bel.covariance(post), bel.covariance(prior), rtol=1e-12)


def test_collapse_toward_mean_when_target_is_the_mean():
    # target at the prior mean: pure contraction a = 1/sqrt(1+u^2)
    prior = bel.full_belief(np.zeros(2), np.eye(2), np.ones(2))
    w = np.array([1.0, 0.0])  # u = 1
    flow = fl.solve_full(prior, w, np.zeros(2))
    post = fl.apply_flow(prior, flow, w, np.zeros(2))
    evals = np.linalg.eigvalsh(bel.covariance(post))
    np.testing.assert_allclose(evals, [0.5, 1.0], atol=1e-9)
    # matches the 1-D spot case u=1, v=0: mu' = -1/sqrt(2)
    np.testing.assert_allclose(post.mean, [-1.0 / math.sqrt(2.0), 0.0], atol=1e-9)


def test_colinear_target_reduces_to_scalar_branch():
    prior = bel.full_belief(np.zeros(2), np.eye(2), np.ones(2))
    w = np.array([1.0, 0.0])
    w_prime = np.array([2.0, 0.0])  # v_par = 2, v_perp = 0
    flow = fl.solve_full(prior, w, w_prime)
    post = fl.apply_flow(prior, flow, w, w_prime)
    evals = np.linalg.eigvalsh(bel.covariance(post))
    np.testing.assert_allclose(evals, [1.0, A_U1_V2 ** 2], atol=1e-9)
    np.testing.assert_allclose(post.mean, [2.0 - A_U1_V2, 0.0], atol=1e-9)


def complement_unit(mu_hat):
    """A unit vector orthogonal to mu_hat (zero if d = 1): another valid
    second axis for a plane that degenerated to a line."""
    d = mu_hat.shape[0]
    if d == 1:
        return np.zeros(1)
    k = int(np.argmin(np.abs(mu_hat)))
    v = np.zeros(d)
    v[k] = 1.0
    v -= (v @ mu_hat) * mu_hat
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("non_expansive", [False, True])
def test_degenerate_plane_needs_no_second_axis(non_expansive):
    # a2 = diag(a, 1) leaves the second axis alone, so the solver's zero
    # nu_hat and a unit complement give the same posterior to the byte
    rng = np.random.default_rng(67)
    for case in range(400):
        d = int(rng.integers(1, 31))
        prior = random_belief(bel.FULL, d, rng)
        w = bel.sample(prior, rng)
        if case % 2:
            w_prime = prior.mean.copy()  # target collapsed onto the mean
        else:
            w_prime = prior.mean + rng.uniform(-3.0, 3.0) * (w - prior.mean)  # colinear
        flow = fl.solve_full(prior, w, w_prime)
        assert not np.any(flow.basis[:, 1])
        if non_expansive:
            flow = fl.clamp_nonexpansive(flow)
        mu_hat = flow.basis[:, 0]
        ref = dataclasses.replace(flow, basis=np.stack([mu_hat, complement_unit(mu_hat)], axis=1))
        post = fl.apply_flow(prior, flow, w, w_prime)
        want = fl.apply_flow(prior, ref, w, w_prime)
        for field in ("mean", "factor", "inv_factor"):
            assert getattr(post, field).tobytes() == getattr(want, field).tobytes(), field
        assert post.logdet == want.logdet
        assert fl.flow_matrix(prior, flow, w).tobytes() == fl.flow_matrix(prior, ref, w).tobytes()


# ---------------------------------------------------------------------------
# diagonal and spherical variants


def test_diagonal_matches_per_coordinate_scalar():
    rng = np.random.default_rng(37)
    prior = bel.diagonal_belief(rng.normal(size=4), rng.uniform(0.2, 3.0, size=4))
    w = bel.sample(prior, rng)
    w_prime = w + rng.normal(size=4)
    flow = fl.solve_diagonal(prior, w, w_prime)
    sig = np.sqrt(prior.variances)
    u = (w - prior.mean) / sig
    v = (w_prime - prior.mean) / sig
    np.testing.assert_allclose(flow.scales, fl.scalar_scale(np.abs(u), np.sign(u) * v),
                               rtol=1e-12)


def test_diagonal_untouched_coordinates_stay_bit_identical():
    prior = bel.diagonal_belief(np.array([0.5, -1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
    w = np.array([1.0, 0.25, -0.75])
    w_prime = w.copy()
    w_prime[1] = 0.8  # only coordinate 1 moves
    flow = fl.solve_diagonal(prior, w, w_prime)
    post = fl.apply_flow(prior, flow, w, w_prime)
    assert post.mean[0] == prior.mean[0]
    assert post.mean[2] == prior.mean[2]
    assert post.variances[0] == prior.variances[0]
    assert post.variances[2] == prior.variances[2]
    assert flow.scales[0] == 1.0 and flow.scales[2] == 1.0
    assert post.variances[1] != prior.variances[1]
    # random sparse steps, signed zeros and means far from w included: every
    # untouched coordinate keeps its exact bytes, clamped or not
    rng = np.random.default_rng(41)
    for _ in range(200):
        d = 12
        mean = rng.normal(size=d) * 10.0 ** rng.integers(-3, 18, size=d)
        mean[rng.random(d) < 0.2] = -0.0
        prior = bel.diagonal_belief(mean, 10.0 ** rng.uniform(-8, 8, size=d))
        w = bel.sample(prior, rng)
        w[rng.random(d) < 0.2] = rng.choice([0.0, -0.0])
        w_prime = w.copy()
        moved = rng.random(d) < 0.4
        w_prime[moved] += rng.normal(size=int(moved.sum()))
        w_prime[~moved & (w == 0.0)] = 0.0  # a zero whose sign flips has not moved
        untouched = w == w_prime
        flow = fl.solve_diagonal(prior, w, w_prime)
        for f in (flow, fl.clamp_nonexpansive(flow)):
            post = fl.apply_flow(prior, f, w, w_prime)
            assert f.scales[untouched].tobytes() == np.ones(int(untouched.sum())).tobytes()
            assert post.mean[untouched].tobytes() == prior.mean[untouched].tobytes()
            assert post.variances[untouched].tobytes() == prior.variances[untouched].tobytes()


def test_active_diagonal_untouched_coordinates_stay_bit_identical():
    # the sigma-carry round: a coordinate the step did not move has scale
    # 1.0 and keeps its mean, and store writes its variance back as it was
    rng = np.random.default_rng(43)
    for _ in range(100):
        d = 12
        mean = rng.normal(size=d) * 10.0 ** rng.integers(-3, 6, size=d)
        stored = bel.diagonal_belief(mean, 10.0 ** rng.uniform(-8, 4, size=d))
        before = bel.snapshot(stored)
        idx = np.flatnonzero(rng.random(d) < 0.7)
        active = bel.ActiveDiagonal().load(stored, idx)
        w = bel.sample(active, rng)
        w_prime = w.copy()
        moved = rng.random(idx.size) < 0.5
        w_prime[moved] += rng.normal(size=int(moved.sum())) * np.sqrt(active.variances[moved])
        untouched = w == w_prime
        if untouched.all():
            continue
        flow = fl.clamp_nonexpansive(fl.solve(active, w, w_prime))
        assert fl.apply_flow(active, flow, w, w_prime) is active
        assert bel.correct_spectrum(active) is active
        assert flow.scales[untouched].tobytes() == np.ones(int(untouched.sum())).tobytes()
        active.store(stored, idx)
        rest = np.setdiff1d(np.arange(d), idx)
        for name in ("mean", "variances"):
            after, old = getattr(stored, name), getattr(before, name)
            assert after[idx[untouched]].tobytes() == old[idx[untouched]].tobytes()
            assert after[rest].tobytes() == old[rest].tobytes()
        assert not np.array_equal(stored.mean[idx[~untouched]], before.mean[idx[~untouched]])
        assert stored.variances.min() >= bel.LAMBDA_MIN


def test_active_diagonal_floors_sigma_and_writes_the_floor_exactly():
    stored = bel.diagonal_belief(np.zeros(3), np.array([0.04, 0.04, 0.04]))
    active = bel.ActiveDiagonal().load(stored, np.array([0, 2]))
    active.sigma[:] = [1e-9, 0.3]
    assert bel.correct_spectrum(active) is active
    assert active.sigma[0] == math.sqrt(bel.LAMBDA_MIN)
    active.store(stored, np.array([0, 2]))
    np.testing.assert_array_equal(stored.variances, [bel.LAMBDA_MIN, 0.04, 0.3 * 0.3])


def test_spherical_frozen_example():
    # mu=0, sigma=1, w=(1,0), w'=(0,2): scale 1.366025, mean (0, 0.633975)
    prior = bel.spherical_belief(np.zeros(2), 1.0)
    w = np.array([1.0, 0.0])
    w_prime = np.array([0.0, 2.0])
    flow = fl.solve_spherical(prior, w, w_prime)
    np.testing.assert_allclose(flow.scales, A_U1_V2, atol=1e-6)
    post = fl.apply_flow(prior, flow, w, w_prime)
    np.testing.assert_allclose(math.sqrt(post.variances), A_U1_V2, atol=1e-6)
    np.testing.assert_allclose(post.mean, [0.0, 2.0 - A_U1_V2], atol=1e-6)


def test_spherical_flow_carries_the_draws_distance_from_the_mean():
    # u is ||w - mu|| as solve_spherical measured it, unwhitened; apply_flow
    # moves the mean by it instead of measuring it again
    rng = np.random.default_rng(47)
    prior = bel.spherical_belief(rng.normal(size=6), 0.3)
    w = bel.sample(prior, rng)
    w_prime = w + rng.normal(scale=0.4, size=6)
    flow = fl.solve_spherical(prior, w, w_prime)
    norm_dw = float(np.linalg.norm(w - prior.mean))
    assert flow.u == norm_dw
    post = fl.apply_flow(prior, flow, w, w_prime)
    np.testing.assert_array_equal(post.mean, w_prime - flow.scales * norm_dw * flow.d_hat)


@pytest.mark.parametrize("d", [1, 3])
def test_spherical_flow_matrix_when_the_target_points_opposite_the_draw(d):
    # d_hat pointing opposite w - mu leaves no plane to rotate in: flow_matrix
    # takes the antiparallel branch of _rotation_between (a reflection for d = 1)
    prior = bel.spherical_belief(np.full(d, 0.5), 1.5)
    w = prior.mean + np.arange(1.0, d + 1.0)
    w_prime = prior.mean - 0.4 * (w - prior.mean)
    flow = fl.solve_spherical(prior, w, w_prime)
    dw = w - prior.mean
    assert dw @ flow.d_hat == pytest.approx(-np.linalg.norm(dw))
    post = fl.apply_flow(prior, flow, w, w_prime)
    assert constraint_residual(prior, post, flow, w, w_prime) <= 1e-9


@pytest.mark.parametrize("w_prime_offset", [2.0, 1e-13])
def test_spherical_flow_matrix_of_a_draw_on_the_mean(w_prime_offset):
    # w == mu has no direction to rotate from, so A is the scale times I,
    # whether the target moved off the mean or, within EPS_DEGENERATE
    # sigma, stayed on it
    prior = bel.spherical_belief(np.array([1.0, -2.0, 0.5]), 0.04)
    w = prior.mean.copy()
    w_prime = prior.mean + np.array([0.0, w_prime_offset, 0.0])
    flow = fl.solve(prior, w, w_prime)
    assert flow.u == 0.0
    np.testing.assert_array_equal(fl.flow_matrix(prior, flow, w), flow.scales * np.eye(3))
    post = fl.apply_flow(prior, flow, w, w_prime)
    np.testing.assert_array_equal(post.mean, w_prime)
    assert constraint_residual(prior, post, flow, w, w_prime) <= 1e-15


@pytest.mark.parametrize("flow_variant, belief_variant", [(bel.FULL, bel.DIAGONAL),
                                                          (bel.SPHERICAL, bel.FULL)])
def test_apply_flow_rejects_a_flow_of_another_variant(flow_variant, belief_variant):
    rng = np.random.default_rng(71)
    prior = random_belief(flow_variant, 3, rng)
    w = bel.sample(prior, rng)
    w_prime = w + 0.1
    flow = fl.solve(prior, w, w_prime)
    other = random_belief(belief_variant, 3, rng)
    with pytest.raises(ValueError, match=f"flow variant {flow_variant} does not match belief "
                                         f"{belief_variant}"):
        fl.apply_flow(other, flow, w, w_prime)


def test_spherical_scale_one_when_norms_match():
    rng = np.random.default_rng(41)
    prior = bel.spherical_belief(rng.normal(size=3), 2.0)
    w = bel.sample(prior, rng)
    # rotate the displacement: same norm, different direction
    delta = w - prior.mean
    perp = np.array([-delta[1], delta[0], delta[2]])
    perp = perp - (perp @ delta) / (delta @ delta) * delta
    w_prime = prior.mean + np.linalg.norm(delta) * perp / np.linalg.norm(perp)
    flow = fl.solve_spherical(prior, w, w_prime)
    assert flow.scales == 1.0
    post = fl.apply_flow(prior, flow, w, w_prime)
    assert post.variances == prior.variances


# ---------------------------------------------------------------------------
# regimes and the non-expansive clamp


def test_three_regimes_sign_classification():
    # sign(sigma' - sigma) = sign(delta*delta' - delta^2) in one dimension
    prior = bel.diagonal_belief(np.zeros(1), np.ones(1))
    rng = np.random.default_rng(43)
    for _ in range(300):
        delta = float(rng.uniform(-3, 3))
        delta_prime = float(rng.uniform(-3, 3))
        if abs(delta) < 1e-3:
            continue
        w = np.array([delta])
        w_prime = np.array([delta_prime])
        flow = fl.solve_diagonal(prior, w, w_prime)
        post = fl.apply_flow(prior, flow, w, w_prime)
        gap = delta_prime * delta - delta * delta
        if abs(gap) < 1e-12:
            np.testing.assert_allclose(post.variances[0], 1.0, rtol=1e-9)
        elif gap < 0:
            assert post.variances[0] < 1.0
        else:
            assert post.variances[0] > 1.0


def test_clamp_nonexpansive_caps_singular_values():
    rng = np.random.default_rng(47)
    for _ in range(50):
        prior = random_belief(bel.FULL, 3, rng)
        w = bel.sample(prior, rng)
        w_prime = w + rng.normal(scale=1.5, size=3)
        flow = fl.solve_full(prior, w, w_prime)
        clamped = fl.clamp_nonexpansive(flow)
        if not clamped.identity:
            s = np.linalg.svd(clamped.a2, compute_uv=False)
            assert s.max() <= 1.0 + 1e-12
        post = fl.apply_flow(prior, clamped, w, w_prime)
        # whitened posterior covariance sits below the identity
        evals = np.linalg.eigvalsh(bel.covariance(post) - bel.covariance(prior))
        assert evals.max() <= 1e-9


def test_clamp_returns_same_flow_when_already_nonexpansive():
    prior = bel.diagonal_belief(np.zeros(1), np.ones(1))
    flow = fl.solve_diagonal(prior, np.array([1.0]), np.array([0.0]))  # a < 1
    assert fl.clamp_nonexpansive(flow) is flow
    expanding = fl.solve_diagonal(prior, np.array([1.0]), np.array([2.0]))
    clamped = fl.clamp_nonexpansive(expanding)
    assert clamped.scales[0] == 1.0


def test_posterior_respects_floor_after_extreme_contraction():
    prior = bel.diagonal_belief(np.zeros(1), np.array([1.0]))
    w = np.array([50.0])
    w_prime = np.array([0.0])  # huge u, target at the mean: strong contraction
    flow = fl.solve_diagonal(prior, w, w_prime)
    post = fl.apply_flow(prior, flow, w, w_prime)
    post = bel.correct_spectrum(post, bel.LAMBDA_MIN)
    assert post.variances[0] >= bel.LAMBDA_MIN


def test_full_posterior_respects_floor_after_extreme_contraction():
    prior = bel.full_belief(np.zeros(3), np.eye(3), np.ones(3))
    w = np.array([1e5, 0.0, 0.0])
    w_prime = np.zeros(3)  # target at the mean: variance along e1 -> 1e-10
    flow = fl.solve_full(prior, w, w_prime)
    post = fl.apply_flow(prior, flow, w, w_prime)
    assert np.linalg.svd(post.factor, compute_uv=False)[-1] ** 2 < bel.LAMBDA_MIN
    post = bel.correct_spectrum(post, bel.LAMBDA_MIN)
    evals = np.sort(np.linalg.svd(post.factor, compute_uv=False) ** 2)
    np.testing.assert_allclose(evals, [bel.LAMBDA_MIN, 1.0, 1.0], rtol=1e-9)
    bel.validate(post, bel.LAMBDA_MIN)


def test_replaying_a_record_of_several_flows_holds_no_d_by_d_scratch():
    # the record's first flow writes a fresh W and the later ones move it in
    # place, one row block at a time: beside W only a row block's product
    # (about 120 KiB) is held, and the bytes are those of one fresh update
    # per flow
    d = 300
    rng = np.random.default_rng(97)
    keyframe = bel.snapshot(bel.full_belief(np.zeros(d), np.linalg.qr(rng.normal(size=(d, d)))[0],
                                            rng.uniform(0.5, 2.0, size=d)))
    flows = []
    for uv in ((1.0, 0.5, 0.7), (0.4, -1.2, 0.1), (2.0, -0.3, 0.6)):
        basis = np.linalg.qr(rng.normal(size=(d, 2)))[0]
        flows.append(fl.FlowSolution(bel.FULL, basis=basis, a2=fl.solve_2x2(*uv)))
    records = [(0, keyframe), (1, fl.FlowLog(rng.normal(size=d), tuple(flows)))]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        replayed = [belief for _, belief, _ in fl.replay(records)]
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * d * d * 8, peak
    want = keyframe.inv_factor
    for flow in flows:
        want, _ = fl.transport_inverse(want, flow)
    assert replayed[1].inv_factor.tobytes() == want.tobytes()
