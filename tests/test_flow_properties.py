"""Property tests of the scalar flow scale, the sigma-carry update, the
full factor update and, for every variant, the step constraint, the KL
optimality of the closed form, the pseudo-datapoint round trip and the
clamped flow's log det."""

import math
from fractions import Fraction

import numpy as np
import pytest

from beliefflow import belief as bel
from beliefflow import flow as fl
from beliefflow import pseudo as psd

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# Derandomized and without an example database, so a run is repeatable and
# writes nothing.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def signed_magnitudes(lo: float, hi: float):
    """Floats of either sign with magnitude in [lo, hi], log-uniformly spread."""
    exponents = st.floats(math.log10(lo), math.log10(hi))
    return st.tuples(st.sampled_from((-1.0, 1.0)), exponents).map(
        lambda t: t[0] * min(max(10.0 ** t[1], lo), hi))


U = signed_magnitudes(1e-8, 1e8)
V = signed_magnitudes(1e-8, 1e10)


@PROPERTY
@given(U, V)
def test_scale_is_positive_and_finite(u, v):
    a = float(fl.scalar_scale(u, v))
    assert a > 0.0 and math.isfinite(a)


@PROPERTY
@given(U, V)
def test_scale_solves_its_quadratic_to_a_few_ulp(u, v):
    # the residual a^2 (1 + u^2) - a u v - 1, in exact rational arithmetic on
    # the float a, is a few ulp of the largest of its terms
    a, u, v = Fraction(float(fl.scalar_scale(u, v))), Fraction(u), Fraction(v)
    terms = (a * a * (1 + u * u), a * u * v, Fraction(1))
    resid = terms[0] - terms[1] - terms[2]
    assert abs(resid) <= 4 * Fraction(math.ulp(float(max(abs(t) for t in terms))))


@PROPERTY
@given(U)
def test_scale_is_exactly_one_when_the_step_lands_on_the_draw(u):
    assert float(fl.scalar_scale(u, u)) == 1.0


@PROPERTY
@given(U, V, st.floats(-10.0, 10.0), st.floats(-4.0, 2.0))
def test_sigma_carry_update_maps_the_draw_onto_the_stepped_point(u, v, mu, log_sigma):
    # one coordinate drawn at xi = u and stepped to mu + sigma v: after
    # apply_flow, mu' + sigma' u is w' to within a few ulp of its terms
    prior = bel.diagonal_belief(np.array([mu]), np.array([10.0 ** (2.0 * log_sigma)]))
    active = bel.ActiveDiagonal().load(prior, np.array([0]))
    sigma = active.sigma[0]
    active.xi[0] = u
    active.w[0] = mu + sigma * u
    w_prime = np.array([mu + sigma * v])
    if w_prime[0] == active.w[0]:
        return
    flow = fl.solve(active, active.w, w_prime)
    moved = fl.apply_flow(active, flow, active.w, w_prime)
    assert moved is active
    assert active.sigma[0] == flow.scales[0] * sigma
    carried = active.sigma[0] * u
    reached = active.mean[0] + carried
    scale = max(abs(w_prime[0]), abs(active.mean[0]), abs(carried))
    assert abs(reached - w_prime[0]) <= 2 * math.ulp(scale)


# Every d <= 300 whose last row block would hold one row, were it not
# merged into the block before it.
ONE_ROW_TAILS = [d for d in range(2, 301)
                 if d % max(2, fl._BLOCK_BYTES // (8 * d)) == 1]


@pytest.mark.parametrize("d", sorted({*range(1, 71), 130, 300, *ONE_ROW_TAILS}))
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(-8.0, 8.0))
def test_add_product_has_the_bytes_of_one_matmul_plus_add(d, seed, log_scale):
    # fresh or in place, row block by row block: the bytes of src + left @ right
    rng = np.random.default_rng(seed)
    src = rng.normal(size=(d, d))
    left = rng.normal(size=(d, 2))
    right = rng.normal(scale=10.0 ** log_scale, size=(2, d))
    want = np.add(np.matmul(left, right), src).tobytes()
    assert fl.add_product(src, left, right).tobytes() == want
    moved = src.copy()
    assert fl.add_product(moved, left, right, in_place=True) is moved
    assert moved.tobytes() == want


EPS = np.finfo(float).eps


# One update of a random belief: its variant, dimension, seed, log10 of the
# variances (per axis for full and diagonal beliefs, the first for
# spherical ones), log10 of the step's norm, and whether the flow is clamped.
FLOW_CASES = (st.sampled_from(bel.VARIANTS), st.integers(1, 5), st.integers(0, 2 ** 32 - 1),
              st.lists(st.floats(-8.0, 8.0), min_size=5, max_size=5), st.floats(-8.0, 6.0),
              st.booleans())


def flow_case(variant, d, seed, log_variances, log_step, non_expansive):
    """(prior, w, w', flow, posterior, rng) of one update drawn from FLOW_CASES."""
    rng = np.random.default_rng(seed)
    mean = rng.normal(size=d)
    variances = 10.0 ** np.array(log_variances[:d])
    if variant == bel.FULL:
        prior = bel.full_belief(mean, np.linalg.qr(rng.normal(size=(d, d)))[0], variances)
    elif variant == bel.DIAGONAL:
        prior = bel.diagonal_belief(mean, variances)
    else:
        prior = bel.spherical_belief(mean, variances[0])
    w = bel.sample(prior, rng)
    step = rng.normal(size=d)
    w_prime = w + 10.0 ** log_step * step / np.linalg.norm(step)
    flow = fl.solve(prior, w, w_prime)
    if non_expansive:
        flow = fl.clamp_nonexpansive(flow)
    return prior, w, w_prime, flow, fl.apply_flow(prior, flow, w, w_prime), rng


@PROPERTY
@given(*FLOW_CASES)
def test_the_flow_carries_the_draw_onto_the_stepped_point(variant, d, seed, log_variances,
                                                          log_step, non_expansive):
    # A w + b = w' for every variant, clamped or not, at variances 1e-8..1e8
    # (per axis for full and diagonal beliefs) and steps of norm up to 1e6,
    # with A = flow_matrix and b = mu' - A mu as verify forms them.
    #
    # Tolerance: the residual A w + (mu' - A mu) - w' is a sum of terms of
    # magnitude |A| |w|, |A| |mu|, |mu'| and |w'|; mu' itself is w' plus a
    # transport of w - mu, which A carries, so it adds no larger term. Every
    # computed product is a chain of at most three dot products of length
    # at most d + 2, and the sums add a few roundings more: at most
    # 4 (d + 4) roundings, each of eps relative to the terms. For a full
    # flow A = I + (L B)(a2 - I)(B^T W) is itself a sum, so |A| is taken
    # term by term, as |I| + |L B| |a2 - I| |B^T W|.
    prior, w, w_prime, flow, post, _ = flow_case(variant, d, seed, log_variances, log_step,
                                                 non_expansive)
    assert constraint_residual(prior, w, w_prime, flow, post) <= 1.0


def constraint_residual(prior, w, w_prime, flow, post):
    """||A w + b - w'|| in units of 4 (d + 4) eps of its terms' scale, the
    tolerance derived above."""
    d = prior.dim
    a = fl.flow_matrix(prior, flow, w)
    resid = np.linalg.norm(a @ w + (post.mean - a @ prior.mean) - w_prime)
    terms = np.abs(a)
    if flow.variant == bel.FULL and not flow.identity:
        basis = flow.basis
        terms = np.eye(d) + (np.abs(prior.factor @ basis) @ np.abs(flow.a2 - np.eye(2))
                             @ np.abs(basis.T @ prior.inv_factor))
    scale = (np.linalg.norm(terms @ (np.abs(w) + np.abs(prior.mean)))
             + np.linalg.norm(post.mean) + np.linalg.norm(w_prime))
    return resid / (4 * (d + 4) * EPS * scale)


@pytest.mark.parametrize("tilt", [1e-2, 1e-5, 1e-9])
def test_a_nearly_antiparallel_full_step_keeps_the_constraint(tilt):
    # w' - mu = -0.5 (w - mu) plus a perpendicular tilt of relative size
    # tilt, in the prior's whitened coordinates: the target lies at angle
    # about tilt from antiparallel to the draw, where one Gram-Schmidt pass
    # leaves nu_hat off orthogonal to mu_hat by about eps / tilt.
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(200):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        prior = bel.full_belief(rng.normal(size=3), q, rng.uniform(0.2, 3.0, size=3) ** 2)
        w = bel.sample(prior, rng)
        xi = bel.whiten(prior, w - prior.mean)
        perp = rng.normal(size=3)
        perp -= (perp @ xi) / (xi @ xi) * xi
        target = -0.5 * xi + tilt * 0.5 * np.linalg.norm(xi) * perp / np.linalg.norm(perp)
        w_prime = prior.mean + bel.unwhiten(prior, target)
        flow = fl.solve(prior, w, w_prime)
        post = fl.apply_flow(prior, flow, w, w_prime)
        worst = max(worst, constraint_residual(prior, w, w_prime, flow, post))
    assert worst <= 1.0


@pytest.mark.parametrize("offset", [1e-11, 1e-13])
def test_a_degenerate_spherical_step_keeps_the_constraint(offset):
    # w - mu and w' - mu both within EPS_DEGENERATE sigma of the mean, with
    # w != w' and w != mu: the target counts as the mean, and the flow must
    # still carry w onto w', measured with flow_matrix's A and the
    # posterior's b
    prior = bel.spherical_belief(np.array([1.0, -2.0, 0.5]), 0.04)
    w = prior.mean + offset * np.array([1.0, 0.0, 0.0])
    w_prime = prior.mean + np.array([0.0, 1e-13, 0.0])
    flow = fl.solve(prior, w, w_prime)
    post = fl.apply_flow(prior, flow, w, w_prime)
    assert constraint_residual(prior, w, w_prime, flow, post) <= 1.0


def whitened_kl(m, s, t):
    """(sign of det m, KL, a bound on the KL's rounding) of the flow whose
    matrix in the prior's whitened coordinates is m, for the whitened draw s
    and target t.

    With b re-solved so that A w + b = w', the posterior mean is
    w' + A (mu - w), so with M = W A L the KL from the prior is
    1/2 (||t - M s||^2 + ||M||_F^2 - 2 log|det M| - d).

    Rounding: each entry of r = t - M s is a dot product of length d and a
    subtraction, off by (d + 1) eps (|t| + |M| |s|); squaring and summing
    adds d + 1 roundings more, so ||r||^2 is off by at most
    3 (d + 1) eps || |t| + |M| |s| ||^2. ||M||_F^2 sums d^2 squares,
    (d^2 + 1) eps ||M||_F^2. log|det M| comes from an LU factorization with
    partial pivoting, exact for some M + dM with ||dM|| <= 2^(d-1) d^2 eps
    ||M|| (growth factor times the sums' roundings), so it is off by at
    most d ||M^-1|| ||dM|| <= 2^(d-1) d^3 eps cond(M). The last sum of the
    four terms adds 4 roundings of the largest.
    """
    d = s.shape[0]
    r = t - m @ s
    sign, logdet = np.linalg.slogdet(m)
    msq = float(np.sum(m * m))
    kl = 0.5 * (float(r @ r) + msq - 2.0 * logdet - d)
    size = np.abs(t) + np.abs(m) @ np.abs(s)
    bound = 0.5 * EPS * (3 * (d + 1) * float(size @ size) + (d * d + 1) * msq
                         + 2 * 2 ** (d - 1) * d ** 3 * np.linalg.cond(m)
                         + 4 * max(float(r @ r), msq, 2.0 * abs(logdet), d))
    return sign, kl, bound


@PROPERTY
@given(*FLOW_CASES, st.floats(-6.0, -1.0))
def test_the_closed_form_flow_has_the_least_kl_of_its_family(variant, d, seed, log_variances,
                                                              log_step, non_expansive,
                                                              log_delta):
    # Any other feasible A, with b re-solved so that A w + b = w', has at
    # least the closed form's KL. Feasible is the variant's family: for
    # full, any A with det A > 0, the component of the identity that the
    # closed form picks; for diagonal, a diagonal A with positive scales;
    # for spherical, the orthogonal matrices times a positive scale, whose
    # perturbation keeps the sign of its determinant (for d = 1 the flow
    # reflects when the target lies across the mean); with the clamp on,
    # also no singular value above 1. That the clamped flow is optimal
    # there follows from its form: a full a2 is Q diag(c, 1) with Q a
    # rotation, so the clamp takes c to min(c, 1), and each scalar KL is
    # convex in its scale. The perturbation is relative, of size
    # delta = 1e-6..1e-1, and moves a spherical map's rotation and scale.
    prior, w, w_prime, flow, post, rng = flow_case(variant, d, seed, log_variances, log_step,
                                                   non_expansive)
    s, t = bel.whiten(prior, np.column_stack([w - prior.mean, w_prime - prior.mean])).T
    if variant == bel.FULL and not flow.identity:
        basis = flow.basis
        m = np.eye(d) + basis @ (flow.a2 - np.eye(2)) @ basis.T
    else:
        # whitening by a diagonal or scalar root commutes with a diagonal A
        # and with a multiple of a rotation
        m = fl.flow_matrix(prior, flow, w)
    delta = 10.0 ** log_delta
    if variant == bel.FULL:
        e = rng.normal(size=(d, d))
        perturbed = m @ (np.eye(d) + delta * e / np.linalg.norm(e, 2))
    elif variant == bel.DIAGONAL:
        perturbed = m * np.exp(delta * rng.normal(size=d))
    else:
        k = rng.normal(size=(d, d))
        k = delta * (k - k.T) / max(np.linalg.norm(k - k.T, 2), 1.0)
        cayley = np.linalg.solve(np.eye(d) - 0.5 * k, np.eye(d) + 0.5 * k)  # a rotation
        perturbed = m @ cayley * math.exp(delta * rng.normal())
    if non_expansive:
        if variant == bel.DIAGONAL:
            perturbed = np.minimum(perturbed, np.eye(d))
        else:
            left, sing, right = np.linalg.svd(perturbed)
            if sing[0] > 1.0:
                perturbed = (left * np.minimum(sing, 1.0)) @ right
    sign, kl, bound = whitened_kl(m, s, t)
    sign_p, kl_p, bound_p = whitened_kl(perturbed, s, t)
    assert sign_p == sign
    assert sign > 0.0 or variant == bel.SPHERICAL
    assert kl <= kl_p + bound + bound_p


def test_the_spherical_scale_minimizes_the_kl_of_its_family():
    # For N(mu', a^2 sigma^2 I) the KL is 1/2 ((v - a u)^2 + d (a^2 - 2 log a - 1))
    # once the rotation aligns the draw with the target, least at the root of
    # a^2 (d + u^2) - a u v - d = 0; at d = 2, u = 1, v = 2 that is
    # (1 + sqrt(7)) / 3 = 1.2153, not the one-dimensional root 1.3660.
    prior = bel.spherical_belief(np.zeros(2), 1.0)
    w, w_prime = np.array([1.0, 0.0]), np.array([0.0, 2.0])
    m = fl.flow_matrix(prior, fl.solve_spherical(prior, w, w_prime), w)
    a_d = (1.0 + math.sqrt(7.0)) / 3.0
    _, kl, bound = whitened_kl(m, w, w_prime)
    _, kl_d, bound_d = whitened_kl(a_d / m[1, 0] * m, w, w_prime)
    assert kl <= kl_d + bound + bound_d


def natural_parameters(belief):
    """(precision, precision times mean) of a belief: matrices and vectors
    for full beliefs, per-coordinate vectors otherwise."""
    if belief.variant == bel.FULL:
        prec = belief.inv_factor.T @ belief.inv_factor
        return prec, prec @ belief.mean
    prec = 1.0 / np.broadcast_to(belief.variances, belief.mean.shape)
    return prec, prec * belief.mean


@PROPERTY
@given(*FLOW_CASES)
def test_the_pseudo_datapoint_of_a_flow_gives_back_its_posterior(variant, d, seed,
                                                                log_variances, log_step,
                                                                non_expansive):
    # bayes_update_gaussian(prior, extract_pseudo(prior, posterior)) is the
    # posterior, compared in natural parameters: the precision P and eta =
    # P mu, each of which the round trip forms as a difference and adds back.
    #
    # Tolerance: per coordinate, extraction forms 1/v1 - 1/v0 (3 roundings)
    # and x = (eta1 - eta0) R with R its inverse (6 more), and the update
    # 1/v0 + 1/R and var (eta0 + x / R) (7 more); reading P and eta back
    # adds 2. That is 18 roundings of terms no larger than P0 + P1 or
    # |eta0| + |eta1|. A full belief's round trip inverts the precision
    # difference and the posterior precision, which scales each rounding by
    # the difference's condition number.
    prior, _, _, _, post, _ = flow_case(variant, d, seed, log_variances, log_step,
                                        non_expansive)
    try:
        pd = psd.extract_pseudo(prior, post)
    except ValueError:
        # A full flow moves the precision by G^T S G with S = a2^-T a2^-1 - I;
        # a2 = Q diag(c, 1), clamped or not, makes S of rank one, so for
        # d >= 2 no datapoint of the whole space exists.
        assert variant == bel.FULL and d >= 2
        return
    prec0, eta0 = natural_parameters(prior)
    prec1, eta1 = natural_parameters(post)
    if pd is None:
        # The update moved the variances within NO_DATAPOINT_TOL of the
        # prior's, measured over the whole vector, or the precision within
        # roundoff (full).
        if variant == bel.FULL:
            assert np.allclose(prec1, prec0, rtol=0.0, atol=d * d * EPS * np.trace(prec0 + prec1))
        else:
            diff = np.linalg.norm(np.asarray(post.variances) - prior.variances)
            assert diff <= psd.NO_DATAPOINT_TOL * np.linalg.norm(prior.variances)
        return
    kappa = np.linalg.cond(prec1 - prec0) if variant == bel.FULL else 1.0
    try:
        back = psd.bayes_update_gaussian(prior, pd.x, pd.cov)
    except ValueError:
        # The posterior precision is below what the round trip resolves
        # (forgetting past the rounding of the prior's precision, which no
        # float R avoids), so 1/R cancels P0 to no digit.
        if variant == bel.FULL:
            lowest = np.min(np.linalg.eigvalsh(prec1))
            assert lowest <= 18 * kappa * EPS * np.max(np.abs(prec0) + np.abs(prec1))
        else:
            assert np.min(prec1 / (prec0 + prec1)) <= 18 * EPS
        return
    prec_b, eta_b = natural_parameters(back)
    if variant == bel.FULL:
        assert np.max(np.abs(prec_b - prec1)) <= 18 * kappa * EPS * np.max(np.abs(prec0) + np.abs(prec1))
        assert np.max(np.abs(eta_b - eta1)) <= 18 * kappa * EPS * np.max(np.abs(eta0) + np.abs(eta1))
        return
    assert np.all(np.abs(prec_b - prec1) <= 18 * EPS * (prec0 + prec1))
    # A coordinate whose precision the flow kept bit for bit (one the clamp
    # held at scale 1, or one the step left alone) gets R = inf: its mean
    # may have moved, but no Gaussian observation moves a mean without
    # adding precision, so eta is compared where R is finite.
    informed = np.isfinite(np.broadcast_to(pd.cov, (d,)))
    assert np.array_equal(informed, prec1 != prec0)
    err = np.abs(eta_b - eta1)[informed]
    assert np.all(err <= 18 * EPS * (np.abs(eta0) + np.abs(eta1))[informed])


@PROPERTY
@given(*FLOW_CASES[:-1])
def test_a_clamped_flow_never_raises_log_det(variant, d, seed, log_variances, log_step):
    # With the clamp on, no singular value of A exceeds 1, so log det Sigma
    # cannot grow. Diagonal and spherical variances move by a^2 <= 1 with
    # monotone roundings, so their log det does not grow at all. A full
    # belief's log det grows by 2 log|det a2|: the clamp's product rounds
    # each entry of a2 by about 2 eps of its largest singular value, 1, and
    # the determinant's two products and difference round 3 times more, so
    # |det a2| <= 1 + 8 eps and 2 log|det a2| <= 16 eps; adding it to the
    # prior's log det rounds once more.
    prior, _, _, _, post, _ = flow_case(variant, d, seed, log_variances, log_step, True)
    before, after = bel.log_det(prior), bel.log_det(post)
    tol = EPS * (16.0 + abs(before)) if variant == bel.FULL else 0.0
    assert after <= before + tol
