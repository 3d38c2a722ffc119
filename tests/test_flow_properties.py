"""Property tests of the scalar flow scale, the sigma-carry update, the
full factor update and every variant's step constraint."""

import math
from fractions import Fraction

import numpy as np
import pytest

from beliefflow import belief as bel
from beliefflow import flow as fl

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


@PROPERTY
@given(st.sampled_from(bel.VARIANTS), st.integers(1, 5), st.integers(0, 2 ** 32 - 1),
       st.lists(st.floats(-8.0, 8.0), min_size=5, max_size=5), st.floats(-8.0, 6.0),
       st.booleans())
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
    # term by term, as |I| + |L B| |a2 - I| |B^T W|. The bound leaves out
    # one amplification, a fault of solve_full: a target at angle t from
    # antiparallel to the draw gets a nu_hat that is off orthogonal to
    # mu_hat by about eps / t, and the residual carries it (hundreds of eps
    # of the terms at t = 1e-2). A step in a random direction comes that
    # close to antiparallel only rarely.
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
    post = fl.apply_flow(prior, flow, w, w_prime)
    a = fl.flow_matrix(prior, flow, w)
    resid = np.linalg.norm(a @ w + (post.mean - a @ prior.mean) - w_prime)
    terms = np.abs(a)
    if variant == bel.FULL and not flow.identity:
        basis = np.stack([flow.mu_hat, flow.nu_hat], axis=1)
        terms = np.eye(d) + (np.abs(prior.factor @ basis) @ np.abs(flow.a2 - np.eye(2))
                             @ np.abs(basis.T @ prior.inv_factor))
    scale = (np.linalg.norm(terms @ (np.abs(w) + np.abs(prior.mean)))
             + np.linalg.norm(post.mean) + np.linalg.norm(w_prime))
    assert resid <= 4 * (d + 4) * EPS * scale
