"""Gaussian belief states: construction, sampling, KL, entropy, spectrum floor."""

import dataclasses
import math

import numpy as np
import pytest

from beliefflow import belief as bel
from beliefflow import oracles as orc

# Frozen reference values, all checked against the dense/quadrature oracles
# in oracles.py before being committed here.
KL_MEAN_SHIFT = 0.5            # N(1,1) || N(0,1)
KL_VARIANCE_4 = 0.8068528194400547  # N(0,4) || N(0,1)
ENTROPY_STD_NORMAL = 1.4189385332046727  # 0.5 * log(2*pi*e)


def random_full(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return bel.full_belief(rng.normal(size=d), q, rng.uniform(0.2, 3.0, size=d) ** 2)


def test_factories_reject_bad_shapes():
    with pytest.raises(ValueError):
        bel.full_belief(np.zeros(2), np.eye(3), np.ones(2))
    with pytest.raises(ValueError):
        bel.full_belief(np.zeros(2), np.eye(2), np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        bel.diagonal_belief(np.zeros(2), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        bel.spherical_belief(np.zeros(2), -1.0)


def test_full_belief_from_cov_round_trips():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        a = rng.normal(size=(d, d))
        cov = a @ a.T + 0.1 * np.eye(d)
        b = bel.full_belief_from_cov(rng.normal(size=d), cov)
        np.testing.assert_allclose(bel.covariance(b), cov, rtol=1e-12, atol=1e-12)


def test_covariance_densifies_each_variant():
    mean = np.array([1.0, -2.0])
    np.testing.assert_allclose(
        bel.covariance(bel.diagonal_belief(mean, np.array([2.0, 3.0]))),
        np.diag([2.0, 3.0]))
    np.testing.assert_allclose(
        bel.covariance(bel.spherical_belief(mean, 0.25)), 0.25 * np.eye(2))


def test_sampling_matches_moments():
    rng = np.random.default_rng(5)
    b = random_full(rng, 3)
    draws = np.stack([bel.sample(b, rng) for _ in range(40000)])
    np.testing.assert_allclose(draws.mean(axis=0), b.mean, atol=0.05)
    np.testing.assert_allclose(np.cov(draws.T), bel.covariance(b), atol=0.08)


def reference_sample(belief, rng):
    """One draw with each variant's root written out."""
    xi = rng.standard_normal(belief.dim)
    if belief.variant == bel.FULL:
        return belief.mean + bel.root(belief) @ xi
    if belief.variant == bel.DIAGONAL:
        return belief.mean + np.sqrt(belief.variances) * xi
    return belief.mean + math.sqrt(belief.variance) * xi


@pytest.mark.parametrize("variant", bel.VARIANTS)
def test_sample_replays_its_reference(variant):
    rng = np.random.default_rng(19)
    for d in (1, 4, 50):
        for seed in range(20):
            if variant == bel.FULL:
                b = random_full(rng, d)
            elif variant == bel.DIAGONAL:
                b = bel.diagonal_belief(rng.normal(size=d), rng.uniform(1e-8, 9.0, size=d))
            else:
                b = bel.spherical_belief(rng.normal(size=d), float(rng.uniform(1e-8, 9.0)))
            rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assert bel.sample(b, rng_new).tobytes() == reference_sample(b, rng_ref).tobytes()
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def test_active_diagonal_draws_what_the_gathered_belief_draws():
    # the round's first draw has the bytes of a draw from the belief
    # restricted to idx, and takes as much from the rng
    rng = np.random.default_rng(23)
    active = bel.ActiveDiagonal()
    for k in (7, 3, 0, 9):
        stored = bel.diagonal_belief(rng.normal(size=12), rng.uniform(1e-8, 9.0, size=12))
        idx = np.sort(rng.choice(12, k, replace=False))
        gathered = bel.diagonal_belief(stored.mean[idx], stored.variances[idx])
        rng_new, rng_ref = np.random.default_rng(k), np.random.default_rng(k)
        w = bel.sample(active.load(stored, idx), rng_new)
        assert active.dim == k
        assert w.tobytes() == bel.sample(gathered, rng_ref).tobytes()
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def test_whiten_unwhiten_inverse():
    rng = np.random.default_rng(17)
    for d in (1, 2, 5):
        for make in (lambda: random_full(rng, d),
                     lambda: bel.diagonal_belief(rng.normal(size=d),
                                                 rng.uniform(0.2, 3.0, size=d)),
                     lambda: bel.spherical_belief(rng.normal(size=d),
                                                  float(rng.uniform(0.2, 3.0)))):
            b = make()
            v = rng.normal(size=d)
            np.testing.assert_allclose(bel.unwhiten(b, bel.whiten(b, v)), v,
                                       rtol=1e-12, atol=1e-12)
            # whitened displacements have unit covariance
            w = bel.whiten(b, bel.sample(b, rng) - b.mean)
            assert w.shape == (d,)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_whiten_and_unwhiten_scale_the_rows_of_a_matrix(k):
    # a (d, k) matrix holds k displacements, one per column; the diagonal
    # and spherical results must match a full belief of the same covariance
    rng = np.random.default_rng(19)
    d = 2
    vec = rng.normal(size=(d, k))
    variances = np.array([1.0, 4.0])
    for b, cov in ((bel.diagonal_belief(np.zeros(d), variances), variances),
                   (bel.spherical_belief(np.zeros(d), 2.5), np.full(d, 2.5))):
        full = bel.full_belief(np.zeros(d), np.eye(d), cov)
        np.testing.assert_allclose(bel.whiten(b, vec), bel.whiten(full, vec), rtol=1e-15)
        np.testing.assert_allclose(bel.unwhiten(b, vec), bel.unwhiten(full, vec), rtol=1e-15)
        for j in range(k):
            assert bel.whiten(b, vec[:, j]).tobytes() == bel.whiten(b, vec)[:, j].tobytes()
    np.testing.assert_array_equal(
        bel.whiten(bel.diagonal_belief(np.zeros(2), variances), [[1.0, 2.0], [3.0, 4.0]]),
        [[1.0, 2.0], [1.5, 2.0]])


def test_kl_frozen_values():
    prior = bel.diagonal_belief(np.zeros(1), np.ones(1))
    shifted = bel.diagonal_belief(np.ones(1), np.ones(1))
    widened = bel.diagonal_belief(np.zeros(1), np.array([4.0]))
    np.testing.assert_allclose(bel.kl_divergence(shifted, prior), KL_MEAN_SHIFT, rtol=1e-12)
    np.testing.assert_allclose(bel.kl_divergence(widened, prior), KL_VARIANCE_4, rtol=1e-12)
    assert bel.kl_divergence(prior, prior) == 0.0


def test_kl_matches_dense_oracle():
    rng = np.random.default_rng(23)
    for _ in range(30):
        d = int(rng.integers(1, 6))
        post, prior = random_full(rng, d), random_full(rng, d)
        want = orc.gaussian_kl_dense(post.mean, bel.covariance(post),
                                     prior.mean, bel.covariance(prior))
        np.testing.assert_allclose(bel.kl_divergence(post, prior), want,
                                   rtol=1e-9, atol=1e-9)


def test_kl_matches_quadrature_in_1d():
    rng = np.random.default_rng(29)
    for _ in range(10):
        post = bel.diagonal_belief(rng.normal(size=1), rng.uniform(0.3, 2.0, size=1))
        prior = bel.diagonal_belief(rng.normal(size=1), rng.uniform(0.3, 2.0, size=1))
        want = orc.gaussian_kl_quad_1d(float(post.mean[0]), float(post.variances[0]),
                                       float(prior.mean[0]), float(prior.variances[0]))
        np.testing.assert_allclose(bel.kl_divergence(post, prior), want,
                                   rtol=1e-7, atol=1e-9)


def test_kl_variant_mix():
    # diagonal/spherical beliefs compare against full ones through densify
    rng = np.random.default_rng(31)
    diag = bel.diagonal_belief(rng.normal(size=3), rng.uniform(0.2, 2.0, size=3))
    full = random_full(rng, 3)
    want = orc.gaussian_kl_dense(diag.mean, bel.covariance(diag),
                                 full.mean, bel.covariance(full))
    np.testing.assert_allclose(bel.kl_divergence(diag, full), want, rtol=1e-9)


def test_kl_spherical_closed_form_matches_the_general_formula():
    rng = np.random.default_rng(43)
    d = 4
    post = bel.spherical_belief(rng.normal(size=d), 0.7)
    prior = bel.spherical_belief(rng.normal(size=d), 1.9)
    as_full = [bel.full_belief(b.mean, np.eye(d), np.full(d, b.variance)) for b in (post, prior)]
    np.testing.assert_allclose(bel.kl_divergence(post, prior), bel.kl_divergence(*as_full),
                               rtol=1e-12)


def test_entropy_values():
    one = bel.diagonal_belief(np.zeros(1), np.ones(1))
    np.testing.assert_allclose(bel.entropy(one), ENTROPY_STD_NORMAL, rtol=1e-12)
    rng = np.random.default_rng(37)
    b = random_full(rng, 4)
    # entropy depends only on the spectrum
    want = 0.5 * (4 * np.log(2 * np.pi * np.e) + np.linalg.slogdet(bel.covariance(b))[1])
    np.testing.assert_allclose(bel.entropy(b), want, rtol=1e-12)
    sph = bel.spherical_belief(np.zeros(3), 2.0)
    np.testing.assert_allclose(bel.entropy(sph),
                               0.5 * (3 * np.log(2 * np.pi * np.e) + 3 * np.log(2.0)),
                               rtol=1e-12)


def test_spectrum_floor_applies_and_is_noop_when_clean():
    clean = bel.diagonal_belief(np.zeros(2), np.array([1.0, 2.0]))
    assert bel.correct_spectrum(clean, bel.LAMBDA_MIN) is clean

    dirty = bel.BeliefState(bel.DIAGONAL, np.zeros(2),
                            variances=np.array([1e-12, 2.0]))
    fixed = bel.correct_spectrum(dirty, bel.LAMBDA_MIN)
    assert fixed.variances[0] == bel.LAMBDA_MIN
    assert fixed.variances[1] == 2.0

    sph = bel.BeliefState(bel.SPHERICAL, np.zeros(2), variance=1e-20)
    assert bel.correct_spectrum(sph, bel.LAMBDA_MIN).variance == bel.LAMBDA_MIN


def test_spectrum_floor_full_repairs_factor_pair():
    # one sub-floor direction plus a drifted W: the floor lifts exactly that
    # direction and rebuilds a consistent pair from the factor
    rng = np.random.default_rng(41)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    clean = bel.full_belief(np.zeros(4), q, np.array([1e-12, 0.5, 1.0, 2.0]))
    b = dataclasses.replace(clean, inv_factor=clean.inv_factor + 1e-6 * rng.normal(size=(4, 4)))
    with pytest.raises(ValueError):
        bel.validate(b, bel.LAMBDA_MIN)
    fixed = bel.correct_spectrum(b, bel.LAMBDA_MIN)
    # squared singular values of L are the eigenvalues of Sigma, to full
    # relative accuracy even at the floor
    evals = np.sort(np.linalg.svd(fixed.factor, compute_uv=False) ** 2)
    np.testing.assert_allclose(evals, [bel.LAMBDA_MIN, 0.5, 1.0, 2.0], rtol=1e-9)
    np.testing.assert_allclose(fixed.factor @ fixed.inv_factor, np.eye(4), atol=1e-10)
    np.testing.assert_allclose(fixed.logdet, np.sum(np.log(evals)), rtol=1e-12)
    bel.validate(fixed, bel.LAMBDA_MIN)


def test_spectrum_floor_full_leaves_a_belief_it_lifts_nothing_of():
    # ||W||_F^2 = 40 / 0.04 = 1000 fails the O(d^2) bound 1 / lam_min = 900,
    # but every variance is above lam_min: the SVD lifts nothing
    rng = np.random.default_rng(53)
    q, _ = np.linalg.qr(rng.normal(size=(40, 40)))
    clean = bel.full_belief(np.zeros(40), q, np.full(40, 0.04))
    assert float(np.vdot(clean.inv_factor, clean.inv_factor)) > 900.0
    assert bel.correct_spectrum(clean, 1.0 / 900.0) is clean
    # a re-sync that is due still runs
    due = dataclasses.replace(clean, age=bel.RESYNC_EVERY)
    fixed = bel.correct_spectrum(due, 1.0 / 900.0)
    assert fixed is not due and fixed.age == 0
    np.testing.assert_allclose(fixed.factor @ fixed.inv_factor, np.eye(40), atol=1e-12)


def test_full_resync_repairs_injected_drift():
    rng = np.random.default_rng(43)
    clean = random_full(rng, 5)
    assert bel.correct_spectrum(clean, bel.LAMBDA_MIN) is clean
    drifted = dataclasses.replace(clean, age=7, logdet=clean.logdet + 1e-3,
                                  inv_factor=clean.inv_factor + 1e-7 * rng.normal(size=(5, 5)))
    with pytest.raises(ValueError, match="drift"):
        bel.validate(drifted)
    fixed = bel.correct_spectrum(drifted, bel.LAMBDA_MIN)
    # L is the master copy: the covariance is untouched, W and log det follow it
    np.testing.assert_array_equal(fixed.factor, clean.factor)
    np.testing.assert_allclose(fixed.factor @ fixed.inv_factor, np.eye(5), atol=1e-12)
    np.testing.assert_allclose(fixed.logdet, clean.logdet, rtol=1e-12)
    assert fixed.age == 0
    bel.validate(fixed)


def test_full_resync_fires_on_its_cadence():
    rng = np.random.default_rng(47)
    clean = random_full(rng, 3)
    young = dataclasses.replace(clean, age=bel.RESYNC_EVERY - 1)
    assert bel.correct_spectrum(young) is young
    due = dataclasses.replace(clean, age=bel.RESYNC_EVERY, logdet=0.0)
    fixed = bel.correct_spectrum(due)
    assert fixed is not due and fixed.age == 0
    np.testing.assert_allclose(fixed.logdet, clean.logdet, rtol=1e-12)


def test_snapshot_copies_diagonal_arrays_and_drops_the_full_factor():
    diag = bel.diagonal_belief(np.arange(3.0), np.full(3, 0.5))
    snap = bel.snapshot(diag)
    assert not np.shares_memory(snap.mean, diag.mean)
    assert not np.shares_memory(snap.variances, diag.variances)
    np.testing.assert_array_equal(snap.mean, diag.mean)
    np.testing.assert_array_equal(snap.variances, diag.variances)
    full = bel.full_belief(np.arange(3.0), np.eye(3), np.full(3, 0.5))
    snap = bel.snapshot(full)
    assert snap.factor is None
    assert snap.mean is full.mean and snap.inv_factor is full.inv_factor
    assert bel.snapshot(snap) is snap
    sph = bel.spherical_belief(np.arange(3.0), 0.5)
    assert bel.snapshot(sph) is sph


def test_validate_rejects_floor_violation():
    b = bel.BeliefState(bel.DIAGONAL, np.zeros(1), variances=np.array([1e-12]))
    with pytest.raises(ValueError):
        bel.validate(b, bel.LAMBDA_MIN)
