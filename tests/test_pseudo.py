"""Pseudo datapoints: extraction, conjugate round trips, trace emission."""

import numpy as np
import pytest

from beliefflow import belief as bel
from beliefflow import flow as fl
from beliefflow import pseudo as psd

# Frozen 1-D spot values, verified by running the conjugate Gaussian update
# forward from the extracted (x, R) and recovering the posterior.
# prior N(0,1) -> posterior N(-0.707107, 0.5): contraction, R positive.
SPOT_CONTRACT = dict(x=-1.4142135623730951, r=1.0)
# prior N(0,1) -> posterior N(0.633975, 1.866025): expansion, R negative.
SPOT_EXPAND = dict(x=-0.7320508075688772, r=-2.1547005383792515)


def random_full(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return bel.full_belief(rng.normal(size=d), q, rng.uniform(0.3, 2.5, size=d) ** 2)


def beliefs_close(a, b, rtol=1e-8):
    np.testing.assert_allclose(a.mean, b.mean, rtol=rtol, atol=1e-10)
    np.testing.assert_allclose(bel.covariance(a), bel.covariance(b), rtol=rtol, atol=1e-10)


def test_contraction_spot_value():
    prior = bel.diagonal_belief(np.zeros(1), np.ones(1))
    post = bel.diagonal_belief(np.array([-0.7071067811865476]), np.array([0.5]))
    pd = psd.extract_pseudo(prior, post)
    np.testing.assert_allclose(pd.x, [SPOT_CONTRACT["x"]], atol=1e-5)
    np.testing.assert_allclose(pd.cov, [SPOT_CONTRACT["r"]], atol=1e-5)
    beliefs_close(psd.bayes_update_gaussian(prior, pd.x, pd.cov), post)


def test_expansion_spot_value_negative_r():
    # taken from the u=1, v=2 flow: variance grows, so R is negative
    prior = bel.diagonal_belief(np.zeros(1), np.ones(1))
    post = bel.diagonal_belief(np.array([0.6339745962155614]),
                               np.array([1.8660254037844386]))
    pd = psd.extract_pseudo(prior, post)
    np.testing.assert_allclose(pd.x, [SPOT_EXPAND["x"]], atol=1e-3)
    np.testing.assert_allclose(pd.cov, [SPOT_EXPAND["r"]], atol=1e-3)
    assert pd.cov[0] < 0.0
    beliefs_close(psd.bayes_update_gaussian(prior, pd.x, pd.cov), post)


def test_round_trip_diagonal():
    rng = np.random.default_rng(3)
    for _ in range(100):
        d = int(rng.integers(1, 7))
        prior = bel.diagonal_belief(rng.normal(size=d), rng.uniform(0.3, 2.5, size=d))
        post = bel.diagonal_belief(rng.normal(size=d), rng.uniform(0.3, 2.5, size=d))
        pd = psd.extract_pseudo(prior, post)
        beliefs_close(psd.bayes_update_gaussian(prior, pd.x, pd.cov), post)


def test_round_trip_spherical():
    rng = np.random.default_rng(5)
    for _ in range(100):
        d = int(rng.integers(1, 7))
        prior = bel.spherical_belief(rng.normal(size=d), float(rng.uniform(0.3, 2.5)))
        post = bel.spherical_belief(rng.normal(size=d), float(rng.uniform(0.3, 2.5)))
        pd = psd.extract_pseudo(prior, post)
        beliefs_close(psd.bayes_update_gaussian(prior, pd.x, pd.cov), post)


def test_round_trip_full():
    rng = np.random.default_rng(7)
    for _ in range(60):
        d = int(rng.integers(1, 6))
        prior = random_full(rng, d)
        post = random_full(rng, d)
        pd = psd.extract_pseudo(prior, post)
        beliefs_close(psd.bayes_update_gaussian(prior, pd.x, pd.cov), post)


def test_untouched_coordinates_get_infinite_variance():
    prior = bel.diagonal_belief(np.zeros(3), np.array([1.0, 2.0, 3.0]))
    post = bel.diagonal_belief(np.array([0.0, 0.5, 0.0]), np.array([1.0, 1.0, 3.0]))
    pd = psd.extract_pseudo(prior, post)
    assert np.isinf(pd.cov[0]) and np.isinf(pd.cov[2])
    assert np.isfinite(pd.cov[1])
    beliefs_close(psd.bayes_update_gaussian(prior, pd.x, pd.cov), post)


def test_no_datapoint_for_identical_beliefs():
    prior = bel.diagonal_belief(np.ones(2), np.full(2, 0.7))
    assert psd.extract_pseudo(prior, prior) is None


def test_r_sign_tracks_variance_direction():
    prior = bel.spherical_belief(np.zeros(2), 1.0)
    shrunk = bel.spherical_belief(np.array([0.1, 0.0]), 0.5)
    grown = bel.spherical_belief(np.array([0.1, 0.0]), 2.0)
    assert float(psd.extract_pseudo(prior, shrunk).cov) > 0.0
    assert float(psd.extract_pseudo(prior, grown).cov) < 0.0


def test_nonexpansive_updates_always_give_psd_r():
    # with the singular-value clamp the posterior never grows, so the
    # pseudo observation is a genuine (PSD) one in every moved direction
    rng = np.random.default_rng(11)
    prior = bel.diagonal_belief(np.zeros(4), np.ones(4))
    for _ in range(200):
        w = bel.sample(prior, rng)
        w_prime = w + rng.normal(scale=1.5, size=4)
        flow = fl.clamp_nonexpansive(fl.solve_diagonal(prior, w, w_prime))
        post = fl.apply_flow(prior, flow, w, w_prime)
        pd = psd.extract_pseudo(prior, post)
        if pd is None:
            continue
        finite = np.isfinite(pd.cov)
        assert np.all(pd.cov[finite] >= -1e-12)


def test_full_extraction_raises_on_rank_deficient_difference():
    # a full-covariance flow only moves a low-dimensional subspace, so the
    # precision difference is singular for d above the flow plane
    rng = np.random.default_rng(13)
    prior = random_full(rng, 6)
    w = bel.sample(prior, rng)
    w_prime = w + rng.normal(size=6)
    flow = fl.solve_full(prior, w, w_prime)
    post = fl.apply_flow(prior, flow, w, w_prime)
    with pytest.raises(ValueError):
        psd.extract_pseudo(prior, post)


def test_trace_rows_for_a_spherical_run():
    rng = np.random.default_rng(17)
    snapshots = [(0, bel.spherical_belief(np.zeros(3), 1.0))]
    state = snapshots[0][1]
    for rnd in range(1, 6):
        w = bel.sample(state, rng)
        w_prime = w - 0.3 * rng.normal(size=3)
        flow = fl.solve_spherical(state, w, w_prime)
        state = fl.apply_flow(state, flow, w, w_prime)
        snapshots.append((rnd, state))
    rows = psd.pseudo_trace(snapshots)
    assert len(rows) == 5
    live = [r for r in rows if not r.degenerate]
    assert live, "every interval moved the belief"
    for row in live:
        assert row.rho is not None
        assert row.x.shape == (3,)
    # cumulative rho really is the running sum of rho over live rows
    cums = [r.cum_rho for r in live]
    np.testing.assert_allclose(cums, np.cumsum([r.rho for r in live]), rtol=1e-12)


def test_diagonal_trace_rows_keep_every_coordinate():
    # a row used to list only the finite R values, and nothing said which
    # coordinates they belonged to
    prior = bel.diagonal_belief(np.zeros(4), np.ones(4))
    post = bel.diagonal_belief(np.array([0.3, 0.0, -0.2, 0.0]), np.array([0.5, 1.0, 0.8, 1.0]))
    row, = psd.pseudo_trace([(0, prior), (1, post)])
    pd = psd.extract_pseudo(prior, post)
    assert row.x.shape == row.eigenvalues.shape == (4,)
    np.testing.assert_array_equal(row.x, pd.x)
    np.testing.assert_array_equal(row.eigenvalues, pd.cov)
    assert np.isinf(row.eigenvalues[[1, 3]]).all() and np.isfinite(row.eigenvalues[[0, 2]]).all()
    back = psd.bayes_update_gaussian(prior, row.x, row.eigenvalues)
    np.testing.assert_allclose(back.variances, post.variances, rtol=1e-12)
    np.testing.assert_allclose(back.mean, post.mean, atol=1e-12)


def test_trace_marks_identity_intervals_degenerate():
    b = bel.spherical_belief(np.zeros(2), 1.0)
    rows = psd.pseudo_trace([(0, b), (1, b), (2, b)])
    assert all(r.degenerate for r in rows)


def test_trace_full_variant_reports_informative_eigenvalues():
    rng = np.random.default_rng(19)
    prior = random_full(rng, 5)
    w = bel.sample(prior, rng)
    w_prime = w + rng.normal(size=5)
    flow = fl.solve_full(prior, w, w_prime)
    post = fl.apply_flow(prior, flow, w, w_prime)
    rows = psd.pseudo_trace([(0, prior), (1, post)])
    assert len(rows) == 1
    row = rows[0]
    assert not row.degenerate
    # the flow changes precision in a low-rank subspace only
    assert 1 <= row.eigenvalues.shape[0] <= 4
    assert np.all(np.abs(row.eigenvalues) > 0.0)


def test_full_trace_reports_one_eigenvalue_for_a_rank_one_change():
    # W' = (I + beta g g^T) W changes the precision W^T W by a rank-one
    # term that is small against ||W||^2, so forming the difference leaves
    # roundoff of about 1e-13 in every other direction
    rng = np.random.default_rng(23)
    d = 100
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    w = q / 0.2  # Sigma = 0.04 I
    g = rng.normal(size=d)
    g /= np.linalg.norm(g)
    beta = 1e-6
    w_post = w + beta * np.outer(g, g @ w)
    want = ((1.0 + beta) ** 2 - 1.0) * float(np.sum((g @ w) ** 2))
    prior = bel.BeliefState(bel.FULL, np.zeros(d), inv_factor=w)
    post = bel.BeliefState(bel.FULL, np.zeros(d), inv_factor=w_post)
    row, = psd.pseudo_trace([(0, prior), (1, post)])
    assert not row.degenerate
    assert row.eigenvalues.shape == (1,)
    np.testing.assert_allclose(1.0 / row.eigenvalues, [want], rtol=1e-6)
    with pytest.raises(ValueError, match="singular"):
        psd.extract_pseudo(prior, post)


def test_full_trace_reports_nothing_where_a_clamped_run_did_not_move(tmp_path):
    # with the non-expansive clamp the precision never shrinks; about half
    # of this run's rounds leave it unchanged up to roundoff (|lambda| of the
    # difference below 1e-14), and those rows must be degenerate, not six
    # roundoff "eigenvalues" of either sign
    from beliefflow import harness as hns

    cfg = hns.ExperimentConfig.from_dict({
        "name": "clamped",
        "dataset": {"format": "synthetic", "n": 120, "n_features": 6, "seed": 5,
                    "flip_fraction": 0.1},
        "learner": {"algorithm": "bflo", "variant": "full", "non_expansive": True,
                    "eta": 0.05},
        "base_seed": 7,
    })
    hns.run_online(cfg, 0, tmp_path / "snapshots.bin")
    snapshots = hns.read_snapshots(tmp_path / "snapshots.bin")
    rows = psd.pseudo_trace(snapshots)
    snapshots = [(rnd, state) for rnd, state, _ in fl.replay(snapshots)]
    unmoved = 0
    for row, ((_, prev), (_, cur)) in zip(rows, zip(snapshots, snapshots[1:])):
        dprec = cur.inv_factor.T @ cur.inv_factor - prev.inv_factor.T @ prev.inv_factor
        if np.max(np.abs(np.linalg.eigvalsh(0.5 * (dprec + dprec.T)))) < 1e-12:
            unmoved += 1
            assert row.degenerate, row.round
            assert psd.extract_pseudo(prev, cur) is None
        else:
            # one round moves the precision on a plane, and never down
            assert 1 <= row.eigenvalues.size <= 2, row.round
            assert np.all(row.eigenvalues > 0.0), row.round
    assert unmoved > 0
