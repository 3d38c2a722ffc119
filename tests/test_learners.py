"""Online learners: one shared step interface, hand-checked update rules."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from beliefflow import belief as bel
from beliefflow import flow as fl
from beliefflow import learners as lrn
from beliefflow import models as mdl
from beliefflow.data import LabeledExample


def example(x, label, true_label=None):
    x = np.asarray(x, dtype=float)
    return LabeledExample(x, label, label if true_label is None else true_label)


def count_solves(monkeypatch):
    """Record every flow solve; a belief-flow update solves exactly once."""
    calls = []
    real_solve = fl.solve

    def counting(belief, *args):
        calls.append(belief.dim)
        return real_solve(belief, *args)

    monkeypatch.setattr(fl, "solve", counting)
    return calls


# ---------------------------------------------------------------------------
# belief-flow learner


def test_bflo_step_moves_the_belief(monkeypatch):
    spec = mdl.logistic_model(3)
    prior = bel.diagonal_belief(np.zeros(3), np.full(3, 0.04))
    learner = lrn.BeliefFlowLearner(spec, prior, eta=0.5)
    rng = np.random.default_rng(0)
    solves = count_solves(monkeypatch)
    assert learner.step(example([1.0, -1.0, 0.5], 1), rng) in (0, 1)
    assert len(solves) == 1
    assert not np.array_equal(learner.belief.mean, prior.mean)


def test_bflo_is_deterministic_given_the_rng():
    spec = mdl.logistic_model(4)
    rng_data = np.random.default_rng(1)
    stream = [example(rng_data.normal(size=4), int(rng_data.integers(0, 2)))
              for _ in range(50)]

    def run():
        prior = bel.diagonal_belief(np.zeros(4), np.full(4, 0.04))
        learner = lrn.BeliefFlowLearner(spec, prior, eta=0.1, m=2)
        rng = np.random.default_rng(99)
        predicted = [learner.step(ex, rng) for ex in stream]
        return learner.freeze(), predicted

    w_a, predicted_a = run()
    w_b, predicted_b = run()
    np.testing.assert_array_equal(w_a, w_b)
    assert predicted_a == predicted_b


def test_bflo_m_updates_per_round(monkeypatch):
    spec = mdl.logistic_model(2)
    prior = bel.spherical_belief(np.zeros(2), 0.04)
    learner = lrn.BeliefFlowLearner(spec, prior, eta=0.1, m=5)
    solves = count_solves(monkeypatch)
    learner.step(example([1.0, 0.0], 1), np.random.default_rng(0))
    assert len(solves) == 5


def test_bflo_freeze_returns_the_mean():
    spec = mdl.logistic_model(3)
    prior = bel.diagonal_belief(np.array([1.0, 2.0, 3.0]), np.ones(3))
    learner = lrn.BeliefFlowLearner(spec, prior, eta=0.1)
    np.testing.assert_array_equal(learner.freeze(), prior.mean)


def test_bflo_nonexpansive_mode_never_grows_entropy():
    spec = mdl.logistic_model(3)
    prior = bel.diagonal_belief(np.zeros(3), np.full(3, 0.04))
    learner = lrn.BeliefFlowLearner(spec, prior, eta=0.5, non_expansive=True)
    rng = np.random.default_rng(7)
    prev = bel.entropy(learner.belief)
    for _ in range(200):
        ex = example(rng.normal(size=3), int(rng.integers(0, 2)))
        learner.step(ex, rng)
        cur = bel.entropy(learner.belief)
        assert cur <= prev + 1e-10
        prev = cur


def test_bflo_variance_floor_holds_under_aggressive_steps():
    spec = mdl.logistic_model(2)
    prior = bel.diagonal_belief(np.zeros(2), np.full(2, 0.04))
    learner = lrn.BeliefFlowLearner(spec, prior, eta=5.0)
    rng = np.random.default_rng(11)
    for _ in range(300):
        learner.step(example(rng.normal(size=2) * 5.0, int(rng.integers(0, 2))), rng)
    assert learner.belief.variances.min() >= bel.LAMBDA_MIN


# ---------------------------------------------------------------------------
# diagonal rounds on the active coordinates


def reference_step(learner, ex, rng):
    """The round written out on the gathered sub-problem, in sigma form:
    sigma = sqrt(variances) once; each update draws xi, steps from
    w = mu + sigma xi to w', takes the scale of u = xi and
    v = xi + (w' - w) / sigma, sets sigma' = a sigma and mu' = w' - sigma' xi
    (mu stays where w' == w) and floors sigma; sigma is squared back once,
    where it moved. Returns (predicted, belief)."""
    spec, idx, x = mdl.active_subproblem(learner.spec, ex.x)
    target = mdl.target_vector(spec, ex.label)
    mean, variances = learner.belief.mean.copy(), learner.belief.variances.copy()
    mu, var0 = mean[idx], variances[idx]
    sigma = np.sqrt(var0)
    predicted = None
    for i in range(learner.m):
        xi = rng.standard_normal(idx.size)
        w = sigma * xi + mu
        z, grad = mdl.forward_backward(spec, w, x, target)
        if i == 0:
            predicted = mdl.predict_label(z)
        w_prime = w - learner.eta * grad
        if np.array_equal(w, w_prime):
            continue
        scales = fl.scalar_scale(xi, (w_prime - w) / sigma + xi)
        if learner.non_expansive:
            scales = np.minimum(scales, 1.0)
        sigma = scales * sigma
        mu = np.where(w == w_prime, mu, w_prime - sigma * xi)
        sigma = np.maximum(sigma, math.sqrt(bel.LAMBDA_MIN))
    mean[idx] = mu
    variances[idx] = np.where(sigma == np.sqrt(var0), var0,
                              np.maximum(sigma * sigma, bel.LAMBDA_MIN))
    return predicted, bel.BeliefState(bel.DIAGONAL, mean, variances=variances)


def textbook_step(learner, ex, rng):
    """The textbook round on the whole belief: every update samples,
    solves and applies over all d coordinates, whitening w - mu and
    w' - mu and scaling the variances. Returns (predicted, belief)."""
    target = mdl.target_vector(learner.spec, ex.label)
    belief = bel.snapshot(learner.belief)
    predicted = None
    for i in range(learner.m):
        w = bel.sample(belief, rng)
        z, grad = mdl.forward_backward(learner.spec, w, ex.x, target)
        if i == 0:
            predicted = mdl.predict_label(z)
        w_prime = w - learner.eta * grad
        flow = fl.solve(belief, w, w_prime)
        if learner.non_expansive:
            flow = fl.clamp_nonexpansive(flow)
        belief = fl.apply_flow(belief, flow, w, w_prime)
        belief = bel.correct_spectrum(belief)
    return predicted, belief


def diagonal_learner(spec, rng, **kwargs):
    d = spec.n_params
    prior = bel.diagonal_belief(rng.normal(scale=0.3, size=d), rng.uniform(0.01, 0.09, size=d))
    return lrn.BeliefFlowLearner(spec, prior, **kwargs)


@pytest.mark.parametrize("spec", [mdl.logistic_model(6), mdl.mlp_model(5, 4, 3)])
@pytest.mark.parametrize("non_expansive", [False, True])
def test_bflo_diagonal_dense_input_matches_whole_belief_loop(spec, non_expansive, monkeypatch):
    # every feature is nonzero, so the active set is every coordinate: the
    # round must reproduce its sigma-carry reference bit for bit, and the
    # textbook loop over the whole belief to rounding, at every round
    rng = np.random.default_rng(31)
    learner = diagonal_learner(spec, rng, eta=0.3, m=3, non_expansive=non_expansive)
    rng_new, rng_ref = np.random.default_rng(8), np.random.default_rng(8)
    rng_text = np.random.default_rng()
    solves = count_solves(monkeypatch)
    for _ in range(20):
        x = rng.uniform(0.1, 2.0, size=spec.n_features) * rng.choice([-1.0, 1.0], spec.n_features)
        ex = example(x, int(rng.integers(0, max(2, spec.n_outputs))))
        rng_text.bit_generator.state = rng_new.bit_generator.state
        predicted_text, text = textbook_step(learner, ex, rng_text)
        predicted, want = reference_step(learner, ex, rng_ref)
        del solves[:]
        assert learner.step(ex, rng_new) == predicted == predicted_text
        assert len(solves) == 3
        assert bel.entropy(learner.belief) == bel.entropy(want)
        np.testing.assert_array_equal(learner.belief.mean, want.mean)
        np.testing.assert_array_equal(learner.belief.variances, want.variances)
        # one round of m = 3 updates from the same belief and draws: the
        # two forms differ by rounding alone (at most 1.2e-13 relative here)
        np.testing.assert_allclose(learner.belief.mean, text.mean, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(learner.belief.variances, text.variances, rtol=1e-12,
                                   atol=0.0)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("spec", [mdl.logistic_model(12), mdl.mlp_model(12, 4, 3)])
def test_bflo_diagonal_sparse_round_is_the_whole_belief_flow(spec, monkeypatch):
    rng = np.random.default_rng(37)
    learner = diagonal_learner(spec, rng, eta=0.4, m=1)
    x = np.zeros(spec.n_features)
    x[[1, 4, 5, 10]] = rng.normal(size=4)
    ex = example(x, 1)
    target = mdl.target_vector(spec, 1)
    sub_spec, idx, x_nz = mdl.active_subproblem(spec, x)
    seen = []
    real_apply = fl.apply_flow

    def recording_apply(belief, flow, w, w_prime):
        seen.append((w.copy(), w_prime.copy()))
        return real_apply(belief, flow, w, w_prime)

    monkeypatch.setattr(fl, "apply_flow", recording_apply)
    before = bel.snapshot(learner.belief)
    rng_ref = np.random.default_rng()
    rng_ref.bit_generator.state = rng.bit_generator.state
    _, want = reference_step(learner, ex, rng_ref)
    learner.step(ex, rng)
    monkeypatch.undo()
    after = learner.belief
    np.testing.assert_array_equal(after.mean, want.mean)
    np.testing.assert_array_equal(after.variances, want.variances)
    inactive = np.setdiff1d(np.arange(spec.n_params), idx)
    assert inactive.size > 0
    np.testing.assert_array_equal(after.mean[inactive], before.mean[inactive])
    np.testing.assert_array_equal(after.variances[inactive], before.variances[inactive])
    # embed the sub-round's (w, w') into the whole belief: inactive
    # coordinates get w == w', which the whole-belief flow leaves alone
    (w_sub, w_prime_sub), = seen
    w = before.mean.copy()
    w[idx] = w_sub
    w_prime = w.copy()
    w_prime[idx] = w_prime_sub
    # the textbook flow on the whole belief whitens w - mu and w' - mu and
    # scales the variances; the round carries sigma and uses its draw as u,
    # so the two agree to rounding, and bit for bit where nothing moved
    whole = bel.correct_spectrum(fl.apply_flow(before, fl.solve(before, w, w_prime), w, w_prime))
    np.testing.assert_allclose(after.mean, whole.mean, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(after.variances, whole.variances, rtol=1e-15, atol=0.0)
    # the sub-model gradient is the full gradient on idx, zero elsewhere
    z_full, g_full = mdl.forward_backward(spec, w, x, target)
    z_sub, g_sub = mdl.forward_backward(sub_spec, w[idx], x_nz, target)
    assert np.all(g_full[inactive] == 0.0)
    np.testing.assert_allclose(z_sub, z_full, rtol=1e-15, atol=0.0)
    assert np.max(np.abs(g_sub - g_full[idx])) <= 1e-15 * np.max(np.abs(g_full))


def test_bflo_diagonal_round_touches_only_the_active_coordinates(monkeypatch):
    # MLP 50-8-3 has 435 parameters; 5 nonzero inputs leave 8 * 5 W1
    # entries plus b1, W2 and b2 = 75 active coordinates
    spec = mdl.mlp_model(50, 8, 3)
    assert spec.n_params == 435
    sizes = {"sample": [], "solve": [], "apply": []}

    def sizing(key, fn):
        def wrapped(belief, *args):
            sizes[key].append(belief.dim)
            return fn(belief, *args)
        return wrapped

    monkeypatch.setattr(bel, "sample", sizing("sample", bel.sample))
    monkeypatch.setattr(fl, "solve", sizing("solve", fl.solve))
    monkeypatch.setattr(fl, "apply_flow", sizing("apply", fl.apply_flow))
    rng = np.random.default_rng(41)
    learner = diagonal_learner(spec, rng, eta=0.2, m=4)
    for _ in range(3):
        x = np.zeros(50)
        x[rng.choice(50, 5, replace=False)] = rng.uniform(0.1, 1.0, size=5)
        learner.step(example(x, int(rng.integers(0, 3))), rng)
    assert learner.belief.dim == 435
    for key, dims in sizes.items():
        assert dims == [75] * 12, key


@pytest.mark.parametrize("spec", [mdl.logistic_model(4), mdl.mlp_model(4, 3, 2)])
def test_bflo_diagonal_all_zero_input(spec, monkeypatch):
    rng = np.random.default_rng(43)
    learner = diagonal_learner(spec, rng, eta=0.5, m=2)
    before = bel.snapshot(learner.belief)
    solves = count_solves(monkeypatch)
    assert learner.step(example(np.zeros(4), 1), rng) in (0, 1)
    assert len(solves) == 2
    if spec.kind == mdl.LOGISTIC:
        # nothing is read, so nothing moves
        np.testing.assert_array_equal(learner.belief.mean, before.mean)
        np.testing.assert_array_equal(learner.belief.variances, before.variances)
    else:
        # only the W1 entries stay; b1, W2 and b2 still learn
        n_w1 = spec.n_hidden * spec.n_features
        np.testing.assert_array_equal(learner.belief.mean[:n_w1], before.mean[:n_w1])
        assert not np.array_equal(learner.belief.mean[n_w1:], before.mean[n_w1:])


@pytest.mark.parametrize("floored", [False, True])
def test_bflo_diagonal_learners_leave_a_shared_prior_intact(floored):
    # a diagonal learner writes its belief in place, so it must own a copy of
    # the prior; a floored prior still carries the caller's mean array
    spec = mdl.logistic_model(5)
    rng = np.random.default_rng(47)
    variances = rng.uniform(0.01, 0.09, size=5)
    if floored:
        variances[0] = 1e-12
    prior = bel.diagonal_belief(rng.normal(scale=0.3, size=5), variances)
    mean0, var0 = prior.mean.copy(), prior.variances.copy()
    learners = [lrn.BeliefFlowLearner(spec, prior, eta=0.5) for _ in range(2)]
    for learner in learners:
        for _ in range(5):
            learner.step(example(rng.normal(size=5), 1), rng)
    np.testing.assert_array_equal(prior.mean, mean0)
    np.testing.assert_array_equal(prior.variances, var0)
    assert not np.array_equal(learners[0].belief.mean, learners[1].belief.mean)


def test_bflo_diagonal_non_finite_later_update_keeps_the_belief(monkeypatch):
    # the round writes into the belief only after all m updates, so a failure
    # at update 2 leaves it as update 1 found it
    spec = mdl.logistic_model(4)
    rng = np.random.default_rng(53)
    learner = diagonal_learner(spec, rng, eta=0.5, m=3)
    belief = learner.belief
    before = bel.snapshot(belief)
    calls = []
    real_forward_backward = mdl.forward_backward

    def poisoned(*args, **kwargs):
        z, grad = real_forward_backward(*args, **kwargs)
        calls.append(grad.shape[0])
        if len(calls) == 2:
            grad[0] = np.inf
        return z, grad

    monkeypatch.setattr(mdl, "forward_backward", poisoned)
    with pytest.raises(lrn.NonFiniteStepError, match="bflo-diagonal update 2 of 3"):
        learner.step(example([1.0, -0.5, 0.0, 2.0], 1), rng)
    assert calls == [3, 3]
    assert learner.belief is belief
    np.testing.assert_array_equal(belief.mean, before.mean)
    np.testing.assert_array_equal(belief.variances, before.variances)


def test_bflo_prior_below_the_floor_is_floored():
    spec = mdl.logistic_model(3)
    prior = bel.diagonal_belief(np.zeros(3), np.array([1e-12, 0.04, 0.04]))
    learner = lrn.BeliefFlowLearner(spec, prior, eta=0.1)
    learner.step(example([0.0, 1.0, 1.0], 1), np.random.default_rng(0))
    assert learner.belief.variances[0] == bel.LAMBDA_MIN


@pytest.mark.parametrize("variant", bel.VARIANTS)
def test_bflo_non_finite_step_raises_and_keeps_the_belief(variant, monkeypatch):
    spec = mdl.logistic_model(3)
    priors = {bel.FULL: bel.full_belief(np.zeros(3), np.eye(3), np.full(3, 0.04)),
              bel.DIAGONAL: bel.diagonal_belief(np.zeros(3), np.full(3, 0.04)),
              bel.SPHERICAL: bel.spherical_belief(np.zeros(3), 0.04)}
    learner = lrn.BeliefFlowLearner(spec, priors[variant], eta=0.1, m=3)
    before = learner.belief
    solves = count_solves(monkeypatch)
    with pytest.raises(lrn.NonFiniteStepError, match=f"bflo-{variant} update 1 of 3"), \
            np.errstate(invalid="ignore"):
        learner.step(example([1.0, np.inf, 0.0], 0), np.random.default_rng(0))
    assert learner.belief is before
    assert solves == []


DENSE_DECOMPOSITIONS = ("eigh", "eigvalsh", "eig", "inv", "pinv", "svd", "qr",
                        "cholesky", "solve", "lstsq", "slogdet", "det")


def test_bflo_full_round_runs_no_dense_decomposition(monkeypatch):
    # a full-covariance round is O(d^2): no d x d decomposition may run
    # before the resync cadence comes due
    d = 50
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            if any(isinstance(a, np.ndarray) and a.ndim >= 2 and a.shape[-2:] == (d, d)
                   for a in args):
                calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for name in DENSE_DECOMPOSITIONS:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    spec = mdl.logistic_model(d)
    prior = bel.full_belief(np.zeros(d), np.eye(d), np.full(d, 0.04))
    learner = lrn.BeliefFlowLearner(spec, prior, eta=0.2)
    rng = np.random.default_rng(13)
    rounds = 150
    assert rounds < bel.RESYNC_EVERY
    for _ in range(rounds):
        learner.step(example(rng.normal(size=d), int(rng.integers(0, 2))), rng)
    assert learner.belief.age == rounds
    assert calls == []
    # the counter does see the O(d^3) resync once it is due
    bel.correct_spectrum(dataclasses.replace(learner.belief, age=bel.RESYNC_EVERY))
    assert "inv" in calls


def test_a_full_round_updates_its_owned_pair_in_place():
    # d = 300, as in the dense benchmark: once a first round has run, a
    # round allocates nothing the size of L or W, whose fresh copies used
    # to cost page faults every round; the learner's L, W and work array
    # stay C-ordered, and the caller's prior keeps its bytes
    d = 300
    spec = mdl.logistic_model(d)
    rng = np.random.default_rng(83)
    prior = bel.full_belief(np.zeros(d), np.eye(d), np.full(d, 0.04))
    before = [prior.mean.tobytes(), prior.factor.tobytes(), prior.inv_factor.tobytes()]
    learner = lrn.BeliefFlowLearner(spec, prior, eta=0.05)
    examples = [example(rng.normal(size=d), int(rng.integers(0, 2))) for _ in range(10)]
    learner.step(examples[0], rng)
    peaks = []
    tracemalloc.start()
    try:
        for ex in examples[1:]:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            learner.step(ex, rng)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert max(peaks) < d * d * 8 // 2, peaks
    owned = learner.belief
    assert learner.belief.age == 10
    for arr in (owned.factor, owned.inv_factor, owned.work):
        assert arr.flags.c_contiguous and arr.shape == (d, d)
    assert [prior.mean.tobytes(), prior.factor.tobytes(), prior.inv_factor.tobytes()] == before


def test_apply_flow_leaves_a_plain_full_belief_as_it_was():
    rng = np.random.default_rng(89)
    d = 6
    q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    belief = bel.full_belief(rng.normal(size=d), q, rng.uniform(0.1, 2.0, size=d))
    arrays = (belief.mean, belief.factor, belief.inv_factor)
    before = [a.tobytes() for a in arrays]
    w = bel.sample(belief, rng)
    w_prime = w + rng.normal(scale=0.3, size=d)
    post = fl.apply_flow(belief, fl.solve(belief, w, w_prime), w, w_prime)
    assert [a.tobytes() for a in arrays] == before
    assert not any(np.shares_memory(a, b) for a in arrays
                   for b in (post.mean, post.factor, post.inv_factor))
    # an owned copy of the same belief moves in place to the same bytes
    owned = bel.own(belief)
    moved = fl.apply_flow(owned, fl.solve(owned, w, w_prime), w, w_prime)
    assert moved.factor is owned.factor and moved.inv_factor is owned.inv_factor
    assert moved.factor.tobytes() == np.ascontiguousarray(post.factor).tobytes()
    assert moved.inv_factor.tobytes() == np.ascontiguousarray(post.inv_factor).tobytes()
    assert moved.mean.tobytes() == post.mean.tobytes() and moved.logdet == post.logdet


# ---------------------------------------------------------------------------
# SGD and Langevin


def test_sgd_step_is_one_gradient_step():
    spec = mdl.logistic_model(2)
    w0 = np.array([0.3, -0.4])
    learner = lrn.SGDLearner(spec, w0, eta=0.25)
    x = np.array([1.0, 2.0])
    _, grad = mdl.forward_backward(spec, w0, x, np.array([1.0]))
    learner.step(example(x, 1), np.random.default_rng(0))
    np.testing.assert_allclose(learner.freeze(), w0 - 0.25 * grad, rtol=1e-12)


def test_sgd_m_repeats_the_step():
    spec = mdl.logistic_model(2)
    w0 = np.array([0.3, -0.4])
    x = np.array([1.0, 2.0])
    manual = w0.copy()
    for _ in range(3):
        _, g = mdl.forward_backward(spec, manual, x, np.array([1.0]))
        manual = manual - 0.1 * g
    learner = lrn.SGDLearner(spec, w0, eta=0.1, m=3)
    learner.step(example(x, 1), np.random.default_rng(0))
    np.testing.assert_allclose(learner.freeze(), manual, rtol=1e-12)


def test_langevin_adds_scaled_noise():
    spec = mdl.logistic_model(2)
    w0 = np.array([0.1, 0.2])
    x = np.array([1.0, -1.0])
    eta = 0.05
    learner = lrn.LangevinSGDLearner(spec, w0, eta=eta)
    learner.step(example(x, 0), np.random.default_rng(42))
    # replay: gradient step plus sqrt(2 eta) noise from the same stream
    _, g = mdl.forward_backward(spec, w0, x, np.array([0.0]))
    rng = np.random.default_rng(42)
    want = w0 - eta * g + math.sqrt(2.0 * eta) * rng.standard_normal(2)
    np.testing.assert_allclose(learner.freeze(), want, rtol=1e-12)


# One loop body each for sgd, blang and dropout, as the learners ran them
# before the shared SGD round and the masked forward_backward; the learners
# must reproduce them bit for bit.


def reference_sgd_round(spec, w, eta, m, ex, rng):
    target = mdl.target_vector(spec, ex.label)
    predicted = None
    for i in range(m):
        z, grad = mdl.forward_backward(spec, w, ex.x, target)
        if i == 0:
            predicted = mdl.predict_label(z)
        w -= eta * grad
    return predicted


def reference_blang_round(spec, w, eta, m, ex, rng):
    target = mdl.target_vector(spec, ex.label)
    predicted = None
    noise_scale = np.sqrt(2.0 * eta)
    for i in range(m):
        z, grad = mdl.forward_backward(spec, w, ex.x, target)
        if i == 0:
            predicted = mdl.predict_label(z)
        w += -eta * grad + noise_scale * rng.standard_normal(w.shape[0])
    return predicted


def reference_dropout_round(spec, w, eta, m, ex, rng, p_drop):
    target = mdl.target_vector(spec, ex.label)
    w1, b1, w2, b2 = mdl.unpack_mlp(spec, w)
    z_eval = mdl.sigmoid(w2 @ ((1.0 - p_drop) * mdl.sigmoid(w1 @ ex.x + b1)) + b2)
    predicted = mdl.predict_label(z_eval)
    k = spec.n_outputs
    for _ in range(m):
        w1, b1, w2, b2 = mdl.unpack_mlp(spec, w)
        keep = rng.random(spec.n_hidden) >= p_drop
        hidden = mdl.sigmoid(w1 @ ex.x + b1) * keep
        z = mdl.sigmoid(w2 @ hidden + b2)
        delta2 = (z - target) / k
        delta1 = (w2.T @ delta2) * hidden * (1.0 - hidden) * keep
        grad = np.concatenate([
            np.outer(delta1, ex.x).ravel(),
            delta1,
            np.outer(delta2, hidden).ravel(),
            delta2,
        ])
        w -= eta * grad
    return predicted


def gathered(reference):
    """The reference round on the example's active sub-problem, as the
    learners run it: the coordinates the forward pass reads are gathered
    once, take all m steps and are written back once. On an MLP this
    changes the rounding of W1 x, which no longer sums the zero inputs."""
    def round_on_active(spec, w, eta, m, ex, rng, **kwargs):
        sub, idx, x = mdl.active_subproblem(spec, ex.x)
        w_sub = w[idx]
        predicted = reference(sub, w_sub, eta, m, example(x, ex.label), rng, **kwargs)
        w[idx] = w_sub
        return predicted
    return round_on_active


def assert_replays_reference(learner, reference, spec, seed, **kwargs):
    rng_data = np.random.default_rng(seed)
    w_ref = learner.w.copy()
    rng_new, rng_ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    for _ in range(10):
        x = rng_data.normal(size=spec.n_features)
        x[rng_data.random(spec.n_features) < 0.3] = 0.0
        ex = example(x, int(rng_data.integers(0, max(2, spec.n_outputs))))
        want = reference(spec, w_ref, learner.eta, learner.m, ex, rng_ref, **kwargs)
        assert learner.step(ex, rng_new) == want
        assert learner.w.tobytes() == w_ref.tobytes()
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("spec", [mdl.logistic_model(6), mdl.mlp_model(6, 5, 3)])
@pytest.mark.parametrize("cls, reference", [(lrn.SGDLearner, reference_sgd_round),
                                            (lrn.LangevinSGDLearner, reference_blang_round)])
def test_sgd_and_langevin_replay_their_reference_rounds(spec, cls, reference):
    # sgd runs on the gathered sub-problem; a logistic model's dot product
    # over the nonzero features still has the dense bytes here, an MLP's
    # W1 x does not. blang's noise reaches every coordinate, so it is dense.
    if cls is lrn.SGDLearner and spec.kind == mdl.MLP:
        reference = gathered(reference)
    w0 = np.random.default_rng(51).normal(scale=0.5, size=spec.n_params)
    assert_replays_reference(cls(spec, w0, eta=0.3, m=3), reference, spec, seed=52)


@pytest.mark.parametrize("spec", [mdl.mlp_model(6, 5, 1), mdl.mlp_model(6, 5, 3)])
def test_dropout_replays_its_reference_round(spec):
    w0 = np.random.default_rng(53).normal(scale=0.5, size=spec.n_params)
    learner = lrn.DropoutSGDLearner(spec, w0, eta=0.3, p_drop=0.4, m=3)
    assert_replays_reference(learner, gathered(reference_dropout_round), spec, seed=54,
                             p_drop=0.4)


ACTIVE_SPEC = mdl.mlp_model(12, 5, 3)


def sparse_examples(seed, n):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        x = np.zeros(ACTIVE_SPEC.n_features)
        x[rng.choice(ACTIVE_SPEC.n_features, 4, replace=False)] = rng.normal(size=4)
        yield example(x, int(rng.integers(0, ACTIVE_SPEC.n_outputs)))


@pytest.mark.parametrize("tag", ["sgd", "dropout"])
def test_sgd_and_dropout_rounds_run_on_the_active_coordinates(tag):
    spec = ACTIVE_SPEC
    w0 = np.random.default_rng(55).normal(scale=0.5, size=spec.n_params)
    if tag == "sgd":
        learner, dense, kwargs = lrn.SGDLearner(spec, w0, eta=0.3, m=3), reference_sgd_round, {}
    else:
        learner = lrn.DropoutSGDLearner(spec, w0, eta=0.3, p_drop=0.4, m=3)
        dense, kwargs = reference_dropout_round, {"p_drop": 0.4}
    w_dense = w0.copy()
    rng_new, rng_dense = np.random.default_rng(56), np.random.default_rng(56)
    for ex in sparse_examples(57, 8):
        sub, idx, x_nz = mdl.active_subproblem(spec, ex.x)
        inactive = np.setdiff1d(np.arange(spec.n_params), idx)
        before = learner.w.copy()
        # the sub-model gradient is the dense one on idx, with or without
        # dropped hidden units
        target = mdl.target_vector(spec, ex.label)
        mask = np.random.default_rng(58).random(spec.n_hidden) >= 0.4
        for hidden_mask in (None, mask):
            _, g_full = mdl.forward_backward(spec, before, ex.x, target, hidden_mask=hidden_mask)
            _, g_sub = mdl.forward_backward(sub, before[idx], x_nz, target,
                                            hidden_mask=hidden_mask)
            assert np.all(g_full[inactive] == 0.0)
            assert np.max(np.abs(g_sub - g_full[idx])) <= 1e-15 * np.max(np.abs(g_full))
        learner.step(ex, rng_new)
        assert learner.w[inactive].tobytes() == before[inactive].tobytes()
        # the draws are the dense round's, so the rng moves as it did
        dense(spec, w_dense, learner.eta, learner.m, ex, rng_dense, **kwargs)
        assert rng_new.bit_generator.state == rng_dense.bit_generator.state
    np.testing.assert_allclose(learner.w, w_dense, rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# work arrays


ROUND_LEARNERS = {
    "bflo-diagonal": lambda spec, rng: lrn.BeliefFlowLearner(
        spec, bel.diagonal_belief(np.zeros(spec.n_params), np.full(spec.n_params, 0.01)),
        eta=0.2, m=5),
    "sgd": lambda spec, rng: lrn.SGDLearner(
        spec, rng.normal(scale=0.1, size=spec.n_params), eta=0.2, m=5),
    "dropout": lambda spec, rng: lrn.DropoutSGDLearner(
        spec, rng.normal(scale=0.1, size=spec.n_params), eta=0.2, p_drop=0.5, m=5),
}


@pytest.mark.parametrize("tag", sorted(ROUND_LEARNERS))
def test_a_round_allocates_nothing_the_size_of_the_model(tag):
    # MLP 784-200-10 with 157 of 784 inputs nonzero, as in MNIST: once a
    # first round has grown the learner's work arrays to the active set,
    # a round's peak of traced allocations stays far below one d-sized
    # float array; the d-sized temporaries it used to make each cost page
    # faults on every round
    spec = mdl.mlp_model(784, 200, 10)
    rng = np.random.default_rng(71)
    learner = ROUND_LEARNERS[tag](spec, rng)
    examples = []
    for _ in range(3):
        x = np.zeros(spec.n_features)
        x[rng.choice(spec.n_features, 157, replace=False)] = rng.uniform(0.1, 1.0, size=157)
        examples.append(example(x, int(rng.integers(0, spec.n_outputs))))
    learner.step(examples[0], rng)
    peaks = []
    tracemalloc.start()
    try:
        for ex in examples[1:]:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            learner.step(ex, rng)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert max(peaks) < spec.n_params * 8 // 2, peaks


# ---------------------------------------------------------------------------
# shared construction rules


@pytest.mark.parametrize("cls", [lrn.BeliefFlowLearner, lrn.SGDLearner, lrn.LangevinSGDLearner,
                                 lrn.AROWLearner, lrn.DropoutSGDLearner])
def test_every_learner_class_owns_its_step(cls):
    # wrapping cls.__dict__["step"] must reach exactly this class's rounds
    assert callable(cls.__dict__["step"])


class BlindExample:
    """An example whose true label cannot be read."""

    def __init__(self, x, label):
        self.x = np.asarray(x, dtype=float)
        self.label = label

    @property
    def true_label(self):
        raise AssertionError("a learner read the true label")


BLIND_SPEC = mdl.mlp_model(3, 2, 1)
BLIND_PRIORS = {
    bel.FULL: bel.full_belief(np.zeros(BLIND_SPEC.n_params), np.eye(BLIND_SPEC.n_params),
                              np.full(BLIND_SPEC.n_params, 0.04)),
    bel.DIAGONAL: bel.diagonal_belief(np.zeros(BLIND_SPEC.n_params),
                                      np.full(BLIND_SPEC.n_params, 0.04)),
    bel.SPHERICAL: bel.spherical_belief(np.zeros(BLIND_SPEC.n_params), 0.04),
}
BLIND_LEARNERS = {
    **{f"bflo-{v}": lambda v=v: lrn.BeliefFlowLearner(BLIND_SPEC, BLIND_PRIORS[v], eta=0.1, m=2)
       for v in bel.VARIANTS},
    "sgd": lambda: lrn.SGDLearner(BLIND_SPEC, np.full(BLIND_SPEC.n_params, 0.1), eta=0.1, m=2),
    "blang": lambda: lrn.LangevinSGDLearner(BLIND_SPEC, np.full(BLIND_SPEC.n_params, 0.1),
                                            eta=0.1, m=2),
    "arow": lambda: lrn.AROWLearner(3),
    "dropout": lambda: lrn.DropoutSGDLearner(BLIND_SPEC, np.full(BLIND_SPEC.n_params, 0.1),
                                             eta=0.1, p_drop=0.3, m=2),
}


@pytest.mark.parametrize("tag", sorted(BLIND_LEARNERS))
def test_no_learner_reads_the_true_label(tag):
    learner = BLIND_LEARNERS[tag]()
    rng = np.random.default_rng(61)
    for label in (0, 1, 1, 0):
        assert learner.step(BlindExample(rng.normal(size=3), label), rng) in (0, 1)


def learner_with_m(cls, m):
    spec = mdl.mlp_model(3, 2, 1)
    if cls is lrn.BeliefFlowLearner:
        prior = bel.diagonal_belief(np.zeros(spec.n_params), np.full(spec.n_params, 0.04))
        return cls(spec, prior, eta=0.1, m=m)
    return cls(spec, np.zeros(spec.n_params), eta=0.1, m=m)


@pytest.mark.parametrize("cls", [lrn.BeliefFlowLearner, lrn.SGDLearner,
                                 lrn.LangevinSGDLearner, lrn.DropoutSGDLearner])
@pytest.mark.parametrize("m", [0, -2, 2.0, True, "3"])
def test_constructors_reject_m_below_one_or_not_an_integer(cls, m):
    with pytest.raises(ValueError, match="m must be an integer >= 1"):
        learner_with_m(cls, m)


# ---------------------------------------------------------------------------
# AROW


def test_arow_hand_case():
    # Sigma=I, r=10, x=(1,0), y=+1, mu=0: beta=1/11, alpha=1/11
    learner = lrn.AROWLearner(2, r=10.0)
    learner.step(example([1.0, 0.0], 1), np.random.default_rng(0))
    np.testing.assert_allclose(learner.mu, [1.0 / 11.0, 0.0], rtol=1e-12)
    np.testing.assert_allclose(learner.var, [10.0 / 11.0, 1.0], rtol=1e-12)


def test_arow_skips_confident_margins():
    learner = lrn.AROWLearner(2, r=10.0)
    learner.mu = np.array([5.0, 0.0])
    before_var = learner.var.copy()
    assert learner.step(example([1.0, 0.0], 1), np.random.default_rng(0)) == 1
    np.testing.assert_array_equal(learner.mu, [5.0, 0.0])
    np.testing.assert_array_equal(learner.var, before_var)


def test_arow_updates_on_wrong_side_of_margin():
    learner = lrn.AROWLearner(2, r=10.0)
    learner.mu = np.array([5.0, 0.0])
    learner.step(example([1.0, 0.0], 0), np.random.default_rng(0))  # y = -1 internally
    assert learner.mu[0] < 5.0
    assert learner.var[0] < 1.0


def test_arow_variances_stay_positive():
    learner = lrn.AROWLearner(3, r=10.0)
    rng = np.random.default_rng(13)
    for _ in range(500):
        learner.step(example(rng.normal(size=3), int(rng.integers(0, 2))), rng)
    assert np.all(learner.var > 0.0)


# ---------------------------------------------------------------------------
# dropout


def test_dropout_requires_a_hidden_layer():
    with pytest.raises(ValueError):
        lrn.DropoutSGDLearner(mdl.logistic_model(3), np.zeros(3), eta=0.1)


def test_dropout_freeze_scales_the_output_weights():
    spec = mdl.mlp_model(3, 4, 2)
    rng = np.random.default_rng(17)
    w0 = rng.normal(size=spec.n_params)
    learner = lrn.DropoutSGDLearner(spec, w0, eta=0.1, p_drop=0.5)
    frozen = learner.freeze()
    w1, b1, w2, b2 = mdl.unpack_mlp(spec, learner.w)
    fw1, fb1, fw2, fb2 = mdl.unpack_mlp(spec, frozen)
    np.testing.assert_array_equal(fw1, w1)
    np.testing.assert_array_equal(fb1, b1)
    np.testing.assert_allclose(fw2, 0.5 * w2, rtol=1e-12)
    np.testing.assert_array_equal(fb2, b2)


def test_dropout_prediction_uses_scaled_hidden_units():
    spec = mdl.mlp_model(2, 3, 1)
    w0 = np.random.default_rng(19).normal(size=spec.n_params)
    learner = lrn.DropoutSGDLearner(spec, w0, eta=0.0, p_drop=0.5)
    x = np.array([0.7, -0.3])
    predicted = learner.step(example(x, 1), np.random.default_rng(0))
    z = mdl.forward(spec, learner.freeze(), x)
    assert predicted == mdl.predict_label(z)


def test_dropout_updates_change_only_kept_units():
    spec = mdl.mlp_model(2, 8, 1)
    rng = np.random.default_rng(23)
    w0 = rng.normal(size=spec.n_params)
    learner = lrn.DropoutSGDLearner(spec, w0.copy(), eta=0.3, p_drop=0.9)
    learner.step(example([1.0, 1.0], 1), rng)
    w1, b1, w2, b2 = mdl.unpack_mlp(spec, learner.w)
    ow1, ob1, ow2, ob2 = mdl.unpack_mlp(spec, w0)
    # with p_drop=0.9 most hidden units are dropped: their incoming rows,
    # biases, and outgoing columns must be untouched
    dropped_rows = np.all(w1 == ow1, axis=1) & (b1 == ob1) & np.all(w2 == ow2, axis=0)
    assert dropped_rows.sum() >= 4


def test_snapshot_of_an_owned_full_belief_keeps_its_w_while_the_learner_steps():
    # the learner's W is updated in place every round; a snapshot holds a copy
    spec = mdl.logistic_model(4)
    prior = bel.full_belief(np.zeros(4), np.eye(4), np.full(4, 0.04))
    learner = lrn.BeliefFlowLearner(spec, prior, eta=0.5)
    rng = np.random.default_rng(47)
    stream = [example(rng.normal(size=4), int(rng.integers(0, 2))) for _ in range(6)]
    learner.step(stream[0], rng)
    assert isinstance(learner.belief, bel.OwnedFull)
    snap = bel.snapshot(learner.belief)
    kept = snap.inv_factor.tobytes()
    assert not np.shares_memory(snap.inv_factor, learner.belief.inv_factor)
    for ex in stream[1:]:
        learner.step(ex, rng)
    assert snap.inv_factor.tobytes() == kept
    assert learner.belief.inv_factor.tobytes() != kept
