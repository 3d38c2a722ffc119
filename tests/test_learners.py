"""Online learners: one shared step interface, hand-checked update rules."""

import dataclasses
import math

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


# ---------------------------------------------------------------------------
# belief-flow learner


def test_bflo_step_moves_the_belief():
    spec = mdl.logistic_model(3)
    prior = bel.diagonal_belief(np.zeros(3), np.full(3, 0.04))
    learner = lrn.BeliefFlowLearner(spec, prior, eta=0.5)
    rng = np.random.default_rng(0)
    out = learner.step(example([1.0, -1.0, 0.5], 1), rng)
    assert out.predicted in (0, 1)
    assert math.isfinite(out.loss)
    assert out.entropy is not None
    assert learner.n_updates == 1
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
        outs = [learner.step(ex, rng) for ex in stream]
        return learner.freeze(), [o.correct for o in outs]

    w_a, correct_a = run()
    w_b, correct_b = run()
    np.testing.assert_array_equal(w_a, w_b)
    assert correct_a == correct_b


def test_bflo_m_updates_per_round():
    spec = mdl.logistic_model(2)
    prior = bel.spherical_belief(np.zeros(2), 0.04)
    learner = lrn.BeliefFlowLearner(spec, prior, eta=0.1, m=5)
    learner.step(example([1.0, 0.0], 1), np.random.default_rng(0))
    assert learner.n_updates == 5


def test_bflo_correctness_judged_against_true_label():
    # strongly positive belief, observed label flipped: prediction is 1,
    # correctness must compare against the true label, not the observed one
    spec = mdl.logistic_model(1)
    prior = bel.diagonal_belief(np.array([10.0]), np.array([1e-6]))
    learner = lrn.BeliefFlowLearner(spec, prior, eta=0.01)
    out = learner.step(example([1.0], label=0, true_label=1), np.random.default_rng(3))
    assert out.predicted == 1
    assert out.correct


def test_bflo_freeze_returns_mean_or_sample():
    spec = mdl.logistic_model(3)
    prior = bel.diagonal_belief(np.array([1.0, 2.0, 3.0]), np.ones(3))
    learner = lrn.BeliefFlowLearner(spec, prior, eta=0.1)
    np.testing.assert_array_equal(learner.freeze(), prior.mean)
    drawn = learner.freeze(sample=True, rng=np.random.default_rng(5))
    assert not np.array_equal(drawn, prior.mean)


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
    learner = lrn.BeliefFlowLearner(spec, prior, eta=5.0, lam_min=bel.LAMBDA_MIN)
    rng = np.random.default_rng(11)
    for _ in range(300):
        learner.step(example(rng.normal(size=2) * 5.0, int(rng.integers(0, 2))), rng)
    assert learner.belief.variances.min() >= bel.LAMBDA_MIN


# ---------------------------------------------------------------------------
# diagonal rounds on the active coordinates


def reference_step(learner, ex, rng):
    """The whole-belief round: every iteration samples, solves and applies
    over all d coordinates. Returns (predicted, loss, belief)."""
    target = mdl.target_vector(learner.spec, ex.label)
    belief = learner.belief
    predicted = loss_val = None
    for i in range(learner.m):
        w = bel.sample(belief, rng)
        z, grad = mdl.forward_backward(learner.spec, w, ex.x, target)
        if i == 0:
            predicted = mdl.predict_label(z)
            loss_val = mdl.loss(z, target)
        w_prime = w - learner.eta * grad
        flow = fl.solve(belief, w, w_prime)
        if learner.non_expansive:
            flow = fl.clamp_nonexpansive(flow)
        belief = fl.apply_flow(belief, flow, w, w_prime)
        belief = bel.correct_spectrum(belief, learner.lam_min)
    return predicted, loss_val, belief


def diagonal_learner(spec, rng, **kwargs):
    d = spec.n_params
    prior = bel.diagonal_belief(rng.normal(scale=0.3, size=d), rng.uniform(0.01, 0.09, size=d))
    return lrn.BeliefFlowLearner(spec, prior, **kwargs)


@pytest.mark.parametrize("spec", [mdl.logistic_model(6), mdl.mlp_model(5, 4, 3)])
@pytest.mark.parametrize("non_expansive", [False, True])
def test_bflo_diagonal_dense_input_matches_whole_belief_loop(spec, non_expansive):
    # every feature is nonzero, so the active set is every coordinate and
    # the round must reproduce the whole-belief loop bit for bit
    rng = np.random.default_rng(31)
    learner = diagonal_learner(spec, rng, eta=0.3, m=3, non_expansive=non_expansive)
    rng_new, rng_ref = np.random.default_rng(8), np.random.default_rng(8)
    for _ in range(20):
        x = rng.uniform(0.1, 2.0, size=spec.n_features) * rng.choice([-1.0, 1.0], spec.n_features)
        ex = example(x, int(rng.integers(0, max(2, spec.n_outputs))))
        predicted, loss_val, want = reference_step(learner, ex, rng_ref)
        out = learner.step(ex, rng_new)
        assert (out.predicted, out.loss) == (predicted, loss_val)
        assert out.entropy == bel.entropy(want)
        np.testing.assert_array_equal(learner.belief.mean, want.mean)
        np.testing.assert_array_equal(learner.belief.variances, want.variances)
    assert learner.n_updates == 60
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
    before = learner.belief
    learner.step(ex, rng)
    monkeypatch.undo()
    after = learner.belief
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
    whole = bel.correct_spectrum(fl.apply_flow(before, fl.solve(before, w, w_prime), w, w_prime))
    np.testing.assert_array_equal(after.mean, whole.mean)
    np.testing.assert_array_equal(after.variances, whole.variances)
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
def test_bflo_diagonal_all_zero_input(spec):
    rng = np.random.default_rng(43)
    learner = diagonal_learner(spec, rng, eta=0.5, m=2)
    before = learner.belief
    out = learner.step(example(np.zeros(4), 1), rng)
    assert out.predicted in (0, 1) and math.isfinite(out.loss)
    assert learner.n_updates == 2
    if spec.kind == mdl.LOGISTIC:
        # nothing is read, so nothing moves
        np.testing.assert_array_equal(learner.belief.mean, before.mean)
        np.testing.assert_array_equal(learner.belief.variances, before.variances)
    else:
        # only the W1 entries stay; b1, W2 and b2 still learn
        n_w1 = spec.n_hidden * spec.n_features
        np.testing.assert_array_equal(learner.belief.mean[:n_w1], before.mean[:n_w1])
        assert not np.array_equal(learner.belief.mean[n_w1:], before.mean[n_w1:])


def test_bflo_diagonal_keeps_earlier_beliefs_intact():
    # snapshots hold earlier beliefs by reference
    spec = mdl.logistic_model(5)
    rng = np.random.default_rng(47)
    learner = diagonal_learner(spec, rng, eta=0.5)
    first = learner.belief
    mean0, var0 = first.mean.copy(), first.variances.copy()
    for _ in range(5):
        learner.step(example(rng.normal(size=5), 1), rng)
    np.testing.assert_array_equal(first.mean, mean0)
    np.testing.assert_array_equal(first.variances, var0)


def test_bflo_prior_below_the_floor_is_floored():
    spec = mdl.logistic_model(3)
    prior = bel.diagonal_belief(np.zeros(3), np.array([1e-12, 0.04, 0.04]))
    learner = lrn.BeliefFlowLearner(spec, prior, eta=0.1)
    learner.step(example([0.0, 1.0, 1.0], 1), np.random.default_rng(0))
    assert learner.belief.variances[0] == bel.LAMBDA_MIN


@pytest.mark.parametrize("variant", bel.VARIANTS)
def test_bflo_non_finite_step_raises_and_keeps_the_belief(variant):
    spec = mdl.logistic_model(3)
    priors = {bel.FULL: bel.full_belief(np.zeros(3), np.eye(3), np.full(3, 0.04)),
              bel.DIAGONAL: bel.diagonal_belief(np.zeros(3), np.full(3, 0.04)),
              bel.SPHERICAL: bel.spherical_belief(np.zeros(3), 0.04)}
    learner = lrn.BeliefFlowLearner(spec, priors[variant], eta=0.1, m=3)
    before = learner.belief
    with pytest.raises(lrn.NonFiniteStepError, match=f"bflo-{variant} update 1 of 3"), \
            np.errstate(invalid="ignore"):
        learner.step(example([1.0, np.inf, 0.0], 0), np.random.default_rng(0))
    assert learner.belief is before
    assert learner.n_updates == 0


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
    predicted = loss_val = None
    for i in range(m):
        z, grad = mdl.forward_backward(spec, w, ex.x, target)
        if i == 0:
            predicted = mdl.predict_label(z)
            loss_val = mdl.loss(z, target)
        w -= eta * grad
    return lrn.StepOutcome(predicted, predicted == ex.true_label, loss_val)


def reference_blang_round(spec, w, eta, m, ex, rng):
    target = mdl.target_vector(spec, ex.label)
    predicted = loss_val = None
    noise_scale = np.sqrt(2.0 * eta)
    for i in range(m):
        z, grad = mdl.forward_backward(spec, w, ex.x, target)
        if i == 0:
            predicted = mdl.predict_label(z)
            loss_val = mdl.loss(z, target)
        w += -eta * grad + noise_scale * rng.standard_normal(w.shape[0])
    return lrn.StepOutcome(predicted, predicted == ex.true_label, loss_val)


def reference_dropout_round(spec, w, eta, m, ex, rng, p_drop):
    target = mdl.target_vector(spec, ex.label)
    w1, b1, w2, b2 = mdl.unpack_mlp(spec, w)
    z_eval = mdl.sigmoid(w2 @ ((1.0 - p_drop) * mdl.sigmoid(w1 @ ex.x + b1)) + b2)
    predicted = mdl.predict_label(z_eval)
    loss_val = mdl.loss(z_eval, target)
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
    return lrn.StepOutcome(predicted, predicted == ex.true_label, loss_val)


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
    w0 = np.random.default_rng(51).normal(scale=0.5, size=spec.n_params)
    assert_replays_reference(cls(spec, w0, eta=0.3, m=3), reference, spec, seed=52)


@pytest.mark.parametrize("spec", [mdl.mlp_model(6, 5, 1), mdl.mlp_model(6, 5, 3)])
def test_dropout_replays_its_reference_round(spec):
    w0 = np.random.default_rng(53).normal(scale=0.5, size=spec.n_params)
    learner = lrn.DropoutSGDLearner(spec, w0, eta=0.3, p_drop=0.4, m=3)
    assert_replays_reference(learner, reference_dropout_round, spec, seed=54, p_drop=0.4)


# ---------------------------------------------------------------------------
# shared construction rules


@pytest.mark.parametrize("cls", [lrn.BeliefFlowLearner, lrn.SGDLearner, lrn.LangevinSGDLearner,
                                 lrn.AROWLearner, lrn.DropoutSGDLearner])
def test_every_learner_class_owns_its_step(cls):
    # wrapping cls.__dict__["step"] must reach exactly this class's rounds
    assert callable(cls.__dict__["step"])


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
    out = learner.step(example([1.0, 0.0], 1), np.random.default_rng(0))
    assert out.predicted == 1
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
    out = learner.step(example(x, 1), np.random.default_rng(0))
    z = mdl.forward(spec, learner.freeze(), x)
    assert out.predicted == mdl.predict_label(z)


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
