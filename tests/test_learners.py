"""Online learners: one shared step interface, hand-checked update rules."""

import dataclasses
import math

import numpy as np
import pytest

from beliefflow import belief as bel
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
