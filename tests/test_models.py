"""Prediction models: forward passes, loss, gradients against finite differences."""

import math

import numpy as np
import pytest

from beliefflow import models as mdl


def test_logistic_forward_at_zero_weights():
    spec = mdl.logistic_model(4)
    z = mdl.forward(spec, np.zeros(4), np.ones(4))
    assert z.shape == (1,)
    assert z[0] == 0.5
    np.testing.assert_allclose(mdl.loss(z, np.array([1.0])), math.log(2.0), rtol=1e-12)


def test_logistic_gradient_hand_case():
    # grad = (z - y) x
    spec = mdl.logistic_model(2)
    w = np.array([1.0, -1.0])
    x = np.array([2.0, 1.0])
    z, grad = mdl.forward_backward(spec, w, x, np.array([1.0]))
    zval = 1.0 / (1.0 + math.exp(-(w @ x)))
    np.testing.assert_allclose(z, [zval], rtol=1e-12)
    np.testing.assert_allclose(grad, (zval - 1.0) * x, rtol=1e-12)


def test_mlp_parameter_layout():
    spec = mdl.mlp_model(3, 2, 2)
    # W1 (2x3) row-major, b1 (2), W2 (2x2) row-major, b2 (2)
    assert spec.n_params == 2 * 3 + 2 + 2 * 2 + 2
    params = np.arange(spec.n_params, dtype=float)
    w1, b1, w2, b2 = mdl.unpack_mlp(spec, params)
    np.testing.assert_array_equal(w1, [[0, 1, 2], [3, 4, 5]])
    np.testing.assert_array_equal(b1, [6, 7])
    np.testing.assert_array_equal(w2, [[8, 9], [10, 11]])
    np.testing.assert_array_equal(b2, [12, 13])
    # views, not copies
    params[0] = -5.0
    assert w1[0, 0] == -5.0


def test_mlp_forward_is_all_sigmoid():
    spec = mdl.mlp_model(2, 2, 1)
    params = np.zeros(spec.n_params)
    z = mdl.forward(spec, params, np.array([3.0, -1.0]))
    # zero weights: hidden = 0.5, output = sigmoid(0) = 0.5
    np.testing.assert_allclose(z, [0.5], rtol=1e-12)


def test_target_vector_one_hot_and_validation():
    spec = mdl.mlp_model(2, 2, 3)
    np.testing.assert_array_equal(mdl.target_vector(spec, 1), [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        mdl.target_vector(spec, 3)
    bspec = mdl.logistic_model(2)
    np.testing.assert_array_equal(mdl.target_vector(bspec, 0), [0.0])
    with pytest.raises(ValueError):
        mdl.target_vector(bspec, 2)


def test_loss_is_finite_at_saturated_outputs():
    t = np.array([1.0])
    assert math.isfinite(mdl.loss(np.array([0.0]), t))
    assert math.isfinite(mdl.loss(np.array([1.0]), np.array([0.0])))


def test_loss_averages_over_outputs():
    z = np.array([0.5, 0.5])
    t = np.array([1.0, 0.0])
    np.testing.assert_allclose(mdl.loss(z, t), math.log(2.0), rtol=1e-12)


def test_predict_label_threshold_and_ties():
    assert mdl.predict_label(np.array([0.5])) == 1
    assert mdl.predict_label(np.array([0.49])) == 0
    assert mdl.predict_label(np.array([0.3, 0.7, 0.7])) == 1  # lowest index wins ties


def test_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    spec = mdl.logistic_model(6)
    for _ in range(100):
        w = rng.normal(size=6)
        x = rng.normal(size=6)
        t = np.array([float(rng.integers(0, 2))])
        _, grad = mdl.forward_backward(spec, w, x, t)
        ref = mdl.finite_diff_gradient(spec, w, x, t)
        np.testing.assert_allclose(grad, ref, rtol=1e-5, atol=1e-8)


def test_mlp_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    spec = mdl.mlp_model(4, 3, 2)
    for _ in range(100):
        w = rng.normal(scale=0.7, size=spec.n_params)
        x = rng.normal(size=4)
        t = mdl.target_vector(spec, int(rng.integers(0, 2)))
        _, grad = mdl.forward_backward(spec, w, x, t)
        ref = mdl.finite_diff_gradient(spec, w, x, t)
        np.testing.assert_allclose(grad, ref, rtol=1e-5, atol=1e-8)


def test_all_ones_hidden_mask_changes_no_byte():
    rng = np.random.default_rng(6)
    spec = mdl.mlp_model(5, 4, 3)
    for _ in range(50):
        w = rng.normal(scale=0.7, size=spec.n_params)
        x = rng.normal(size=5)
        t = mdl.target_vector(spec, int(rng.integers(0, 3)))
        z, grad = mdl.forward_backward(spec, w, x, t)
        z_m, grad_m = mdl.forward_backward(spec, w, x, t, hidden_mask=np.ones(4, dtype=bool))
        assert z_m.tobytes() == z.tobytes()
        assert grad_m.tobytes() == grad.tobytes()
        assert mdl.forward(spec, w, x).tobytes() == z.tobytes()
        assert mdl.forward(spec, w, x, hidden_mask=np.ones(4)).tobytes() == z.tobytes()


def test_masked_hidden_units_get_no_gradient():
    spec = mdl.mlp_model(3, 4, 2)
    rng = np.random.default_rng(8)
    w = rng.normal(size=spec.n_params)
    keep = np.array([True, False, True, False])
    _, grad = mdl.forward_backward(spec, w, rng.normal(size=3), np.array([1.0, 0.0]),
                                   hidden_mask=keep)
    g1, gb1, g2, _ = mdl.unpack_mlp(spec, grad)
    assert np.all(g1[~keep] == 0.0) and np.all(gb1[~keep] == 0.0)
    assert np.all(g2[:, ~keep] == 0.0)
    assert np.all(g1[keep] != 0.0) and np.all(g2[:, keep] != 0.0)


def test_real_valued_hidden_mask_gradient_matches_finite_differences():
    # central differences of the masked forward pass, mask entries in (0, 2)
    rng = np.random.default_rng(9)
    spec = mdl.mlp_model(3, 4, 2)
    step = 1e-6
    for _ in range(50):
        w = rng.normal(scale=0.7, size=spec.n_params)
        x = rng.normal(size=3)
        t = mdl.target_vector(spec, int(rng.integers(0, 2)))
        mask = rng.uniform(0.0, 2.0, size=4)
        _, grad = mdl.forward_backward(spec, w, x, t, hidden_mask=mask)
        ref = np.zeros_like(w)
        for i in range(w.size):
            hi, lo = w.copy(), w.copy()
            hi[i] += step
            lo[i] -= step
            ref[i] = (mdl.loss(mdl.forward(spec, hi, x, hidden_mask=mask), t)
                      - mdl.loss(mdl.forward(spec, lo, x, hidden_mask=mask), t)) / (2.0 * step)
        np.testing.assert_allclose(grad, ref, rtol=1e-5, atol=1e-8)


def test_logistic_model_rejects_a_hidden_mask():
    with pytest.raises(ValueError, match="no hidden units"):
        mdl.forward_backward(mdl.logistic_model(2), np.zeros(2), np.ones(2), np.array([1.0]),
                             hidden_mask=np.ones(1, dtype=bool))
    with pytest.raises(ValueError, match="no hidden units"):
        mdl.forward(mdl.logistic_model(2), np.zeros(2), np.ones(2), hidden_mask=np.ones(1))


def test_repeated_steps_on_one_example_reduce_loss():
    # the loss is convex in the logistic weights, so small steps descend
    spec = mdl.logistic_model(3)
    w = np.array([0.5, -0.2, 0.1])
    x = np.array([1.0, 2.0, -1.0])
    t = np.array([1.0])
    prev = mdl.loss(mdl.forward(spec, w, x), t)
    for _ in range(25):
        _, grad = mdl.forward_backward(spec, w, x, t)
        w = w - 0.1 * grad
        cur = mdl.loss(mdl.forward(spec, w, x), t)
        assert cur <= prev + 1e-12
        prev = cur


def test_active_subproblem_layout():
    x = np.array([0.0, 2.0, 0.0, -1.0, 0.0])
    sub, idx, x_nz = mdl.active_subproblem(mdl.logistic_model(5), x)
    assert sub == mdl.logistic_model(2)
    np.testing.assert_array_equal(idx, [1, 3])
    np.testing.assert_array_equal(x_nz, [2.0, -1.0])
    spec = mdl.mlp_model(5, 2, 3)
    sub, idx, x_nz = mdl.active_subproblem(spec, x)
    assert sub == mdl.mlp_model(2, 2, 3)
    # W1 rows keep columns 1 and 3, then b1, W2 and b2 whole
    np.testing.assert_array_equal(idx[:4], [1, 3, 6, 8])
    np.testing.assert_array_equal(idx[4:], np.arange(10, spec.n_params))
    params = np.random.default_rng(61).normal(size=spec.n_params)
    w1, b1, w2, b2 = mdl.unpack_mlp(spec, params)
    sw1, sb1, sw2, sb2 = mdl.unpack_mlp(sub, params[idx])
    np.testing.assert_array_equal(sw1, w1[:, [1, 3]])
    np.testing.assert_array_equal(sb1, b1)
    np.testing.assert_array_equal(sw2, w2)
    np.testing.assert_array_equal(sb2, b2)


def test_batch_forward_matches_forward():
    rng = np.random.default_rng(7)
    for spec in (mdl.logistic_model(5), mdl.mlp_model(5, 3, 4)):
        w = rng.normal(size=spec.n_params)
        X = rng.normal(size=(10, 5))
        batch = mdl.batch_forward(spec, w, X)
        assert batch.shape == (10, spec.n_outputs)
        for i in range(10):
            np.testing.assert_allclose(batch[i], mdl.forward(spec, w, X[i]), rtol=1e-12)


def test_batch_forward_accepts_sparse_input():
    sparse = pytest.importorskip("scipy.sparse")
    rng = np.random.default_rng(9)
    spec = mdl.logistic_model(8)
    w = rng.normal(size=8)
    X = rng.normal(size=(6, 8))
    X[X < 0.5] = 0.0
    out_sparse = mdl.batch_forward(spec, w, sparse.csr_matrix(X))
    np.testing.assert_allclose(out_sparse, mdl.batch_forward(spec, w, X), rtol=1e-12)


SPEC = mdl.logistic_model(3)


@pytest.mark.parametrize("call, message", [
    (lambda: mdl.mlp_model(2, 0, 1), "mlp needs at least one hidden unit and one output"),
    (lambda: mdl.forward(SPEC, np.zeros(2), np.ones(3)), r"expected 3 parameters, got \(2,\)"),
    (lambda: mdl.active_subproblem(SPEC, np.ones(4)), r"expected 3 features, got shape \(4,\)"),
    (lambda: mdl.batch_forward(SPEC, np.zeros(4), np.ones((2, 3))),
     r"expected 3 parameters, got \(4,\)"),
], ids=["mlp-sizes", "forward-params", "active-features", "batch-params"])
def test_each_input_guard_names_its_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()
