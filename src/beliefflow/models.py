"""Prediction models over flat weight vectors.

Two models are supported: plain logistic regression z = sigmoid(w . x) and a
one-hidden-layer MLP with sigmoid activations on both layers,
z = sigmoid(W2 sigmoid(W1 x + b1) + b2). Every model maps a flat parameter
vector and a feature vector to outputs in (0, 1)^K; the loss is the binary
KL divergence per output, averaged over the K outputs:

    l(z, y) = mean_k [ y_k log(y_k / z_k) + (1 - y_k) log((1 - y_k) / (1 - z_k)) ]

with 0 log 0 = 0 and the prediction clamped away from {0, 1} before the
logs. For y in {0, 1}^K this is the cross entropy minus its minimum.
"""

from __future__ import annotations

import dataclasses

import numpy as np

LOGISTIC = "logistic"
MLP = "mlp"
KINDS = (LOGISTIC, MLP)

# Predictions are clamped to [Z_CLAMP, 1 - Z_CLAMP] before the loss.
Z_CLAMP = 1e-12


@dataclasses.dataclass(frozen=True)
class ModelSpec:
    """Architecture tag plus the sizes that fix the parameter layout.

    MLP parameters are laid out flat as [W1 row-major, b1, W2 row-major, b2]
    with W1 of shape (n_hidden, n_features) and W2 of shape (n_outputs,
    n_hidden). Logistic models have no bias and use n_features weights.
    """

    kind: str
    n_features: int
    n_outputs: int = 1
    n_hidden: int = 0

    @property
    def n_params(self) -> int:
        if self.kind == LOGISTIC:
            return self.n_features
        h, p, k = self.n_hidden, self.n_features, self.n_outputs
        return h * p + h + k * h + k


def logistic_model(n_features: int) -> ModelSpec:
    return ModelSpec(LOGISTIC, n_features=n_features, n_outputs=1)


def mlp_model(n_features: int, n_hidden: int, n_outputs: int) -> ModelSpec:
    if n_hidden < 1 or n_outputs < 1:
        raise ValueError("mlp needs at least one hidden unit and one output")
    return ModelSpec(MLP, n_features=n_features, n_outputs=n_outputs, n_hidden=n_hidden)


def sigmoid(t):
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


def unpack_mlp(spec: ModelSpec, params: np.ndarray):
    """Views (no copies) of W1, b1, W2, b2 inside the flat parameter vector."""
    h, p, k = spec.n_hidden, spec.n_features, spec.n_outputs
    i = 0
    w1 = params[i:i + h * p].reshape(h, p); i += h * p
    b1 = params[i:i + h]; i += h
    w2 = params[i:i + k * h].reshape(k, h); i += k * h
    b2 = params[i:i + k]
    return w1, b1, w2, b2


def target_vector(spec: ModelSpec, label: int) -> np.ndarray:
    """Label as the 0/1 target vector the loss expects (one-hot for K > 1)."""
    if spec.n_outputs == 1:
        if label not in (0, 1):
            raise ValueError(f"binary model got label {label}")
        return np.array([float(label)])
    if not 0 <= label < spec.n_outputs:
        raise ValueError(f"label {label} outside 0..{spec.n_outputs - 1}")
    t = np.zeros(spec.n_outputs)
    t[label] = 1.0
    return t


def forward(spec: ModelSpec, params: np.ndarray, x: np.ndarray,
            hidden_mask: np.ndarray | None = None) -> np.ndarray:
    """Model outputs z in (0, 1)^K. hidden_mask (MLP only) multiplies each
    hidden unit's output: a bool mask drops units as in forward_backward,
    and dropout predicts with 1 - p_drop per unit."""
    params = np.asarray(params, dtype=float)
    if params.shape != (spec.n_params,):
        raise ValueError(f"expected {spec.n_params} parameters, got {params.shape}")
    if spec.kind == LOGISTIC:
        if hidden_mask is not None:
            raise ValueError("the logistic model has no hidden units to mask")
        return sigmoid(np.array([params @ x]))
    w1, b1, w2, b2 = unpack_mlp(spec, params)
    hidden = sigmoid(w1 @ x + b1)
    if hidden_mask is not None:
        hidden = hidden * hidden_mask
    return sigmoid(w2 @ hidden + b2)


def loss(z: np.ndarray, target: np.ndarray) -> float:
    """Binary KL loss averaged over outputs; targets must be 0/1."""
    zc = np.clip(z, Z_CLAMP, 1.0 - Z_CLAMP)
    terms = np.where(target > 0.5, -np.log(zc), -np.log1p(-zc))
    return float(np.mean(terms))


def forward_backward(spec: ModelSpec, params: np.ndarray, x: np.ndarray,
                     target: np.ndarray, hidden_mask: np.ndarray | None = None,
                     out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Outputs and the loss gradient w.r.t. the flat parameters; the
    gradient is written into out when given, else into a fresh array.

    The 1/K averaging of the loss is part of the gradient: the output-layer
    error signal is (z - y) / K. hidden_mask (MLP only, one multiplier per
    hidden unit, as in :func:`forward`) scales each unit's output; a bool
    mask zeroes the units it marks False, as dropout does. The derivative of
    a scaled unit is its mask times act (1 - act) of the unscaled sigmoid,
    so every gradient entry of a zeroed unit's weights is 0.
    """
    params = np.asarray(params, dtype=float)
    x = np.asarray(x, dtype=float)
    if spec.kind == LOGISTIC:
        if hidden_mask is not None:
            raise ValueError("the logistic model has no hidden units to mask")
        z = sigmoid(np.array([params @ x]))
        return z, np.multiply(x, z[0] - target[0], out=out)
    w1, b1, w2, b2 = unpack_mlp(spec, params)
    act = sigmoid(w1 @ x + b1)
    hidden = act if hidden_mask is None else act * hidden_mask
    z = sigmoid(w2 @ hidden + b2)
    delta2 = (z - target) / spec.n_outputs
    delta1 = (w2.T @ delta2) * act * (1.0 - act)
    if hidden_mask is not None:
        delta1 *= hidden_mask
    # The outer products are written straight into the flat gradient. With a
    # second d-sized temporary per call, malloc can hand the heap top back to
    # the OS and fault it in again on every update, which at MLP scale costs
    # more than the arithmetic.
    grad = np.empty(spec.n_params) if out is None else out
    g_w1, g_b1, g_w2, g_b2 = unpack_mlp(spec, grad)
    np.outer(delta1, x, out=g_w1)
    g_b1[:] = delta1
    np.outer(delta2, hidden, out=g_w2)
    g_b2[:] = delta2
    return z, grad


def active_subproblem(spec: ModelSpec, x: np.ndarray) -> tuple[ModelSpec, np.ndarray, np.ndarray]:
    """The part of the model a forward pass on x reads: a sub-spec over the
    nonzero features, the flat indices of its parameters in the full vector
    and x restricted to those features.

    Every other parameter has a gradient of exactly 0 on x: for logistic
    models the weights of zero features, for the MLP the W1 columns of zero
    inputs. The sub-spec's parameters are the indexed ones in the same
    order, so forward_backward(sub_spec, params[idx], x_nz, target) gives
    the outputs and the gradient restricted to idx.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.n_features,):
        raise ValueError(f"expected {spec.n_features} features, got shape {x.shape}")
    nz = np.flatnonzero(x)
    if spec.kind == LOGISTIC:
        return logistic_model(nz.size), nz, x[nz]
    h, p = spec.n_hidden, spec.n_features
    # One index array, W1 columns first: the round holds it, so it is built
    # in place rather than concatenated from a second one of its size.
    n_w1 = h * nz.size
    idx = np.empty(n_w1 + spec.n_params - h * p, dtype=np.intp)
    np.add(np.arange(h)[:, None] * p, nz, out=idx[:n_w1].reshape(h, nz.size))
    idx[n_w1:] = np.arange(h * p, spec.n_params)
    sub = ModelSpec(MLP, n_features=nz.size, n_outputs=spec.n_outputs, n_hidden=h)
    return sub, idx, x[nz]


def predict_label(z: np.ndarray) -> int:
    """Hard label: threshold at 0.5 for a single output, else argmax.

    np.argmax resolves ties toward the lowest index, which is the convention
    here as well.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[0] == 1:
        return int(z[0] >= 0.5)
    return int(np.argmax(z))


def batch_forward(spec: ModelSpec, params: np.ndarray, X) -> np.ndarray:
    """Outputs for a whole matrix of inputs, one row per example.

    Accepts dense or scipy-sparse X and returns an (n, K) array.
    """
    params = np.asarray(params, dtype=float)
    if params.shape != (spec.n_params,):
        raise ValueError(f"expected {spec.n_params} parameters, got {params.shape}")
    if spec.kind == LOGISTIC:
        return sigmoid(np.asarray(X @ params).reshape(-1, 1))
    w1, b1, w2, b2 = unpack_mlp(spec, params)
    hidden = sigmoid(np.asarray(X @ w1.T) + b1)
    return sigmoid(hidden @ w2.T + b2)


def finite_diff_gradient(spec: ModelSpec, params: np.ndarray, x: np.ndarray,
                         target: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of the loss; the slow reference route."""
    params = np.asarray(params, dtype=float)
    grad = np.zeros_like(params)
    for i in range(params.shape[0]):
        bumped = params.copy()
        bumped[i] = params[i] + step
        hi = loss(forward(spec, bumped, x), target)
        bumped[i] = params[i] - step
        lo = loss(forward(spec, bumped, x), target)
        grad[i] = (hi - lo) / (2.0 * step)
    return grad
