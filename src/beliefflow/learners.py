"""Online learners sharing one step contract.

Every learner exposes ``step(example, rng) -> StepOutcome`` and
``freeze() -> ndarray``. A step emits its prediction before touching any
state, judges correctness against the example's true label, and updates from
the observed (possibly noisy) label. With m > 1 the update part of the step
is repeated m times; the prediction always comes from the first iteration.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import belief as bel
from . import flow as fl
from . import models as mdl
from .data import LabeledExample


@dataclasses.dataclass(frozen=True)
class StepOutcome:
    """What one online round produced, before and after the update."""

    predicted: int
    correct: bool
    loss: float
    entropy: float | None = None


class NonFiniteStepError(ValueError):
    """A gradient step left the finite numbers; the belief is not updated."""


def update_count(m) -> int:
    """The number m of updates per round, which must be an integer >= 1."""
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be an integer >= 1, got {m!r}")
    return int(m)


class BeliefFlowLearner:
    """Gaussian belief over weights, updated by KL-minimizing linear flows.

    Each update iteration draws a weight vector from the belief (Thompson
    sampling), takes one gradient step on the drawn vector, and transports
    the belief along the flow that carries the draw exactly onto the stepped
    point. The spectrum floor runs after every update, and on the prior.

    A diagonal belief runs the round on the coordinates the forward pass
    reads (see ``models.active_subproblem``). Every other coordinate has a
    gradient of exactly 0, so its flow scale is 1.0 and it keeps its mean
    and variance; its draw would never be read. The round is the same in
    distribution, but draws only the active coordinates from the rng. Full
    and spherical flows mix coordinates, so they run on the whole belief.
    """

    def __init__(self, spec: mdl.ModelSpec, prior: bel.BeliefState, eta: float,
                 m: int = 1, non_expansive: bool = False,
                 lam_min: float = bel.LAMBDA_MIN,
                 track_entropy: bool = True):
        if prior.dim != spec.n_params:
            raise ValueError(f"prior dimension {prior.dim} != parameter count {spec.n_params}")
        self.spec = spec
        self.belief = bel.correct_spectrum(prior, lam_min)
        self.eta = float(eta)
        self.m = update_count(m)
        self.non_expansive = non_expansive
        self.lam_min = lam_min
        self.track_entropy = track_entropy
        self.n_updates = 0

    def step(self, ex: LabeledExample, rng: np.random.Generator) -> StepOutcome:
        """One round: predict from the first draw, then m flow updates.

        Raises NonFiniteStepError, leaving the belief as it was, when a
        stepped point w' has a non-finite coordinate.
        """
        target = mdl.target_vector(self.spec, ex.label)
        if self.belief.variant == bel.DIAGONAL:
            spec, idx, x = mdl.active_subproblem(self.spec, ex.x)
            belief = bel.gather(self.belief, idx)
        else:
            spec, idx, x, belief = self.spec, None, ex.x, self.belief
        predicted = None
        loss_val = None
        for i in range(self.m):
            w = bel.sample(belief, rng)
            z, grad = mdl.forward_backward(spec, w, x, target)
            if i == 0:
                predicted = mdl.predict_label(z)
                loss_val = mdl.loss(z, target)
            w_prime = w - self.eta * grad
            if not np.isfinite(w_prime).all():
                raise NonFiniteStepError(
                    f"bflo-{belief.variant} update {i + 1} of {self.m}: the gradient step "
                    "is not finite")
            flow = fl.solve(belief, w, w_prime)
            if self.non_expansive:
                flow = fl.clamp_nonexpansive(flow)
            belief = fl.apply_flow(belief, flow, w, w_prime)
            belief = bel.correct_spectrum(belief, self.lam_min)
        self.belief = belief if idx is None else bel.scatter(self.belief, idx, belief)
        self.n_updates += self.m
        ent = bel.entropy(self.belief) if self.track_entropy else None
        return StepOutcome(predicted, predicted == ex.true_label, loss_val, entropy=ent)

    def freeze(self, sample: bool = False, rng: np.random.Generator | None = None) -> np.ndarray:
        """Weights for offline evaluation: the belief mean, or one draw."""
        if sample:
            if rng is None:
                raise ValueError("sampling at freeze time needs an rng")
            return bel.sample(self.belief, rng)
        return self.belief.mean.copy()


class SGDLearner:
    """Online gradient descent on a point estimate, w <- w - eta grad.

    A positive noise_scale s adds Gaussian exploration noise to every step,
    w <- w - eta grad + s xi; at 0 no noise is drawn from the rng.
    """

    noise_scale = 0.0

    def __init__(self, spec: mdl.ModelSpec, w0: np.ndarray, eta: float, m: int = 1):
        self.spec = spec
        self.w = np.asarray(w0, dtype=float).copy()
        self.eta = float(eta)
        self.m = update_count(m)

    def step(self, ex: LabeledExample, rng: np.random.Generator) -> StepOutcome:
        target = mdl.target_vector(self.spec, ex.label)
        predicted = None
        loss_val = None
        for i in range(self.m):
            z, grad = mdl.forward_backward(self.spec, self.w, ex.x, target)
            if i == 0:
                predicted = mdl.predict_label(z)
                loss_val = mdl.loss(z, target)
            # w += -eta grad [+ s xi], built in place in the fresh grad array:
            # at MLP scale a second d-sized array costs more than the arithmetic.
            grad *= -self.eta
            if self.noise_scale:
                grad += self.noise_scale * rng.standard_normal(self.w.shape[0])
            self.w += grad
        return StepOutcome(predicted, predicted == ex.true_label, loss_val)

    def freeze(self) -> np.ndarray:
        return self.w.copy()


class LangevinSGDLearner(SGDLearner):
    """SGD plus Gaussian exploration noise, w <- w - eta grad + sqrt(2 eta) xi."""

    def __init__(self, spec: mdl.ModelSpec, w0: np.ndarray, eta: float, m: int = 1):
        super().__init__(spec, w0, eta, m=m)
        self.noise_scale = np.sqrt(2.0 * self.eta)

    # The SGD round, bound in this class too, so that wrapping one class's
    # step (as a tracer does) leaves the other class's step alone.
    step = SGDLearner.step


class AROWLearner:
    """Adaptive regularization of weights, diagonal variant, binary labels.

    Keeps a mean vector and per-coordinate variances. On a margin violation
    (y mu.x < 1 with y in {-1, +1}) it takes the closed-form update
    beta = 1 / (x Sigma x + r), alpha = max(0, 1 - y mu.x) beta,
    mu += alpha Sigma y x, and shrinks only the diagonal of Sigma by
    beta (Sigma x)^2. The learning rate and m play no role here.
    """

    def __init__(self, n_features: int, r: float = 10.0):
        if r <= 0:
            raise ValueError("r must be positive")
        self.n_features = n_features
        self.r = float(r)
        self.mu = np.zeros(n_features)
        self.var = np.ones(n_features)

    def step(self, ex: LabeledExample, rng: np.random.Generator) -> StepOutcome:
        if ex.label not in (0, 1):
            raise ValueError("arow handles binary labels only")
        x = ex.x
        margin = float(self.mu @ x)
        z = mdl.sigmoid(np.array([margin]))
        predicted = mdl.predict_label(z)
        loss_val = mdl.loss(z, np.array([float(ex.label)]))
        y = 1.0 if ex.label == 1 else -1.0
        if y * margin < 1.0:
            sx = self.var * x
            beta = 1.0 / (float(x @ sx) + self.r)
            alpha = (1.0 - y * margin) * beta
            self.mu += alpha * y * sx
            self.var -= beta * sx * sx
        return StepOutcome(predicted, predicted == ex.true_label, loss_val)

    def freeze(self) -> np.ndarray:
        return self.mu.copy()


class DropoutSGDLearner:
    """SGD on an MLP with hidden units dropped at random during updates.

    Each update iteration masks every hidden unit independently with
    probability p_drop and backpropagates through the surviving ones.
    Evaluation-time forward passes scale the hidden activations by
    (1 - p_drop) instead; freeze() bakes that scaling into W2.
    """

    def __init__(self, spec: mdl.ModelSpec, w0: np.ndarray, eta: float,
                 p_drop: float = 0.5, m: int = 1):
        if spec.kind != mdl.MLP:
            raise ValueError("dropout needs a hidden layer")
        if not 0.0 <= p_drop <= 1.0:
            raise ValueError("p_drop must be in [0, 1]")
        self.spec = spec
        self.w = np.asarray(w0, dtype=float).copy()
        self.eta = float(eta)
        self.p_drop = float(p_drop)
        self.m = update_count(m)

    def _eval_forward(self, x: np.ndarray) -> np.ndarray:
        w1, b1, w2, b2 = mdl.unpack_mlp(self.spec, self.w)
        hidden = (1.0 - self.p_drop) * mdl.sigmoid(w1 @ x + b1)
        return mdl.sigmoid(w2 @ hidden + b2)

    def step(self, ex: LabeledExample, rng: np.random.Generator) -> StepOutcome:
        target = mdl.target_vector(self.spec, ex.label)
        z_eval = self._eval_forward(ex.x)
        predicted = mdl.predict_label(z_eval)
        loss_val = mdl.loss(z_eval, target)
        for _ in range(self.m):
            keep = rng.random(self.spec.n_hidden) >= self.p_drop
            _, grad = mdl.forward_backward(self.spec, self.w, ex.x, target, hidden_mask=keep)
            self.w -= self.eta * grad
        return StepOutcome(predicted, predicted == ex.true_label, loss_val)

    def freeze(self) -> np.ndarray:
        """Parameters with the (1 - p_drop) scaling folded into W2."""
        frozen = self.w.copy()
        h, p, k = self.spec.n_hidden, self.spec.n_features, self.spec.n_outputs
        start = h * p + h
        frozen[start:start + k * h] *= 1.0 - self.p_drop
        return frozen
