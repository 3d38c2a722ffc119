"""Online learners sharing one step contract.

Every learner exposes ``step(example, rng) -> int`` and ``freeze() ->
ndarray``. A step makes its prediction before touching any state, updates
from the observed (possibly noisy) label and returns the predicted label.
No learner reads the example's true label; the run loop judges the
prediction against it. With m > 1 the update part of the step is repeated m
times; the prediction always comes from the first iteration.
"""

from __future__ import annotations

import numpy as np

from . import belief as bel
from . import flow as fl
from . import models as mdl
from .data import LabeledExample


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
    The learner holds ``belief.own`` of its floored prior: a copy of a
    diagonal prior, into which a :class:`belief.ActiveDiagonal` writes each
    round (carried in sigma form) on the active coordinates, or a full
    prior's L and W as a :class:`belief.OwnedFull`, which every flow and
    every pair that ``correct_spectrum`` rebuilds leave an OwnedFull.

    After a full learner's step, ``last_flows`` holds the flows it applied
    (not the identity ones), or None when ``correct_spectrum`` rebuilt the
    factor pair (a floor or a re-sync) at one of its updates; the run loop
    gathers these into snapshots (``harness.run_online``). It is None for
    the other variants, and nothing is kept across steps.
    """

    def __init__(self, spec: mdl.ModelSpec, prior: bel.BeliefState, eta: float,
                 m: int = 1, non_expansive: bool = False):
        if prior.dim != spec.n_params:
            raise ValueError(f"prior dimension {prior.dim} != parameter count {spec.n_params}")
        self.spec = spec
        self.belief = bel.own(bel.correct_spectrum(prior))
        self.active = bel.ActiveDiagonal() if self.belief.variant == bel.DIAGONAL else None
        self.eta = float(eta)
        self.m = update_count(m)
        self.non_expansive = non_expansive
        self.last_flows = None

    def step(self, ex: LabeledExample, rng: np.random.Generator) -> int:
        """One round: predict from the first draw, then m flow updates.

        Raises NonFiniteStepError, leaving the belief as it was, when a
        stepped point w' has a non-finite coordinate.
        """
        target = mdl.target_vector(self.spec, ex.label)
        if self.active is not None:
            spec, idx, x = mdl.active_subproblem(self.spec, ex.x)
            belief = self.active.load(self.belief, idx)
            grad_out, w_prime_out = belief.grad, belief.w_prime
        else:
            spec, idx, x, belief = self.spec, None, ex.x, self.belief
            grad_out = w_prime_out = None
        predicted = None
        flows = [] if belief.variant == bel.FULL else None
        for i in range(self.m):
            w = bel.sample(belief, rng)
            z, grad = mdl.forward_backward(spec, w, x, target, out=grad_out)
            if i == 0:
                predicted = mdl.predict_label(z)
            grad *= self.eta
            w_prime = np.subtract(w, grad, out=w_prime_out)
            if not np.isfinite(w_prime).all():
                raise NonFiniteStepError(
                    f"bflo-{belief.variant} update {i + 1} of {self.m}: the gradient step "
                    "is not finite")
            flow = fl.solve(belief, w, w_prime)
            if self.non_expansive:
                flow = fl.clamp_nonexpansive(flow)
            moved = fl.apply_flow(belief, flow, w, w_prime)
            belief = bel.correct_spectrum(moved)
            if belief is not moved:
                flows = None
            elif flows is not None and not flow.identity:
                flows.append(flow)
        self.last_flows = flows
        if idx is None:
            self.belief = belief
        else:
            belief.store(self.belief, idx)
        return predicted

    def freeze(self) -> np.ndarray:
        """Weights for offline evaluation: the belief mean."""
        return self.belief.mean.copy()


class ActiveWeights(bel.ActiveArrays):
    """A point estimate's active coordinates and their gradient, in work
    arrays a learner owns (see :class:`belief.ActiveArrays`)."""

    _FLOATS = ("w", "grad")

    def load(self, w: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """w on idx, gathered, and an array of its size for the gradient."""
        self.resize(idx.shape[0])
        return self.gather(w, idx, self.w), self.grad


class SGDLearner:
    """Online gradient descent on a point estimate, w <- w - eta grad.

    A positive noise_scale s adds Gaussian exploration noise to every step,
    w <- w - eta grad + s xi; at 0 no noise is drawn from the rng, and the
    round runs on the coordinates the forward pass reads (see
    ``models.active_subproblem``): it gathers them once, takes its m steps
    on the sub-model and writes them back once. Every other coordinate has
    a gradient of exactly 0 and keeps its value. Noise reaches every
    coordinate, so a noisy round runs on the whole vector.
    """

    noise_scale = 0.0

    def __init__(self, spec: mdl.ModelSpec, w0: np.ndarray, eta: float, m: int = 1):
        self.spec = spec
        self.w = np.asarray(w0, dtype=float).copy()
        self.eta = float(eta)
        self.m = update_count(m)
        self.active = None if self.noise_scale else ActiveWeights()

    def step(self, ex: LabeledExample, rng: np.random.Generator) -> int:
        target = mdl.target_vector(self.spec, ex.label)
        if self.active is None:
            spec, idx, x, w, grad_out = self.spec, None, ex.x, self.w, None
        else:
            spec, idx, x = mdl.active_subproblem(self.spec, ex.x)
            w, grad_out = self.active.load(self.w, idx)
        predicted = None
        for i in range(self.m):
            z, grad = mdl.forward_backward(spec, w, x, target, out=grad_out)
            if i == 0:
                predicted = mdl.predict_label(z)
            # w += -eta grad [+ s xi], built in place in the grad array: at
            # MLP scale a second d-sized array costs more than the arithmetic.
            grad *= -self.eta
            if self.noise_scale:
                grad += self.noise_scale * rng.standard_normal(w.shape[0])
            w += grad
        if idx is not None:
            self.w[idx] = w
        return predicted

    def freeze(self) -> np.ndarray:
        return self.w.copy()


class LangevinSGDLearner(SGDLearner):
    """SGD plus Gaussian exploration noise, w <- w - eta grad + sqrt(2 eta) xi."""

    def __init__(self, spec: mdl.ModelSpec, w0: np.ndarray, eta: float, m: int = 1):
        self.noise_scale = np.sqrt(2.0 * float(eta))
        super().__init__(spec, w0, eta, m=m)

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

    def step(self, ex: LabeledExample, rng: np.random.Generator) -> int:
        if ex.label not in (0, 1):
            raise ValueError("arow handles binary labels only")
        x = ex.x
        margin = float(self.mu @ x)
        predicted = mdl.predict_label(mdl.sigmoid(np.array([margin])))
        y = 1.0 if ex.label == 1 else -1.0
        if y * margin < 1.0:
            sx = self.var * x
            beta = 1.0 / (float(x @ sx) + self.r)
            alpha = (1.0 - y * margin) * beta
            self.mu += alpha * y * sx
            self.var -= beta * sx * sx
        return predicted

    def freeze(self) -> np.ndarray:
        return self.mu.copy()


class DropoutSGDLearner:
    """SGD on an MLP with hidden units dropped at random during updates.

    Each update iteration masks every hidden unit independently with
    probability p_drop and backpropagates through the surviving ones.
    Evaluation-time forward passes scale the hidden activations by
    (1 - p_drop) instead; freeze() bakes that scaling into W2. A round runs
    on the coordinates the forward pass reads, as the SGD round does.
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
        self.eval_scale = np.full(spec.n_hidden, 1.0 - self.p_drop)
        self.active = ActiveWeights()

    def step(self, ex: LabeledExample, rng: np.random.Generator) -> int:
        target = mdl.target_vector(self.spec, ex.label)
        spec, idx, x = mdl.active_subproblem(self.spec, ex.x)
        w, grad_out = self.active.load(self.w, idx)
        predicted = mdl.predict_label(mdl.forward(spec, w, x, hidden_mask=self.eval_scale))
        for _ in range(self.m):
            keep = rng.random(self.spec.n_hidden) >= self.p_drop
            _, grad = mdl.forward_backward(spec, w, x, target, hidden_mask=keep, out=grad_out)
            grad *= self.eta  # in place, as in the SGD round
            w -= grad
        self.w[idx] = w
        return predicted

    def freeze(self) -> np.ndarray:
        """Parameters with the evaluation scaling folded into W2."""
        frozen = self.w.copy()
        w2 = mdl.unpack_mlp(self.spec, frozen)[2]  # a view into frozen
        w2 *= self.eval_scale
        return frozen
