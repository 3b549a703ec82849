"""Dense feed-forward classifier engine.

Minimal numpy implementation of a fully connected softmax classifier:
forward pass with optional seeded dropout, cross-entropy SGD training with
L2 regularization and an optional best-validation-epoch snapshot, and
constraint-aware updates for compressed models. Plain SGD and DP-SGD run
one training loop and one batch step with different gradient rules: the
batch mean, or per-sample clipping plus Gaussian noise. DP-SGD clips by
ghost norms (Goodfellow 2015; Li et al. 2022): each sample's gradient norm
and the clipped sum come from the batch's layer deltas and layer inputs,
without building per-sample gradients; a DP-SGD step costs about 2.5
plain ones, most of the extra being the Gaussian noise draws. A training
run allocates its activation, dropout-mask and gradient arrays once and
does every step in place in them, each operation in the order a step on
new arrays would take, so the bits are the same.

Everything is deterministic: the same model, data, config, and seed
reproduce a bitwise-identical trained model. Posteriors are produced by a
softmax at inference time only; the stored parameters are raw weights.
"""

from dataclasses import dataclass, field

import numpy as np

from . import constraints as cons
from .errors import InputError, ShapeError, TrainingError

LOSS_CLAMP = 1e-12  # keeps per-sample losses (and attack features) finite


def _norm_seed(seed: int) -> int:
    return int(seed) & 0xFFFFFFFFFFFFFFFF


@dataclass
class TrainConfig:
    """Hyperparameters for one SGD training run."""

    learning_rate: float
    batch_size: int
    max_epochs: int
    l2_lambda: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise InputError("learning_rate must be positive")
        if self.batch_size <= 0:
            raise InputError("batch_size must be positive")
        if self.max_epochs < 0:
            raise InputError("max_epochs must be non-negative")
        if self.l2_lambda < 0:
            raise InputError("l2_lambda must be non-negative")


@dataclass
class DpConfig:
    """DP-SGD parameters.

    ``delta`` is recorded for reporting only and never enters the
    computation. ``noise_multiplier`` = 0 with a finite ``clip_norm``
    still clips.
    """

    clip_norm: float
    noise_multiplier: float
    delta: float = 1e-5

    def __post_init__(self):
        if self.clip_norm <= 0:
            raise InputError("clip_norm must be positive")
        if self.noise_multiplier < 0:
            raise InputError("noise_multiplier must be non-negative")
        if not 0.0 < self.delta < 1.0:
            raise InputError("delta must be in (0, 1)")


@dataclass
class FcnModel:
    """Dense classifier: per-layer weight matrices (out x in) and bias vectors.

    ReLU on hidden layers, identity on the output layer; softmax is applied
    only when posteriors are requested. ``dropout_rates`` holds one rate per
    hidden layer and is active only in train mode.
    """

    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    dropout_rates: list[float] = field(default_factory=list)

    def __post_init__(self):
        n_layers = len(self.layer_sizes) - 1
        if n_layers < 1:
            raise ShapeError("model needs at least one layer")
        if len(self.weights) != n_layers or len(self.biases) != n_layers:
            raise ShapeError("weights/biases do not match layer_sizes")
        for l in range(n_layers):
            expect = (self.layer_sizes[l + 1], self.layer_sizes[l])
            if self.weights[l].shape != expect:
                raise ShapeError(f"layer {l} weight shape {self.weights[l].shape} != {expect}")
            if self.biases[l].shape != (self.layer_sizes[l + 1],):
                raise ShapeError(f"layer {l} bias shape mismatch")
        if not self.dropout_rates:
            self.dropout_rates = [0.0] * (n_layers - 1)
        if len(self.dropout_rates) != n_layers - 1:
            raise ShapeError("one dropout rate per hidden layer expected")
        if any(not 0.0 <= p < 1.0 for p in self.dropout_rates):
            raise InputError("dropout rates must be in [0, 1)")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    def copy(self) -> "FcnModel":
        return FcnModel(
            list(self.layer_sizes),
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            list(self.dropout_rates),
        )

    def check_finite(self):
        for w, b in zip(self.weights, self.biases):
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise TrainingError("model parameters contain non-finite values")


def init_fcn(
    layer_sizes: list[int], seed: int, dropout_rates: list[float] | None = None
) -> FcnModel:
    """He-normal initialized model; biases start at zero."""
    rng = np.random.default_rng(_norm_seed(seed))
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        std = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, std, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    if dropout_rates is None:
        dropout_rates = [0.1] * (len(layer_sizes) - 2)
    return FcnModel(list(layer_sizes), weights, biases, list(dropout_rates))


def one_hot(labels: np.ndarray | int, class_count: int) -> np.ndarray:
    """One-hot encode an integer label (or a vector of them)."""
    labels = np.asarray(labels)
    scalar = labels.ndim == 0
    labels = np.atleast_1d(labels).astype(np.int64)
    if np.any(labels < 0) or np.any(labels >= class_count):
        raise InputError("label out of range")
    out = np.zeros((labels.shape[0], class_count))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out[0] if scalar else out


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax, shifted for stability; ``out`` may be ``logits`` itself."""
    e = np.subtract(logits, np.max(logits, axis=1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= np.sum(e, axis=1, keepdims=True)
    return e


def _validate_inputs(model: FcnModel, inputs: np.ndarray) -> np.ndarray:
    X = np.asarray(inputs, dtype=float)
    if X.ndim != 2:
        raise ShapeError("inputs must be a 2-D matrix (rows = samples)")
    if X.shape[1] != model.input_dim:
        raise ShapeError(f"input width {X.shape[1]} != model input dim {model.input_dim}")
    if not np.all(np.isfinite(X)):
        raise InputError("inputs contain non-finite values")
    return X


class _Buffers:
    """The arrays of forward and backward passes over up to ``rows`` rows.

    A training run allocates one set and reuses it at every step; a batch
    uses the first rows. Row-shaped: each hidden layer's activations ``h``,
    dropout masks and ReLU gates, and each layer's deltas ``d``; the output
    layer's ``d`` holds the logits, then the posteriors, then the output
    delta. With ``grads``, weight-shaped too: each layer's gradients ``dW``
    and ``db``, and the scratch ``tW`` and ``tb`` that the DP noise and the
    L2 term pass through.
    """

    def __init__(self, layer_sizes, rows: int, grads: bool = True):
        def arrays(shapes):
            return [np.empty(s) for s in shapes]

        hidden = [(rows, k) for k in layer_sizes[1:-1]]
        self.h, self.mask, self.gate = arrays(hidden), arrays(hidden), arrays(hidden)
        self.d = arrays((rows, k) for k in layer_sizes[1:])
        if grads:
            weights = list(zip(layer_sizes[1:], layer_sizes[:-1]))
            self.dW, self.tW = arrays(weights), arrays(weights)
            self.db, self.tb = arrays(layer_sizes[1:]), arrays(layer_sizes[1:])


def _forward_pass(weights, biases, dropout_rates, X, rng, buf: _Buffers):
    """Run the network on the rows of ``X``, caching activations for backprop.

    Returns (hs, masks, logits), all but ``X`` views of ``buf``: hs[l] is
    the input to layer l (after dropout; hs[0] is ``X``), masks[l] the
    inverted-dropout mask of hidden layer l (or None). ``rng`` is None
    outside train mode.
    """
    B = X.shape[0]
    hs, masks = [X], []
    for l, p in enumerate(dropout_rates):
        a = np.matmul(hs[l], weights[l].T, out=buf.h[l][:B])
        a += biases[l]
        np.maximum(a, 0.0, out=a)
        mask = None
        if rng is not None and p > 0.0:
            mask = rng.random(out=buf.mask[l][:B])
            np.greater_equal(mask, p, out=mask)
            mask /= 1.0 - p
            a *= mask
        hs.append(a)
        masks.append(mask)
    logits = np.matmul(hs[-1], weights[-1].T, out=buf.d[-1][:B])
    logits += biases[-1]
    return hs, masks, logits


def forward(model: FcnModel, inputs: np.ndarray) -> np.ndarray:
    """Posterior batch for ``inputs`` with dropout off; each row is a softmax distribution."""
    X = _validate_inputs(model, inputs)
    buf = _Buffers(model.layer_sizes, X.shape[0], grads=False)
    _, _, logits = _forward_pass(model.weights, model.biases, model.dropout_rates, X, None, buf)
    return softmax(logits, out=logits)


def cross_entropy_losses(posteriors: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Vector of per-sample cross-entropy losses."""
    P = np.asarray(posteriors, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    if P.ndim != 2 or labels.shape != (P.shape[0],):
        raise ShapeError("posteriors (n, C) and labels (n,) expected")
    if np.any(labels < 0) or np.any(labels >= P.shape[1]):
        raise InputError("label out of range")
    p_y = P[np.arange(P.shape[0]), labels]
    return -np.log(np.maximum(p_y, LOSS_CLAMP))


def evaluate_accuracy(model: FcnModel, X: np.ndarray, y: np.ndarray) -> float:
    """Top-1 accuracy with dropout off."""
    P = forward(model, X)
    return float(np.mean(np.argmax(P, axis=1) == np.asarray(y)))


def _layer_deltas(weights, hs, masks, delta, buf: _Buffers):
    """Back-propagate the output delta: deltas[l] is the loss gradient with
    respect to layer l's pre-activation output, one row per sample.

    A hidden unit passes its delta where its activation is positive. After
    dropout that is where its pre-activation was, except at dropped units,
    whose delta the mask has already made a zero of the same sign.
    """
    B = delta.shape[0]
    deltas = [delta]
    for l in range(len(weights) - 1, 0, -1):
        delta = np.matmul(delta, weights[l], out=buf.d[l - 1][:B])
        if masks[l - 1] is not None:
            delta *= masks[l - 1]
        delta *= np.greater(hs[l], 0.0, out=buf.gate[l - 1][:B])
        deltas.append(delta)
    return deltas[::-1]


def _gradients(deltas, hs, buf: _Buffers):
    """Each layer's weight and bias gradients from its deltas and inputs, into ``buf``."""
    return ([np.matmul(d.T, h, out=dW) for d, h, dW in zip(deltas, hs, buf.dW)],
            [np.sum(d, axis=0, out=db) for d, db in zip(deltas, buf.db)])


def _mean_rule(weights, hs, masks, delta, buf: _Buffers):
    """Plain SGD gradient rule: batch-mean gradients from the output delta P - Y."""
    delta /= delta.shape[0]
    return _gradients(_layer_deltas(weights, hs, masks, delta, buf), hs, buf)


def _step(weights, biases, dropout_rates, X, y, rng, buf: _Buffers, rule, l2_lambda: float):
    """One batch step in ``buf``: the mean cross-entropy loss of the rows of
    ``X`` and its gradients, which ``rule`` maps from the cached activations
    and the output delta P - Y, plus the L2 term's. Returns (loss, dWs, dbs)."""
    hs, masks, logits = _forward_pass(weights, biases, dropout_rates, X, rng, buf)
    P = softmax(logits, out=logits)
    loss = float(np.mean(cross_entropy_losses(P, y)))
    P[np.arange(X.shape[0]), y] -= 1.0  # P - Y, without the one-hot Y
    dWs, dbs = rule(weights, hs, masks, P, buf)
    if l2_lambda > 0:
        for dW, w, scratch in zip(dWs, weights, buf.tW):
            dW += np.multiply(w, l2_lambda, out=scratch)
    return loss, dWs, dbs


def loss_and_gradients(
    model: FcnModel,
    X: np.ndarray,
    labels: np.ndarray,
    l2_lambda: float = 0.0,
    train_mode: bool = False,
    seed: int = 0,
):
    """Objective value and its gradients for one batch: the training step of
    ``train``, without the update.

    Objective = mean cross-entropy + (l2_lambda / 2) * sum of squared
    weights (biases unregularized). Returns (loss, dWs, dbs).
    """
    X = _validate_inputs(model, X)
    rng = np.random.default_rng(_norm_seed(seed)) if train_mode else None
    buf = _Buffers(model.layer_sizes, X.shape[0])
    loss, dWs, dbs = _step(model.weights, model.biases, model.dropout_rates, X,
                           np.asarray(labels, dtype=np.int64), rng, buf, _mean_rule, l2_lambda)
    if l2_lambda > 0:
        loss += 0.5 * l2_lambda * sum(float(np.sum(w * w)) for w in model.weights)
    return loss, dWs, dbs


class _TrainState:
    """Mutable optimizer state that keeps a compression constraint satisfied.

    The constraint's class sets what training updates: weight matrices,
    shared centroids or float latents (see ``constraints.Unconstrained``).
    """

    def __init__(self, model: FcnModel, constraint: cons.Unconstrained | None):
        self.constraint = constraint or cons.Unconstrained()
        self.shapes = [w.shape for w in model.weights]
        self.params = self.constraint.parameters(model.weights)
        self.biases = [b.copy() for b in model.biases]

    def effective_weights(self) -> list[np.ndarray]:
        return self.constraint.weights(self.params, self.shapes)

    def apply_update(self, dWs, dbs, lr: float):
        """One SGD step p -= lr g, in place; scales the gradients in place."""
        grads = list(dbs) + list(self.constraint.gradients(dWs))
        for g, p in zip(grads, self.biases + self.params):
            g *= lr
            p -= g
        self.constraint.project(self.params)

    def snapshot(self, template: FcnModel) -> FcnModel:
        return FcnModel(
            list(template.layer_sizes),
            [w.copy() for w in self.effective_weights()],
            [b.copy() for b in self.biases],
            list(template.dropout_rates),
        )


def _ghost_norms(deltas, hs) -> np.ndarray:
    """Per-sample global gradient norms without per-sample gradients.

    Layer l's per-sample weight gradient is the outer product of deltas[l][b]
    and hs[l][b], so its squared norm is |deltas[l][b]|^2 |hs[l][b]|^2; the
    bias gradient adds |deltas[l][b]|^2.
    """
    sq = sum(np.sum(d * d, axis=1) * (np.sum(h * h, axis=1) + 1.0) for d, h in zip(deltas, hs))
    return np.sqrt(sq)


def _dp_rule(dp: DpConfig, rng_noise: np.random.Generator):
    """DP-SGD gradient rule: the mean of per-sample gradients clipped to
    ``dp.clip_norm``, plus Gaussian noise drawn per layer from layer 0,
    weight matrix first, then bias."""

    def rule(eff, hs, masks, delta, buf):
        B = delta.shape[0]
        deltas = _layer_deltas(eff, hs, masks, delta, buf)
        # min(1, C / norm), and 1 for a zero gradient
        factors = dp.clip_norm / np.maximum(_ghost_norms(deltas, hs), dp.clip_norm)
        std = dp.noise_multiplier * dp.clip_norm / B
        for d in deltas:
            d *= factors[:, None]
        dWs, dbs = _gradients(deltas, hs, buf)
        for dW, db, tW, tb in zip(dWs, dbs, buf.tW, buf.tb):
            for g, noise in ((dW, tW), (db, tb)):  # a layer's weight noise, then its bias noise
                g /= B
                g += np.multiply(rng_noise.standard_normal(out=noise), std, out=noise)
        return dWs, dbs

    return rule


def _fit(model, train_set, valid_set, config, constraint, rule) -> FcnModel:
    """The training loop shared by ``train`` and ``train_dpsgd``: one
    ``_step`` with ``rule`` per batch, each in the one ``_Buffers`` of the run."""
    X, y = _validate_inputs(model, train_set[0]), np.asarray(train_set[1], dtype=np.int64)
    if X.shape[0] == 0:
        raise InputError("training set is empty")
    if np.any(y < 0) or np.any(y >= model.output_dim):
        raise InputError("training labels out of range")
    rng = np.random.default_rng(_norm_seed(config.seed))
    state = _TrainState(model, constraint)
    n = X.shape[0]
    buf = _Buffers(model.layer_sizes, min(config.batch_size, n))
    best: FcnModel | None = None
    best_acc = -np.inf
    for epoch in range(config.max_epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            loss, dWs, dbs = _step(state.effective_weights(), state.biases, model.dropout_rates,
                                   X[idx], y[idx], rng, buf, rule, config.l2_lambda)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            state.apply_update(dWs, dbs, config.learning_rate)
        if valid_set is not None:
            snap = state.snapshot(model)
            acc = evaluate_accuracy(snap, *valid_set)
            if acc > best_acc:
                best_acc, best = acc, snap
    out = best if best is not None else state.snapshot(model)
    out.check_finite()
    return out


def train(
    model: FcnModel,
    train_set,
    valid_set,
    config: TrainConfig,
    constraint: cons.Unconstrained | None = None,
) -> FcnModel:
    """SGD training for ``config.max_epochs`` epochs.

    ``train_set``/``valid_set`` are (X, y) pairs. Without a ``valid_set``
    (None) the final parameters are returned; with one, the snapshot of
    the epoch with the best validation accuracy (the first, on ties).

    A supplied constraint is honored after every update: pruned positions
    stay exactly zero, clustered layers keep their shared values (each
    centroid moves by the summed gradient of its members), and fake-quant
    layers stay on the int8 grid of their latent weights.
    """
    return _fit(model, train_set, valid_set, config, constraint, _mean_rule)


def train_dpsgd(
    model: FcnModel,
    train_set,
    config: TrainConfig,
    dp: DpConfig,
    constraint: cons.Unconstrained | None = None,
) -> FcnModel:
    """DP-SGD: each sample's gradient is clipped to ``dp.clip_norm``, the
    clipped gradients are averaged, and Gaussian noise with std
    sigma * C / batch_size is added; returns the final parameters.

    Runs the same loop, batches and constraint handling as ``train``
    (without validation). Clipping uses ghost norms: a dense layer's
    per-sample gradient is an outer product, so each sample's norm and the
    clipped sum come from the batch's layer deltas and inputs, and no
    per-sample gradient is ever built. A step costs about 2.5 plain SGD
    steps, most of the extra being the noise draws.

    Noise comes from a generator independent of the data/dropout stream,
    so sigma = 0 with a very large clip norm reproduces plain ``train``
    steps up to floating-point accumulation order.
    """
    rng_noise = np.random.default_rng(np.random.SeedSequence([_norm_seed(config.seed), 0x6E01]))
    return _fit(model, train_set, None, config, constraint, _dp_rule(dp, rng_noise))
