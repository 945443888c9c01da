"""Dense softmax classifiers with exact, hand-written gradients.

Everything runs in float64 numpy. A Model is an immutable stack of affine
layers (relu or identity activations) followed by a softmax; training code
never mutates a model, it builds a new one from the old parameters plus an
update. The backward pass differentiates weighted sums of cross-entropy
and entropy terms in closed form, which keeps gradients reproducible to
the last bit and lets callers attach per-example coefficients that are
treated as constants (no gradient flows through them).

A ModelStack holds K same-shaped models with their parameters stacked on
a leading axis (a model may appear more than once). The forward, the loss
terms, the backward and Adam take a Model or a ModelStack: a stack runs
all K at once, slice k has the bits of model k on its own, and the losses
come one per slice. The backward either forms the parameter and input
gradients (backprop) or the input gradient alone (stacked_input_grad,
for attacks, which keeps only boolean relu masks from the forward).

Label-taking functions accept integer labels, checked on every call, or a
LabelIndex of them, checked once for the many calls of a loop over one
batch (an attack's steps). The softmax checks its own rows, so the
package's own consumers of forward output skip the probability check
(_checked=True) that caller-supplied probabilities get.

Log arguments are clamped at ``LOG_FLOOR``; the clamp only matters where a
probability has underflowed to ~0, and the reported gradient is the exact
gradient of the clamped loss.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .atomic import atomic_write
from .errors import DomainError, FormatError, ShapeError, UnsupportedLossError

LOG_FLOOR = 1e-12
ACTIVATIONS = ("relu", "id")


def _as_f64(x, name="array"):
    a = np.asarray(x, dtype=np.float64)
    if not np.isfinite(a).all():
        raise DomainError(f"{name} contains non-finite values")
    return a


# ---------------------------------------------------------------------------
# model


@dataclass(frozen=True)
class Layer:
    """One affine layer. w[i, j] connects input unit i to output unit j. In
    a ModelStack w and b carry a leading stack axis."""

    w: np.ndarray
    b: np.ndarray
    act: str = "relu"


@dataclass(frozen=True)
class Model:
    """Immutable feed-forward classifier; forward() appends a softmax."""

    layers: tuple
    num_classes: int
    seed: int = 0

    def __post_init__(self):
        if not self.layers:
            raise ShapeError("model needs at least one layer")
        if self.num_classes < 2:
            raise DomainError(f"num_classes must be >= 2, got {self.num_classes}")
        prev = None
        for i, layer in enumerate(self.layers):
            if layer.act not in ACTIVATIONS:
                raise DomainError(f"layer {i}: unknown activation {layer.act!r}")
            if layer.w.ndim != 2 or layer.b.ndim != 1:
                raise ShapeError(f"layer {i}: w must be 2-d and b 1-d")
            if layer.w.shape[1] != layer.b.shape[0]:
                raise ShapeError(
                    f"layer {i}: w has {layer.w.shape[1]} outputs but b has {layer.b.shape[0]}"
                )
            if prev is not None and layer.w.shape[0] != prev:
                raise ShapeError(
                    f"layer {i}: expects {layer.w.shape[0]} inputs, previous layer emits {prev}"
                )
            if not (np.isfinite(layer.w).all() and np.isfinite(layer.b).all()):
                raise DomainError(f"layer {i}: non-finite parameters")
            prev = layer.w.shape[1]
        if prev != self.num_classes:
            raise ShapeError(
                f"final layer emits {prev} units, num_classes is {self.num_classes}"
            )

    @property
    def input_dim(self):
        return self.layers[0].w.shape[0]


def init_model(input_dim, hidden, num_classes, seed):
    """Build a fresh model with He-normal hidden layers and a small
    identity-activated output layer.

    hidden is a sequence of hidden widths; empty gives softmax regression.
    """
    rng = np.random.default_rng(seed)
    widths = [int(input_dim)] + [int(h) for h in hidden] + [int(num_classes)]
    layers = []
    for i in range(len(widths) - 1):
        fan_in, fan_out = widths[i], widths[i + 1]
        last = i == len(widths) - 2
        scale = np.sqrt(1.0 / fan_in) if last else np.sqrt(2.0 / fan_in)
        w = rng.normal(0.0, scale, size=(fan_in, fan_out))
        b = np.zeros(fan_out)
        layers.append(Layer(w=w, b=b, act="id" if last else "relu"))
    return Model(layers=tuple(layers), num_classes=int(num_classes), seed=int(seed))


# ---------------------------------------------------------------------------
# stacked models


@dataclass(frozen=True)
class ModelStack:
    """K models of one layer shape: a Model's layers with a leading K axis,
    each w stacked to (K, d_in, d_out) and each b to (K, 1, d_out)."""

    layers: tuple

    @property
    def size(self):
        return self.layers[0].w.shape[0]

    @cached_property
    def transposed(self):
        """Each layer's w with its last two axes swapped, (K, d_out, d_in):
        views, made once per stack, for the input-gradient backward."""
        return tuple(layer.w.transpose(0, 2, 1) for layer in self.layers)

    def take(self, idx):
        """The stack of models idx (a sequence of indices; repeats allowed),
        in that order."""
        return ModelStack(layers=tuple(Layer(la.w[idx], la.b[idx], la.act) for la in self.layers))


def same_shape(a, b):
    """True iff models a and b have the same layer shapes and activations."""
    return len(a.layers) == len(b.layers) and all(
        la.w.shape == lb.w.shape and la.act == lb.act for la, lb in zip(a.layers, b.layers)
    )


def stack_models(models):
    """One ModelStack of same-shaped models, in the given order; a model may
    appear more than once. A stack of one holds views of its model's
    parameters (np.stack would copy them on every call)."""
    models = tuple(models)
    if not models or not all(same_shape(models[0], m) for m in models[1:]):
        raise ShapeError("a model stack needs one or more models of one layer shape")
    if len(models) == 1:
        return ModelStack(
            layers=tuple(Layer(la.w[None], la.b[None, None], la.act) for la in models[0].layers)
        )
    return ModelStack(layers=tuple(
        Layer(np.stack([la.w for la in ls]), np.stack([la.b for la in ls])[:, None, :], ls[0].act)
        for ls in zip(*(m.layers for m in models))
    ))


# ---------------------------------------------------------------------------
# forward


def softmax(z, out=None):
    """Row-wise stable softmax; out=z computes it in place. Checks its own
    rows: the largest term of each row is exp(0) = 1, so a finite row
    denominator makes the row a distribution, and a non-finite one (an
    inf or nan logit; a row of -inf) raises DomainError."""
    z = np.asarray(z, dtype=np.float64)
    e = np.subtract(z, z.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    total = e.sum(axis=-1, keepdims=True)
    if not np.isfinite(total).all():
        raise DomainError("softmax of non-finite logits")
    e /= total
    return e


@dataclass(frozen=True)
class ForwardCache:
    """What a backward pass needs from the forward: each layer's input
    (None unless kept), each layer's relu mask (None for an identity
    layer; the list is None unless kept) and the probabilities."""

    layer_inputs: list | None
    masks: list | None
    probs: np.ndarray


def _check_batch(model, batch):
    x = _as_f64(batch, "batch")
    w = model.layers[0].w  # (d, h) for a Model, (K, d, h) for a ModelStack
    if x.ndim not in (2, w.ndim) or x.shape[-1] != w.shape[-2] or (x.ndim == 3 and len(x) != len(w)):
        raise ShapeError(f"batch of shape {x.shape} does not fit first-layer weights {w.shape}")
    return x


def forward_cached(model, batch, keep="inputs"):
    """Probability rows and a ForwardCache for the backward pass.

    model is a Model, with batch (B, d) and probs (B, M), or a ModelStack
    of K models, with batch one (B, d) batch that every model sees or a
    (K, B, d) stack whose slice k model k sees, and probs (K, B, M). Slice
    k has the bits of model k's own forward on its batch.

    keep says what the cache holds: "inputs" every layer's input and relu
    mask (for backprop), "masks" the relu masks alone (for
    stacked_input_grad), None nothing (a plain forward).
    """
    a = _check_batch(model, batch)
    layer_inputs = [] if keep == "inputs" else None
    masks = [] if keep else None
    for layer in model.layers:
        if layer_inputs is not None:
            layer_inputs.append(a)
        z = a @ layer.w
        z += layer.b
        if masks is not None:
            masks.append(z > 0.0 if layer.act == "relu" else None)
        a = np.maximum(z, 0.0, out=z) if layer.act == "relu" else z
    probs = softmax(a, out=a)  # a is this pass's own last activation
    return probs, ForwardCache(layer_inputs=layer_inputs, masks=masks, probs=probs)


def forward(model, batch):
    """Class probabilities, (B, M) for a Model, (K, B, M) for a ModelStack
    (see forward_cached). Rows sum to 1."""
    return forward_cached(model, batch, keep=None)[0]


def predict(model, batch):
    """Predicted labels; argmax breaks ties toward the lowest index."""
    return np.argmax(forward(model, batch), axis=-1)


# ---------------------------------------------------------------------------
# losses


def _check_labels(labels, batch_size, num_classes):
    y = np.asarray(labels)
    if y.shape != (batch_size,):
        raise ShapeError(f"labels shape {y.shape} != ({batch_size},)")
    if not np.issubdtype(y.dtype, np.integer):
        raise DomainError("labels must be integers")
    if y.size and (y.min() < 0 or y.max() >= num_classes):
        raise DomainError(
            f"labels must lie in [0, {num_classes}); got range [{y.min()}, {y.max()}]"
        )
    return y.astype(np.int64)


def _check_probs(probs):
    """probs as float64 rows (..., B, M) of finite non-negative entries that
    sum to 1, else DomainError (ShapeError for fewer than 2 axes)."""
    p = np.asarray(probs, dtype=np.float64)
    # a non-finite entry makes its row sum non-finite, which fails the sum
    # test, so rows that pass both tests are finite
    if p.ndim >= 2 and (not p.size or (np.abs(p.sum(axis=-1) - 1.0).max() <= 1e-4 and p.min() >= -1e-9)):
        return p
    _as_f64(p, "probs")
    if p.ndim < 2:
        raise ShapeError("probs must hold rows: ndim >= 2")
    raise DomainError("probs rows must be distributions summing to 1")


@dataclass(frozen=True)
class LabelIndex:
    """Checked integer labels of a batch and the (rows, labels) index of
    each row's label entry. Every function here that takes labels takes
    one in their place and skips the check."""

    rows: np.ndarray
    labels: np.ndarray


def label_index(labels, batch_size, num_classes):
    """The LabelIndex of a batch's labels: one integer in [0, num_classes)
    per row, else ShapeError or DomainError."""
    if isinstance(labels, LabelIndex):
        return labels
    return LabelIndex(np.arange(batch_size), _check_labels(labels, batch_size, num_classes))


def label_probs(probs, labels):
    """Each row's entry at its integer label, (..., B), unchecked and
    C-ordered: numpy gathers probs[..., rows, labels] in Fortran order for
    stacked rows, and a mean over the last axis of that sums each row in
    another order than np.mean of the row alone."""
    if not isinstance(labels, LabelIndex):
        labels = LabelIndex(np.arange(probs.shape[-2]), np.asarray(labels, dtype=np.int64))
    return np.ascontiguousarray(probs[..., labels.rows, labels.labels])


def _label_entries(probs, labels, checked):
    """Probability rows (..., B, M), checked unless the caller vouches that
    they came from this module's forward (checked), the LabelIndex of the
    labels and each row's label entry p_y, (..., B)."""
    p = probs if checked else _check_probs(probs)
    index = label_index(labels, p.shape[-2], p.shape[-1])
    return p, index, label_probs(p, index)


def cross_entropy_per_example(probs, labels, *, _checked=False):
    """-log p_y per row, with the log argument clamped at LOG_FLOOR. probs
    may carry leading stack axes, (..., B, M). The package's own callers
    pass _checked=True for rows of a forward, whose softmax checked them."""
    return -np.log(np.maximum(_label_entries(probs, labels, _checked)[2], LOG_FLOOR))


def ce_values_and_prob_grad(probs, labels, *, _checked=False):
    """Per-example cross-entropy and the gradient of its batch mean with
    respect to probs: -1/(B p_y) at each label entry, 0 where p_y is under
    the clamp. probs may carry leading stack axes, (..., B, M); each slice
    is then its own batch. _checked as in cross_entropy_per_example."""
    p, index, p_y = _label_entries(probs, labels, _checked)
    floored = np.maximum(p_y, LOG_FLOOR)
    g = np.zeros(p.shape)  # zeros_like costs more at attack-step sizes
    # d(-log max(p_y, floor))/dp_y is -1/p_y above the clamp, 0 below
    g[..., index.rows, index.labels] = np.where(p_y > LOG_FLOOR, -1.0 / (len(index.rows) * floored), 0.0)
    return -np.log(floored), g


def cross_entropy(probs, labels):
    """Mean cross-entropy of a probability batch against integer labels."""
    return float(np.mean(cross_entropy_per_example(probs, labels)))


def entropy_rows(p):
    """Shannon entropy per row, in nats, of unchecked rows; 0*log(0) counts as 0."""
    plogp = np.where(p > 0.0, p * np.log(np.maximum(p, LOG_FLOOR)), 0.0)
    return -plogp.sum(axis=-1)


def entropy(probs):
    """Shannon entropy per row, in nats; 0*log(0) counts as 0."""
    return entropy_rows(_check_probs(probs))


# ---------------------------------------------------------------------------
# backward


@dataclass(frozen=True)
class LossTerm:
    """One summand of a composite loss over a single forward pass.

    kind is "ce" (cross-entropy against labels) or "entropy". The term
    contributes mean_b(weight_b * v_b) to the loss. weight may be a scalar
    or a per-example vector; either way it is a constant to the backward
    pass, so per-example coefficients computed from probabilities act as
    blocked (detached) factors.
    """

    kind: str
    labels: np.ndarray | None = None
    weight: object = 1.0


@dataclass(frozen=True)
class BackwardResult:
    loss: object  # a float, or one value per slice (K,) for a ModelStack
    param_grads: tuple  # (gw, gb) per layer, shaped like the layer's w and b
    input_grad: np.ndarray
    rows: tuple = ()  # each term's unweighted per-example values, (..., B)


def _term_weight(term, shape):
    w = np.asarray(term.weight, dtype=np.float64)
    if w.ndim == 0:
        return np.full(shape, float(w))
    if w.shape != shape:
        raise ShapeError(f"term weight shape {w.shape} != {shape}")
    if not np.isfinite(w).all():
        raise DomainError("term weight contains non-finite values")
    return w


def accumulate_terms(probs, terms):
    """Total loss value, dLoss/dprobs and each term's unweighted
    per-example values (CE or entropy rows) for a list of LossTerms.

    probs is (B, M), or (K, B, M) for K stacked slices: the loss is then
    one value per slice, (K,), and a per-example term weight and a term's
    rows are (K, B).
    """
    b, m = probs.shape[-2:]
    loss = np.zeros(probs.shape[:-2])
    g_probs = np.zeros_like(probs)
    rows = []
    for term in terms:
        w = _term_weight(term, probs.shape[:-1])
        if term.kind == "ce":
            if term.labels is None:
                raise UnsupportedLossError("ce term needs labels")
            index = label_index(term.labels, b, m)
            floored = np.maximum(label_probs(probs, index), LOG_FLOOR)
            v = -np.log(floored)
            # d(-log max(p_y, floor))/dp_y is -1/p_y above the clamp, 0 below
            g_probs[..., index.rows, index.labels] += np.where(floored > LOG_FLOOR, -w / (b * floored), 0.0)
        elif term.kind == "entropy":
            v = entropy_rows(probs)
            g = np.where(probs > 0.0, -(np.log(np.maximum(probs, LOG_FLOOR)) + 1.0), 0.0)
            g_probs += (w / b)[..., None] * g
        else:
            raise UnsupportedLossError(f"unknown loss term kind {term.kind!r}")
        loss += (w * v).mean(axis=-1)
        rows.append(v)
    return (float(loss) if loss.ndim == 0 else loss), g_probs, tuple(rows)


def _softmax_jvp(probs, g_probs):
    return probs * (g_probs - (g_probs * probs).sum(axis=-1, keepdims=True))


def backprop(model, cache, g_probs):
    """Backpropagate dLoss/dprobs through softmax and every layer of a
    Model or a ModelStack; cache comes from forward_cached(model, ...) with
    keep="inputs". g_probs has the shape of the probs; for a stack it may
    also be one (B, M) shared by every slice.

    Returns ((gw, gb) per layer, shaped like the layer's w and b,
    dLoss/dinputs). For a stack, slice k of each is model k's gradient of
    slice k's loss, with the bits of model k's own backprop.
    """
    p = cache.probs
    if g_probs.shape not in (p.shape, p.shape[-2:]):
        raise ShapeError(f"g_probs shape {g_probs.shape} != probs shape {p.shape}")
    g = _softmax_jvp(p, g_probs)
    param_grads = [None] * len(model.layers)
    for i in range(len(param_grads) - 1, -1, -1):
        if cache.masks[i] is not None:
            g = g * cache.masks[i]
        layer = model.layers[i]
        gw = cache.layer_inputs[i].swapaxes(-1, -2) @ g
        param_grads[i] = (gw, g.sum(axis=-2).reshape(layer.b.shape))
        g = g @ layer.w.swapaxes(-1, -2)
    return tuple(param_grads), g


def stacked_input_grad(stack, probs, masks, g_probs):
    """dLoss/dinputs of every stacked model, (K, B, d), and nothing else: no
    parameter gradient is formed. probs and masks come from forward_cached
    with keep="masks"; g_probs is dLoss/dprobs, (K, B, M) or one (B, M)
    shared by every model. Pops each mask once it is used, so the stacked
    intermediates go as the pass moves back.
    """
    g = _softmax_jvp(probs, g_probs)
    for w_t in reversed(stack.transposed):
        mask = masks.pop()
        if mask is not None:
            g *= mask
        g = g @ w_t
    return g


def backward(model, batch, terms):
    """Loss value plus exact parameter and input gradients of a Model, or of
    each slice of a ModelStack (see forward_cached for the batch forms),
    and each term's unweighted per-example values (rows).

    terms is a sequence of LossTerm, or a callable that builds one from
    this pass's probabilities (for weights computed from them, which stay
    constants to the backward); the loss is the sum of the terms' weighted
    batch means.
    """
    probs, cache = forward_cached(model, batch)
    loss, g_probs, rows = accumulate_terms(probs, terms(probs) if callable(terms) else terms)
    param_grads, input_grad = backprop(model, cache, g_probs)
    return BackwardResult(loss=loss, param_grads=param_grads, input_grad=input_grad, rows=rows)


# ---------------------------------------------------------------------------
# Adam


@dataclass(frozen=True)
class OptimState:
    lr: float
    beta1: float
    beta2: float
    eps: float
    step: int
    m: tuple
    v: tuple


def adam_init(model, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
    """Zero moments for a Model or a ModelStack."""
    if not np.isfinite(lr) or lr < 0:
        raise DomainError(f"lr must be a finite non-negative real, got {lr}")
    zeros = tuple(
        (np.zeros_like(layer.w), np.zeros_like(layer.b)) for layer in model.layers
    )
    return OptimState(lr=lr, beta1=beta1, beta2=beta2, eps=eps, step=0, m=zeros, v=zeros)


def adam_step(model, param_grads, state):
    """One Adam update of a Model or of every model of a ModelStack (the
    gradients shaped like its parameters). Returns (new model, new state);
    inputs untouched. Adam is elementwise, so slice k of a stack's update
    has the bits of model k's own.

    A gradient that is exactly zero in every coordinate of a tensor leaves
    that tensor exactly unchanged on the first step and whenever its moment
    estimates are still zero. A non-finite gradient or updated parameter
    raises DomainError.
    """
    if len(param_grads) != len(model.layers):
        raise ShapeError("gradient list length does not match layer count")
    t = state.step + 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    new_layers, new_m, new_v = [], [], []
    for layer, (gw, gb), (mw, mb), (vw, vb) in zip(
        model.layers, param_grads, state.m, state.v
    ):
        if gw.shape != layer.w.shape or gb.shape != layer.b.shape:
            raise ShapeError("gradient shape does not match parameter shape")
        if not (np.isfinite(gw).all() and np.isfinite(gb).all()):
            raise DomainError("non-finite gradient")
        mw2 = b1 * mw + (1 - b1) * gw
        mb2 = b1 * mb + (1 - b1) * gb
        vw2 = b2 * vw + (1 - b2) * gw**2
        vb2 = b2 * vb + (1 - b2) * gb**2
        w2 = layer.w - state.lr * (mw2 / bc1) / (np.sqrt(vw2 / bc2) + state.eps)
        bb2 = layer.b - state.lr * (mb2 / bc1) / (np.sqrt(vb2 / bc2) + state.eps)
        new_layers.append(Layer(w=w2, b=bb2, act=layer.act))
        new_m.append((mw2, mb2))
        new_v.append((vw2, vb2))
    new_state = replace(state, step=t, m=tuple(new_m), v=tuple(new_v))
    if isinstance(model, ModelStack):  # a Model checks its own parameters
        if not all(np.isfinite(la.w).all() and np.isfinite(la.b).all() for la in new_layers):
            raise DomainError("non-finite parameters")
        return ModelStack(layers=tuple(new_layers)), new_state
    return replace(model, layers=tuple(new_layers)), new_state


# ---------------------------------------------------------------------------
# checkpoints


def model_to_json(model):
    """Serialize to the checkpoint schema. Stable: serializing a model
    loaded from this string reproduces it byte for byte."""
    obj = {
        "layers": [
            {"w": layer.w.tolist(), "b": layer.b.tolist(), "act": layer.act}
            for layer in model.layers
        ],
        "num_classes": model.num_classes,
        "seed": model.seed,
    }
    return json.dumps(obj)


def model_from_json(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"checkpoint is not valid JSON: {e}") from None
    return model_from_obj(obj)


def model_from_obj(obj):
    if not isinstance(obj, dict) or "layers" not in obj or "num_classes" not in obj:
        raise FormatError("checkpoint must be an object with 'layers' and 'num_classes'")
    layers = []
    for i, entry in enumerate(obj["layers"]):
        try:
            w = np.array(entry["w"], dtype=np.float64)
            b = np.array(entry["b"], dtype=np.float64)
            act = entry["act"]
        except (KeyError, TypeError, ValueError) as e:
            raise FormatError(f"checkpoint layer {i} is malformed: {e}") from None
        layers.append(Layer(w=w, b=b, act=act))
    return Model(
        layers=tuple(layers),
        num_classes=int(obj["num_classes"]),
        seed=int(obj.get("seed", 0)),
    )


def save_model(model, path):
    with atomic_write(path) as f:
        f.write(model_to_json(model))


def load_model(path):
    with open(path) as f:
        return model_from_json(f.read())
