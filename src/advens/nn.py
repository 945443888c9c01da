"""Dense softmax classifiers with exact, hand-written gradients.

Everything runs in float64 numpy. A Model is an immutable stack of affine
layers (relu or identity activations) followed by a softmax; training code
never mutates a model, it builds a new one from the old parameters plus an
update. The loss functions give their gradient in the probabilities
(dLoss/dprobs) in closed form: ce_values_and_prob_grad for a weighted
cross-entropy and entropy_grad for the entropy, the weights constants to
the gradient (no gradient flows through them). backward runs a forward,
takes dLoss/dprobs of its probabilities from the caller's loss_grad and
backpropagates it, which keeps gradients reproducible to the last bit.

A ModelStack holds K same-shaped models with their parameters stacked on
a leading axis (a model may appear more than once); an ensemble's members
are one ModelStack, whose len and num_classes come from its weights. The
forward, the loss terms, the backward and Adam take a Model or a
ModelStack: a stack runs all K at once, slice k has the bits of model k
on its own, and the losses come one per slice. The backward (backprop)
forms one gradient: the parameter gradients from a cache of layer inputs
(a training step), the input gradient from a cache of boolean relu masks
(an attack step).

Label-taking functions accept integer labels, checked on every call, or a
LabelIndex of them, checked once for the many calls of a loop over one
batch (an attack's steps): one flat index of the label entries of
probability rows of one layout, rows of another layout raising ShapeError.
Callers take a large batch through a pass in row blocks (row_blocks); a
block's LabelIndex keeps the whole batch's mean. over_blocks runs a pass's
blocks on the calling thread and on helper threads, one per further core,
numpy's OpenBLAS on one thread meanwhile: a block's bits depend on neither
its thread nor the order the blocks run in. The softmax checks its own
rows, so the package's own consumers of forward output skip the
probability check (_checked=True) that caller-supplied probabilities get.

Log arguments are clamped at ``LOG_FLOOR``; the clamp only matters where a
probability has underflowed to ~0, and the reported gradient is the exact
gradient of the clamped loss.
"""
from __future__ import annotations

import contextvars
import itertools
import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, FormatError, ShapeError

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

    def __len__(self):
        return self.layers[0].w.shape[0]

    @property
    def input_dim(self):
        return self.layers[0].w.shape[-2]

    @property
    def num_classes(self):
        return self.layers[-1].w.shape[-1]

    def take(self, idx):
        """The stack of models idx (a sequence of indices; repeats allowed),
        in that order."""
        return ModelStack(layers=tuple(Layer(la.w[idx], la.b[idx], la.act) for la in self.layers))


def _layer_shapes(model):
    """Each layer's weight shape and activation: models stack when theirs agree."""
    return [(layer.w.shape, layer.act) for layer in model.layers]


def check_one_shape(models):
    """ShapeError naming the first of models whose layer shapes differ
    from model 0's."""
    for i, m in enumerate(models[1:], 1):
        if _layer_shapes(m) != _layer_shapes(models[0]):
            raise ShapeError(f"model {i} has layers {_layer_shapes(m)}, model 0 has {_layer_shapes(models[0])}")


def stack_models(models):
    """One ModelStack of copies of same-shaped models' parameters, in the
    given order; a model may appear more than once. ShapeError names the
    first model whose layer shapes differ from model 0's."""
    models = tuple(models)
    if not models:
        raise ShapeError("a model stack needs one or more models")
    check_one_shape(models)
    return ModelStack(layers=tuple(
        Layer(np.stack([la.w for la in ls]), np.stack([la.b for la in ls])[:, None, :], ls[0].act)
        for ls in zip(*(m.layers for m in models))
    ))


# ---------------------------------------------------------------------------
# class-axis reductions

# numpy reduces over the last axis with one inner-loop call per row, which
# sets the cost of a class-axis max or sum once there are many short rows
# (an evaluation attack's batch). From this many rows per class on, one
# ufunc call per class over all rows is cheaper.
_COLUMN_ROWS = 64


def _by_columns(a):
    """Whether a row reduction of a goes class by class: 2 to 15 classes
    (where _row_sum follows numpy's summation order) and _COLUMN_ROWS rows
    per class."""
    m = a.shape[-1]
    return 2 <= m < 16 and a.size >= _COLUMN_ROWS * m * m


def _row_max(a):
    """a.max(axis=-1, keepdims=True), bit for bit, signed zeros included. A
    row with a nan is left to numpy, whose reduce picks the nan's sign its
    own way, and so is a row whose max is a zero at 8 or more classes,
    where numpy's unrolled reduce picks among equal zeros its own way."""
    if not _by_columns(a):
        return np.maximum.reduce(a, axis=-1, keepdims=True)  # a.max without its wrapper
    out = a[..., :1].copy()
    for j in range(1, a.shape[-1]):
        np.maximum(out, a[..., j : j + 1], out=out)
    if np.isnan(out).any() or (a.shape[-1] >= 8 and (out == 0.0).any()):
        return a.max(axis=-1, keepdims=True)
    return out


def _row_sum(a):
    """a.sum(axis=-1, keepdims=True), bit for bit. numpy adds a row to +0.0:
    a row of fewer than 8 terms summed left to right, one of 8 to 15 as
    ((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)) and then the rest left to right
    (its pairwise sum); so do the columns here. At 8 or more classes a row
    whose sum is a nan is left to numpy, whose nans then take their sign
    from its operand order."""
    if not _by_columns(a):
        return np.add.reduce(a, axis=-1, keepdims=True)  # a.sum without its wrapper
    m = a.shape[-1]
    if m < 8:
        out = a[..., :1] + 0.0
        for j in range(1, m):
            out += a[..., j : j + 1]
        return out
    col = [a[..., j : j + 1] for j in range(m)]
    out = (col[0] + col[1]) + (col[2] + col[3])
    out += (col[4] + col[5]) + (col[6] + col[7])
    for c in col[8:]:
        out += c
    out += 0.0
    return a.sum(axis=-1, keepdims=True) if np.isnan(out).any() else out


# ---------------------------------------------------------------------------
# row blocks

# A pass over a large batch writes each (K, B, width) intermediate to
# memory and reads it back. Row blocks of at least this many rows stay in
# cache from the first layer to the input gradient, and are still large
# enough that OpenBLAS multiplies them with the kernel it takes for the
# whole batch: at the workloads' shapes every row keeps its bits (other
# shapes may change in their last bits).
_BLOCK_ROWS = 2048


def row_blocks(batch):
    """The row ranges (lo, hi) in which a pass takes a batch (..., B, d):
    the whole batch, or B // _BLOCK_ROWS blocks of near-equal size once B
    is at least twice _BLOCK_ROWS."""
    b = batch.shape[-2] if batch.ndim >= 2 else 0
    n = max(1, b // _BLOCK_ROWS)
    return [(b * i // n, b * (i + 1) // n) for i in range(n)]


# The threads that help the calling thread through a blocked pass: one per
# further core the process may run on, from one pool made at the first pass
# of more than one block.
_HELPERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1) - 1
_pool = None
_pool_lock = threading.Lock()
_local = threading.local()  # .helper is set on the pool's threads
# OpenBLAS's own threads would compete with the helpers for the cores, so
# passes with helpers run it on one thread: the (get, set) functions of the
# thread count of numpy's OpenBLAS, () where numpy's BLAS exports none,
# looked up at the first pass with helpers; the passes with helpers running
# now; and the count before the first of them, restored after the last.
_blas = None
_blas_passes = 0
_blas_count = 0


def _mark_helper():
    _local.helper = True


def _blas_threads():
    """The (get, set) thread-count functions of numpy's OpenBLAS, or ()."""
    import ctypes  # not at import: most runs never need it

    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)  # its symbols and its BLAS's
        get, set_count = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return ()
    get.argtypes, get.restype = [], ctypes.c_int
    set_count.argtypes, set_count.restype = [ctypes.c_int], None
    return get, set_count


def over_blocks(fn, blocks):
    """[fn(lo, hi) for lo, hi in blocks], the blocks run on the calling
    thread and up to _HELPERS pool threads at once. fn must touch only its
    own rows of shared arrays. Each helper runs in a copy of the caller's
    context, so np.errstate holds there too. A block that raises stops the
    taking of further blocks; once every started block has finished, the
    exception of the lowest-indexed failing block is raised, as the serial
    loop would raise it. One block, no helper, or a call from a helper
    (which must not wait on the pool) takes the serial loop. While helpers
    run, OpenBLAS runs on one thread; its count is restored once no pass
    with helpers runs."""
    global _pool, _blas, _blas_passes, _blas_count
    helpers = min(_HELPERS, len(blocks) - 1)
    if helpers < 1 or getattr(_local, "helper", False):
        return [fn(lo, hi) for lo, hi in blocks]
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor  # not at import: most runs never need it

            _pool = ThreadPoolExecutor(_HELPERS, "advens-block", initializer=_mark_helper)
        if _blas is None:
            _blas = _blas_threads()
        if _blas and not _blas_passes:
            _blas_count = _blas[0]()
            _blas[1](1)
        _blas_passes += 1
        pool = _pool
    results, errors, taken = [None] * len(blocks), {}, itertools.count()

    def work():  # blocks are taken in order, and each block taken is run
        while not errors:
            i = next(taken)
            if i >= len(blocks):
                return
            try:
                results[i] = fn(*blocks[i])
            except BaseException as e:  # raised by the caller, once all have finished
                errors[i] = e

    try:
        futures = [pool.submit(contextvars.copy_context().run, work) for _ in range(helpers)]
        work()
        for f in futures:
            if not f.cancel():  # a helper that never started has nothing to wait for
                f.result()
    finally:
        with _pool_lock:
            _blas_passes -= 1
            if _blas and not _blas_passes:
                _blas[1](_blas_count)
    if errors:
        raise errors[min(errors)]
    return results


# ---------------------------------------------------------------------------
# forward


def softmax(z, out=None):
    """Row-wise stable softmax; out=z computes it in place. Checks its own
    rows: the largest term of each row is exp(0) = 1, so a finite row
    denominator makes the row a distribution, and a non-finite one (an
    inf or nan logit; a row of -inf) raises DomainError."""
    z = np.asarray(z, dtype=np.float64)
    e = np.subtract(z, _row_max(z), out=out)
    np.exp(e, out=e)
    total = _row_sum(e)
    if not np.logical_and.reduce(np.isfinite(total), axis=None):  # .all() without its wrapper
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


def forward_cached(model, batch, keep="inputs", *, _checked=False):
    """Probability rows and a ForwardCache for the backward pass.

    model is a Model, with batch (B, d) and probs (B, M), or a ModelStack
    of K models, with batch one (B, d) batch that every model sees or a
    (K, B, d) stack whose slice k model k sees, and probs (K, B, M). Slice
    k has the bits of model k's own forward on its batch.

    keep says what the cache holds: "inputs" every layer's input and relu
    mask (for backprop of the parameter gradients), "masks" the relu masks
    alone (for backprop of the input gradient), None nothing (a plain
    forward).

    The batch is checked to be finite and to fit the first layer unless
    the caller vouches for it (_checked: a float64 array of the right shape
    that it checked or made finite itself, such as an attack's clipped
    iterate, whose shape the attack checks once).
    """
    a = batch if _checked else _check_batch(model, batch)
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
    """Checked integer labels of a batch and where each row's label entry
    lies in probability rows of one layout, shape (..., B, M): flat, shaped
    (..., B), indexes the C-ordered entries, so take gathers them and put
    scatters into them. Every function here that takes labels takes one in
    their place and skips the check of the labels; rows of another layout
    raise ShapeError. batch_size is the row count of the whole batch whose
    mean CE the gradient takes (a row block's index keeps it)."""

    labels: np.ndarray
    shape: tuple
    flat: np.ndarray
    batch_size: int

    def block(self, lo, hi):
        """The index of rows lo:hi, its CE gradient still that of the whole
        batch's mean."""
        return _flat_index(self.labels[lo:hi], (*self.shape[:-2], hi - lo, self.shape[-1]), self.batch_size)


def _flat_index(labels, shape, batch_size):
    b, m = shape[-2:]
    slices = np.arange(math.prod(shape[:-2]))[:, None] * (b * m)
    flat = (slices + (np.arange(b) * m + labels)).reshape(*shape[:-2], b)
    return LabelIndex(labels, shape, flat, batch_size)


def label_index(labels, shape):
    """The LabelIndex of a batch's labels for probability rows of shape
    (..., B, M): one integer in [0, M) per row, else ShapeError or
    DomainError. A LabelIndex is returned as it is if it was made for that
    shape, else ShapeError."""
    shape = tuple(shape)
    if isinstance(labels, LabelIndex):
        if labels.shape != shape:
            raise ShapeError(f"labels indexed for probabilities of shape {labels.shape}, not {shape}")
        return labels
    return _flat_index(_check_labels(labels, shape[-2], shape[-1]), shape, shape[-2])


def label_probs(probs, labels):
    """Each row's entry at its label, (..., B), C-ordered (numpy's fancy
    gather of stacked rows is Fortran-ordered, and a row mean of that adds
    in another order than np.mean of the row alone)."""
    return probs.take(label_index(labels, probs.shape).flat)


def cross_entropy_per_example(probs, labels, *, _checked=False):
    """-log p_y per row, with the log argument clamped at LOG_FLOOR. probs
    may carry leading stack axes, (..., B, M). The package's own callers
    pass _checked=True for rows of a forward, whose softmax checked them."""
    return -np.log(np.maximum(label_probs(probs if _checked else _check_probs(probs), labels), LOG_FLOOR))


def ce_values_and_prob_grad(probs, labels, weight=1.0, *, _checked=False):
    """Per-example cross-entropy and the gradient of mean_b(weight_b CE_b)
    with respect to probs: -weight_b/(B p_y) at each label entry, 0 where
    p_y is under the clamp. weight is a scalar or one per row, (..., B), a
    constant to the gradient. probs may carry leading stack axes, (..., B,
    M); each slice is then its own batch. _checked as in
    cross_entropy_per_example."""
    p = probs if _checked else _check_probs(probs)
    index = label_index(labels, p.shape)
    floored = np.maximum(p.take(index.flat), LOG_FLOOR)
    g = np.zeros(p.shape)  # zeros_like costs more at attack-step sizes
    # d(-log max(p_y, floor))/dp_y is -1/p_y above the clamp, 0 below
    g.put(index.flat, np.where(floored > LOG_FLOOR, -weight / (index.batch_size * floored), 0.0))
    return -np.log(floored), g


def cross_entropy(probs, labels):
    """Mean cross-entropy of a probability batch against integer labels."""
    return float(np.mean(cross_entropy_per_example(probs, labels)))


def entropy_rows(p):
    """Shannon entropy per row, in nats, of unchecked rows; 0*log(0) counts as 0."""
    plogp = np.where(p > 0.0, p * np.log(np.maximum(p, LOG_FLOOR)), 0.0)
    return -_row_sum(plogp)[..., 0]


def entropy(probs):
    """Shannon entropy per row, in nats; 0*log(0) counts as 0."""
    return entropy_rows(_check_probs(probs))


def entropy_grad(p):
    """The derivative of the row entropy in each entry of unchecked rows:
    -(log p + 1), the log clamped at LOG_FLOOR, and 0 where p is 0."""
    return np.where(p > 0.0, -(np.log(np.maximum(p, LOG_FLOOR)) + 1.0), 0.0)


# ---------------------------------------------------------------------------
# backward


def backprop(model, cache, g_probs):
    """Backpropagate dLoss/dprobs through softmax and every layer of a
    Model or a ModelStack; cache comes from forward_cached(model, ...).
    g_probs has the shape of the probs; for a stack it may also be one
    (B, M) shared by every slice.

    Returns the gradient the cache was kept for: from keep="inputs" (a
    training step) the parameter gradients, (gw, gb) per layer shaped like
    the layer's w and b; from keep="masks" (an attack step) dLoss/dinputs.
    For a stack, slice k of either is model k's gradient of slice k's
    loss, with the bits of model k's own backprop.
    """
    p, inputs = cache.probs, cache.layer_inputs
    if g_probs.shape not in (p.shape, p.shape[-2:]):
        raise ShapeError(f"g_probs shape {g_probs.shape} != probs shape {p.shape}")
    g = p * (g_probs - _row_sum(g_probs * p))  # through the softmax
    param_grads = []
    for i in range(len(model.layers) - 1, -1, -1):
        if cache.masks[i] is not None:
            g *= cache.masks[i]
        layer = model.layers[i]
        if inputs is not None:
            param_grads.insert(0, (inputs[i].swapaxes(-1, -2) @ g, g.sum(axis=-2).reshape(layer.b.shape)))
        if i or inputs is None:  # a training step forms no input gradient
            g = g @ layer.w.swapaxes(-1, -2)
    return g if inputs is None else tuple(param_grads)


def backward(model, batch, loss_grad):
    """(values, param_grads): the exact parameter gradients of a loss of a
    Model's, or of each slice of a ModelStack's, probabilities (see
    forward_cached for the batch forms). loss_grad(probs) gets this pass's
    probabilities and returns (values, dLoss/dprobs), values being what
    the caller wants back (per-example losses, say); a weight it forms
    from probs is a constant to the gradient. Plain CE is
    lambda p: ce_values_and_prob_grad(p, y).
    """
    probs, cache = forward_cached(model, batch)
    values, g_probs = loss_grad(probs)
    return values, backprop(model, cache, g_probs)


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


def model_to_obj(model):
    """model as one member's entry of a checkpoint (ensembles.save_ensemble),
    JSON-ready. Stable: the entry of the model that model_from_obj reads
    back from it is equal to it."""
    return {
        "layers": [
            {"w": layer.w.tolist(), "b": layer.b.tolist(), "act": layer.act}
            for layer in model.layers
        ],
        "num_classes": model.num_classes,
        "seed": model.seed,
    }


def _checkpoint_int(obj, key, default=None):
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"checkpoint field '{key}' must be an integer, got {value!r}")
    return value


def model_from_obj(obj):
    if not isinstance(obj, dict) or "layers" not in obj or "num_classes" not in obj:
        raise FormatError("checkpoint must be an object with 'layers' and 'num_classes'")
    if not isinstance(obj["layers"], list):
        raise FormatError(f"checkpoint field 'layers' must be a list, got {obj['layers']!r}")
    layers = []
    for i, entry in enumerate(obj["layers"]):
        try:
            w = np.array(entry["w"], dtype=np.float64)
            b = np.array(entry["b"], dtype=np.float64)
            act = entry["act"]
        except (KeyError, TypeError, ValueError) as e:
            raise FormatError(f"checkpoint layer {i} is malformed: {e}") from None
        layers.append(Layer(w=w, b=b, act=act))
    seed = _checkpoint_int(obj, "seed", 0)
    if seed < 0:
        raise FormatError(f"checkpoint field 'seed' must be >= 0, got {seed}")
    return Model(layers=tuple(layers), num_classes=_checkpoint_int(obj, "num_classes"), seed=seed)
