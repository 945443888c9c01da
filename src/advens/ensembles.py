"""Ensembles of classifiers and ball-security bookkeeping.

An Ensemble predicts the unweighted mean of its members' probability rows.
It also holds its members as stacked parameters (MemberStack, built once
per ensemble), so its forward and its input gradient take one stacked pass
per run of same-shaped members (per row block of a large batch). Training holds its members as a
MemberStack throughout and makes Models of them only to evaluate and report.
Security of a prediction is always judged inside an l-inf ball around a
clean point: a probe is secure for a model when the model still assigns
the true label there (argmax, lowest index on ties).

The partition tags follow the two-member convention S<a><b> where a is
member 1's correctness (1 = correct) and b is member 2's: S01 means
member 1 wrong, member 2 right.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate

import numpy as np

from . import nn
from .atomic import atomic_write
from .errors import ConfigError, ContractError, FormatError, ShapeError

BALL_TOL = 1e-9
TAGS = ("S11", "S01", "S10", "S00")


@dataclass(frozen=True)
class Ensemble:
    """Uniform-average ensemble. members is a non-empty tuple of Models.

    Two-or-more members is the interesting case everywhere; a single-member
    ensemble is permitted and behaves exactly like its one member, which
    keeps "ensemble of one" baselines expressible. Collaborative training
    rejects N < 2 itself.
    """

    members: tuple

    def __post_init__(self):
        if not self.members:
            raise ConfigError("ensemble needs at least one member")
        m0 = self.members[0]
        for i, m in enumerate(self.members):
            if m.num_classes != m0.num_classes:
                raise ConfigError(
                    f"member {i} emits {m.num_classes} classes, member 0 emits {m0.num_classes}"
                )
            if m.input_dim != m0.input_dim:
                raise ConfigError(
                    f"member {i} expects {m.input_dim} inputs, member 0 expects {m0.input_dim}"
                )

    @property
    def num_classes(self):
        return self.members[0].num_classes

    @property
    def input_dim(self):
        return self.members[0].input_dim

    def __len__(self):
        return len(self.members)

    @cached_property
    def stack(self):
        """The members' parameters as a MemberStack, stacked once per ensemble."""
        return stack_members(self.members)


@dataclass(frozen=True)
class MemberStack:
    """Members held as stacked parameters. Consecutive members of one layer
    shape form one nn.ModelStack run, in member order, so K members of
    mixed shapes take one stacked pass per run."""

    runs: tuple
    num_classes: int

    @cached_property
    def bounds(self):
        """The index of each run's first member, then the member count."""
        return (0, *accumulate(run.size for run in self.runs))

    def __len__(self):
        return self.bounds[-1]

    def per_run(self, a):
        """a, which has one leading entry per member, cut into one part per run."""
        b = self.bounds
        return [a] if len(b) == 2 else [a[lo:hi] for lo, hi in zip(b[:-1], b[1:])]

    def ensemble(self, seeds):
        """The members as an Ensemble of Models, member k seeded seeds[k]
        (a Model's parameters are views of its slice of the stack)."""
        layers = [
            tuple(nn.Layer(la.w[k], la.b[k, 0], la.act) for la in run.layers)
            for run in self.runs
            for k in range(run.size)
        ]
        return Ensemble(members=tuple(
            nn.Model(layers=ls, num_classes=self.num_classes, seed=seed)
            for ls, seed in zip(layers, seeds, strict=True)
        ))


def shape_runs(members):
    """The runs of consecutive same-shaped members, as ranges of indices."""
    starts = [k for k, m in enumerate(members) if k == 0 or not nn.same_shape(members[k - 1], m)]
    return [range(a, b) for a, b in zip(starts, starts[1:] + [len(members)])]


def stack_members(members):
    """The MemberStack of a sequence of Models."""
    return MemberStack(
        runs=tuple(nn.stack_models(members[r.start : r.stop]) for r in shape_runs(members)),
        num_classes=members[0].num_classes,
    )


def member_stack(target):
    """target's members as a MemberStack: an Ensemble's own (stacked once
    per ensemble), a Model as a stack of one, a MemberStack as it is."""
    if isinstance(target, MemberStack):
        return target
    if isinstance(target, Ensemble):
        return target.stack
    return stack_members((target,))


def _member_forward(stack, batch, keep=None):
    """Every member's probability rows (K, B, M), one nn.forward_cached per
    run; batch is (B, d) for every member or (K, B, d), slice k for member
    k. Returns (probs, one ForwardCache per run, holding what keep asks)."""
    if np.ndim(batch) == 3 and len(batch) != len(stack):
        raise ShapeError(f"{len(batch)} batch slices for {len(stack)} members")
    parts = [batch] * len(stack.runs) if np.ndim(batch) == 2 else stack.per_run(batch)
    caches = [nn.forward_cached(run, part, keep)[1] for run, part in zip(stack.runs, parts)]
    probs = [c.probs for c in caches]
    return (probs[0] if len(probs) == 1 else np.concatenate(probs)), caches


def member_probs(target, batch):
    """Each member's probability rows, (K, B, M): of one batch (B, d) for
    every member, or of slice k of a stack (K, B, d) for member k. A large
    batch goes through in row blocks (nn.row_blocks)."""
    stack, batch = member_stack(target), np.asarray(batch)
    blocks = nn.row_blocks(batch)
    if len(blocks) == 1:
        return _member_forward(stack, batch)[0]
    probs = np.empty((len(stack), batch.shape[-2], stack.num_classes))
    for lo, hi in blocks:
        probs[:, lo:hi] = _member_forward(stack, batch[..., lo:hi, :])[0]
    return probs


def ensemble_predict(ens, batch):
    """Mean of member probability rows; rows still sum to 1. A Model is an
    ensemble of one, whose rows are its own (the mean is skipped: exact)."""
    probs = member_probs(ens, batch)
    return probs[0] if len(probs) == 1 else probs.mean(axis=0)


def predict_probs(target, batch):
    """The averaged probability rows of target (a Model is an ensemble of
    one); for a (K, B, d) stack, member k's rows of slice k (member_probs)."""
    if np.ndim(batch) == 3:
        return member_probs(target, batch)
    return ensemble_predict(target, batch)


def predict_labels(target, batch):
    return np.argmax(predict_probs(target, batch), axis=1)


def _averaged_ce(probs, labels):
    """Per-example CE of the averaged rows of member probs (K, B, M), and
    its gradient with respect to each member's rows (one (B, M) shared by
    all, the 1/K share included). One member skips the average and the
    share (exact). probs come from a forward, whose softmax checked them."""
    if len(probs) == 1:
        return nn.ce_values_and_prob_grad(probs[0], labels, _checked=True)
    values, g_probs = nn.ce_values_and_prob_grad(probs.mean(axis=0), labels, _checked=True)
    return values, g_probs / len(probs)


def averaged_ce_backprop(stack, x, labels):
    """CE of the members' averaged probability rows on one batch x, from
    one stacked forward per run of a MemberStack. Returns (per-example CE,
    the members' probability rows (K, B, M), the forward cache of each run,
    each run's stacked parameter gradients of the batch-mean CE):
    gradients flow through the combination rule.
    """
    probs, caches = _member_forward(stack, x, keep="inputs")
    values, g_probs = _averaged_ce(probs, labels)
    grads = [nn.backprop(run, c, g_probs)[0] for run, c in zip(stack.runs, caches)]
    return values, probs, caches, grads


def ce_values_and_input_grad(target, x, labels):
    """Per-example cross-entropy and the input gradient of its batch mean,
    from one stacked forward and a backward that forms only the input
    gradient. target is a Model, an Ensemble or a MemberStack.

    x of shape (B, d) is one batch against the *averaged* probability (the
    adaptive-attack objective; a Model is an ensemble of one): values (B,),
    gradient (B, d). x of shape (K, B, d) holds K independent batches, slice
    k against member k alone: values (K, B), gradient (K, B, d).

    This is the attack step. What stays fixed over an attack's steps is
    made once per call of the attack and passed in: the target as a
    MemberStack (or an Ensemble, which holds its own; the transposed
    weights are made once per stack) and labels as an nn.LabelIndex. Each
    step still checks that x is finite, and the forward's softmax checks
    that every probability row is a distribution. A large batch goes
    through all of it one row block at a time (nn.row_blocks), each
    block's CE gradient with the whole batch's 1/B.
    """
    stack, x = member_stack(target), np.asarray(x)
    blocks = nn.row_blocks(x)
    if len(blocks) == 1:
        return _ce_and_input_grad(stack, x, labels)
    labels = nn.label_index(labels, x.shape[-2], stack.num_classes)
    values, grad = np.empty(x.shape[:-1]), np.empty(x.shape)
    for lo, hi in blocks:
        values[..., lo:hi], grad[..., lo:hi, :] = _ce_and_input_grad(
            stack, x[..., lo:hi, :], labels.block(lo, hi)
        )
    return values, grad


def _ce_and_input_grad(stack, x, labels):
    """ce_values_and_input_grad of one pass over x (a row block or the
    whole batch) against a MemberStack."""
    probs, caches = _member_forward(stack, x, keep="masks")
    if np.ndim(x) == 3:
        values, g_probs = nn.ce_values_and_prob_grad(probs, labels, _checked=True)
    else:
        values, g_probs = _averaged_ce(probs, labels)
    parts = [g_probs] * len(stack.runs) if g_probs.ndim == 2 else stack.per_run(g_probs)
    grads = [
        nn.stacked_input_grad(run, cache.probs, cache.masks, part)
        for run, cache, part in zip(stack.runs, caches, parts)
    ]
    if np.ndim(x) == 3:
        return values, grads[0] if len(grads) == 1 else np.concatenate(grads)
    # in member order, as a sum of separate backprops adds up
    return values, reduce(np.add, (g for run_grads in grads for g in run_grads))


# ---------------------------------------------------------------------------
# security sets


def _check_in_ball(probes, x, eps):
    probes = np.atleast_2d(np.asarray(probes, dtype=np.float64))
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = np.broadcast_to(x, probes.shape)
    if x.shape != probes.shape:
        raise ShapeError(f"probes shape {probes.shape} vs centers shape {x.shape}")
    gap = np.abs(probes - x).max(axis=1)
    bad = np.nonzero(gap > eps + BALL_TOL)[0]
    if bad.size:
        raise ContractError(
            f"probe {bad[0]} lies outside the ball: gap {gap[bad[0]]:.3e} > eps {eps}"
        )
    if probes.size and (probes.min() < -BALL_TOL or probes.max() > 1.0 + BALL_TOL):
        raise ContractError("probe outside the [0,1] data box")
    return probes, x


def is_secure(f, x_probe, x, y, eps):
    """True iff f still predicts y at x_probe, a point of B(x, eps)."""
    probe, _ = _check_in_ball(np.atleast_2d(x_probe), x, eps)
    return bool(predict_labels(f, probe)[0] == y)


def _security_masks(f1, f2, probes, x, y, eps):
    probes, _ = _check_in_ball(probes, x, eps)
    y = np.asarray(y)
    if y.ndim == 0:
        y = np.full(probes.shape[0], int(y))
    return probes, y, predict_labels(f1, probes) == y, predict_labels(f2, probes) == y


@dataclass(frozen=True)
class SubsetPartition:
    """Per-probe tags plus full-precision percentage cardinalities."""

    assignments: np.ndarray  # of strings from TAGS
    cardinalities: dict  # tag -> percentage of probes

    def __post_init__(self):
        total = sum(self.cardinalities.values())
        if self.assignments.size and abs(total - 100.0) > 0.01:
            raise ShapeError(f"cardinalities sum to {total}, not 100")


def partition(f1, f2, probes, x, y, eps, correct=None):
    """Tag every probe S11/S01/S10/S00 by (f1 correct, f2 correct).

    x may be a single center shared by all probes or one center per probe;
    y likewise a scalar or per-probe labels. correct, when given, holds
    f1's and f2's correctness masks on the probes, already scored (a
    transfer's cross matrix scores them); the probes are still checked to
    lie in the balls.
    """
    if correct is None:
        probes, _, ok1, ok2 = _security_masks(f1, f2, probes, x, y, eps)
    else:
        probes, _ = _check_in_ball(probes, x, eps)
        ok1, ok2 = correct
        if np.shape(ok1) != (len(probes),) or np.shape(ok2) != (len(probes),):
            raise ShapeError(f"correctness masks of {np.shape(ok1)} and {np.shape(ok2)} for {len(probes)} probes")
    tags = np.array(
        [f"S{int(a)}{int(b)}" for a, b in zip(ok1, ok2)], dtype="U3"
    )
    n = max(1, len(tags))
    card = {t: 100.0 * float(np.sum(tags == t)) / n for t in TAGS}
    return SubsetPartition(assignments=tags, cardinalities=card)


def joint_security_violations(f1, f2, probes, x, y, eps):
    """Count probes secure for both members but insecure for the ensemble.

    Averaging two correct probability rows keeps the true class's mean
    probability strictly largest, so this must return 0; a nonzero count
    means a prediction-path bug.
    """
    if isinstance(f1, Ensemble) or isinstance(f2, Ensemble):
        raise ConfigError("joint security check expects two Models")
    probes, y, ok1, ok2 = _security_masks(f1, f2, probes, x, y, eps)
    ok_en = predict_labels(Ensemble(members=(f1, f2)), probes) == y
    return int(np.sum(ok1 & ok2 & ~ok_en))


def save_partition_csv(part, path, preamble=""):
    """CSV export: example_id, tag."""
    with atomic_write(path, newline="") as f:
        f.write(preamble)
        f.write("example_id,tag\n")
        for i, tag in enumerate(part.assignments):
            f.write(f"{i},{tag}\n")


def save_ensemble(ens, path, meta=None):
    """Checkpoint the ensemble; meta is an optional dict of extra keys
    (run provenance). Byte-stable for a fixed meta: saving a loaded
    checkpoint reproduces the file exactly."""
    obj = {
        "members": [json.loads(nn.model_to_json(m)) for m in ens.members],
        "num_classes": ens.num_classes,
    }
    if meta:
        obj.update(meta)
    with atomic_write(path) as f:
        json.dump(obj, f)


def load_ensemble(path):
    with open(path) as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as e:
            raise FormatError(f"checkpoint is not valid JSON: {e}") from None
    if not isinstance(obj, dict) or "members" not in obj:
        raise FormatError("ensemble checkpoint must be an object with 'members'")
    if not isinstance(obj["members"], list):
        raise FormatError(f"checkpoint field 'members' must be a list, got {obj['members']!r}")
    members = tuple(nn.model_from_obj(entry) for entry in obj["members"])
    ens = Ensemble(members=members)
    if "num_classes" in obj and nn._checkpoint_int(obj, "num_classes") != ens.num_classes:
        raise FormatError(
            f"checkpoint field 'num_classes' is {obj['num_classes']}, the members emit {ens.num_classes} classes"
        )
    return ens


def partition_summary(part):
    """JSON-ready cardinality summary (percentages at full precision)."""
    return {tag: part.cardinalities[tag] for tag in TAGS}


def partition_summary_json(part):
    return json.dumps(partition_summary(part))
