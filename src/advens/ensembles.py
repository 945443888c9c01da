"""Ensembles of classifiers and ball-security bookkeeping.

An Ensemble predicts the unweighted mean of its members' probability rows.
Its members share one layer shape, as init_ensemble and a checkpoint make
them, and it holds them as one nn.ModelStack (built once per ensemble), so
its forward (per row block of a large batch, the blocks on every core) and
its input gradient take one stacked pass. Heads put averaged predictions
of one stack's members (each member alone, all of them, or one per target
of a set, Heads.of) through one such pass, each on its own batch: what a
lockstep attack of several targets steps on. An Ensemble of members of
different layer shapes raises ShapeError when it is built. Training holds
its members as a ModelStack throughout and makes Models of them only to
evaluate and report.
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
from .atomic import atomic_write, write_table
from .errors import ConfigError, ContractError, FormatError, ShapeError

BALL_TOL = 1e-9
TAGS = ("S11", "S01", "S10", "S00")


@dataclass(frozen=True)
class Ensemble:
    """Uniform-average ensemble. members is a non-empty tuple of Models that
    agree on classes and inputs (ConfigError) and on layer shapes
    (ShapeError naming the first member that differs).

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
        nn.check_one_shape(self.members)

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
        """The members as one nn.ModelStack, stacked once per ensemble (at its
        first prediction, attack or training run)."""
        return nn.stack_models(self.members)


def stack_ensemble(stack, seeds):
    """The models of an nn.ModelStack as an Ensemble, model k seeded
    seeds[k] (a Model's parameters are views of its slice of the stack)."""
    return Ensemble(members=tuple(
        nn.Model(layers=tuple(nn.Layer(la.w[k], la.b[k, 0], la.act) for la in stack.layers),
                 num_classes=stack.num_classes, seed=seed)
        for k, seed in enumerate(seeds)
    ))


def member_stack(target):
    """target's members as an nn.ModelStack: a ModelStack as it is, a Model
    as a stack of one, an Ensemble's own (stacked once per ensemble), and a
    sequence of Models of one layer shape as their Ensemble's (so models
    that disagree on classes or inputs raise ConfigError)."""
    if isinstance(target, nn.ModelStack):
        return target
    if isinstance(target, nn.Model):
        return nn.stack_models((target,))
    return (target if isinstance(target, Ensemble) else Ensemble(members=tuple(target))).stack


class Heads:
    """What one lockstep pass scores or attacks: H heads over the members
    of one nn.ModelStack, head h the averaged prediction of the members
    groups[h] (one member: its own prediction, exact). The heads' members
    are laid out head by head as the slots of one stack (a member may fill
    several slots), so one forward of the slots on an iterate (H, B, d),
    each head's slice taken once per slot of it, serves every head. The
    layout and what the slots take of an iterate are made once, when the
    heads are; average and head_grads take the direct route when every
    head has one slot, or there is one head. The ADV_EN/ADP training step
    takes its CE of the averaged prediction through one head (whole)."""

    def __init__(self, stack, groups):
        self.stack, self.groups = stack, tuple(tuple(g) for g in groups)
        order = [k for g in self.groups for k in g]
        self.slots = stack if order == list(range(len(stack))) else stack.take(order)
        ends = list(accumulate(len(g) for g in self.groups))
        self.spans = tuple(zip([0, *ends[:-1]], ends))  # per head, the (start, stop) of its slots
        self._one_each = len(order) == len(self.groups)
        # what the slots take of an iterate: all of it, head 0's batch, or each head's slice per slot
        slot_head = [h for h, g in enumerate(self.groups) for _ in g]
        self._take = ... if self._one_each else 0 if len(self.groups) == 1 else np.array(slot_head)

    @classmethod
    def whole(cls, stack):
        """One head: the averaged prediction of all of stack's members."""
        return cls(stack, (range(len(stack)),))

    @classmethod
    def each(cls, stack):
        """One head per member of stack, each its own prediction."""
        return cls(stack, ((k,) for k in range(len(stack))))

    @classmethod
    def of(cls, targets):
        """One head per target, a Model's own prediction or an Ensemble's
        members' average, over one nn.stack_models (ShapeError for mixed
        layer shapes) of their distinct members, by identity, first seen first."""
        groups = [t.members if isinstance(t, Ensemble) else (t,) for t in targets]
        distinct = {id(m): m for g in groups for m in g}
        slot = {key: k for k, key in enumerate(distinct)}
        return cls(nn.stack_models(distinct.values()), ([slot[id(m)] for m in g] for g in groups))

    def __len__(self):
        return len(self.groups)

    @property
    def num_classes(self):
        return self.stack.num_classes

    def batch(self, cur):
        """What the slots take of an iterate cur (H, B, d): each head's
        slice once per slot of it; a view of cur while every head has one
        slot, and one head's one batch (B, d), which nn.forward_cached
        gives every slot."""
        return cur[self._take]

    def average(self, probs):
        """Each head's averaged probability rows (H, B, M) from the slots'
        rows (S, B, M), as ensemble_predict averages them."""
        if self._one_each:
            return probs
        if len(self.groups) == 1:
            return probs.mean(axis=0, keepdims=True)
        return np.stack([probs[a] if b - a == 1 else probs[a:b].mean(axis=0) for a, b in self.spans])

    def slot_grads(self, g_probs):
        """The slots' dLoss/dprobs from each head's (H, B, M), in place: a
        head of several members shares its gradient among them, with the
        1/K share of the average."""
        if self._one_each:
            return g_probs
        for h, (a, b) in enumerate(self.spans):
            if b - a > 1:
                g_probs[h] /= b - a
        return g_probs[self._take]

    def head_grads(self, grads):
        """Each head's input gradient (H, B, d) from the slots' (S, B, d):
        a head's slot gradients added in member order, as a sum of
        separate backprops adds up."""
        if self._one_each:
            return grads
        if len(self.groups) == 1:
            return reduce(np.add, grads)[None]
        return np.stack([grads[a] if b - a == 1 else reduce(np.add, grads[a:b]) for a, b in self.spans])


def as_heads(target, x):
    """target and a batch x as Heads and their iterate (H, B, d): Heads with
    their own iterate, or one batch (B, d) against the averaged prediction
    of a Model, an Ensemble or an nn.ModelStack, as one head (slices against
    members alone take Heads.each); other shapes or widths raise ShapeError."""
    if not isinstance(target, Heads):
        if np.ndim(x) != 2:
            raise ShapeError(f"a batch of shape {np.shape(x)}, not (B, d), against {type(target).__name__}")
        target, x = Heads.whole(member_stack(target)), x[None]
    elif np.ndim(x) != 3 or len(x) != len(target):
        raise ShapeError(f"an iterate of shape {np.shape(x)} for {len(target)} heads")
    if x.shape[-1] != target.stack.input_dim:
        raise ShapeError(f"a batch of {x.shape[-1]} features for models of {target.stack.input_dim} inputs")
    return target, x


def member_probs(target, batch, *, _checked=False):
    """Each member's probability rows, (K, B, M): of one batch (B, d) for
    every member, or of slice k of a stack (K, B, d) for member k. A large
    batch goes through in row blocks (nn.row_blocks), on every core
    (nn.over_blocks). _checked as in nn.forward_cached."""
    stack, batch = member_stack(target), np.asarray(batch)
    blocks = nn.row_blocks(batch)
    if len(blocks) == 1:
        return nn.forward_cached(stack, batch, None, _checked=_checked)[0]
    probs = np.empty((len(stack), batch.shape[-2], stack.num_classes))

    def block(lo, hi):
        probs[:, lo:hi] = nn.forward_cached(stack, batch[..., lo:hi, :], None, _checked=_checked)[0]

    nn.over_blocks(block, blocks)
    return probs


def ensemble_predict(ens, batch):
    """Mean of member probability rows of a batch (B, d); rows still sum to
    1. A Model is an ensemble of one, whose rows are its own (exact)."""
    if np.ndim(batch) != 2:
        raise ShapeError(f"a batch of shape {np.shape(batch)}, not (B, d), to predict")
    probs = member_probs(ens, batch)
    return probs[0] if len(probs) == 1 else probs.mean(axis=0)


def predict_labels(target, batch):
    return np.argmax(ensemble_predict(target, batch), axis=1)


def ce_values_and_input_grad(target, x, labels, *, _checked=False):
    """Per-example cross-entropy and the input gradient of its batch mean,
    from one stacked forward and a backward that forms only the input
    gradient. target is a Model, an Ensemble, an nn.ModelStack or Heads.

    Against Heads, x is their iterate (H, B, d), slice h against head h:
    values (H, B), gradient (H, B, d). Against any other target, x is one
    batch (B, d) against its *averaged* probability (the adaptive-attack
    objective; a Model is an ensemble of one): values (B,), gradient
    (B, d). Any other shape of x raises ShapeError (as_heads).

    This is the attack step. What stays fixed over an attack's steps is
    made once per call of the attack and passed in: the target as Heads
    and labels as the nn.LabelIndex of the heads' (H, B, M) rows, H = 1
    against any other target (a row block's keeps the whole batch's 1/B;
    an index of another layout raises ShapeError). x is checked to be
    finite and shaped for the target unless the caller vouches for it
    (_checked: Heads and their finite iterate of the right shape, as an
    attack's search hands over), and the forward's softmax checks every
    probability row. x goes through whole: an attack's search hands over
    a large batch row block by row block.
    """
    heads, cur = (target, x) if _checked else as_heads(target, nn._as_f64(x, "batch"))
    probs, cache = nn.forward_cached(heads.slots, heads.batch(cur), "masks", _checked=True)
    values, g_probs = nn.ce_values_and_prob_grad(heads.average(probs), labels, _checked=True)
    grad = heads.head_grads(nn.backprop(heads.slots, cache, heads.slot_grads(g_probs)))
    return (values, grad) if heads is target else (values[0], grad[0])


# ---------------------------------------------------------------------------
# security sets


def _check_in_ball(probes, x, eps):
    probes = np.atleast_2d(np.asarray(probes, dtype=np.float64))
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = np.broadcast_to(x, probes.shape)
    if x.shape != probes.shape:
        raise ShapeError(f"probes shape {probes.shape} vs centers shape {x.shape}")
    # each probe's l-inf gap, a row block at a time: no whole-batch temporaries
    gap = np.concatenate([np.abs(probes[lo:hi] - x[lo:hi]).max(axis=1) for lo, hi in nn.row_blocks(probes)])
    bad = np.nonzero(gap > eps + BALL_TOL)[0]
    if bad.size:
        raise ContractError(
            f"probe {bad[0]} lies outside the ball: gap {gap[bad[0]]:.3e} > eps {eps}"
        )
    if probes.size and (probes.min() < -BALL_TOL or probes.max() > 1.0 + BALL_TOL):
        raise ContractError("probe outside the [0,1] data box")
    return probes, x


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
    tags = np.array(["S00", "S01", "S10", "S11"])[2 * np.asarray(ok1, dtype=int) + np.asarray(ok2, dtype=int)]
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
    rows = ((str(i), tag) for i, tag in enumerate(part.assignments.tolist()))
    write_table(path, ("example_id", "tag"), rows, preamble)


def save_ensemble(ens, path, meta=None):
    """Checkpoint the ensemble, the one checkpoint format (a Model goes as
    an ensemble of one); meta is an optional dict of extra keys (run
    provenance). Byte-stable for a fixed meta: saving a loaded checkpoint
    reproduces the file exactly."""
    obj = {
        "members": [nn.model_to_obj(m) for m in ens.members],
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
    if not members:
        raise FormatError("checkpoint field 'members' is empty: an ensemble needs at least one member")
    try:
        ens = Ensemble(members=members)
    except (ConfigError, ShapeError) as e:  # members that disagree on classes, inputs or layer shapes
        raise FormatError(f"checkpoint field 'layers' differs between members: {e}") from None
    if "num_classes" in obj and nn._checkpoint_int(obj, "num_classes") != ens.num_classes:
        raise FormatError(
            f"checkpoint field 'num_classes' is {obj['num_classes']}, the members emit {ens.num_classes} classes"
        )
    return ens


def partition_summary(part):
    """JSON-ready cardinality summary (percentages at full precision)."""
    return {tag: part.cardinalities[tag] for tag in TAGS}
