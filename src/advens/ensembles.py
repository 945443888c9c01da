"""Ensembles of classifiers and ball-security bookkeeping.

An Ensemble predicts the unweighted mean of its members' probability rows.
It also holds its members as stacked parameters (MemberStack, built once
per ensemble), so its forward and its input gradient take one stacked pass
per run of same-shaped members.
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
from functools import cached_property

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

    def __len__(self):
        return sum(run.size for run in self.runs)


def stack_members(members):
    """The MemberStack of a sequence of Models."""
    groups = []
    for m in members:
        if groups and nn.same_shape(groups[-1][-1], m):
            groups[-1].append(m)
        else:
            groups.append([m])
    return MemberStack(
        runs=tuple(nn.stack_models(g) for g in groups), num_classes=members[0].num_classes
    )


def members_of(target):
    """The members of an Ensemble; a Model is an ensemble of one."""
    return target.members if isinstance(target, Ensemble) else (target,)


def member_stack(target):
    """target's members as a MemberStack: an Ensemble's own (stacked once
    per ensemble), a Model as a stack of one, a MemberStack as it is."""
    if isinstance(target, MemberStack):
        return target
    if isinstance(target, Ensemble):
        return target.stack
    return stack_members((target,))


def _member_forward(stack, batch, keep_masks=False):
    """Every member's probability rows (K, B, M), one stacked forward per
    run; batch is (B, d) for every member or (K, B, d), slice k for member
    k. Returns (probs, one list of relu masks per run, or None)."""
    if np.ndim(batch) == 3 and len(batch) != len(stack):
        raise ShapeError(f"{len(batch)} batch slices for {len(stack)} members")
    probs, masks, k = [], [], 0
    for run in stack.runs:
        part = batch if np.ndim(batch) == 2 else batch[k : k + run.size]
        p, m = nn.stacked_forward(run, part, keep_masks)
        probs.append(p)
        masks.append(m)
        k += run.size
    return (probs[0] if len(probs) == 1 else np.concatenate(probs)), masks


def member_probs(target, batch):
    """Each member's probability rows, (K, B, M): of one batch (B, d) for
    every member, or of slice k of a stack (K, B, d) for member k."""
    return _member_forward(member_stack(target), batch)[0]


def ensemble_predict(ens, batch):
    """Mean of member probability rows; rows still sum to 1."""
    return member_probs(ens, batch).mean(axis=0)


def predict_probs(target, batch):
    """Probability rows of a Model, or the averaged rows of an Ensemble;
    for a (K, B, d) stack, member k's rows of slice k (member_probs)."""
    if np.ndim(batch) == 3:
        return member_probs(target, batch)
    if isinstance(target, nn.Model):
        return nn.forward(target, batch)
    return ensemble_predict(target, batch)


def predict_labels(target, batch):
    return np.argmax(predict_probs(target, batch), axis=1)


def averaged_ce_backprop(members, x, labels):
    """CE of the members' averaged probability rows, forwarding each member
    once. Returns (per-example CE, forward caches, one nn.backprop result per
    member for the batch-mean CE): gradients flow through the combination
    rule. A single member skips the average and the 1/N share (exact).
    """
    caches = [nn.forward_cached(m, x)[1] for m in members]
    probs = caches[0].probs if len(caches) == 1 else np.mean([c.probs for c in caches], axis=0)
    values, g_probs = nn.ce_values_and_prob_grad(probs, labels)
    if len(caches) > 1:
        g_probs = g_probs / len(caches)
    return values, caches, [nn.backprop(m, c, g_probs) for m, c in zip(members, caches)]


def ce_values_and_input_grad(target, x, labels):
    """Per-example cross-entropy and the input gradient of its batch mean,
    from one stacked forward and a backward that forms only the input
    gradient. target is a Model, an Ensemble or a MemberStack.

    x of shape (B, d) is one batch against the *averaged* probability (the
    adaptive-attack objective; a Model is an ensemble of one): values (B,),
    gradient (B, d). x of shape (K, B, d) holds K independent batches, slice
    k against member k alone: values (K, B), gradient (K, B, d).
    """
    stack = member_stack(target)
    probs, masks = _member_forward(stack, x, keep_masks=True)
    if np.ndim(x) == 3:
        values, g_probs = nn.ce_values_and_prob_grad(probs, labels)
    elif len(probs) == 1:  # one member skips the average and the 1/N share (exact)
        values, g_probs = nn.ce_values_and_prob_grad(probs[0], labels)
    else:
        values, g_probs = nn.ce_values_and_prob_grad(probs.mean(axis=0), labels)
        g_probs = g_probs / len(probs)
    grads, k = [], 0
    for run, run_masks in zip(stack.runs, masks):
        part = g_probs if g_probs.ndim == 2 else g_probs[k : k + run.size]
        grads.append(nn.stacked_input_grad(run, probs[k : k + run.size], run_masks, part))
        k += run.size
    if np.ndim(x) == 3:
        return values, grads[0] if len(grads) == 1 else np.concatenate(grads)
    rows = [g for run_grads in grads for g in run_grads]
    if len(rows) == 1:
        return values, rows[0]
    grad = rows[0] + rows[1]  # in member order, as a sum of separate backprops adds up
    for g in rows[2:]:
        grad += g
    return values, grad


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
    ok1 = predict_labels(f1, probes) == y
    ok2 = predict_labels(f2, probes) == y
    return probes, y, ok1, ok2


@dataclass(frozen=True)
class SubsetPartition:
    """Per-probe tags plus full-precision percentage cardinalities."""

    assignments: np.ndarray  # of strings from TAGS
    cardinalities: dict  # tag -> percentage of probes

    def __post_init__(self):
        total = sum(self.cardinalities.values())
        if self.assignments.size and abs(total - 100.0) > 0.01:
            raise ShapeError(f"cardinalities sum to {total}, not 100")


def partition(f1, f2, probes, x, y, eps):
    """Tag every probe S11/S01/S10/S00 by (f1 correct, f2 correct).

    x may be a single center shared by all probes or one center per probe;
    y likewise a scalar or per-probe labels.
    """
    probes, y, ok1, ok2 = _security_masks(f1, f2, probes, x, y, eps)
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
    members = tuple(nn.model_from_obj(entry) for entry in obj["members"])
    return Ensemble(members=members)


def partition_summary(part):
    """JSON-ready cardinality summary (percentages at full precision)."""
    return {tag: part.cardinalities[tag] for tag in TAGS}


def partition_summary_json(part):
    return json.dumps(partition_summary(part))
