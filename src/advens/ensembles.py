"""Ensembles of classifiers and ball-security bookkeeping.

An Ensemble predicts the unweighted mean of its members' probability rows.
Security of a prediction is always judged inside an l-inf ball around a
clean point: a probe is secure for a model when the model still assigns
the true label there (argmax, lowest index on ties).

The partition tags follow the two-member convention S<a><b> where a is
member 1's correctness (1 = correct) and b is member 2's: S01 means
member 1 wrong, member 2 right.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import nn
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


def ensemble_predict(ens, batch):
    """Mean of member probability rows; rows still sum to 1."""
    probs = [nn.forward(m, batch) for m in ens.members]
    return np.mean(probs, axis=0)


def members_of(target):
    """The members of an Ensemble; a Model is an ensemble of one."""
    return target.members if isinstance(target, Ensemble) else (target,)


def predict_probs(target, batch):
    """Probability rows of a Model or an Ensemble."""
    if isinstance(target, Ensemble):
        return ensemble_predict(target, batch)
    return nn.forward(target, batch)


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
    values = nn.cross_entropy_per_example(probs, labels)
    b = probs.shape[0]
    rows = np.arange(b)
    p_y = probs[rows, labels]
    g_probs = np.zeros(probs.shape)  # zeros_like costs more at attack-step sizes
    live = p_y > nn.LOG_FLOOR
    g_probs[rows, labels] = np.where(live, -1.0 / (b * np.maximum(p_y, nn.LOG_FLOOR)), 0.0)
    if len(caches) > 1:
        g_probs = g_probs / len(caches)
    return values, caches, [nn.backprop(m, c, g_probs) for m, c in zip(members, caches)]


def ce_values_and_input_grad(target, x, labels):
    """Per-example cross-entropy and the input gradient of its batch mean.

    For an Ensemble the loss is the cross-entropy of the *averaged*
    probability (the adaptive-attack objective).
    """
    values, _, results = averaged_ce_backprop(members_of(target), x, labels)
    grad = results[0][1]  # a fresh array, so summing in place is safe
    for _, g in results[1:]:
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
    with open(path, "w", newline="") as f:
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
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f)
    os.replace(tmp, path)


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
