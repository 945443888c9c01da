"""Post-training evaluation: robust accuracy, transfer matrices, the
derived transferability metrics, the entropy-score detector, and loss
surface grids around attacked points.

Accuracy-style quantities are percentages in [0, 100] and are carried at
full precision; file emission rounds them to one decimal. Detector AUC is
computed by exact pair counting (ties worth one half), so it agrees bit
for bit with a brute-force oracle.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import nn
from .atomic import write_table
from .attacks import AttackResult, run_attack, run_heads
from .ensembles import Ensemble, Heads, ce_values_and_input_grad, ensemble_predict, member_probs, member_stack, predict_labels
from .errors import (
    ConfigError,
    ConsistencyWarning,
    ContractError,
    DomainError,
    ShapeError,
)

ORTHO_TOL = 1e-9


# ---------------------------------------------------------------------------
# accuracies and transfer matrices


def natural_accuracy(target, dataset):
    """Percentage of clean examples predicted correctly by target, or by the
    labels a target predicted on them (an array, e.g. a row of
    head_labels)."""
    predicted = target if isinstance(target, np.ndarray) else predict_labels(target, dataset.inputs)
    return float(np.mean(predicted == dataset.labels) * 100.0)


def robust_accuracy(target, dataset, spec):
    """Percentage of examples still predicted correctly after attack: the
    attack's failures, whose mask comes from its own final prediction of
    the adversarial batch. target may also be the AttackResult of an
    attack with spec already run on the dataset (e.g. one of run_heads')."""
    result = target if isinstance(target, AttackResult) else run_attack(target, dataset.inputs, dataset.labels, spec)
    return float(np.mean(~result.success_mask) * 100.0)


@dataclass(frozen=True)
class CrossMatrix:
    """Robust accuracies a[i, j]: attack built against model i (rows),
    evaluated on model j (columns). When the matrix came from
    cross_matrix, adversarial holds the last row's attacked batch (the
    only one kept) and correct each row's correctness masks, one per
    column (n, B)."""

    a: np.ndarray
    labels: tuple
    adversarial: np.ndarray | None = None
    correct: tuple = ()

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeError(f"cross matrix must be square, got {a.shape}")
        if len(self.labels) != a.shape[0]:
            raise ShapeError("one label per row required")
        if not np.isfinite(a).all() or a.min() < 0 or a.max() > 100:
            raise DomainError("cross-matrix entries must be percentages in [0, 100]")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))


def _default_labels(targets):
    labels, n_models, n_ens = [], 0, 0
    for t in targets:
        if isinstance(t, Ensemble):
            n_ens += 1
            labels.append("en" if n_ens == 1 else f"en{n_ens}")
        else:
            n_models += 1
            labels.append(f"f{n_models}")
    return tuple(labels)


def head_labels(heads, batch, probs=None):
    """The predicted labels of each head of heads (ensembles.Heads) on
    batch, (H, B), from one stacked pass of the heads' members: head h's
    is the argmax of the mean of its members' rows, which is
    ensemble_predict's bit for bit. probs, when given, are every member's
    rows of batch already formed (an attack's final check), and batch is
    not forwarded."""
    probs = member_probs(heads.stack, batch) if probs is None else probs
    return np.argmax(np.stack([probs[list(g)].mean(axis=0) for g in heads.groups]), axis=-1)


def cross_matrix(targets, dataset, spec, labels=None):
    """Every target attacks the dataset once; every other target is scored
    on each attack's output. Diagonal entries are the white-box robust
    accuracies, read off the attacks as robust_accuracy reads them. The
    targets are one head each (Heads.of), attacked in lockstep (run_heads).
    Each attacked batch is scored for all of them from every distinct
    member's rows of it: the attacked head's own members' rows from its
    attack's final check, and one stacked forward of the other members.
    A batch is dropped once its row is scored, but for the last target's,
    which the matrix keeps (a transfer's ensemble batch, which its
    partition reads), copied out of the lockstep iterate if need be.
    """
    targets = list(targets)
    if len(targets) < 2:
        raise ConfigError("cross matrix needs at least 2 models")
    labels = _default_labels(targets) if labels is None else tuple(labels)
    heads = Heads.of(targets)
    a = np.zeros((len(targets), len(targets)))
    correct = []
    for result in run_heads(heads, dataset.inputs, dataset.labels, spec):
        i = len(correct)
        adv, defeated, group = result.adversarial, result.success_mask, heads.groups[i]
        probs = np.empty((len(heads.stack), *result.member_probs.shape[1:]))
        probs[list(group)] = result.member_probs
        # the result, with its final rows, is not held through the scoring
        # and the next attack (enumerate's reused tuple would hold it)
        del result
        rest = [k for k in range(len(heads.stack)) if k not in group]
        if rest:
            probs[rest] = member_probs(heads.stack.take(rest), adv)
        predicted = head_labels(heads, adv, probs)
        del probs  # not held through the next attack either
        ok = np.array([~defeated if j == i else p == dataset.labels for j, p in enumerate(predicted)])
        a[i] = ok.mean(axis=1) * 100.0
        correct.append(ok)
        if i < len(targets) - 1:
            del adv  # not held through the next attack
    adv = adv.copy() if adv.base is not None and adv.base.nbytes > adv.nbytes else adv
    return CrossMatrix(a=a, labels=labels, adversarial=adv, correct=tuple(correct))


def transferability_T(matrix, first=0, second=1):
    """a[1,2] - a[1,1] + a[2,1] - a[2,2] over a pair of members. Small T
    means the members fool each other almost as easily as themselves."""
    a = matrix.a
    if a.shape[0] < 2:
        raise ShapeError("transferability needs a 2x2 member block")
    if first == second or not (0 <= first < a.shape[0] and 0 <= second < a.shape[0]):
        raise ConfigError(f"bad member indices ({first}, {second})")
    return float(a[first, second] - a[first, first] + a[second, first] - a[second, second])


def _check_pct(name, v):
    if not np.isfinite(v) or not 0 <= v <= 100:
        raise ContractError(f"{name} must be a percentage in [0, 100], got {v}")


def _warn_outside(name, v):
    # slightly negative values happen with rounded inputs; anything past
    # the tolerance means the two inputs came from different runs
    if not -0.5 <= v <= 100:
        warnings.warn(
            f"{name}={v:.3f} outside [-0.5, 100]; inputs likely inconsistent",
            ConsistencyWarning,
            stacklevel=3,
        )


def non_transferable_nT(a_en_en, s00_pct):
    """Share of examples where the ensemble fails but not via points bad
    for both members: 100 - a_en_en - |S00|."""
    _check_pct("a_en_en", a_en_en)
    _check_pct("s00_pct", s00_pct)
    nt = float(100.0 - a_en_en - s00_pct)
    _warn_outside("nT", nt)
    return nt


def single_correct_a_single(a_en_en, s11_pct):
    """Share of examples the ensemble gets right on the strength of one
    member: a_en_en - |S11|."""
    _check_pct("a_en_en", a_en_en)
    _check_pct("s11_pct", s11_pct)
    single = float(a_en_en - s11_pct)
    _warn_outside("a_single", single)
    return single


# ---------------------------------------------------------------------------
# entropy detector


@dataclass(frozen=True)
class DetectionReport:
    """Entropy scores for both batches plus the ROC built from them.

    thresholds descend from +inf to -inf; a point is flagged adversarial
    when its score >= threshold, so fpr/tpr rise monotonically along the
    arrays. member_mean_* carry the per-example mean of member entropies,
    exported alongside the ensemble score for comparison.
    """

    benign_scores: np.ndarray
    adv_scores: np.ndarray
    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float
    member_mean_benign: np.ndarray
    member_mean_adv: np.ndarray


def auc_from_scores(benign, adv):
    """P(adversarial score > benign score) with ties worth 1/2.

    Counting is integral (2 per win, 1 per tie) with a single final
    division, so the value matches exhaustive pair enumeration exactly.
    """
    b = np.asarray(benign, dtype=np.float64).ravel()
    a = np.asarray(adv, dtype=np.float64).ravel()
    if b.size == 0 or a.size == 0:
        raise ContractError("both score sets must be non-empty")
    if not (np.isfinite(b).all() and np.isfinite(a).all()):
        raise DomainError("scores must be finite")
    b = np.sort(b)
    wins = np.searchsorted(b, a, side="left")
    ties = np.searchsorted(b, a, side="right") - wins
    total = 2 * int(wins.sum()) + int(ties.sum())
    return total / (2 * b.size * a.size)


def _entropy_scores(probs):
    """Entropy of the averaged prediction and the mean member entropy, from
    the members' probability rows (K, B, M)."""
    return nn.entropy(probs.mean(axis=0)), nn.entropy(probs).mean(axis=0)


def _share_at_or_above(scores, thresholds):
    """Share of scores >= each threshold, by binary search in the sorted
    scores; equal bit for bit to np.mean(scores >= t)."""
    return (scores.size - np.searchsorted(np.sort(scores), thresholds)) / scores.size


def detect(target, benign_x, adv_x, adv_probs=None):
    """Score both batches by prediction entropy and build the ROC. Each
    batch takes one stacked forward of target's members; adv_probs, when
    given, are their rows of adv_x already formed (the member_probs of the
    attack that made adv_x), one per member, (K, len(adv_x), M), else
    ShapeError; adv_x is then not forwarded again.

    Thresholds are the midpoints between adjacent distinct scores plus
    +/-inf sentinels: every achievable (fpr, tpr) operating point appears
    exactly once.
    """
    benign_x = np.asarray(benign_x, dtype=np.float64)
    adv_x = np.asarray(adv_x, dtype=np.float64)
    if benign_x.size == 0 or adv_x.size == 0:
        raise ContractError("both batches must be non-empty")
    stack = member_stack(target)
    if adv_probs is not None and np.shape(adv_probs) != (len(stack), len(adv_x), stack.num_classes):
        raise ShapeError(f"member rows of shape {np.shape(adv_probs)} for {len(stack)} members, {len(adv_x)} points")
    b_scores, b_member = _entropy_scores(member_probs(stack, benign_x))
    a_scores, a_member = _entropy_scores(member_probs(stack, adv_x) if adv_probs is None else adv_probs)

    distinct = np.unique(np.concatenate([b_scores, a_scores]))
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    thresholds = np.concatenate(([np.inf], mids[::-1], [-np.inf]))
    fpr = _share_at_or_above(b_scores, thresholds)
    tpr = _share_at_or_above(a_scores, thresholds)

    return DetectionReport(
        benign_scores=b_scores,
        adv_scores=a_scores,
        thresholds=thresholds,
        fpr=fpr,
        tpr=tpr,
        auc=auc_from_scores(b_scores, a_scores),
        member_mean_benign=b_member,
        member_mean_adv=a_member,
    )


# ---------------------------------------------------------------------------
# loss surface grids


@dataclass(frozen=True)
class SurfaceGrid:
    """Loss and predicted label on a plane through an attacked point.

    Cell (i, j) sits at clip(center + i*step*u + j*step*v, 0, 1) for
    i, j in [-r, r]; arrays are indexed [i + r, j + r]. fallback_u marks
    a zero loss gradient at the center, where u was drawn at random.
    """

    center: np.ndarray
    u: np.ndarray
    v: np.ndarray
    losses: np.ndarray
    labels: np.ndarray
    step: float
    radius_steps: int
    fallback_u: bool

    def __post_init__(self):
        u, v = self.u, self.v
        if abs(np.linalg.norm(u) - 1.0) > ORTHO_TOL or abs(np.linalg.norm(v) - 1.0) > ORTHO_TOL:
            raise DomainError("u and v must be unit vectors")
        if abs(float(np.dot(u, v))) > ORTHO_TOL:
            raise DomainError("u and v must be orthogonal")
        side = 2 * self.radius_steps + 1
        if self.losses.shape != (side, side) or self.labels.shape != (side, side):
            raise ShapeError("grid arrays must be (2r+1, 2r+1)")


def _unit(w):
    return w / np.linalg.norm(w)


def surface_grid(target, x_a, y, radius_steps, step, seed=0):
    """Sample the loss around x_a in the gradient plane.

    u follows the input gradient of the cross-entropy at x_a; v is a
    seeded random direction orthogonalized against u. Grid points are
    clipped to the data box before evaluation.
    """
    x_a = np.asarray(x_a, dtype=np.float64).ravel()
    d = x_a.size
    if d < 2:
        raise ConfigError("surface grids need input dimension >= 2")
    if not np.isfinite(x_a).all() or x_a.min() < 0 or x_a.max() > 1:
        raise DomainError("x_a must lie in the data box [0, 1]^d")
    if not (isinstance(radius_steps, (int, np.integer)) and radius_steps >= 1):
        raise ConfigError(f"radius_steps must be an integer >= 1, got {radius_steps!r}")
    if not (np.isfinite(step) and step > 0):
        raise ConfigError(f"step must be positive, got {step!r}")
    y = int(y)
    if not 0 <= y < target.num_classes:
        raise DomainError(f"label {y} out of range")

    rng = np.random.default_rng(seed)
    _, grad = ce_values_and_input_grad(target, x_a[None, :], np.array([y]))
    g = grad[0]
    fallback = bool(np.linalg.norm(g) <= 1e-12)
    u = _unit(rng.standard_normal(d)) if fallback else _unit(g)

    while True:  # repeat only if the draw lands parallel to u
        w = rng.standard_normal(d)
        w -= np.dot(w, u) * u
        if np.linalg.norm(w) > 1e-9:
            break
    v = _unit(w)
    v = _unit(v - np.dot(v, u) * u)  # second pass tightens orthogonality

    r = int(radius_steps)
    side = 2 * r + 1
    offsets = np.arange(-r, r + 1, dtype=np.float64) * float(step)
    pts = x_a[None, None, :] + offsets[:, None, None] * u + offsets[None, :, None] * v
    pts = np.clip(pts.reshape(side * side, d), 0.0, 1.0)
    probs = ensemble_predict(target, pts)
    losses = nn.cross_entropy_per_example(probs, np.full(side * side, y)).reshape(side, side)
    labels = np.argmax(probs, axis=1).reshape(side, side)
    return SurfaceGrid(
        center=x_a,
        u=u,
        v=v,
        losses=losses,
        labels=labels,
        step=float(step),
        radius_steps=r,
        fallback_u=fallback,
    )


# ---------------------------------------------------------------------------
# file emission


def save_cross_csv(matrix, path, preamble=""):
    """Labeled matrix CSV, entries rounded to one decimal."""
    rows = ([label, *(f"{v:.1f}" for v in row)] for label, row in zip(matrix.labels, matrix.a))
    write_table(path, ("source", *matrix.labels), rows, preamble)


def save_detection_csv(report, path, preamble=""):
    """ROC curve as (fpr, tpr) rows, ordered by descending threshold."""
    fpr, tpr = (np.asarray(v, dtype=np.float64).tolist() for v in (report.fpr, report.tpr))
    write_table(path, ("fpr", "tpr"), ((repr(fp), repr(tp)) for fp, tp in zip(fpr, tpr)), preamble)


def detection_summary(report):
    return {
        "auc": report.auc,
        "n_benign": int(report.benign_scores.size),
        "n_adv": int(report.adv_scores.size),
    }


def save_surface_csv(grid, path, preamble=""):
    """Long-format grid: i, j, loss, label with i, j in [-r, r]."""
    r = grid.radius_steps
    rows = (
        (str(i), str(j), repr(float(grid.losses[i + r, j + r])), str(int(grid.labels[i + r, j + r])))
        for i in range(-r, r + 1)
        for j in range(-r, r + 1)
    )
    write_table(path, ("i", "j", "loss", "label"), rows, preamble)
