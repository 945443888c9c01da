"""Perturbation search inside the l-inf ball B(x, eps) = {x' : ||x'-x||_inf <= eps} ∩ [0,1]^d.

One search loop serves every protocol: run_attack (untargeted), targeted,
multi_targeted and run_member_attacks all call it, and spec.family picks
how it steps (PGD / BIM / MIM sign-gradient steps, or gradient-free SPSA
estimates). Targets may be a single Model or an Ensemble; against an
ensemble the objective is the cross-entropy of the *averaged* probability,
so the attacker differentiates through the combination rule (the adaptive
attack).

The loop works on stacked members (ensembles.MemberStack): run_member_attacks
runs K lone attacks, one per member, in lockstep on a (K, B, d) stack, and a
Model is the stack of one. What stays fixed over the steps is done once per
call: x and the labels are checked, the target is stacked, the labels
become an nn.LabelIndex and the ball ∩ box bounds are made (ball_box). Each
gradient step is then one stacked forward, whose softmax checks its rows,
and one backward that forms only the input gradient
(ensembles.ce_values_and_input_grad), and a sign step clipped to the
bounds in place; the loss trace is summed once, when the call ends. Every
attack keeps its own seeded generator, so its result equals a lone
run_attack bit for bit.

Query accounting: queries counts target evaluations per example (the usual
black-box budget metric). PGD/BIM/MIM spend steps+1 (final success check
included); SPSA spends 2*spsa_samples per step plus the final check; the
multi-targeted protocol spends (num_classes - 1) single runs, one per
wrong label.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import nn
from .atomic import atomic_write
from .ensembles import Ensemble, MemberStack, ce_values_and_input_grad, member_stack, predict_probs
from .errors import ConfigError, DivergenceError, DomainError, ShapeError

FAMILIES = ("pgd", "bim", "mim", "spsa")


@dataclass(frozen=True)
class AttackSpec:
    family: str
    steps: int = 10
    epsilon: float = 8 / 255
    eta: float = 2 / 255
    momentum: float = 1.0
    spsa_samples: int = 64
    spsa_delta: float = 0.01
    random_start: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown attack family {self.family!r}")
        for name in ("steps", "spsa_samples", "seed"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {v!r}")
        for name in ("epsilon", "eta", "momentum", "spsa_delta"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
                raise ConfigError(f"{name} must be a real number, got {v!r}")
            if not math.isfinite(v):
                raise ConfigError(f"{name} must be finite")
        if not isinstance(self.random_start, (bool, np.bool_)):
            raise ConfigError(f"random_start must be true or false, got {self.random_start!r}")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.epsilon < 0:
            raise ConfigError("epsilon must be >= 0")
        if self.eta <= 0:
            raise ConfigError("eta must be > 0")
        if self.momentum < 0:
            raise ConfigError("momentum must be >= 0")
        if self.spsa_samples < 1 or self.spsa_delta <= 0:
            raise ConfigError("spsa_samples must be >= 1 and spsa_delta > 0")
        if self.epsilon > 0 and self.eta > self.epsilon:
            warnings.warn(
                f"step size eta={self.eta} exceeds budget epsilon={self.epsilon}",
                stacklevel=2,
            )


@dataclass(frozen=True)
class AttackResult:
    """adversarial stays inside B(x, eps) and the box; success_mask marks
    examples the attack objective considers defeated; loss_trace holds the
    mean objective value before each step plus the final value."""

    adversarial: np.ndarray
    success_mask: np.ndarray
    queries: int
    spec: AttackSpec
    loss_trace: tuple = ()


def ball_box(x_origin, epsilon):
    """The bounds (lo, hi) of B(x_origin, eps) ∩ [0,1]^d: clip_[0,1](x_origin
    ∓ eps). Clipping to them equals clipping to the ball, then to the box,
    for any finite x_origin (inside the box or not) and eps >= 0, since
    clip_[0,1] o clip_[a,b] = clip_[clip_[0,1](a), clip_[0,1](b)] for a <= b;
    bit for bit unless a -0.0 meets a bound of 0.0, where numpy's clips
    themselves disagree on the sign of the zero."""
    return np.clip(x_origin - epsilon, 0.0, 1.0), np.clip(x_origin + epsilon, 0.0, 1.0)


def fgsm_step(x, input_grad, eta, lo, hi, out=None):
    """One signed ascent step, then ball and box projection.

    x_next = clip_[lo,hi]( x + eta * sign(input_grad) ) with (lo, hi) =
    ball_box(x_origin, eps), made once per attack; sign(0) = 0, so
    zero-gradient coordinates hold still. out, which may be x itself,
    takes the step in place.
    """
    if x.shape != input_grad.shape or x.shape != np.shape(lo) or x.shape != np.shape(hi):
        raise ShapeError("x, input_grad and the bounds must share a shape")
    step = np.sign(input_grad)
    step *= eta
    out = np.add(x, step, out=out)
    return out.clip(lo, hi, out=out)


def _validate_inputs(target, x, y):
    """x as a float64 (B, d) batch and y as the nn.LabelIndex of its labels:
    one integer in [0, num_classes) per row. The one check of x and the
    labels in an attack call."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError("attack inputs must be a 2-d batch")
    if not np.isfinite(x).all():
        raise DomainError("attack inputs contain non-finite values")
    return x, nn.label_index(y, len(x), target.num_classes)


def _search(target, x, labels, specs, ascent, per_member):
    """The one iterative search behind every protocol; the loop follows the
    family of specs, which differ only in their seeds. labels is the
    nn.LabelIndex of _validate_inputs.

    With per_member, target (a Model or a MemberStack) is stacked once per
    call and its member k is attacked alone with specs[k]: the attacks
    advance in lockstep, one stacked step for all of them, and attack k
    draws from its own default_rng(specs[k].seed) in the order a lone
    attack would. Otherwise target (an Ensemble or a MemberStack) is
    attacked as one, through its averaged prediction, with specs[0].
    Ascends the cross-entropy against labels when ascent is set, descends
    it otherwise. Returns (adversarial (A, B, d), final probs (A, B, M),
    one loss trace per attack, queries).
    """
    spec = specs[0]
    rngs = [np.random.default_rng(s.seed) for s in specs]
    if per_member:
        target = member_stack(target)
    if spec.family == "pgd" and spec.random_start:
        starts = [np.clip(x + r.uniform(-spec.epsilon, spec.epsilon, size=x.shape), 0.0, 1.0) for r in rngs]
        cur = np.clip(np.stack(starts), x - spec.epsilon, x + spec.epsilon)
        del starts  # the loop holds only cur and the bounds
    else:
        cur = np.repeat(x[None], len(specs), axis=0)
    lo, hi = ball_box(np.broadcast_to(x, cur.shape), spec.epsilon)

    def batch(a):  # what the target takes: the stack, or one ensemble batch
        return a if per_member else a[0]

    g_acc = np.zeros_like(cur) if spec.family == "mim" else None
    values_seen = []  # per step, the per-example objective: the trace's rows
    queries = 1  # the final success check
    for step in range(spec.steps):
        if spec.family == "spsa":
            grad, used = spsa_gradient_estimate(
                target, batch(cur), labels, spec.spsa_samples, spec.spsa_delta,
                rngs if per_member else rngs[0],
            )
            queries += used
        else:
            values, grad = ce_values_and_input_grad(target, batch(cur), labels)
            if not np.isfinite(grad).all():
                raise DivergenceError(f"non-finite attack gradient at step {step}")
            values_seen.append(values)
            queries += 1
        grad = grad.reshape(cur.shape)
        if not ascent:
            grad = -grad
        if g_acc is not None:
            norms = np.abs(grad).sum(axis=-1, keepdims=True)
            live = norms[..., 0] > 0.0
            g_acc *= spec.momentum
            g_acc[live] += grad[live] / norms[live]
            grad = g_acc
        fgsm_step(cur, grad, spec.eta, lo, hi, out=cur)
        del grad  # not held through the next step's forward and backward
    probs = predict_probs(target, batch(cur)).reshape(cur.shape[:2] + (-1,))
    final = nn.cross_entropy_per_example(probs, labels, _checked=True)
    rows = np.concatenate([np.reshape(values_seen, (-1, *final.shape)), final[None]])
    # each a mean as np.mean takes it: the sum of a row, then one division by B
    traces = (rows.sum(axis=-1) / len(x)).T.tolist()
    return cur, probs, [tuple(t) for t in traces], queries


def run_attack(target, x, y, spec):
    """Untargeted attack on the cross-entropy against y; success iff the
    final prediction differs from y. multi_targeted runs the multi-targeted
    protocol, run_member_attacks many lone member attacks at once.

    The family picks the loop:
      pgd   signed gradient ascent, from a uniform random point of the
            ball when spec.random_start is set, else from x.
      bim   the pgd loop, always from x.
      mim   momentum: g <- mu*g + grad/||grad||_1 per example, step by
            sign(g), from x. Rows with a zero gradient leave g unchanged.
      spsa  ascent along simultaneous-perturbation estimates of the
            gradient, from x; only forward passes of the target are used.
    """
    return _results(target, x, y, [spec], ascent=True, per_member=isinstance(target, nn.Model))[0]


def _results(target, x, labels, specs, ascent, per_member):
    """One AttackResult per attack of _search. An ascent (untargeted)
    succeeds where the final prediction differs from the label, a descent
    (targeted) where it equals it."""
    x, labels = _validate_inputs(target, x, labels)
    adv, probs, traces, queries = _search(target, x, labels, specs, ascent, per_member)
    return [
        AttackResult(
            adversarial=a,
            success_mask=(np.argmax(p, axis=1) == labels.labels) != ascent,
            queries=queries,
            spec=s,
            loss_trace=t,
        )
        for a, p, s, t in zip(adv, probs, specs, traces)
    ]


def run_member_attacks(members, x, y, specs):
    """run_attack against each member alone, members[k] with specs[k], in
    lockstep: one stacked step per iteration serves every member. members
    is a sequence of Models or a MemberStack. Returns one AttackResult per
    member, equal bit for bit to the lone run_attack calls. The specs may
    differ only in their seeds; the members may differ in layer shapes.
    """
    specs = tuple(specs)
    if not isinstance(members, MemberStack):  # the members must agree on classes and inputs
        members = Ensemble(members=tuple(members)).stack
    if len(specs) != len(members):
        raise ConfigError(f"{len(specs)} attack specs for {len(members)} members")
    if any(vars(s) | {"seed": 0} != vars(specs[0]) | {"seed": 0} for s in specs):
        raise ConfigError("member attack specs may differ only in their seeds")
    return _results(members, x, y, specs, ascent=True, per_member=True)


def targeted(target, x, t, spec):
    """Descend the cross-entropy toward class t; success iff the final
    prediction is exactly t."""
    t_arr = np.asarray(t)
    if t_arr.ndim == 0:
        t_arr = np.full(np.asarray(x).shape[0], t_arr)
    return _results(target, x, t_arr, [spec], ascent=False, per_member=isinstance(target, nn.Model))[0]


def multi_targeted(target, x, y, spec):
    """Run targeted attacks for every class t != y (per example).

    success is the OR over targets of exact targeted hits; the reported
    adversarial point is the first success (lowest t), falling back to the
    candidate with the highest cross-entropy against the true label.
    """
    m = target.num_classes
    x, y = _validate_inputs(target, x, y)
    if m < 2:
        raise ConfigError("multi-targeted attack needs at least 2 classes")
    b = x.shape[0]
    success = np.zeros(b, dtype=bool)
    chosen = np.array(x, copy=True)
    fallback = np.array(x, copy=True)
    fallback_loss = np.full(b, -np.inf)
    per_member = isinstance(target, nn.Model)
    per_run = 0
    for t in range(m):
        valid = y.labels != t
        if not valid.any():
            continue
        toward = nn.LabelIndex(y.rows, np.full(b, t, dtype=np.int64))
        adv, probs, _, per_run = _search(target, x, toward, [spec], False, per_member)
        adv, probs = adv[0], probs[0]
        hit = valid & (np.argmax(probs, axis=1) == t)
        newly = hit & ~success
        chosen[newly] = adv[newly]
        success |= hit
        # untargeted quality of this candidate, for examples never hit
        ce_true = nn.cross_entropy_per_example(probs, y, _checked=True)
        better = valid & ~success & (ce_true > fallback_loss)
        fallback[better] = adv[better]
        fallback_loss[better] = ce_true[better]
    chosen[~success] = fallback[~success]
    # every example faces exactly m-1 wrong labels
    return AttackResult(
        adversarial=chosen,
        success_mask=success,
        queries=(m - 1) * per_run,
        spec=spec,
    )


def spsa_gradient_estimate(target, x, labels, samples, delta, rng):
    """Two-point Rademacher estimate of the input gradient of the mean
    cross-entropy. Returns (estimate, loss_evaluations). As in
    ce_values_and_input_grad, x is one batch (B, d) against the averaged
    prediction, its bumps drawn from rng, or a stack (K, B, d) whose slice
    k is against member k alone, its bumps drawn from rng[k]."""
    rngs = [rng] if np.ndim(x) == 2 else rng

    def loss_at(bumped):  # clipped in place: one bumped batch is alive at a time
        bumped.clip(0.0, 1.0, out=bumped)
        return nn.cross_entropy_per_example(predict_probs(target, bumped), labels, _checked=True)

    est = np.zeros_like(x)
    for _ in range(samples):
        bump = np.reshape([r.integers(0, 2, size=x.shape[-2:]) for r in rngs], x.shape) * 2.0 - 1.0
        lp = loss_at(x + delta * bump)
        ln = loss_at(x - delta * bump)
        # Rademacher entries are +-1 so the elementwise inverse is bump itself
        est += ((lp - ln) / (2.0 * delta))[..., None] * bump
    return est / samples, 2 * samples


def save_attack_csv(result, x_original, path, preamble=""):
    """CSV export: example_id, success, linf_norm, queries."""
    gaps = np.abs(result.adversarial - np.asarray(x_original, dtype=np.float64)).max(axis=1)
    with atomic_write(path, newline="") as f:
        f.write(preamble)
        f.write("example_id,success,linf_norm,queries\n")
        for i, (s, g) in enumerate(zip(result.success_mask, gaps)):
            f.write(f"{i},{int(s)},{repr(float(g))},{result.queries}\n")
