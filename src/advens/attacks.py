"""Perturbation search inside the l-inf ball B(x, eps) = {x' : ||x'-x||_inf <= eps} ∩ [0,1]^d.

One search loop serves every protocol: run_attack (untargeted), targeted
and multi_targeted all call it, and spec.family picks how it steps
(PGD / BIM / MIM sign-gradient steps, or gradient-free SPSA estimates).
Targets may be a single Model or an Ensemble; against an ensemble the
objective is the cross-entropy of the *averaged* probability, so the
attacker differentiates through the combination rule (the adaptive attack).

Query accounting: queries counts target evaluations per example (the usual
black-box budget metric). PGD/BIM/MIM spend steps+1 (final success check
included); SPSA spends 2*spsa_samples per step plus the final check; the
multi-targeted protocol spends (num_classes - 1) single runs, one per
wrong label.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import ConfigError, DivergenceError, DomainError, ShapeError
from .ensembles import ce_values_and_input_grad, predict_probs

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
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        for name in ("epsilon", "eta", "momentum", "spsa_delta"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ConfigError(f"{name} must be finite")
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


def fgsm_step(x, input_grad, eta, x_origin, epsilon):
    """One signed ascent step, then ball and box projection.

    x_next = clip_[0,1]( clip_B(x_origin, eps)( x + eta * sign(input_grad) ) );
    sign(0) = 0, so zero-gradient coordinates hold still.
    """
    if x.shape != input_grad.shape or x.shape != np.asarray(x_origin).shape:
        raise ShapeError("x, input_grad and x_origin must share a shape")
    stepped = x + eta * np.sign(input_grad)
    balled = np.clip(stepped, x_origin - epsilon, x_origin + epsilon)
    return np.clip(balled, 0.0, 1.0)


def _validate_inputs(target, x, y):
    num_classes = target.num_classes
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError("attack inputs must be a 2-d batch")
    if not np.all(np.isfinite(x)):
        raise DomainError("attack inputs contain non-finite values")
    y = np.asarray(y)
    if y.shape != (x.shape[0],):
        raise ShapeError(f"labels shape {y.shape} != ({x.shape[0]},)")
    if y.size and (y.min() < 0 or y.max() >= num_classes):
        raise DomainError(f"labels must lie in [0, {num_classes})")
    return x, y.astype(np.int64)


def _search(target, x, labels, spec, ascent):
    """The one iterative search behind every protocol; the loop follows
    spec.family. Ascends the cross-entropy against labels when ascent is
    set, descends it otherwise. Returns (adversarial, final_probs, trace,
    queries)."""
    rng = np.random.default_rng(spec.seed)
    if spec.family == "pgd" and spec.random_start:
        cur = np.clip(x + rng.uniform(-spec.epsilon, spec.epsilon, size=x.shape), 0.0, 1.0)
        cur = np.clip(cur, x - spec.epsilon, x + spec.epsilon)
    else:
        cur = x.copy()
    sign = 1.0 if ascent else -1.0
    g_acc = np.zeros_like(x)
    trace = []
    queries = 1  # the final success check
    for step in range(spec.steps):
        if spec.family == "spsa":
            grad, used = spsa_gradient_estimate(
                target, cur, labels, spec.spsa_samples, spec.spsa_delta, rng
            )
            queries += used
        else:
            values, grad = ce_values_and_input_grad(target, cur, labels)
            if not np.all(np.isfinite(grad)):
                raise DivergenceError(f"non-finite attack gradient at step {step}")
            trace.append(float(np.mean(values)))
            queries += 1
        grad = sign * grad
        if spec.family == "mim":
            norms = np.abs(grad).sum(axis=1, keepdims=True)
            live = norms[:, 0] > 0.0
            g_acc = spec.momentum * g_acc
            g_acc[live] += grad[live] / norms[live]
            grad = g_acc
        cur = fgsm_step(cur, grad, spec.eta, x, spec.epsilon)
    probs = predict_probs(target, cur)
    trace.append(float(np.mean(nn.cross_entropy_per_example(probs, labels))))
    return cur, probs, tuple(trace), queries


def run_attack(target, x, y, spec):
    """Untargeted attack on the cross-entropy against y; success iff the
    final prediction differs from y. multi_targeted runs the multi-targeted
    protocol.

    The family picks the loop:
      pgd   signed gradient ascent, from a uniform random point of the
            ball when spec.random_start is set, else from x.
      bim   the pgd loop, always from x.
      mim   momentum: g <- mu*g + grad/||grad||_1 per example, step by
            sign(g), from x. Rows with a zero gradient leave g unchanged.
      spsa  ascent along simultaneous-perturbation estimates of the
            gradient, from x; only forward passes of the target are used.
    """
    x, y = _validate_inputs(target, x, y)
    adv, probs, trace, queries = _search(target, x, y, spec, ascent=True)
    return AttackResult(
        adversarial=adv,
        success_mask=np.argmax(probs, axis=1) != y,
        queries=queries,
        spec=spec,
        loss_trace=trace,
    )


def targeted(target, x, t, spec):
    """Descend the cross-entropy toward class t; success iff the final
    prediction is exactly t."""
    t_arr = np.asarray(t)
    if t_arr.ndim == 0:
        t_arr = np.full(np.asarray(x).shape[0], int(t_arr))
    x, t_arr = _validate_inputs(target, x, t_arr)
    adv, probs, trace, queries = _search(target, x, t_arr, spec, ascent=False)
    return AttackResult(
        adversarial=adv,
        success_mask=np.argmax(probs, axis=1) == t_arr,
        queries=queries,
        spec=spec,
        loss_trace=trace,
    )


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
    per_run = 0
    for t in range(m):
        valid = y != t
        if not valid.any():
            continue
        adv, probs, _, per_run = _search(target, x, np.full(b, t), spec, ascent=False)
        hit = valid & (np.argmax(probs, axis=1) == t)
        newly = hit & ~success
        chosen[newly] = adv[newly]
        success |= hit
        # untargeted quality of this candidate, for examples never hit
        ce_true = nn.cross_entropy_per_example(probs, y)
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
    cross-entropy. Returns (estimate, loss_evaluations)."""
    est = np.zeros_like(x)
    for _ in range(samples):
        bump = rng.integers(0, 2, size=x.shape) * 2.0 - 1.0
        up = np.clip(x + delta * bump, 0.0, 1.0)
        dn = np.clip(x - delta * bump, 0.0, 1.0)
        lp = nn.cross_entropy_per_example(predict_probs(target, up), labels)
        ln = nn.cross_entropy_per_example(predict_probs(target, dn), labels)
        # Rademacher entries are +-1 so the elementwise inverse is bump itself
        est += ((lp - ln) / (2.0 * delta))[:, None] * bump
    return est / samples, 2 * samples


def save_attack_csv(result, x_original, path, preamble=""):
    """CSV export: example_id, success, linf_norm, queries."""
    gaps = np.abs(result.adversarial - np.asarray(x_original, dtype=np.float64)).max(axis=1)
    with open(path, "w", newline="") as f:
        f.write(preamble)
        f.write("example_id,success,linf_norm,queries\n")
        for i, (s, g) in enumerate(zip(result.success_mask, gaps)):
            f.write(f"{i},{int(s)},{repr(float(g))},{result.queries}\n")
