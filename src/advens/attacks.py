"""Perturbation search inside the l-inf ball B(x, eps) = {x' : ||x'-x||_inf <= eps} ∩ [0,1]^d.

One search loop serves every protocol: run_attack (untargeted), targeted,
multi_targeted, run_heads and adversarial_batches all call it, and
spec.family picks how it steps (PGD / BIM / MIM sign-gradient steps, or
gradient-free SPSA estimates). Targets may be a single Model or an
Ensemble; against an ensemble the objective is the cross-entropy of the
*averaged* probability, so the attacker differentiates through the
combination rule (the adaptive attack).

The loop attacks *heads* (ensembles.Heads) in lockstep: a head is the
averaged prediction of some members of one nn.ModelStack, one member or all
of them, and a Model is the stack of one. run_attack attacks one head,
run_heads any heads with one seed (Heads.of: one per target, as the paper's
f1 .. fK and en), and adversarial_batches any heads, each of its own seed.
What stays fixed over the steps is done once per call: x and the labels are
checked, the target is stacked, the labels become one flat nn.LabelIndex of
the heads' (H, B, M) rows, the iterate's shape is set and the ball ∩ box
bounds are made (ball_box). Each gradient step is then one forward of the
heads' members on the (H, B, d) iterate, whose softmax checks its rows, one
backward that forms only the input gradient
(ensembles.ce_values_and_input_grad), and one sign step clipped to the
bounds in place. A large batch takes each step row block by row block
(nn.row_blocks), the blocks on every core (nn.over_blocks), each block's
bounds made from its rows at each step. The iterate is clipped into finite
bounds and every gradient is checked, so the forwards skip the checks of
their batch. Every seed has its own generator, which the heads of that seed
share, so each result equals a lone run_attack bit for bit.

The final check (one more forward of the iterate, for the success mask,
the loss trace and the member rows) is made by _results alone, for every
AttackResult and multi_targeted candidate; adversarial_batches, which
training calls, returns the iterate alone.
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
from .ensembles import Heads, as_heads, ce_values_and_input_grad, member_probs, member_stack
from .errors import ConfigError, DomainError, ShapeError

FAMILIES = ("pgd", "bim", "mim", "spsa")


def check_numbers(config, integers, reals):
    """ConfigError naming the first field of config, among integers, that
    is not an integer, or, among reals, that is not a finite real number
    (a bool is neither). A numpy number is stored as the Python number
    (which JSON takes); a Python number stays as given."""
    for name in (*integers, *reals):
        v = getattr(config, name)
        kinds = (int, np.integer) if name in integers else (int, float, np.integer, np.floating)
        if isinstance(v, bool) or not isinstance(v, kinds):
            raise ConfigError(f"{name} must be {'an integer' if name in integers else 'a real number'}, got {v!r}")
        if not math.isfinite(v):
            raise ConfigError(f"{name} must be finite")
        if isinstance(v, np.generic):
            object.__setattr__(config, name, v.item())


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
        check_numbers(self, ("steps", "spsa_samples", "seed"), ("epsilon", "eta", "momentum", "spsa_delta"))
        if not isinstance(self.random_start, (bool, np.bool_)):
            raise ConfigError(f"random_start must be true or false, got {self.random_start!r}")
        object.__setattr__(self, "random_start", bool(self.random_start))
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
    mean objective value before each step plus the final value;
    member_probs holds each attacked member's probability rows of
    adversarial, from the final check (a Model's own, one member's)."""

    adversarial: np.ndarray
    success_mask: np.ndarray
    queries: int
    spec: AttackSpec
    loss_trace: tuple = ()
    member_probs: np.ndarray | None = None  # the attacked members' final rows (K, B, M)


def ball_box(x_origin, epsilon):
    """The bounds (lo, hi) of B(x_origin, eps) ∩ [0,1]^d: clip_[0,1](x_origin
    ∓ eps). Clipping to them equals clipping to the ball, then to the box,
    for any finite x_origin (inside the box or not) and eps >= 0, since
    clip_[0,1] o clip_[a,b] = clip_[clip_[0,1](a), clip_[0,1](b)] for a <= b;
    bit for bit unless a -0.0 meets a bound of 0.0, where numpy's clips
    themselves disagree on the sign of the zero."""
    lo, hi = np.subtract(x_origin, epsilon), np.add(x_origin, epsilon)
    return lo.clip(0.0, 1.0, out=lo), hi.clip(0.0, 1.0, out=hi)


def fgsm_step(x, input_grad, eta, lo, hi, out=None):
    """One signed ascent step, then ball and box projection.

    x_next = clip_[lo,hi]( x + eta * sign(input_grad) ) with (lo, hi) =
    ball_box(x_origin, eps), made once per attack (per row block and step
    for a large batch); sign(0) = 0, so zero-gradient coordinates hold
    still. The bounds are shaped like x or, for a stack of iterates
    (H, B, d) of one origin, like one slice, (B, d). out, which may be x
    itself, takes the step in place.
    """
    bounds = lo.shape
    if x.shape != input_grad.shape or bounds != hi.shape or bounds not in (x.shape, x.shape[1:]):
        raise ShapeError("x and input_grad must share a shape, and the bounds that or a slice's")
    step = np.sign(input_grad)
    step *= eta
    out = np.add(x, step, out=out)
    return out.clip(lo, hi, out=out)


def _validate_inputs(heads, x, y):
    """x as a float64 (B, d) batch and y as the nn.LabelIndex of its labels
    in the heads' (H, B, M) probability rows: one integer in [0,
    num_classes) per row. The one check of x and the labels in an attack
    call; an empty batch raises ShapeError, as does another width."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != heads.stack.input_dim or not len(x):
        raise ShapeError(
            f"attack inputs must be a 2-d batch of one or more rows of {heads.stack.input_dim} "
            f"features, not shape {x.shape}"
        )
    if not np.isfinite(x).all():
        raise DomainError("attack inputs contain non-finite values")
    return x, nn.label_index(y, (len(heads), len(x), heads.num_classes))


def _generators(seeds):
    """One generator per attack, seeded seeds[h]; attacks of one seed share
    one generator, made once, whose draws each of them would make alone."""
    seeded = {s: np.random.default_rng(s) for s in dict.fromkeys(seeds)}
    return [seeded[s] for s in seeds]


def _distinct(rngs):
    """The distinct generators of rngs, in order, and each entry's index
    among them: a shared generator draws once for all its attacks."""
    gens = list({id(r): r for r in rngs}.values())
    return gens, [gens.index(r) for r in rngs]


def _search(heads, x, labels, spec, seeds, ascent):
    """The one iterative search behind every protocol: each head of heads
    (ensembles.Heads) attacked with spec in lockstep, head h drawing from
    seeds[h]'s generator in the order a lone attack would. Each step is
    one forward of the heads' slots, one input-gradient backward and one
    sign step of the (H, B, d) iterate clipped into the finite ball ∩ box
    bounds of x, so the step vouches for the iterate (_checked).

    A batch of one row block steps whole, against one (B, d) pair of
    bounds made once. A batch of several (nn.row_blocks) steps block by
    block, on every core (nn.over_blocks): a block's pass, its gradient
    check, MIM's momentum and the sign step go straight into its rows of
    the iterate, against bounds made from its rows of x, and no
    whole-batch gradient or bounds are held. Rows are independent and a
    block's LabelIndex keeps the whole batch's 1/B, so this is exact.
    SPSA's estimate (itself one blocked pass) steps block by block alike.

    x and labels are as _validate_inputs returns them. Ascends the
    cross-entropy against labels when ascent is set, descends it
    otherwise. Returns the iterate (H, B, d) after the last step, each
    gradient step's per-example objective (H, B) and the queries of each
    attack's steps; the final check is left to the callers that read it.
    """
    rngs = _generators(seeds)
    blocks = nn.row_blocks(x)
    if spec.family == "pgd" and spec.random_start:
        gens, which = _distinct(rngs)
        starts = [r.uniform(-spec.epsilon, spec.epsilon, size=x.shape) for r in gens]
        for s in starts:
            s += x
            s.clip(0.0, 1.0, out=s)
        cur = np.stack(starts) if len(starts) > 1 else starts[0][None]
        if len(gens) < len(rngs):
            cur = cur[which]
        del starts
        for lo, hi in blocks:  # into the ball, without whole-batch bounds
            np.clip(cur[:, lo:hi], x[lo:hi] - spec.epsilon, x[lo:hi] + spec.epsilon, out=cur[:, lo:hi])
    else:
        cur = np.repeat(x[None], len(rngs), axis=0)
    g_acc = np.zeros_like(cur) if spec.family == "mim" else None
    # what a step of some rows takes: their iterate, labels, momentum and bounds
    whole = (cur, labels, g_acc, ball_box(x, spec.epsilon)) if len(blocks) == 1 else None

    def part(lo, hi):  # of rows lo:hi, their bounds made here
        acc = None if g_acc is None else g_acc[:, lo:hi]
        return cur[:, lo:hi], labels.block(lo, hi), acc, ball_box(x[lo:hi], spec.epsilon)

    def step_rows(rows, grad=None):
        """One step of rows in place, along grad (SPSA's estimate) or else the
        gradient of one pass, checked; that pass's per-example objective."""
        rows_cur, rows_labels, acc, bounds = rows
        values = None
        if grad is None:
            values, grad = ce_values_and_input_grad(heads, rows_cur, rows_labels, _checked=True)
            if not np.logical_and.reduce(np.isfinite(grad), axis=None):  # .all() without its wrapper
                raise DomainError(f"non-finite attack gradient at step {step}")
        if not ascent:
            grad = -grad
        if acc is not None:
            norms = np.abs(grad).sum(axis=-1, keepdims=True)
            live = norms[..., 0] > 0.0
            acc *= spec.momentum
            acc[live] += grad[live] / norms[live]
            grad = acc
        fgsm_step(rows_cur, grad, spec.eta, *bounds, out=rows_cur)
        return values

    values_seen = []  # per gradient step, the per-example objective: the trace's rows
    queries = 0
    for step in range(spec.steps):
        est, used = None, 1
        if spec.family == "spsa":
            est, used = spsa_gradient_estimate(
                heads, cur, labels, spec.spsa_samples, spec.spsa_delta, rngs, _checked=True
            )
        if whole:
            values = step_rows(whole, est)
        else:
            parts = nn.over_blocks(
                lambda lo, hi: step_rows(part(lo, hi), None if est is None else est[:, lo:hi]), blocks
            )
            values = None if parts[0] is None else np.concatenate(parts, axis=-1)
        del est  # not held through the next step's estimate
        if values is not None:
            values_seen.append(values)
        queries += used
    return cur, values_seen, queries


def _results(heads, x, labels, spec, ascent):
    """One AttackResult per head: _search of every head with spec.seed, as
    its lone attack, then the final check, which costs each attack one more
    query. An ascent (untargeted) succeeds where the final prediction
    differs from the label, a descent (targeted) where it equals it."""
    cur, values_seen, queries = _search(heads, x, labels, spec, [spec.seed] * len(heads), ascent)
    members = member_probs(heads.slots, heads.batch(cur), _checked=True)  # the final check
    probs = heads.average(members)
    final = nn.cross_entropy_per_example(probs, labels, _checked=True)
    rows = np.concatenate([np.reshape(values_seen, (-1, *final.shape)), final[None]])
    # each a mean as np.mean takes it: the sum of a row, then one division by B
    traces = (rows.sum(axis=-1) / len(x)).T.tolist()
    hits = (np.argmax(probs, axis=-1) == labels.labels) != ascent
    return [
        AttackResult(a, hit, queries + 1, spec, loss_trace=tuple(t), member_probs=members[start:stop])
        for a, hit, (start, stop), t in zip(cur, hits, heads.spans, traces)
    ]


def run_attack(target, x, y, spec):
    """Untargeted attack on the cross-entropy against y (run_heads of one
    head); success iff the final prediction differs from y. targeted and
    multi_targeted run the targeted protocols, run_heads the attacks on
    several targets at once, and adversarial_batches the steps alone.

    The family picks the loop:
      pgd   signed gradient ascent, from a uniform random point of the
            ball when spec.random_start is set, else from x.
      bim   the pgd loop, always from x.
      mim   momentum: g <- mu*g + grad/||grad||_1 per example, step by
            sign(g), from x. Rows with a zero gradient leave g unchanged.
      spsa  ascent along simultaneous-perturbation estimates of the
            gradient, from x; only forward passes of the target are used.
    """
    return next(run_heads(Heads.whole(member_stack(target)), x, y, spec))


def run_heads(heads, x, y, spec):
    """run_attack with spec against each head of heads (ensembles.Heads),
    in lockstep: each step is one forward of the heads' slots. Returns an
    iterator of H AttackResults, each equal bit for bit to the lone
    run_attack on its head's averaged prediction (all of them draw from
    spec.seed, as the lone attacks do); Heads.of(targets) makes one head
    per Model or Ensemble. A batch of more than one row block
    (nn.row_blocks) attacks its heads one after another instead, each when
    its result is asked for, so that one iterate of it is held at a time."""
    x, labels = _validate_inputs(heads, x, y)
    if len(heads) == 1 or len(nn.row_blocks(x)) == 1:
        return iter(_results(heads, x, labels, spec, ascent=True))
    one = nn.label_index(labels.labels, (1, *labels.shape[1:]))  # one head's rows
    return (_results(Heads(heads.stack, (g,)), x, one, spec, ascent=True)[0] for g in heads.groups)


def adversarial_batches(heads, x, y, spec, seeds):
    """The adversarial batches (H, B, d) of an untargeted attack with spec
    on each head of heads (ensembles.Heads), head h drawing from seeds[h]:
    slice h is, bit for bit, the adversarial of the lone run_attack on head
    h's averaged prediction with that seed. Only the steps run, not the
    final check, whose success mask and loss trace training never reads."""
    if len(seeds) != len(heads):
        raise ConfigError(f"{len(seeds)} attack seeds for {len(heads)} heads")
    x, labels = _validate_inputs(heads, x, y)
    return _search(heads, x, labels, spec, seeds, ascent=True)[0]


def targeted(target, x, t, spec):
    """Descend the cross-entropy toward class t; success iff the final
    prediction is exactly t."""
    t_arr = np.asarray(t)
    if t_arr.ndim == 0:
        t_arr = np.full(np.asarray(x).shape[0], t_arr)
    heads = Heads.whole(member_stack(target))
    return _results(heads, *_validate_inputs(heads, x, t_arr), spec, ascent=False)[0]


def multi_targeted(target, x, y, spec):
    """Run targeted attacks for every class t != y (per example).

    success is the OR over targets of exact targeted hits; the reported
    adversarial point is the first success (lowest t), falling back to the
    candidate with the highest cross-entropy against the true label; each
    candidate is a targeted result (_results) of the once-checked x and y.
    """
    heads = Heads.whole(member_stack(target))
    m = heads.num_classes
    x, y = _validate_inputs(heads, x, y)
    if m < 2:
        raise ConfigError("multi-targeted attack needs at least 2 classes")
    b = x.shape[0]
    success = np.zeros(b, dtype=bool)
    chosen = np.array(x, copy=True)
    fallback = np.array(x, copy=True)
    fallback_loss = np.full(b, -np.inf)
    each = 0
    for t in range(m):
        valid = y.labels != t
        if not valid.any():
            continue
        result = _results(heads, x, nn.label_index(np.full(b, t), y.shape), spec, ascent=False)[0]
        adv, each = result.adversarial, result.queries
        hit = valid & result.success_mask
        newly = hit & ~success
        chosen[newly] = adv[newly]
        success |= hit
        # untargeted quality of this candidate, for examples never hit
        ce_true = nn.cross_entropy_per_example(heads.average(result.member_probs), y, _checked=True)[0]
        better = valid & ~success & (ce_true > fallback_loss)
        fallback[better] = adv[better]
        fallback_loss[better] = ce_true[better]
    chosen[~success] = fallback[~success]
    # every example faces exactly m-1 wrong labels
    return AttackResult(
        adversarial=chosen,
        success_mask=success,
        queries=(m - 1) * each,
        spec=spec,
    )


def _draws(state, n, lo, hi, samples):
    """Entries lo:hi of each of samples successive draws of n int32 entries
    integers(0, 2) from PCG64 state: the top bits of uint32s (Lemire's method
    never rejects at range 2), each output's low half first, read from one
    copy of state advanced between draws. A pending half (has_uint32) stands
    for the high half of the output before state's."""
    copy, pending = np.random.PCG64(0), state["has_uint32"]
    copy.state = state
    at = pending  # the copy's place, in outputs after the one before state's
    for s in range(samples):
        half = s * n + lo + pending
        if half // 2 != at:
            copy.advance(half // 2 - at)  # back by one, modulo 2**128, to reread an output's high half
        raw = copy.random_raw((half % 2 + hi - lo + 1) // 2)
        at = half // 2 + len(raw)
        halves = raw.astype("<u8", copy=False).view("<u4")[half % 2 : half % 2 + hi - lo]
        if half == 1 and pending:
            halves[:1] = state["uinteger"]  # a slice: an empty batch has no entry 0
        yield halves.view(np.int32) < 0  # the top bit set


def spsa_gradient_estimate(target, x, labels, samples, delta, rng, *, _checked=False):
    """Two-point Rademacher estimate of the input gradient of the mean
    cross-entropy. Returns (estimate, loss_evaluations). As in
    ce_values_and_input_grad, x is the iterate (H, B, d) of Heads, slice
    h's bumps drawn from the generator rng[h], or one batch (B, d) against
    the averaged prediction of any other target, with one generator rng.
    Sample s's bump is its generator's s-th integers(0, 2, size=(B, d),
    dtype=np.int32) * 2 - 1, shared by the slices of that generator. x is
    checked unless the caller vouches for it (_checked); generators other
    than one PCG64 per head, samples not an integer >= 1 and delta not
    finite and > 0 raise ConfigError.

    One pass goes row block by row block (nn.row_blocks), on every core
    (nn.over_blocks): a block draws its rows of each bump (_draws), then
    evaluates its bumped rows both ways and adds each sample to its rows of
    the estimate, in order. Each generator is then moved past the draws."""
    heads, cur = as_heads(target, x if _checked else nn._as_f64(x, "batch"))
    rngs = list(rng) if heads is target and not isinstance(rng, np.random.Generator) else [rng]
    if len(rngs) != len(heads):
        raise ConfigError(f"{len(rngs)} SPSA generators for {len(heads)} heads")
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)) or samples < 1:
        raise ConfigError(f"SPSA samples must be an integer >= 1, got {samples!r}")
    real = isinstance(delta, (int, float, np.integer, np.floating)) and not isinstance(delta, bool)
    if not (real and 0 < delta < math.inf):
        raise ConfigError(f"SPSA delta must be finite and > 0, got {delta!r}")
    gens, which = _distinct(rngs)
    for r in gens:
        if type(bitgen := getattr(r, "bit_generator", r)) is not np.random.PCG64:
            raise ConfigError(f"SPSA draws from PCG64 generators, not {type(bitgen).__name__}")
    states = [r.bit_generator.state for r in gens]
    labels = nn.label_index(labels, (len(heads), cur.shape[-2], heads.num_classes))
    d, n = cur.shape[-1], cur[0].size  # n: the entries of one draw

    def loss_at(bumped, rows_labels):  # clipped in place
        probs = member_probs(heads.slots, heads.batch(bumped.clip(0.0, 1.0, out=bumped)), _checked=True)
        return nn.cross_entropy_per_example(heads.average(probs), rows_labels, _checked=True)

    def block(lo, hi):  # every sample on rows lo:hi
        rows, rows_labels, acc = cur[:, lo:hi], labels.block(lo, hi), est[:, lo:hi]
        bump = np.empty((len(gens), hi - lo, d))
        for entries in zip(*(_draws(state, n, lo * d, hi * d, samples) for state in states)):
            for e, out in zip(entries, bump):
                np.subtract(np.multiply(e.reshape(out.shape), 2.0, out=out), 1.0, out=out)
            # each slice's bump: its generator's
            b = bump[which] if 1 < len(gens) < len(rngs) else np.broadcast_to(bump, rows.shape)
            step = delta * b
            lp = loss_at(rows + step, rows_labels)
            ln = loss_at(np.subtract(rows, step, out=step), rows_labels)
            # Rademacher entries are +-1 so the elementwise inverse is bump itself
            acc += np.multiply(((lp - ln) / (2.0 * delta))[..., None], b, out=step)

    est = np.zeros_like(cur)
    nn.over_blocks(block, nn.row_blocks(cur))
    for r, state in zip(gens, states if n else ()):  # past the draws, if any; an odd count leaves a half pending
        left = samples * n - state["has_uint32"]  # the halves after a pending one
        r.bit_generator.advance(left // 2)
        r.integers(0, 2, size=left % 2, dtype=np.int32)
    est /= samples
    return (est if heads is target else est[0]), 2 * samples

