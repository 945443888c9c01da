"""Adversarial training losses and the training loop.

Four methods share one loop and two training steps (_collab_step for
ADV/CCE, _ensemble_adv_step for ADV_EN/ADP), each stacked over the
members' (member, batch) slices. The steps are the only implementation of
the losses: each returns every member's loss terms with the stacked
parameter gradients, and the tests check both against one-model-at-a-time
oracles and finite differences of them (tests/helpers.py). The loop holds
the members as one nn.ModelStack for the whole run: the attacks and the
steps take it as it is, and one Adam step updates every member. Each
epoch's evaluation attacks the stack as one ensemble; Models are made
from it only for the report.

  ADV     a CCE member trained alone: every member independently
          minimizes clean CE + CE on its own adversarial examples, with
          no crossing terms.
  ADV_EN  the ensemble is treated as one model: adversarial examples are
          generated against the averaged probability and the loss is the
          cross-entropy of that average (clean + adversarial).
  ADP     ADV_EN plus a subtracted diversity regularizer
          alpha*H(mean probs) + beta*log(ensemble diversity), applied at
          both the clean and the adversarial batch, on the forward passes
          the ADV_EN terms already made. A Gram determinant below ED_FLOOR
          (a zero row gives exactly 0) is clamped: no log-det gradient,
          counted in adp_clamped. More members than num_classes - 1 make
          every Gram matrix singular, so train rejects them.
  CCE     collaborative training: each member sees every member's
          adversarial batch. On its own batch it minimizes CE (the direct
          promote term); on another member's batch a soft gate p(true
          label) switches between a promote CE term (weight lambda_pm *
          gate) and a demote entropy term (weight lambda_dm * (1 - gate)).
          Gates are treated as constants: no gradient flows through them.

Per-member loss decomposition, with the sign convention
total = clean_ce + dpo_ce + cpo_ce - do_h (+ method-specific extras):

  clean_ce  CE on the clean batch
  dpo_ce    CE on the member's own adversarial batch (promote, direct)
  cpo_ce    gated promote CE on other members' batches (crossing)
  do_h      gated demote entropy on other members' batches

Every stochastic choice (batch order, per-batch attack seeds, evaluation
attacks) derives from the master seed via named seed lineage, so a run is
reproducible bit for bit. A non-finite value met inside the loop (inputs
are validated before it starts) raises DivergenceError naming the epoch
and the batch.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import data, nn
from .atomic import write_table
from .attacks import AttackSpec, adversarial_batches, check_numbers, run_attack
from .ensembles import Ensemble, Heads, predict_labels, stack_ensemble
from .errors import ConfigError, DivergenceError, DomainError

METHODS = ("ADV", "ADV_EN", "ADP", "CCE")
MODES = {"RM": (1.0, 1.0), "DM": (0.0, 5.0), "Base": (0.0, 0.0)}
ED_FLOOR = 1e-30


def mode_lambdas(mode, lambda_pm=None, lambda_dm=None):
    """(lambda_pm, lambda_dm) of a CCE mode: a named mode's pair (MODES),
    which lambdas given with it must repeat, or custom's, which must both
    be given. ConfigError otherwise, its message led by the field at fault."""
    if mode != "custom" and (not isinstance(mode, str) or mode not in MODES):
        raise ConfigError(f"mode: unknown mode {mode!r}")
    pinned = MODES.get(mode, (None, None))
    for name, value, pin in zip(("lambda_pm", "lambda_dm"), (lambda_pm, lambda_dm), pinned):
        if value is None and pin is None:
            raise ConfigError(f"{name}: custom mode needs explicit lambda_pm and lambda_dm")
        if value is not None and pin is not None and value != pin:
            raise ConfigError(f"{name}: {value!r} contradicts mode {mode!r}, which pins it to {pin}")
    return MODES.get(mode, (lambda_pm, lambda_dm))


# seed-lineage tags (arbitrary fixed ints; only distinctness matters)
_TAG_SHUFFLE, _TAG_EVAL, _TAG_ATTACK, _TAG_ENS_ATTACK = 1, 2, 3, 4


@dataclass(frozen=True)
class TrainConfig:
    """Training hyper-parameters.

    mode is one of RM / DM / Base / custom, and (lambda_pm, lambda_dm)
    are its mode_lambdas: the named modes pin them to (1,1) / (0,5) /
    (0,0), and custom takes them as given. alpha and beta only matter for
    the ADP method. epochs, batch_size and seed must be integers and the
    other numbers finite reals (check_numbers), else ConfigError.
    """

    attack: AttackSpec
    epochs: int
    batch_size: int
    seed: int
    mode: str = "custom"
    lambda_pm: float | None = None
    lambda_dm: float | None = None
    lr: float = 0.001
    alpha: float = 2.0
    beta: float = 0.5

    def __post_init__(self):
        pm, dm = mode_lambdas(self.mode, self.lambda_pm, self.lambda_dm)
        object.__setattr__(self, "lambda_pm", pm)
        object.__setattr__(self, "lambda_dm", dm)
        check_numbers(self, ("epochs", "batch_size", "seed"), ("lr", "lambda_pm", "lambda_dm", "alpha", "beta"))
        if self.lambda_pm < 0 or self.lambda_dm < 0:
            raise ConfigError("lambdas must be >= 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("alpha and beta must be >= 0")


def derive_seed(*parts):
    """Deterministic child seed from a tuple of non-negative integers."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def init_ensemble(input_dim, hidden, num_classes, n_members, seed):
    """Identically shaped members, independently initialized from
    seed + member index."""
    members = tuple(
        nn.init_model(input_dim, hidden, num_classes, seed=seed + i)
        for i in range(n_members)
    )
    return Ensemble(members=members)


# ---------------------------------------------------------------------------
# the two training steps


def _sum_slices(slices):
    """The stacked parameter gradients of a step: its slices' gradients,
    each (gw, gb) per layer, added left to right."""
    total = slices[0]
    for more in slices[1:]:
        total = [(gw + dw, gb + db) for (gw, gb), (dw, db) in zip(total, more)]
    return total


def _collab_step(stack, x, y, adv_set, lambda_pm, lambda_dm, crossing=True, gates=None):
    """The collaborative step of the members of an nn.ModelStack: CE on the
    clean batch and on each member's own adversarial batch, plus, with
    crossing, the gated promote/demote terms on every other member's
    batch. Returns ((total, parts) of every member, the stacked parameter
    gradients). Without crossing (ADV) parts holds only the four loss
    terms.

    The step is one nn.backward over all (member, batch) slices: per
    member, the clean batch, its own batch and, with crossing, every other
    member's batch with the index ascending. Its loss_grad forms
    dLoss/dprobs as the CE gradient of every slice (weight 1 on a direct
    slice, lambda_pm * gate on a crossing) plus the entropy gradient of the
    crossings (weight -lambda_dm * (1 - gate)), each crossing weight shared
    over the p crossings. A gate comes from the pass's own probabilities
    and is a constant to the gradient; the reported terms reuse the pass's
    CE and entropy rows. A member's gradient and terms are summed clean +
    own, then the crossings with the batch index ascending. gates
    optionally overrides the soft gates, gates[n][i] for member n on batch
    i: a testing seam for the gates-as-constants contract.
    """
    n, b, m = len(stack), len(x), stack.num_classes
    others = [[i for i in range(n) if i != k] if crossing else [] for k in range(n)]
    p = len(others[0])
    share = 1.0 / p if p else 0.0
    s = 2 + p  # slices per member
    y = nn.label_index(y, (n * s, b, m))

    def loss_grad(probs):
        gate = nn.label_probs(probs, y).reshape(n, s, b)[:, 2:]
        if gates is not None:
            gate = np.array([
                [gates[k][i] if k in gates else g for i, g in zip(others[k], row)]
                for k, row in enumerate(gate)
            ])
        ce_w = np.ones((n, s, b))
        ce_w[:, 2:] = share * lambda_pm * gate
        ce, g = nn.ce_values_and_prob_grad(probs, y, ce_w.reshape(-1, b), _checked=True)
        cross = probs.reshape(n, s, b, m)[:, 2:]
        h_w = -share * lambda_dm * (1.0 - gate)
        # + 0.0: a zero-weight label entry gets +0.0, not -0.0, as in a sum from +0.0
        g.reshape(n, s, b, m)[:, 2:] += (h_w / b)[..., None] * nn.entropy_grad(cross) + 0.0
        return (ce.reshape(n, s, b), nn.entropy_rows(cross), gate), g

    (ce, h, gate), param_grads = nn.backward(
        stack.take([k for k in range(n) for _ in range(s)]),
        np.stack([a for k in range(n) for a in (x, adv_set[k], *(adv_set[i] for i in others[k]))]),
        loss_grad,
    )
    slice_grads = [[(gw[j::s], gb[j::s]) for gw, gb in param_grads] for j in range(s)]
    # each a mean as np.mean takes it: the sum of a row, then one division by B
    # (+ 0.0: a batch of p_y = 1 reports 0.0, not -0.0)
    clean, own = (ce[:, j].sum(axis=-1) / b + 0.0 for j in (0, 1))
    per_pair = np.stack([
        share * lambda_pm * ((gate * ce[:, 2:]).sum(axis=-1) / b),
        share * lambda_dm * (((1.0 - gate) * h).sum(axis=-1) / b),
        share * (gate.sum(axis=-1) / b),
    ])
    sums = np.zeros((3, n))  # cpo_ce, do_h and the mean gate, over the crossings
    for j in range(p):
        sums += per_pair[..., j]
    terms = []
    for clean_ce, dpo_ce, cpo_ce, do_h, gate_sum in zip(clean.tolist(), own.tolist(), *sums.tolist()):
        parts = {"clean_ce": clean_ce, "dpo_ce": dpo_ce, "cpo_ce": cpo_ce, "do_h": do_h}
        if p:
            parts.update(cpo_gate=gate_sum, do_gate=1.0 - gate_sum)
        terms.append((clean_ce + dpo_ce + cpo_ce - do_h, parts))
    return terms, _sum_slices(slice_grads)


def _ensemble_adv_step(stack, x, y, x_a_en, adp=None):
    """ADV_EN, or ADP with adp = (alpha, beta), for the members of an
    nn.ModelStack: CE of the averaged probability on the clean and on the
    attacked batch, for ADP minus the regularizer at both batches. The
    regularizer reuses the CE terms' probabilities and caches, and its
    (N, B, M) gradient goes back through one more backprop per batch.
    Returns (total, parts, the stacked param grads, clamped count)."""
    heads = Heads.whole(stack)
    passes = [nn.forward_cached(stack, b) for b in (x, x_a_en)]  # clean, adv
    ce, slices = [], []
    for probs, cache in passes:
        values, g_probs = nn.ce_values_and_prob_grad(heads.average(probs), y, _checked=True)
        ce.append(float(np.mean(values)))
        slices.append(nn.backprop(stack, cache, heads.slot_grads(g_probs)))
    clean, adv = ce
    total, parts = clean + adv, {"clean_ce": clean, "dpo_ce": adv, "cpo_ce": 0.0, "do_h": 0.0}
    clamped = 0
    for tag, (probs, cache) in zip(("clean", "adv"), passes if adp else ()):
        value, g_probs, flag = _diversity_value_and_grads(probs, y, *adp)
        clamped += flag
        parts[f"adp_reg_{tag}"] = value
        total -= value
        slices.append(nn.backprop(stack, cache, -g_probs))
    return total, parts, _sum_slices(slices), clamped


# ---------------------------------------------------------------------------
# diversity regularizer (ADP baseline)


def _diversity_value_and_grads(probs, y, alpha, beta):
    """alpha*H(mean probs) + beta*log(ensemble diversity), batch mean, of
    the members' probability rows probs (N, B, M) and the labels y (B,).

    The ensemble diversity is the Gram determinant of the L2-normalized
    member probability rows with the true-label entry removed; determinants
    below ED_FLOOR are clamped before the log. Returns (value, its
    gradient in probs, clamped_count).
    """
    n, b, m = probs.shape
    if n < 2:
        raise ConfigError("diversity regularizer needs at least 2 members")

    grads = np.zeros_like(probs)
    mean_p = probs.mean(axis=0)
    h_vals = nn.entropy_rows(mean_p)
    # d(alpha*H(mean))/dp^n = alpha/N * dH/dmean
    grads += alpha * nn.entropy_grad(mean_p)[None, :, :] / n

    # per example, the member rows without the true-label entry: (B, N, M-1),
    # members innermost in memory so sums over M-1 add as on one example
    keep = np.ones((b, m, n), dtype=bool)
    keep[np.arange(b), y, :] = False
    v = probs.transpose(1, 2, 0)[keep].reshape(b, m - 1, n).transpose(0, 2, 1)
    r = np.sqrt((v * v).sum(axis=2))
    # a zero row gives a zero row of the Gram matrix: det is exactly 0 and clamps
    vt = v / np.where(r == 0.0, 1.0, r)[:, :, None]
    gram = vt @ vt.transpose(0, 2, 1)
    det = np.linalg.det(gram)
    live = ~(det < ED_FLOOR)
    clamped = int(b - np.count_nonzero(live))
    log_ed = np.full(b, np.log(ED_FLOOR))
    log_ed[live] = np.log(det[live])
    # det >= ED_FLOOR leaves every LU pivot non-zero, so solve cannot fail
    vt, r = vt[live], r[live]
    g_vt = 2.0 * np.linalg.solve(gram[live], vt)  # d log det / d vt
    # back through the row normalization
    g_v = (g_vt - vt * (vt * g_vt).sum(axis=2, keepdims=True)) / r[:, :, None]
    scatter = np.zeros((len(vt), m, n))
    scatter[keep[live]] = (beta * g_v).transpose(0, 2, 1).ravel()
    grads[:, live, :] += scatter.transpose(2, 0, 1)

    value = float(np.mean(alpha * h_vals + beta * log_ed))
    return value, grads / b, clamped


# ---------------------------------------------------------------------------
# reports and the loop


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    member_terms: tuple  # one dict per member
    nat_acc: float
    rob_acc: float


@dataclass(frozen=True)
class TrainReport:
    method: str
    mode: str
    lambda_pm: float
    lambda_dm: float
    seed: int
    member_seeds: tuple
    attack: AttackSpec
    epochs: tuple  # of EpochStats
    ensemble: Ensemble
    adp_clamped: int = 0


CSV_COLUMNS = ("epoch", "member", "clean_ce", "dpo_ce", "cpo_ce", "do_h", "nat_acc", "rob_acc")


def save_report_csv(report, path, preamble=""):
    """Per-epoch, per-member rows of CSV_COLUMNS."""
    rows = (
        [str(ep.epoch), str(i)] + [repr(float(v)) for v in values]
        for ep in report.epochs
        for i, terms in enumerate(ep.member_terms)
        for values in [[terms[c] for c in CSV_COLUMNS[2:6]] + [ep.nat_acc, ep.rob_acc]]
    )
    write_table(path, CSV_COLUMNS, rows, preamble)


def report_to_dict(report):
    return {
        "method": report.method,
        "mode": report.mode,
        "lambda_pm": report.lambda_pm,
        "lambda_dm": report.lambda_dm,
        "seed": report.seed,
        "member_seeds": list(report.member_seeds),
        "attack": vars(report.attack) | {},
        "adp_clamped": report.adp_clamped,
        "epochs": [
            {
                "epoch": ep.epoch,
                "members": [dict(t) for t in ep.member_terms],
                "nat_acc": ep.nat_acc,
                "rob_acc": ep.rob_acc,
            }
            for ep in report.epochs
        ],
    }


def train(ens_init, dataset, config, method):
    """Run the training loop; returns a TrainReport with the final ensemble.

    Per batch, adversarial batches are generated against the current
    members, with fresh attack seeds derived from the master seed: one
    attack per member for ADV/CCE (the attacks run in lockstep), one
    against the averaged prediction for ADV_EN/ADP. Only the attacks'
    steps run (adversarial_batches): no final check, whose success mask
    and loss trace training would not read. The members are held
    as one nn.ModelStack for the whole run; each epoch's evaluation attacks
    that stack as one ensemble. Every member's gradient comes from one
    stacked step against the same parameter snapshot, and one Adam step
    updates them all.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")
    if dataset.num_classes != ens_init.num_classes:
        raise ConfigError(
            f"dataset has {dataset.num_classes} classes, ensemble {ens_init.num_classes}"
        )
    if dataset.dim != ens_init.input_dim:
        raise ConfigError(f"dataset dim {dataset.dim} != model input {ens_init.input_dim}")
    n = len(ens_init)
    if method in ("CCE", "ADP") and n < 2:
        raise ConfigError(f"{method} needs at least 2 members")
    if method == "ADP" and n > dataset.num_classes - 1:
        raise ConfigError(
            f"ADP needs members <= num_classes - 1, got {n} members for {dataset.num_classes} "
            "classes: every Gram matrix of its diversity term would be singular"
        )
    seeds = tuple(m.seed for m in ens_init.members)
    stack = ens_init.stack
    state = nn.adam_init(stack, lr=config.lr)
    clamped = 0
    stats = []
    for epoch in range(config.epochs):
        sums = [dict() for _ in range(n)]
        seen = 0
        shuffle_seed = derive_seed(config.seed, _TAG_SHUFFLE, epoch)
        stage = "batch 0"
        try:
            for b_idx, (bx, by) in enumerate(
                data.batches(dataset, config.batch_size, seed=shuffle_seed)
            ):
                stage = f"batch {b_idx}"
                if method in ("ADV", "CCE"):  # ADV: each member alone, no crossing terms
                    attack_seeds = [derive_seed(config.seed, _TAG_ATTACK, epoch, b_idx, i) for i in range(n)]
                    adv_set = adversarial_batches(Heads.each(stack), bx, by, config.attack, attack_seeds)
                    terms, grads = _collab_step(
                        stack, bx, by, adv_set, config.lambda_pm, config.lambda_dm,
                        crossing=method == "CCE",
                    )
                else:
                    seed = derive_seed(config.seed, _TAG_ENS_ATTACK, epoch, b_idx)
                    adv_en = adversarial_batches(Heads.whole(stack), bx, by, config.attack, [seed])[0]
                    adp = (config.alpha, config.beta) if method == "ADP" else None
                    total, parts, grads, flag = _ensemble_adv_step(stack, bx, by, adv_en, adp)
                    clamped += flag
                    terms = [(total, parts)] * n

                for i, (total, parts) in enumerate(terms):
                    if not np.isfinite(total):
                        raise DivergenceError(f"non-finite loss for member {i}")
                    for key, v in parts.items():
                        sums[i][key] = sums[i].get(key, 0.0) + v * len(by)
                seen += len(by)
                stack, state = nn.adam_step(stack, grads, state)

            stage = "evaluation"
            nat_acc = 100.0 * float(np.mean(predict_labels(stack, dataset.inputs) == dataset.labels))
            # the attack's own final prediction tells which examples it defeated
            eval_spec = replace(config.attack, seed=derive_seed(config.seed, _TAG_EVAL, epoch))
            # only the mask is kept: the result is not held through the next epoch
            defeated = run_attack(stack, dataset.inputs, dataset.labels, eval_spec).success_mask
            rob_acc = 100.0 * float(np.mean(~defeated))
        except (DomainError, DivergenceError) as e:
            # inputs were validated up front, so a non-finite value here is
            # one that training itself produced
            raise DivergenceError(f"epoch {epoch} {stage}: {e}") from e
        member_terms = tuple(
            {k: v / seen for k, v in sums[i].items()} for i in range(n)
        )
        stats.append(
            EpochStats(epoch=epoch, member_terms=member_terms, nat_acc=nat_acc, rob_acc=rob_acc)
        )

    return TrainReport(
        method=method,
        mode=config.mode,
        lambda_pm=float(config.lambda_pm),
        lambda_dm=float(config.lambda_dm),
        seed=config.seed,
        member_seeds=seeds,
        attack=config.attack,
        epochs=tuple(stats),
        ensemble=stack_ensemble(stack, seeds),
        adp_clamped=clamped,
    )
