"""Adversarial training losses and the training loop.

Four methods share one loop and two training steps (_collab_step for
ADV/CCE, _ensemble_adv_step for ADV_EN/ADP), each stacked over the
members' (member, batch) slices. The loop holds the members as a
MemberStack for the whole run: the attacks and the steps take it as it
is, each step returns every run's stacked parameter gradients, and Adam
steps each run of same-shaped members at once. Each epoch's evaluation
attacks the stack as one ensemble; Models are made from it only for the
report.

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
from .atomic import atomic_write
from .attacks import AttackSpec, run_attack, run_member_attacks
from .ensembles import Ensemble, averaged_ce_backprop, ensemble_predict, predict_labels, stack_members
from .errors import ConfigError, DivergenceError, DomainError

METHODS = ("ADV", "ADV_EN", "ADP", "CCE")
MODES = {"RM": (1.0, 1.0), "DM": (0.0, 5.0), "Base": (0.0, 0.0)}
ED_FLOOR = 1e-30

# seed-lineage tags (arbitrary fixed ints; only distinctness matters)
_TAG_SHUFFLE, _TAG_EVAL, _TAG_ATTACK, _TAG_ENS_ATTACK = 1, 2, 3, 4


@dataclass(frozen=True)
class TrainConfig:
    """Training hyper-parameters.

    mode is one of RM / DM / Base / custom. The named modes pin
    (lambda_pm, lambda_dm) to (1,1) / (0,5) / (0,0); passing lambdas that
    disagree with a named mode is a configuration error. alpha and beta
    only matter for the ADP method.
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
        if self.mode not in MODES and self.mode != "custom":
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.mode in MODES:
            pm, dm = MODES[self.mode]
            if self.lambda_pm is None:
                object.__setattr__(self, "lambda_pm", pm)
            if self.lambda_dm is None:
                object.__setattr__(self, "lambda_dm", dm)
            if (self.lambda_pm, self.lambda_dm) != (pm, dm):
                raise ConfigError(
                    f"mode {self.mode} requires lambdas {(pm, dm)}, got "
                    f"{(self.lambda_pm, self.lambda_dm)}"
                )
        else:
            if self.lambda_pm is None or self.lambda_dm is None:
                raise ConfigError("custom mode needs explicit lambda_pm and lambda_dm")
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
# loss pieces


def promote_loss(f, x_a, y):
    """CE of f on a batch: the promote objective (push toward the label)."""
    return nn.cross_entropy(nn.forward(f, x_a), y)


def demote_loss(f, x_a):
    """Mean prediction entropy: the demote objective (to be maximized, so
    it enters training losses with a negative sign)."""
    return float(np.mean(nn.entropy(nn.forward(f, x_a))))


def soft_indicator(f, x_a, y):
    """p(true label) per example, returned as plain values.

    The caller must treat these as constants (no gradient flows through
    them); the training loop realizes that by feeding them to the backward
    pass as fixed per-example weights.
    """
    return nn.label_probs(nn.forward(f, x_a), y)


def member_collab_loss(n, ens, x, y, adv_set, lambda_pm, lambda_dm, indicators=None):
    """Value of the collaborative loss for member n. Returns (total, parts).

    adv_set[i] is the batch crafted against member i. parts carries the
    four decomposition terms plus the mean gate values cpo_gate / do_gate.
    indicators optionally overrides the soft gates (one array per other
    member, keyed by member index): a testing seam that makes the
    gates-as-constants contract checkable by finite differences.
    """
    members = ens.members
    if len(members) < 2:
        raise ConfigError("collaborative loss needs at least 2 members")
    if len(adv_set) != len(members):
        raise ConfigError(f"adv_set has {len(adv_set)} batches for {len(members)} members")
    f = members[n]
    share = 1.0 / (len(members) - 1)
    clean_ce = promote_loss(f, x, y)
    dpo_ce = promote_loss(f, adv_set[n], y)
    cpo_ce = 0.0
    do_h = 0.0
    gate_sum = 0.0
    for i in range(len(members)):
        if i == n:
            continue
        probs = nn.forward(f, adv_set[i])
        gate = indicators[i] if indicators is not None else nn.label_probs(probs, y)
        ce = nn.cross_entropy_per_example(probs, y)
        h = nn.entropy(probs)
        cpo_ce += share * lambda_pm * float(np.mean(gate * ce))
        do_h += share * lambda_dm * float(np.mean((1.0 - gate) * h))
        gate_sum += share * float(np.mean(gate))
    total = clean_ce + dpo_ce + cpo_ce - do_h
    parts = {
        "clean_ce": clean_ce,
        "dpo_ce": dpo_ce,
        "cpo_ce": cpo_ce,
        "do_h": do_h,
        "cpo_gate": gate_sum,
        "do_gate": 1.0 - gate_sum,
    }
    return total, parts


def _sum_slices(slices):
    """The stacked parameter gradients of one run: its slices' gradients,
    each (gw, gb) per layer, added left to right."""
    total = slices[0]
    for more in slices[1:]:
        total = [(gw + dw, gb + db) for (gw, gb), (dw, db) in zip(total, more)]
    return total


def _per_member(run_grads):
    """Each member's (gw, gb) list, in member order, cut from the stacked
    gradients of every run."""
    return [
        [(gw[k], gb[k, 0]) for gw, gb in grads] for grads in run_grads for k in range(len(grads[0][0]))
    ]


def _collab_step(stack, x, y, adv_set, lambda_pm, lambda_dm, crossing=True, gates=None):
    """The collaborative step of the members of a MemberStack: CE on the
    clean batch and on each member's own adversarial batch, plus, with
    crossing, the gated promote/demote terms on every other member's
    batch. Returns ((total, parts) of every member, each run's stacked
    parameter gradients). Without crossing (ADV) parts holds only the four
    loss terms.

    Each run of same-shaped members takes one nn.backward over all its
    (member, batch) slices, the slices' weights taken from the run's
    stacked weights: per member, the clean batch, its own batch and, with
    crossing, every other member's batch with the index ascending. A
    direct slice carries CE weight 1 and entropy weight 0, which leaves its
    bits alone (x + 0.0 = x). A crossing slice's gate comes from the pass's
    own probabilities and enters as a constant per-example weight, and its
    reported terms reuse the pass's CE and entropy rows. A member's
    gradient and terms are summed clean + own, then the crossings with the
    batch index ascending. gates optionally overrides the soft gates,
    gates[n][i] for member n on batch i: a testing seam for the
    gates-as-constants contract.
    """
    n, b = len(stack), len(x)
    y = nn.label_index(y, b, stack.num_classes)
    others = [[i for i in range(n) if i != k] if crossing else [] for k in range(n)]
    p = len(others[0])
    share = 1.0 / p if p else 0.0
    s = 2 + p  # slices per member
    terms, run_grads = [], []
    for run, lo in zip(stack.runs, stack.bounds):
        ks = range(lo, lo + run.size)
        used = []  # the crossing gates of the pass, (members, p, B)

        def loss_terms(probs):
            gate = nn.label_probs(probs, y).reshape(run.size, s, b)[:, 2:]
            if gates is not None:
                gate = np.array([
                    [gates[k][i] if k in gates else g for i, g in zip(others[k], row)]
                    for k, row in zip(ks, gate)
                ])
            used.append(gate)
            ce_w, h_w = np.ones((run.size, s, b)), np.zeros((run.size, s, b))
            ce_w[:, 2:] = share * lambda_pm * gate
            h_w[:, 2:] = -share * lambda_dm * (1.0 - gate)
            return [
                nn.LossTerm(kind="ce", labels=y, weight=ce_w.reshape(-1, b)),
                nn.LossTerm(kind="entropy", weight=h_w.reshape(-1, b)),
            ]

        res = nn.backward(
            run.take([k - lo for k in ks for _ in range(s)]),
            np.stack([a for k in ks for a in (x, adv_set[k], *(adv_set[i] for i in others[k]))]),
            loss_terms if p else [nn.LossTerm(kind="ce", labels=y)],
        )
        slice_grads = [[(gw[j::s], gb[j::s]) for gw, gb in res.param_grads] for j in range(s)]
        sums = np.zeros((3, run.size))  # cpo_ce, do_h and the mean gate, over the crossings
        if p:
            gate = used[0]
            ce, h = (v.reshape(run.size, s, b)[:, 2:] for v in res.rows)
            per_pair = np.stack([
                share * lambda_pm * (gate * ce).mean(axis=-1),
                share * lambda_dm * ((1.0 - gate) * h).mean(axis=-1),
                share * gate.mean(axis=-1),
            ])
            for j in range(p):
                sums += per_pair[..., j]
        rows = zip(res.loss[0::s].tolist(), res.loss[1::s].tolist(), *sums.tolist())
        for clean_ce, dpo_ce, cpo_ce, do_h, gate_sum in rows:
            parts = {"clean_ce": clean_ce, "dpo_ce": dpo_ce, "cpo_ce": cpo_ce, "do_h": do_h}
            if p:
                parts.update(cpo_gate=gate_sum, do_gate=1.0 - gate_sum)
            terms.append((clean_ce + dpo_ce + cpo_ce - do_h, parts))
        run_grads.append(_sum_slices(slice_grads))
    return terms, run_grads


def _member_collab_grads(n, members, x, y, adv_set, lambda_pm, lambda_dm, indicators=None):
    """(total, parts, param_grads) of member n in the collaborative step;
    indicators optionally overrides its gates, one array per other member
    keyed by member index."""
    gates = None if indicators is None else {n: indicators}
    terms, run_grads = _collab_step(
        stack_members(tuple(members)), x, y, adv_set, lambda_pm, lambda_dm, gates=gates
    )
    return (*terms[n], _per_member(run_grads)[n])


def ensemble_adv_loss(ens, x, y, x_a_en):
    """Unified-model adversarial training loss: CE of the averaged
    probability on the clean and on the ensemble-attacked batch."""
    clean = nn.cross_entropy(ensemble_predict(ens, x), y)
    adv = nn.cross_entropy(ensemble_predict(ens, x_a_en), y)
    return clean + adv, {"clean_ce": clean, "dpo_ce": adv, "cpo_ce": 0.0, "do_h": 0.0}


def _ensemble_adv_step(stack, x, y, x_a_en, adp=None):
    """ADV_EN, or ADP with adp = (alpha, beta), for the members of a
    MemberStack: CE of the averaged probability on the clean and on the
    attacked batch, for ADP minus the regularizer at both batches. The
    regularizer reuses the CE terms' probabilities and caches, and its
    (N, B, M) gradient goes back through one backprop per run and batch.
    Returns (total, parts, each run's stacked param grads, clamped count)."""
    batches = [averaged_ce_backprop(stack, b, y) for b in (x, x_a_en)]
    clean, adv = (float(np.mean(values)) for values, *_ in batches)
    total, parts = clean + adv, {"clean_ce": clean, "dpo_ce": adv, "cpo_ce": 0.0, "do_h": 0.0}
    slices = [list(pair) for pair in zip(batches[0][3], batches[1][3])]  # per run: clean, adv
    clamped = 0
    for tag, (_, probs, caches, _) in zip(("clean", "adv"), batches if adp else ()):
        value, g_probs, flag = _diversity_value_and_grads(probs, y, *adp)
        clamped += flag
        parts[f"adp_reg_{tag}"] = value
        total -= value
        for run_slices, run, c, g in zip(slices, stack.runs, caches, stack.per_run(-g_probs)):
            run_slices.append(nn.backprop(run, c, g)[0])
    return total, parts, [_sum_slices(run_slices) for run_slices in slices], clamped


def _ensemble_adv_grads(members, x, y, x_a_en):
    """(total, parts, per-member param grads) of the ADV_EN loss."""
    total, parts, run_grads, _ = _ensemble_adv_step(stack_members(tuple(members)), x, y, x_a_en)
    return total, parts, _per_member(run_grads)


# ---------------------------------------------------------------------------
# diversity regularizer (ADP baseline)


def diversity_regularizer(member_probs, y, alpha, beta):
    """alpha*H(mean probs) + beta*log(ensemble diversity), batch mean.

    member_probs has shape (N, M) for one example or (N, B, M) for a
    batch; y is the true label (scalar or per-example). The ensemble
    diversity is the Gram determinant of the L2-normalized member
    probability rows with the true-label entry removed; determinants
    below 1e-30 are clamped before the log. Returns (value,
    clamped_count).
    """
    value, _, clamped = _diversity_value_and_grads(member_probs, y, alpha, beta)
    return value, clamped


def _diversity_value_and_grads(member_probs, y, alpha, beta):
    probs = np.asarray(member_probs, dtype=np.float64)
    single = probs.ndim == 2
    if single:
        probs = probs[:, None, :]
    n, b, m = probs.shape
    if n < 2:
        raise ConfigError("diversity regularizer needs at least 2 members")
    y = np.asarray(y)
    if y.ndim == 0:
        y = np.full(b, int(y))
    y = y.astype(np.int64)

    grads = np.zeros_like(probs)
    mean_p = probs.mean(axis=0)
    h_vals = nn.entropy_rows(mean_p)
    # d(alpha*H(mean))/dp^n = alpha/N * -(log mean_p + 1) where mean_p > 0
    g_h = np.where(mean_p > 0.0, -(np.log(np.maximum(mean_p, nn.LOG_FLOOR)) + 1.0), 0.0)
    grads += alpha * g_h[None, :, :] / n

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

    values = alpha * h_vals + beta * log_ed
    # batch-mean reduction
    value = float(np.mean(values))
    grads = grads / b
    if single:
        grads = grads[:, 0, :]
    return value, grads, clamped


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


def report_rows(report):
    """Per-epoch, per-member CSV rows matching CSV_COLUMNS."""
    rows = []
    for ep in report.epochs:
        for i, terms in enumerate(ep.member_terms):
            rows.append(
                (
                    ep.epoch,
                    i,
                    terms["clean_ce"],
                    terms["dpo_ce"],
                    terms["cpo_ce"],
                    terms["do_h"],
                    ep.nat_acc,
                    ep.rob_acc,
                )
            )
    return rows


def save_report_csv(report, path, preamble=""):
    with atomic_write(path, newline="") as f:
        if preamble:
            f.write(preamble)
        f.write(",".join(CSV_COLUMNS) + "\n")
        for row in report_rows(report):
            cells = [str(row[0]), str(row[1])] + [repr(float(v)) for v in row[2:]]
            f.write(",".join(cells) + "\n")


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
    against the averaged prediction for ADV_EN/ADP. The members are held
    as a MemberStack for the whole run; each epoch's evaluation attacks
    that stack as one ensemble. Every member's gradient comes from one
    stacked step against the same parameter snapshot, and Adam steps each
    run of same-shaped members in one call.
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
    states = [nn.adam_init(run, lr=config.lr) for run in stack.runs]
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
                    specs = [
                        replace(config.attack, seed=derive_seed(config.seed, _TAG_ATTACK, epoch, b_idx, i))
                        for i in range(n)
                    ]
                    adv_set = [r.adversarial for r in run_member_attacks(stack, bx, by, specs)]
                    terms, run_grads = _collab_step(
                        stack, bx, by, adv_set, config.lambda_pm, config.lambda_dm,
                        crossing=method == "CCE",
                    )
                else:
                    seed = derive_seed(config.seed, _TAG_ENS_ATTACK, epoch, b_idx)
                    adv_en = run_attack(stack, bx, by, replace(config.attack, seed=seed)).adversarial
                    adp = (config.alpha, config.beta) if method == "ADP" else None
                    total, parts, run_grads, flag = _ensemble_adv_step(stack, bx, by, adv_en, adp)
                    clamped += flag
                    terms = [(total, parts)] * n

                for i, (total, parts) in enumerate(terms):
                    if not np.isfinite(total):
                        raise DivergenceError(f"non-finite loss for member {i}")
                    for key, v in parts.items():
                        sums[i][key] = sums[i].get(key, 0.0) + v * len(by)
                seen += len(by)
                steps = [nn.adam_step(run, g, st) for run, g, st in zip(stack.runs, run_grads, states)]
                stack = replace(stack, runs=tuple(run for run, _ in steps))
                states = [st for _, st in steps]

            stage = "evaluation"
            nat_acc = 100.0 * float(np.mean(predict_labels(stack, dataset.inputs) == dataset.labels))
            # the attack's own final prediction tells which examples it defeated
            eval_spec = replace(config.attack, seed=derive_seed(config.seed, _TAG_EVAL, epoch))
            adv_eval = run_attack(stack, dataset.inputs, dataset.labels, eval_spec)
            rob_acc = 100.0 * float(np.mean(~adv_eval.success_mask))
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
        ensemble=stack.ensemble(seeds),
        adp_clamped=clamped,
    )
