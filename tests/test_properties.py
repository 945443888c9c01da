"""Property tests: the batched ADP regulariser against its per-example
definition, a Model as an ensemble of one, the stacked attack core against
lone attacks, per-member backprops and a one-model-at-a-time attack oracle,
the stacked training step, backward and Adam against a per-model oracle
kept in this file, and the invariants of every attack family, of IDX
parsing and of config normalisation."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advens import attacks, cli, data, nn, training
from advens.attacks import AttackSpec, multi_targeted, run_attack, run_member_attacks, targeted
from advens.ensembles import Ensemble, ce_values_and_input_grad
from advens.errors import ConsistencyError, DomainError, FormatError, ShapeError, TruncatedFileError

PROPERTY = settings(max_examples=60, deadline=None, database=None)


def reference_diversity(member_probs, y, alpha, beta):
    """The regulariser one example at a time, with the three exits of its
    definition: a zero row, a determinant under the floor, a singular solve."""
    probs = np.asarray(member_probs, dtype=np.float64)
    single = probs.ndim == 2
    if single:
        probs = probs[:, None, :]
    n, b, m = probs.shape
    y = np.asarray(y)
    if y.ndim == 0:
        y = np.full(b, int(y))
    y = y.astype(np.int64)
    grads = np.zeros_like(probs)
    mean_p = probs.mean(axis=0)
    plogp = np.where(mean_p > 0.0, mean_p * np.log(np.maximum(mean_p, nn.LOG_FLOOR)), 0.0)
    h_vals = -plogp.sum(axis=-1)
    g_h = np.where(mean_p > 0.0, -(np.log(np.maximum(mean_p, nn.LOG_FLOOR)) + 1.0), 0.0)
    grads += alpha * g_h[None, :, :] / n
    keep = np.ones(m, dtype=bool)
    log_ed = np.zeros(b)
    clamped = 0
    for e in range(b):
        keep[:] = True
        keep[y[e]] = False
        v = probs[:, e, :][:, keep]
        r = np.sqrt((v * v).sum(axis=1))
        if np.any(r == 0.0):
            log_ed[e] = np.log(training.ED_FLOOR)
            clamped += 1
            continue
        vt = v / r[:, None]
        gram = vt @ vt.T
        det = float(np.linalg.det(gram))
        if det < training.ED_FLOOR:
            log_ed[e] = np.log(training.ED_FLOOR)
            clamped += 1
            continue
        log_ed[e] = np.log(det)
        try:
            g_vt = 2.0 * np.linalg.solve(gram, vt)
        except np.linalg.LinAlgError:
            clamped += 1
            continue
        g_v = (g_vt - vt * (vt * g_vt).sum(axis=1, keepdims=True)) / r[:, None]
        scatter = np.zeros((n, m))
        scatter[:, keep] = beta * g_v
        grads[:, e, :] += scatter
    value = float(np.mean(alpha * h_vals + beta * log_ed))
    grads = grads / b
    if single:
        grads = grads[:, 0, :]
    return value, grads, clamped


def same_bits(a, b):
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


@PROPERTY
@given(
    n=st.integers(2, 4),
    m=st.integers(2, 7),
    b=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
    zero_share=st.sampled_from([0.0, 0.2, 0.6]),
    tie=st.sampled_from([None, 0.0, 1e-9, 1e-5]),
    alpha=st.sampled_from([0.0, 0.5, 2.0]),
    beta=st.sampled_from([0.0, 0.5, 1.5]),
)
def test_batched_regularizer_equals_per_example_reference(
    n, m, b, seed, zero_share, tie, alpha, beta
):
    rng = np.random.default_rng(seed)
    probs = nn.softmax(rng.normal(0.0, 3.0, size=(n, b, m)))
    y = rng.integers(0, m, size=b)
    # a one-hot row on the true label leaves a zero row once that entry goes
    zero = rng.random((n, b)) < zero_share
    probs[zero] = np.eye(m)[np.broadcast_to(y, (n, b))[zero]]
    if tie is not None:
        # member 1 within tie of member 0: equal rows make the Gram matrix
        # exactly singular, near-equal ones put its det near the floor
        probs[1] = (1.0 - tie) * probs[0] + tie * probs[1]
    for args in ((probs, y), (probs[:, 0, :], int(y[0]))):
        got = training._diversity_value_and_grads(*args, alpha, beta)
        want = reference_diversity(*args, alpha, beta)
        assert same_bits(got[0], want[0])
        assert same_bits(got[1], want[1])
        assert got[2] == want[2]


@PROPERTY
@given(
    d=st.integers(1, 6),
    hidden=st.lists(st.integers(1, 12), max_size=2),
    classes=st.integers(2, 5),
    b=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_model_is_an_ensemble_of_one(d, hidden, classes, b, seed):
    rng = np.random.default_rng(seed)
    model = nn.init_model(d, hidden, classes, seed=seed % 1000)
    x = rng.random((b, d))
    y = rng.integers(0, classes, size=b)
    values, grad = ce_values_and_input_grad(model, x, y)
    values_1, grad_1 = ce_values_and_input_grad(Ensemble(members=(model,)), x, y)
    assert same_bits(values, values_1)
    assert same_bits(grad, grad_1)


def mixed_members(d, widths, classes, seed):
    """One member per entry of widths (a tuple of hidden widths, so depth
    varies too), seeded apart."""
    return tuple(
        nn.init_model(d, list(hidden), classes, seed=seed + i) for i, hidden in enumerate(widths)
    )


WIDTHS = st.lists(st.sampled_from([(), (3,), (5,), (5, 4)]), min_size=1, max_size=3)


@PROPERTY
@given(
    family=st.sampled_from(["pgd", "bim", "mim", "spsa"]),
    random_start=st.booleans(),
    widths=WIDTHS,
    classes=st.integers(2, 4),
    d=st.integers(1, 5),
    b=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_member_attacks_equal_lone_attacks(family, random_start, widths, classes, d, b, seed):
    rng = np.random.default_rng(seed)
    members = mixed_members(d, widths, classes, seed % 1000)
    x = rng.random((b, d))
    y = rng.integers(0, classes, size=b)
    base = AttackSpec(
        family=family, steps=3, epsilon=0.1, eta=0.04, spsa_samples=2, random_start=random_start
    )
    specs = [AttackSpec(**(vars(base) | {"seed": int(s)})) for s in rng.integers(0, 2**31, len(members))]
    together = run_member_attacks(members, x, y, specs)
    assert len(together) == len(members)
    for got, member, spec in zip(together, members, specs):
        want = run_attack(member, x, y, spec)
        assert same_bits(got.adversarial, want.adversarial)
        assert np.array_equal(got.success_mask, want.success_mask)
        assert got.queries == want.queries
        assert same_bits(got.loss_trace, want.loss_trace)
        assert got.spec == spec


def reference_input_grads(members, x, y):
    """Per-member forward_cached and backprop of the CE of the averaged
    probability rows, summed in member order: the unstacked definition."""
    caches = [nn.forward_cached(m, x)[1] for m in members]
    probs = np.mean([c.probs for c in caches], axis=0)
    values = nn.cross_entropy_per_example(probs, y)
    b = len(y)
    p_y = probs[np.arange(b), y]
    g_probs = np.zeros(probs.shape)
    g_probs[np.arange(b), y] = np.where(
        p_y > nn.LOG_FLOOR, -1.0 / (b * np.maximum(p_y, nn.LOG_FLOOR)), 0.0
    )
    if len(members) > 1:
        g_probs = g_probs / len(members)
    grads = [nn.backprop(m, c, g_probs)[1] for m, c in zip(members, caches)]
    grad = grads[0]
    for g in grads[1:]:
        grad += g
    return values, grad


@PROPERTY
@given(
    widths=WIDTHS,
    classes=st.integers(2, 5),
    d=st.integers(1, 6),
    b=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_input_grad_equals_per_member_backprop(widths, classes, d, b, seed):
    rng = np.random.default_rng(seed)
    members = mixed_members(d, widths, classes, seed % 1000)
    x = rng.random((b, d))
    y = rng.integers(0, classes, size=b)
    values, grad = ce_values_and_input_grad(Ensemble(members=members), x, y)
    want_values, want_grad = reference_input_grads(members, x, y)
    assert same_bits(values, want_values)
    assert same_bits(grad, want_grad)
    # the (K, B, d) form: slice k against member k alone
    xs = rng.random((len(members), b, d))
    values, grad = ce_values_and_input_grad(Ensemble(members=members), xs, y)
    for k, member in enumerate(members):
        want_values, want_grad = reference_input_grads((member,), xs[k], y)
        assert same_bits(values[k], want_values)
        assert same_bits(grad[k], want_grad)


# ---------------------------------------------------------------------------
# the stacked training step against the per-model oracle


def oracle_forward(model, x):
    """One model on one batch: (probs, each layer's input, each layer's
    pre-activation)."""
    a, inputs, preacts = x, [], []
    for layer in model.layers:
        z = a @ layer.w + layer.b
        inputs.append(a)
        preacts.append(z)
        a = np.maximum(z, 0.0) if layer.act == "relu" else z
    e = np.exp(a - a.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True), inputs, preacts


def oracle_backprop(model, cache, g_probs):
    """((gw, gb) per layer, dLoss/dinputs) of one model on one batch."""
    probs, inputs, preacts = cache
    g = probs * (g_probs - (g_probs * probs).sum(axis=1, keepdims=True))
    grads = [None] * len(model.layers)
    for i in range(len(model.layers) - 1, -1, -1):
        if model.layers[i].act == "relu":
            g = g * (preacts[i] > 0.0)
        grads[i] = (inputs[i].T @ g, g.sum(axis=0))
        g = g @ model.layers[i].w.T
    return grads, g


def oracle_terms(probs, y, terms):
    """Loss and dLoss/dprobs of (kind, per-example weight) terms on one batch."""
    b = len(y)
    rows = np.arange(b)
    loss, g_probs = 0.0, np.zeros_like(probs)
    for kind, w in terms:
        w = np.broadcast_to(np.asarray(w, dtype=np.float64), (b,))
        if kind == "ce":
            p_y = probs[rows, y]
            loss += float(np.mean(w * -np.log(np.maximum(p_y, nn.LOG_FLOOR))))
            g_probs[rows, y] += np.where(p_y > nn.LOG_FLOOR, -w / (b * np.maximum(p_y, nn.LOG_FLOOR)), 0.0)
        else:
            plogp = np.where(probs > 0.0, probs * np.log(np.maximum(probs, nn.LOG_FLOOR)), 0.0)
            loss += float(np.mean(w * -plogp.sum(axis=1)))
            g = np.where(probs > 0.0, -(np.log(np.maximum(probs, nn.LOG_FLOOR)) + 1.0), 0.0)
            g_probs += (w / b)[:, None] * g
    return loss, g_probs


def oracle_add(a, b):
    return [(gw + dw, gb + db) for (gw, gb), (dw, db) in zip(a, b)]


def oracle_collab(n, members, x, y, adv_set, lambda_pm, lambda_dm, indicators=None):
    """Member n's CCE step one model and one batch at a time: clean +
    own, then the crossings with i ascending. One member is ADV."""
    f = members[n]

    def direct(batch):
        cache = oracle_forward(f, batch)
        loss, g_probs = oracle_terms(cache[0], y, [("ce", 1.0)])
        return loss, oracle_backprop(f, cache, g_probs)[0]

    (clean, g_clean), (own, g_own) = direct(x), direct(adv_set[n])
    grads = oracle_add(g_clean, g_own)
    others = [i for i in range(len(members)) if i != n]
    cpo_ce = do_h = gate_sum = 0.0
    for i in others:
        share = 1.0 / len(others)
        cache = oracle_forward(f, adv_set[i])
        probs = cache[0]
        gate = indicators[i] if indicators is not None else probs[np.arange(len(y)), y]
        terms = [("ce", share * lambda_pm * gate), ("entropy", -share * lambda_dm * (1.0 - gate))]
        grads = oracle_add(grads, oracle_backprop(f, cache, oracle_terms(probs, y, terms)[1])[0])
        cpo_ce += share * lambda_pm * float(np.mean(gate * nn.cross_entropy_per_example(probs, y)))
        do_h += share * lambda_dm * float(np.mean((1.0 - gate) * nn.entropy(probs)))
        gate_sum += share * float(np.mean(gate))
    parts = {"clean_ce": clean, "dpo_ce": own, "cpo_ce": cpo_ce, "do_h": do_h}
    if others:
        parts.update(cpo_gate=gate_sum, do_gate=1.0 - gate_sum)
    return clean + own + cpo_ce - do_h, parts, grads


def oracle_averaged_ce(members, x, y):
    caches = [oracle_forward(m, x) for m in members]
    probs = caches[0][0] if len(members) == 1 else np.mean([c[0] for c in caches], axis=0)
    values, g_probs = nn.ce_values_and_prob_grad(probs, y)
    if len(members) > 1:
        g_probs = g_probs / len(members)
    return values, caches, [oracle_backprop(m, c, g_probs)[0] for m, c in zip(members, caches)]


def oracle_ensemble_adv(members, x, y, x_a, adp=None):
    """ADV_EN (adp None) or ADP (adp = (alpha, beta)) one member at a time."""
    (v1, c1, r1), (v2, c2, r2) = oracle_averaged_ce(members, x, y), oracle_averaged_ce(members, x_a, y)
    clean, adv = float(np.mean(v1)), float(np.mean(v2))
    total, parts = clean + adv, {"clean_ce": clean, "dpo_ce": adv, "cpo_ce": 0.0, "do_h": 0.0}
    grads = [oracle_add(a, b) for a, b in zip(r1, r2)]
    for tag, caches in zip(("clean", "adv"), (c1, c2)) if adp else ():
        value, g_probs, _ = training._diversity_value_and_grads(np.stack([c[0] for c in caches]), y, *adp)
        parts[f"adp_reg_{tag}"] = value
        total -= value
        for i, (m, c) in enumerate(zip(members, caches)):
            grads[i] = oracle_add(grads[i], oracle_backprop(m, c, -g_probs[i])[0])
    return total, parts, grads


def same_step(got, want):
    """(total, parts, grads) of one member, bit for bit."""
    assert same_bits(got[0], want[0])
    assert list(got[1]) == list(want[1])
    assert all(same_bits(got[1][k], want[1][k]) for k in want[1])
    assert len(got[2]) == len(want[2])
    for (gw, gb), (ow, ob) in zip(got[2], want[2]):
        assert gw.shape == ow.shape and gb.shape == ob.shape
        assert same_bits(gw, ow) and same_bits(gb, ob)


@PROPERTY
@given(
    method=st.sampled_from(["CCE", "ADV", "ADV_EN", "ADP"]),
    widths=st.lists(st.sampled_from([(), (3,), (5,), (5, 4)]), min_size=1, max_size=4),
    lambdas=st.sampled_from([(1.0, 1.0), (0.0, 5.0), (0.0, 0.0), (0.7, 2.5)]),
    with_indicators=st.booleans(),
    classes=st.integers(2, 5),
    d=st.integers(1, 5),
    b=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_training_step_equals_per_model_oracle(
    method, widths, lambdas, with_indicators, classes, d, b, seed
):
    rng = np.random.default_rng(seed)
    if method in ("CCE", "ADP") and len(widths) < 2:
        widths = widths + [(4,)]
    if method == "ADP":  # the regulariser needs members <= classes - 1
        classes = max(classes, len(widths) + 1)
    members = mixed_members(d, widths, classes, seed % 1000)
    x = rng.random((b, d))
    y = rng.integers(0, classes, size=b)
    adv_set = [np.clip(x + rng.uniform(-0.2, 0.2, x.shape), 0.0, 1.0) for _ in members]
    if method in ("CCE", "ADV"):
        n = int(rng.integers(len(members)))
        indicators = {i: rng.random(b) for i in range(len(members)) if i != n}
        if not with_indicators or method == "ADV":
            indicators = None
        terms, run_grads = training._collab_step(
            Ensemble(members=members).stack, x, y, adv_set, *lambdas, crossing=method == "CCE",
            gates=None if indicators is None else {n: indicators},
        )
        got = [(*t, g) for t, g in zip(terms, training._per_member(run_grads), strict=True)]
        assert len(got) == len(members)
        for k, step in enumerate(got):
            if method == "ADV":
                want = oracle_collab(0, members[k : k + 1], x, y, adv_set[k : k + 1], 0.0, 0.0)
            else:
                want = oracle_collab(k, members, x, y, adv_set, *lambdas, indicators if k == n else None)
            same_step(step, want)
        if method == "CCE":  # the Model-level views used by the gradient checks
            same_step(
                training._member_collab_grads(n, members, x, y, adv_set, *lambdas, indicators),
                oracle_collab(n, members, x, y, adv_set, *lambdas, indicators),
            )
    else:
        adp = (0.5 + rng.random(), 0.2 + rng.random()) if method == "ADP" else None
        if adp:
            stack = Ensemble(members=members).stack
            total, parts, run_grads, _ = training._ensemble_adv_step(stack, x, y, adv_set[0], adp)
            grads = training._per_member(run_grads)
        else:  # the Model-level view used by the gradient checks
            total, parts, grads = training._ensemble_adv_grads(members, x, y, adv_set[0])
        want_total, want_parts, want_grads = oracle_ensemble_adv(members, x, y, adv_set[0], adp)
        for g, want in zip(grads, want_grads, strict=True):
            same_step((total, parts, g), (want_total, want_parts, want))


@PROPERTY
@given(
    hidden=st.sampled_from([(), (3,), (5, 4)]),
    k=st.integers(1, 4),
    shared=st.booleans(),
    classes=st.integers(2, 5),
    d=st.integers(1, 5),
    b=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
)
def test_backward_of_a_stack_equals_each_models_own(hidden, k, shared, classes, d, b, seed):
    # a Model and each slice of a ModelStack against the per-model oracle:
    # loss, parameter and input gradients, bit for bit
    rng = np.random.default_rng(seed)
    models = [nn.init_model(d, list(hidden), classes, seed=seed % 1000 + i) for i in range(k)]
    x = rng.random((b, d)) if shared else rng.random((k, b, d))
    y = rng.integers(0, classes, size=b)
    weights = rng.random((2, k, b)) * 2.0 - 0.5
    stacked = nn.backward(nn.stack_models(models), x, [
        nn.LossTerm(kind="ce", labels=y, weight=weights[0]),
        nn.LossTerm(kind="entropy", weight=weights[1]),
    ])
    assert stacked.loss.shape == (k,)
    for i, model in enumerate(models):
        xi = x if shared else x[i]
        cache = oracle_forward(model, xi)
        loss, g_probs = oracle_terms(cache[0], y, [("ce", weights[0, i]), ("entropy", weights[1, i])])
        grads, input_grad = oracle_backprop(model, cache, g_probs)
        alone = nn.backward(model, xi, [
            nn.LossTerm(kind="ce", labels=y, weight=weights[0, i]),
            nn.LossTerm(kind="entropy", weight=weights[1, i]),
        ])
        assert isinstance(alone.loss, float)
        assert same_bits(alone.loss, loss) and same_bits(stacked.loss[i], loss)
        assert same_bits(alone.input_grad, input_grad) and same_bits(stacked.input_grad[i], input_grad)
        for (gw, gb), (sw, sb), (ow, ob) in zip(alone.param_grads, stacked.param_grads, grads):
            assert gw.shape == ow.shape and gb.shape == ob.shape
            assert same_bits(gw, ow) and same_bits(gb, ob)
            assert same_bits(sw[i], ow) and same_bits(sb[i, 0], ob)
        assert same_bits(nn.forward(model, xi), cache[0])


# ---------------------------------------------------------------------------
# the attack search against a one-step-at-a-time oracle


def oracle_attack_step(members, x, y):
    """The attack step one model at a time: per-example CE of the averaged
    probability rows (a lone member's own, unaveraged), those rows and the
    input gradient of the batch-mean CE, the members' input gradients
    added in member order."""
    caches = [oracle_forward(m, x) for m in members]
    probs = caches[0][0] if len(members) == 1 else np.mean([c[0] for c in caches], axis=0)
    rows = np.arange(len(y))
    p_y = probs[rows, y]
    floored = np.maximum(p_y, nn.LOG_FLOOR)
    g_probs = np.zeros(probs.shape)
    g_probs[rows, y] = np.where(p_y > nn.LOG_FLOOR, -1.0 / (len(y) * floored), 0.0)
    if len(members) > 1:
        g_probs = g_probs / len(members)
    grad = None
    for m, c in zip(members, caches):
        g = oracle_backprop(m, c, g_probs)[1]
        grad = g if grad is None else grad + g
    return -np.log(floored), probs, grad


def oracle_attack(members, x, y, spec, ascent):
    """One pgd/bim/mim attack on one model or on the averaged prediction,
    a step at a time with fresh arrays: (adversarial, final probs, queries,
    loss trace)."""
    rng = np.random.default_rng(spec.seed)
    eps = spec.epsilon
    if spec.family == "pgd" and spec.random_start:
        start = np.clip(x + rng.uniform(-eps, eps, size=x.shape), 0.0, 1.0)
        cur = np.clip(start, x - eps, x + eps)
    else:
        cur = x.copy()
    g_acc = np.zeros_like(x)
    trace = []
    for _ in range(spec.steps):
        values, _, grad = oracle_attack_step(members, cur, y)
        trace.append(float(np.mean(values)))
        grad = (1.0 if ascent else -1.0) * grad
        if spec.family == "mim":
            norms = np.abs(grad).sum(axis=1, keepdims=True)
            live = norms[:, 0] > 0.0
            g_acc = spec.momentum * g_acc
            g_acc[live] += grad[live] / norms[live]
            grad = g_acc
        stepped = cur + spec.eta * np.sign(grad)
        cur = np.clip(np.clip(stepped, x - eps, x + eps), 0.0, 1.0)
    probs = oracle_attack_step(members, cur, y)[1]
    final = -np.log(np.maximum(probs[np.arange(len(y)), y], nn.LOG_FLOOR))
    return cur, probs, spec.steps + 1, (*trace, float(np.mean(final)))


def oracle_multi_targeted(members, x, y, spec):
    """The multi-targeted protocol over oracle_attack descents:
    (adversarial, success mask, queries)."""
    classes = members[0].num_classes
    b = len(y)
    success = np.zeros(b, dtype=bool)
    chosen, fallback = x.copy(), x.copy()
    fallback_loss = np.full(b, -np.inf)
    per_run = 0
    for t in range(classes):
        valid = y != t
        if not valid.any():
            continue
        adv, probs, per_run, _ = oracle_attack(members, x, np.full(b, t), spec, ascent=False)
        hit = valid & (np.argmax(probs, axis=1) == t)
        chosen[hit & ~success] = adv[hit & ~success]
        success |= hit
        ce_true = -np.log(np.maximum(probs[np.arange(b), y], nn.LOG_FLOOR))
        better = valid & ~success & (ce_true > fallback_loss)
        fallback[better] = adv[better]
        fallback_loss[better] = ce_true[better]
    chosen[~success] = fallback[~success]
    return chosen, success, (classes - 1) * per_run


@PROPERTY
@given(
    family=st.sampled_from(["pgd", "bim", "mim"]),
    random_start=st.booleans(),
    protocol=st.sampled_from(["members", "untargeted", "targeted", "multi_targeted"]),
    ensemble=st.booleans(),
    widths=WIDTHS,
    classes=st.integers(2, 4),
    d=st.integers(1, 5),
    b=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_search_equals_the_one_step_at_a_time_oracle(
    family, random_start, protocol, ensemble, widths, classes, d, b, seed
):
    # ascent (members, untargeted) and descent (targeted, multi_targeted), on
    # lone members, a Model and an Ensemble of mixed widths: adversarial,
    # success mask, queries and loss trace bit for bit
    rng = np.random.default_rng(seed)
    members = mixed_members(d, widths, classes, seed % 1000)
    x = rng.random((b, d))
    y = rng.integers(0, classes, size=b)
    spec = AttackSpec(
        family=family, steps=3, epsilon=0.1, eta=0.04, momentum=0.8,
        random_start=random_start, seed=int(rng.integers(2**31)),
    )
    target, attacked = (Ensemble(members=members), members) if ensemble else (members[0], members[:1])
    if protocol == "multi_targeted":
        got = multi_targeted(target, x, y, spec)
        adv, success, queries = oracle_multi_targeted(attacked, x, y, spec)
        assert same_bits(got.adversarial, adv)
        assert np.array_equal(got.success_mask, success)
        assert got.queries == queries
        return
    if protocol == "members":
        specs = [AttackSpec(**(vars(spec) | {"seed": int(s)})) for s in rng.integers(0, 2**31, len(members))]
        got = run_member_attacks(members, x, y, specs)
        cases = [((m,), s, y, True) for m, s in zip(members, specs)]
    elif protocol == "untargeted":
        got = [run_attack(target, x, y, spec)]
        cases = [(attacked, spec, y, True)]
    else:
        t = rng.integers(0, classes, size=b)
        got = [targeted(target, x, t, spec)]
        cases = [(attacked, spec, t, False)]
    assert len(got) == len(cases)
    for result, (models, s, labels, ascent) in zip(got, cases):
        adv, probs, queries, trace = oracle_attack(models, x, labels, s, ascent)
        assert same_bits(result.adversarial, adv)
        assert np.array_equal(result.success_mask, (np.argmax(probs, axis=1) == labels) != ascent)
        assert result.queries == queries
        assert same_bits(result.loss_trace, trace)


# ---------------------------------------------------------------------------
# Adam on a stack


@PROPERTY
@given(
    hidden=st.sampled_from([(), (3,), (5, 4)]),
    k=st.integers(1, 4),
    steps=st.integers(1, 4),
    classes=st.integers(2, 5),
    d=st.integers(1, 5),
    zero_share=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_adam_on_a_stack_equals_each_models_own(hidden, k, steps, classes, d, zero_share, seed):
    # slice k of a stacked update has the bits of model k's own, moments
    # included; a tensor whose gradient is exactly zero on the first step
    # stays exactly as it was
    rng = np.random.default_rng(seed)
    models = [nn.init_model(d, list(hidden), classes, seed=seed % 1000 + i) for i in range(k)]
    lr = float(rng.choice([0.0, 1e-3, 0.05]))
    stack = nn.stack_models(models)
    stack_state = nn.adam_init(stack, lr=lr)
    states = [nn.adam_init(m, lr=lr) for m in models]
    first = [m.layers for m in models]
    for step in range(steps):
        grads = [
            [
                tuple(
                    np.zeros(a.shape) if step == 0 and rng.random() < zero_share else rng.normal(size=a.shape)
                    for a in (la.w, la.b)
                )
                for la in m.layers
            ]
            for m in models
        ]
        if step == 0:
            zero = [[[not g.any() for g in pair] for pair in gs] for gs in grads]
        stacked = [
            (np.stack([gs[i][0] for gs in grads]), np.stack([gs[i][1] for gs in grads])[:, None, :])
            for i in range(len(hidden) + 1)
        ]
        stack, stack_state = nn.adam_step(stack, stacked, stack_state)
        for j in range(k):
            models[j], states[j] = nn.adam_step(models[j], grads[j], states[j])
        assert isinstance(stack, nn.ModelStack) and stack_state.step == step + 1
        for j, (model, state) in enumerate(zip(models, states)):
            for i, (sl, ml) in enumerate(zip(stack.layers, model.layers)):
                assert same_bits(sl.w[j], ml.w) and same_bits(sl.b[j, 0], ml.b)
                for moment, own in ((stack_state.m, state.m), (stack_state.v, state.v)):
                    assert same_bits(moment[i][0][j], own[i][0]) and same_bits(moment[i][1][j, 0], own[i][1])
                if step == 0:
                    for a, before, was_zero in zip((sl.w[j], sl.b[j, 0]), (first[j][i].w, first[j][i].b), zero[j][i]):
                        assert not was_zero or same_bits(a, before)
    bad = [(gw.copy(), gb) for gw, gb in stacked]
    bad[0][0][-1, 0, 0] = np.nan
    with pytest.raises(DomainError, match="non-finite gradient"):
        nn.adam_step(stack, bad, stack_state)


def test_adam_on_a_stack_rejects_wrong_shapes_and_non_finite_parameters():
    models = [nn.init_model(3, [4], 2, seed=i) for i in range(2)]
    stack = nn.stack_models(models)
    state = nn.adam_init(stack, lr=1e308)
    grads = [(np.ones(la.w.shape), np.ones(la.b.shape)) for la in stack.layers]
    with pytest.raises(ShapeError):
        nn.adam_step(stack, [(gw[0], gb[0]) for gw, gb in grads], state)
    with np.errstate(over="ignore"):  # the update overflows the parameters
        stack, state = nn.adam_step(stack, grads, state)
        with pytest.raises(DomainError, match="non-finite parameters"):
            nn.adam_step(stack, grads, state)


# ---------------------------------------------------------------------------
# invariants of every attack family, of IDX parsing and of config normalisation


@PROPERTY
@given(
    family=st.sampled_from(["pgd", "bim", "mim", "spsa"]),
    protocol=st.sampled_from(["members", "model", "ensemble", "targeted", "multi_targeted"]),
    random_start=st.booleans(),
    epsilon=st.sampled_from([0.0, 1e-3, 0.05, 0.3]),
    eta_share=st.floats(0.05, 1.0),
    steps=st.integers(1, 4),
    widths=WIDTHS,
    classes=st.integers(2, 4),
    d=st.integers(1, 5),
    b=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_attack_stays_inside_the_ball_and_the_box(
    family, protocol, random_start, epsilon, eta_share, steps, widths, classes, d, b, seed
):
    # the in-place step projects onto B(x, eps) and then [0, 1]^d; x sits near
    # the box faces so both projections bite. eta <= eps: a larger step warns
    rng = np.random.default_rng(seed)
    members = mixed_members(d, widths, classes, seed % 1000)
    x = np.clip(rng.random((b, d)) * 1.2 - 0.1, 0.0, 1.0)
    y = rng.integers(0, classes, size=b)
    spec = AttackSpec(
        family=family, steps=steps, epsilon=epsilon, eta=(epsilon or 0.1) * eta_share,
        spsa_samples=2, random_start=random_start, seed=int(rng.integers(2**31)),
    )
    ens = Ensemble(members=members)
    if protocol == "members":
        advs = [r.adversarial for r in run_member_attacks(members, x, y, [spec] * len(members))]
    elif protocol == "model":
        advs = [run_attack(members[0], x, y, spec).adversarial]
    elif protocol == "ensemble":
        advs = [run_attack(ens, x, y, spec).adversarial]
    elif protocol == "targeted":
        advs = [targeted(ens, x, rng.integers(0, classes, size=b), spec).adversarial]
    else:
        advs = [multi_targeted(ens, x, y, spec).adversarial]
    for adv in advs:
        assert adv.shape == x.shape
        assert (adv >= x - epsilon).all() and (adv <= x + epsilon).all()
        assert (adv >= 0.0).all() and (adv <= 1.0).all()


COORD = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-2.0, 3.0, allow_nan=False))


def has_negative_zero(a):
    return bool(((a == 0.0) & np.signbit(a)).any())


@PROPERTY
@given(
    cols=st.lists(st.tuples(COORD, COORD, st.sampled_from([-1.5, -0.0, 0.0, 2.0])), min_size=1, max_size=12),
    epsilon=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    eta=st.floats(0.0, 1.5),
)
def test_hoisted_bounds_equal_the_two_clip_projection(cols, epsilon, eta):
    # origins x and points inside and outside [0, 1], eps >= 0 (0 included):
    # one clip to ball_box's bounds is the in-place ball clip, then the box
    # clip, bit for bit. Where a -0.0 meets a bound of 0.0, numpy's clips
    # differ among themselves (copying or in place, scalar or array bounds)
    # in the sign of the zero they return, so with a -0.0 in x or in the
    # point only the values must agree (an attack's points hold a -0.0
    # only where its x does).
    x, cur, grad = (np.array([c[j] for c in cols])[None] for j in range(3))
    want = cur + eta * np.sign(grad)
    want.clip(x - epsilon, x + epsilon, out=want)
    want.clip(0.0, 1.0, out=want)
    same = np.array_equal if has_negative_zero(x) or has_negative_zero(cur) else same_bits
    lo, hi = attacks.ball_box(x, epsilon)
    assert same(attacks.fgsm_step(cur, grad, eta, lo, hi), want)
    assert same(attacks.fgsm_step(cur, grad, eta, lo, hi, out=cur), want)  # in place
    assert same(cur, want)


IDX_ERRORS = (FormatError, TruncatedFileError, ConsistencyError, DomainError, ShapeError)


@st.composite
def idx_pair(draw):
    """Bytes of an images and a labels file: sometimes random through and
    through, mostly a right or wrong magic, a header of small or huge
    sizes and a random payload."""
    def header(magic, sizes):
        head = struct.pack(">I", draw(st.sampled_from([magic, magic ^ 1, 0])))
        for _ in range(sizes):
            head += struct.pack(">I", draw(st.sampled_from([0, 1, 2, 3, 7, 2**32 - 1])))
        return head[: draw(st.integers(0, len(head)))] if draw(st.booleans()) else head

    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=64)), draw(st.binary(max_size=64))
    images = header(data.IDX_IMAGES_MAGIC, 3) + draw(st.binary(max_size=128))
    labels = header(data.IDX_LABELS_MAGIC, 1) + draw(st.binary(max_size=32))
    return images, labels


@PROPERTY
@given(pair=idx_pair())
def test_random_idx_bytes_raise_only_typed_errors(tmp_path_factory, pair):
    folder = tmp_path_factory.mktemp("idx")
    paths = [str(folder / "images.idx"), str(folder / "labels.idx")]
    for path, blob in zip(paths, pair):
        with open(path, "wb") as f:
            f.write(blob)
    try:
        ds = data.load_idx(*paths)
    except IDX_ERRORS:
        return
    assert len(ds) >= 1 and ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0


ATTACK_BLOCKS = st.fixed_dictionaries(
    {"family": st.sampled_from(["pgd", "bim", "mim", "spsa"]), "epsilon": st.sampled_from([0.1, 0.2])},
    optional={
        "steps": st.integers(1, 50),
        "eta": st.sampled_from([0.01, 0.05, 0.1]),
        "momentum": st.floats(0.0, 2.0),
        "spsa_samples": st.integers(1, 8),
        "spsa_delta": st.sampled_from([0.001, 0.01]),
        "random_start": st.booleans(),
        "seed": st.integers(0, 2**31),
    },
)
METHOD_BLOCKS = st.one_of(
    st.sampled_from([{"name": "RM"}, {"name": "DM"}, {"name": "Base"}, {"name": "ADV"}, {"name": "ADV_EN"}]),
    st.fixed_dictionaries({"name": st.just("CCE"), "mode": st.sampled_from(["RM", "DM", "Base"])}),
    st.fixed_dictionaries({
        "name": st.just("CCE"), "mode": st.just("custom"),
        "lambda_pm": st.floats(0.0, 5.0), "lambda_dm": st.integers(0, 5),
    }),
    st.fixed_dictionaries({"name": st.just("ADP")}, optional={"alpha": st.floats(0.0, 3.0), "beta": st.integers(0, 2)}),
)
DATASET_BLOCKS = st.one_of(
    st.fixed_dictionaries(
        {"generator": st.just("blobs"), "n_per_class": st.integers(1, 50), "num_classes": st.integers(2, 5),
         "dim": st.integers(1, 8), "separation": st.floats(0.0, 10.0)},
        optional={"seed": st.integers(0, 100)},
    ),
    st.fixed_dictionaries(
        {"generator": st.just("rings"), "n_per_class": st.integers(1, 50), "num_classes": st.integers(2, 5),
         "noise": st.floats(0.0, 0.2)},
        optional={"seed": st.integers(0, 100)},
    ),
)


@PROPERTY
@given(
    config=st.fixed_dictionaries(
        {
            "dataset": DATASET_BLOCKS,
            "model": st.fixed_dictionaries({"hidden": st.lists(st.integers(1, 64), max_size=3), "members": st.integers(1, 4)}),
            "method": METHOD_BLOCKS,
            "train": st.fixed_dictionaries(
                {"epochs": st.integers(1, 100), "batch_size": st.integers(1, 256), "attack": ATTACK_BLOCKS},
                optional={"lr": st.sampled_from([0.001, 0.03, 1])},
            ),
            "out": st.text("abc/_-", min_size=1, max_size=12),
            "seed": st.integers(0, 2**31),
        },
        optional={
            "eval_attacks": st.dictionaries(st.sampled_from(["pgd", "a-1", "B_2"]), ATTACK_BLOCKS, max_size=3),
            "surface": st.fixed_dictionaries({}, optional={
                "radius_steps": st.integers(1, 30), "step": st.sampled_from([0.01, 0.2]),
                "index": st.integers(0, 9), "target": st.sampled_from(["en", "f1"]),
            }),
        },
    ),
    seed_override=st.one_of(st.none(), st.integers(0, 100)),
    out_override=st.one_of(st.none(), st.just("elsewhere")),
)
def test_normalize_config_is_idempotent(config, seed_override, out_override):
    once = cli.normalize_config(config, seed_override=seed_override, out_override=out_override)
    assert cli.normalize_config(once) == once
