"""Property tests: the batched ADP regulariser against its per-example
definition, a Model as an ensemble of one, the stacked attack core against
lone attacks and per-member backprops, and the stacked training step and
backward against a per-model forward/backprop oracle kept in this file."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from advens import nn, training
from advens.attacks import AttackSpec, run_attack, run_member_attacks
from advens.ensembles import Ensemble, ce_values_and_input_grad

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
    return nn.softmax(a), inputs, preacts


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
        got = training._collab_step(
            members, x, y, adv_set, *lambdas, crossing=method == "CCE",
            gates=None if indicators is None else {n: indicators},
        )
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
            total, parts, grads, _ = training._ensemble_adv_step(stack, x, y, adv_set[0], adp)
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
