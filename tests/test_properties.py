"""Property tests: the batched ADP regulariser against its per-example
definition, a Model as an ensemble of one, the stacked attack core against
lone attacks, per-member backprops and a one-model-at-a-time attack oracle,
the stacked training step, backward and Adam against the per-model oracles
of tests/helpers.py, the class-axis reductions by column against numpy's
reduce, and the invariants of every attack family, of IDX parsing and of
config normalisation."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from advens import attacks, cli, data, ensembles, nn, training
from advens.attacks import (
    AttackSpec,
    multi_targeted,
    run_attack,
    run_heads,
    targeted,
)
from advens.ensembles import Ensemble, Heads, ce_values_and_input_grad
from advens.errors import ConfigError, ConsistencyError, DomainError, FormatError, ShapeError, TruncatedFileError
from helpers import (
    input_grad,
    member_grads,
    oracle_backprop,
    oracle_collab,
    oracle_ensemble_adv,
    oracle_forward,
    oracle_terms,
    reference_diversity,
    weighted_ce_and_entropy,
)

PROPERTY = settings(max_examples=60, deadline=None, database=None)


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
    got = training._diversity_value_and_grads(probs, y, alpha, beta)
    want = reference_diversity(probs, y, alpha, beta)
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


def init_members(d, widths, classes, seed):
    """One member per entry of widths (a tuple of hidden widths), seeded
    apart."""
    return tuple(
        nn.init_model(d, list(hidden), classes, seed=seed + i) for i, hidden in enumerate(widths)
    )


HIDDEN = st.sampled_from([(), (3,), (5,), (5, 4)])


def one_shape(max_members):
    """The hidden widths of an ensemble: 1 to max_members members of one
    drawn shape, as init_ensemble and checkpoints make them."""
    return st.builds(lambda hidden, k: [hidden] * k, HIDDEN, st.integers(1, max_members))


WIDTHS = one_shape(3)


def assert_same_results(got, want):
    assert same_bits(got.adversarial, want.adversarial)
    assert same_bits(got.loss_trace, want.loss_trace)
    assert np.array_equal(got.success_mask, want.success_mask)
    assert got.queries == want.queries
    assert same_bits(got.member_probs, want.member_probs)
    assert got.spec == want.spec


@PROPERTY
@given(
    lead=st.lists(st.integers(1, 4), max_size=2),
    b=st.integers(1, 12),
    m=st.integers(2, 6),
    cut=st.tuples(st.integers(0, 11), st.integers(0, 11)),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_flat_label_index_takes_and_puts_the_fancy_indexed_entries(lead, b, m, cut, seed):
    # take and put through a LabelIndex's flat index read and write the
    # entries probs[..., rows, labels] of its layout, C-ordered: for stacked
    # rows and for a row block's index (LabelIndex.block)
    rng = np.random.default_rng(seed)
    probs = rng.random((*lead, b, m))
    index = nn.label_index(rng.integers(0, m, size=b), probs.shape)
    lo = min(cut) % b
    hi = lo + 1 + max(cut) % (b - lo)
    for idx, p in ((index, probs), (index.block(lo, hi), np.ascontiguousarray(probs[..., lo:hi, :]))):
        assert idx.shape == p.shape and idx.batch_size == b
        rows = np.arange(p.shape[-2])
        assert p.take(idx.flat).tobytes() == np.ascontiguousarray(p[..., rows, idx.labels]).tobytes()
        values = rng.random(p.shape[:-1])
        put, fancy = np.zeros(p.shape), np.zeros(p.shape)
        put.put(idx.flat, values)
        fancy[..., rows, idx.labels] = values
        assert put.tobytes() == fancy.tobytes()


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
def test_member_and_ensemble_attacks_equal_lone_attacks(family, random_start, widths, classes, d, b, seed):
    # f1 .. fK and en in one lockstep search, all drawing from one seed: each
    # result is its lone run_attack's, bit for bit
    rng = np.random.default_rng(seed)
    ens = Ensemble(members=init_members(d, widths, classes, seed % 1000))
    x = rng.random((b, d))
    y = rng.integers(0, classes, size=b)
    spec = AttackSpec(
        family=family, steps=3, epsilon=0.1, eta=0.04, spsa_samples=2, random_start=random_start,
        seed=int(rng.integers(2**31)),
    )
    together = list(run_heads(Heads.of([*ens.members, ens]), x, y, spec))
    assert len(together) == len(ens) + 1
    for got, target in zip(together, [*ens.members, ens]):
        assert_same_results(got, run_attack(target, x, y, spec))


@PROPERTY
@given(widths=WIDTHS, classes=st.integers(2, 4), d=st.integers(1, 5), b=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_the_step_of_member_and_ensemble_heads_equals_each_lone_step(widths, classes, d, b, seed):
    # one pass of the heads f1 .. fK, en on an iterate of K + 1 batches: each
    # head's CE values and input gradient (en's with its 1/K share, which a
    # sign step cannot show) are its lone step's, bit for bit
    rng = np.random.default_rng(seed)
    ens = Ensemble(members=init_members(d, widths, classes, seed % 1000))
    k = len(ens)
    heads = ensembles.Heads(ens.stack, ensembles.Heads.each(ens.stack).groups + ensembles.Heads.whole(ens.stack).groups)
    cur = rng.random((k + 1, b, d))
    labels = rng.integers(0, classes, size=b)
    values, grad = ce_values_and_input_grad(heads, cur, nn.label_index(labels, (k + 1, b, classes)), _checked=True)
    for h, target in enumerate([*ens.members, ens]):
        want_values, want_grad = ce_values_and_input_grad(target, cur[h], labels)
        assert same_bits(values[h], want_values) and same_bits(grad[h], want_grad)


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
    # the steps alone of one attack per member, each of its own seed
    # (adversarial_batches over Heads.each): slice k is member k's lone
    # run_attack adversarial, bit for bit
    rng = np.random.default_rng(seed)
    members = init_members(d, widths, classes, seed % 1000)
    x = rng.random((b, d))
    y = rng.integers(0, classes, size=b)
    spec = AttackSpec(
        family=family, steps=3, epsilon=0.1, eta=0.04, spsa_samples=2, random_start=random_start
    )
    seeds = [int(s) for s in rng.integers(0, 2**31, len(members))]
    together = attacks.adversarial_batches(Heads.each(Ensemble(members=members).stack), x, y, spec, seeds)
    assert len(together) == len(members)
    for got, member, s in zip(together, members, seeds):
        assert same_bits(got, run_attack(member, x, y, AttackSpec(**(vars(spec) | {"seed": s}))).adversarial)


def reference_input_grads(members, x, y):
    """Per-member forward_cached and backprop of the CE of the averaged
    probability rows, summed in member order: the unstacked definition."""
    caches = [nn.forward_cached(m, x, "masks")[1] for m in members]
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
    grads = [nn.backprop(m, c, g_probs) for m, c in zip(members, caches)]
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
    members = init_members(d, widths, classes, seed % 1000)
    x = rng.random((b, d))
    y = rng.integers(0, classes, size=b)
    values, grad = ce_values_and_input_grad(Ensemble(members=members), x, y)
    want_values, want_grad = reference_input_grads(members, x, y)
    assert same_bits(values, want_values)
    assert same_bits(grad, want_grad)
    # Heads.each: slice k against member k alone
    xs = rng.random((len(members), b, d))
    values, grad = ce_values_and_input_grad(Heads.each(Ensemble(members=members).stack), xs, y)
    for k, member in enumerate(members):
        want_values, want_grad = reference_input_grads((member,), xs[k], y)
        assert same_bits(values[k], want_values)
        assert same_bits(grad[k], want_grad)


# ---------------------------------------------------------------------------
# the stacked training step against the per-model oracle


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
    widths=one_shape(4),
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
        widths = widths * 2
    if method == "ADP":  # the regulariser needs members <= classes - 1
        classes = max(classes, len(widths) + 1)
    members = init_members(d, widths, classes, seed % 1000)
    x = rng.random((b, d))
    y = rng.integers(0, classes, size=b)
    adv_set = [np.clip(x + rng.uniform(-0.2, 0.2, x.shape), 0.0, 1.0) for _ in members]
    if method in ("CCE", "ADV"):
        n = int(rng.integers(len(members)))
        indicators = {i: rng.random(b) for i in range(len(members)) if i != n}
        if not with_indicators or method == "ADV":
            indicators = None
        terms, grads = training._collab_step(
            Ensemble(members=members).stack, x, y, adv_set, *lambdas, crossing=method == "CCE",
            gates=None if indicators is None else {n: indicators},
        )
        got = [(*t, member_grads(grads, k)) for k, t in enumerate(terms)]
        assert len(got) == len(members)
        for k, step in enumerate(got):
            if method == "ADV":
                want = oracle_collab(0, members[k : k + 1], x, y, adv_set[k : k + 1], 0.0, 0.0)
            else:
                want = oracle_collab(k, members, x, y, adv_set, *lambdas, indicators if k == n else None)
            same_step(step, want)
    else:
        adp = (0.5 + rng.random(), 0.2 + rng.random()) if method == "ADP" else None
        stack = Ensemble(members=members).stack
        total, parts, grads, _ = training._ensemble_adv_step(stack, x, y, adv_set[0], adp)
        want_total, want_parts, want_grads = oracle_ensemble_adv(members, x, y, adv_set[0], adp)
        assert len(want_grads) == len(members)
        for k, want in enumerate(want_grads):
            same_step((total, parts, member_grads(grads, k)), (want_total, want_parts, want))


@PROPERTY
@given(
    widths=st.lists(HIDDEN, min_size=2, max_size=4),
    lambdas=st.sampled_from([(1.0, 1.0), (0.0, 5.0), (0.0, 0.0), (0.7, 2.5)]),
    with_indicators=st.booleans(),
    classes=st.integers(2, 5),
    d=st.integers(1, 5),
    b=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
)
def test_member_collab_grads_of_mixed_depths_equal_the_oracle(
    widths, lambdas, with_indicators, classes, d, b, seed
):
    # members of different layer shapes, as the gradient checks draw them:
    # member n's step reads no other member's weights, so it runs on a
    # stack of member n alone, repeated once per member, and keeps slice n
    rng = np.random.default_rng(seed)
    members = init_members(d, widths, classes, seed % 1000)
    x = rng.random((b, d))
    y = rng.integers(0, classes, size=b)
    adv_set = [np.clip(x + rng.uniform(-0.2, 0.2, x.shape), 0.0, 1.0) for _ in members]
    n = int(rng.integers(len(members)))
    indicators = {i: rng.random(b) for i in range(len(members)) if i != n} if with_indicators else None
    terms, grads = training._collab_step(
        nn.stack_models([members[n]] * len(members)), x, y, adv_set, *lambdas,
        gates=None if indicators is None else {n: indicators},
    )
    same_step((*terms[n], member_grads(grads, n)), oracle_collab(n, members, x, y, adv_set, *lambdas, indicators))


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
    stack, loss_grad = nn.stack_models(models), weighted_ce_and_entropy(y, weights[0], weights[1])
    values, stacked = nn.backward(stack, x, loss_grad)
    assert values.shape == (k,)
    # the input gradients by the attacks' path, a keep="masks" backprop
    stacked_values, stacked_input = input_grad(stack, x, loss_grad)
    assert same_bits(stacked_values, values)
    for i, model in enumerate(models):
        xi = x if shared else x[i]
        cache = oracle_forward(model, xi)
        loss, g_probs = oracle_terms(cache[0], y, [("ce", weights[0, i]), ("entropy", weights[1, i])])
        grads, want_input = oracle_backprop(model, cache, g_probs)
        alone_loss_grad = weighted_ce_and_entropy(y, weights[0, i], weights[1, i])
        alone_values, alone = nn.backward(model, xi, alone_loss_grad)
        assert same_bits(alone_values, loss) and same_bits(values[i], loss)
        assert same_bits(input_grad(model, xi, alone_loss_grad)[1], want_input)
        assert same_bits(stacked_input[i], want_input)
        for (gw, gb), (sw, sb), (ow, ob) in zip(alone, stacked, grads):
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
    # lone members, a Model and an Ensemble of one drawn width: adversarial,
    # success mask, queries and loss trace bit for bit; the steps alone of
    # member attacks of distinct seeds: adversarial bit for bit
    rng = np.random.default_rng(seed)
    members = init_members(d, widths, classes, seed % 1000)
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
        stack = Ensemble(members=members).stack
        specs = [AttackSpec(**(vars(spec) | {"seed": int(s)})) for s in rng.integers(0, 2**31, len(members))]
        advs = attacks.adversarial_batches(Heads.each(stack), x, y, spec, [s.seed for s in specs])
        for adv, m, s in zip(advs, members, specs, strict=True):
            assert same_bits(adv, oracle_attack((m,), x, y, s, True)[0])
        got = list(run_heads(Heads.of([*members, Ensemble(members=members)]), x, y, spec))  # f1 .. fK and en, one seed
        cases = [((m,), spec, y, True) for m in members] + [(members, spec, y, True)]
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
# class-axis reductions by column against numpy's reduce

# entries where the order of a max or a sum shows: signed zeros and ties,
# infinities that cancel to nan, nans of either sign, overflow, subnormals
REDUCTION_POOLS = (
    np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0, 1e308, -1e308, 0.1, 5e-324]),
    np.array([0.0, -0.0, -1.0]),
)


@PROPERTY
@example(m=3, rows_per_class=150, k=2, pool=REDUCTION_POOLS[1], pool_share=1.0, seed=0)
@example(m=7, rows_per_class=64, k=1, pool=REDUCTION_POOLS[0], pool_share=0.5, seed=1)
@example(m=9, rows_per_class=64, k=1, pool=REDUCTION_POOLS[1], pool_share=0.5, seed=5)
@example(m=10, rows_per_class=150, k=2, pool=REDUCTION_POOLS[0], pool_share=0.1, seed=6)
@given(
    m=st.integers(2, 17),  # both sides of 8 (numpy's pairwise sum) and of 16 (numpy's reduce)
    rows_per_class=st.sampled_from([1, 5, 63, 64, 65, 150]),  # both sides of nn._COLUMN_ROWS
    k=st.integers(1, 3),
    pool=st.sampled_from(REDUCTION_POOLS),
    pool_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_class_axis_reductions_equal_numpys_bit_for_bit(m, rows_per_class, k, pool, pool_share, seed):
    # nn._row_max and nn._row_sum are a.max / a.sum over the last axis with
    # keepdims, byte for byte (the sign of a zero or of a nan included), on
    # 2-d rows and on stacks, by columns or by numpy's reduce
    rng = np.random.default_rng(seed)
    rows = max(1, -(-rows_per_class * m // k))  # k slices of this many rows
    for shape in ((k * rows, m), (k, rows, m)):
        a = rng.normal(0.0, 10.0, size=shape)
        pooled = rng.random(shape) < pool_share
        a[pooled] = rng.choice(pool, size=int(pooled.sum()))
        with np.errstate(all="ignore"):
            for ours, numpys in ((nn._row_max, a.max), (nn._row_sum, a.sum)):
                got, want = ours(a), numpys(axis=-1, keepdims=True)
                assert got.shape == want.shape and same_bits(got, want)


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
    members = init_members(d, widths, classes, seed % 1000)
    x = np.clip(rng.random((b, d)) * 1.2 - 0.1, 0.0, 1.0)
    y = rng.integers(0, classes, size=b)
    spec = AttackSpec(
        family=family, steps=steps, epsilon=epsilon, eta=(epsilon or 0.1) * eta_share,
        spsa_samples=2, random_start=random_start, seed=int(rng.integers(2**31)),
    )
    ens = Ensemble(members=members)
    if protocol == "members":
        advs = [r.adversarial for r in run_heads(Heads.of([*ens.members, ens]), x, y, spec)]
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
    dataset = config["dataset"]
    if dataset["generator"] == "blobs" and (dataset["dim"] < 2 or dataset["separation"] <= 0):
        # out of range: refused, naming the field
        with pytest.raises(ConfigError, match=r"^dataset\.(dim|separation): must be "):
            cli.normalize_config(config, seed_override=seed_override, out_override=out_override)
        return
    once = cli.normalize_config(config, seed_override=seed_override, out_override=out_override)
    assert cli.normalize_config(once) == once
