"""Property tests: the batched ADP regulariser against its per-example
definition, a Model as an ensemble of one, and the stacked attack core
against lone attacks and per-member backprops."""

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
