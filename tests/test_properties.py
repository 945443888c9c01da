"""Property tests: the batched ADP regulariser against its per-example
definition, and a Model as an ensemble of one."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from advens import nn, training
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
