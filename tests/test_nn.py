import json
import math

import numpy as np
import pytest

from advens import nn
from advens.ensembles import Ensemble, load_ensemble, save_ensemble
from advens.errors import DomainError, FormatError, ShapeError
from helpers import input_grad, oracle_backprop, oracle_forward, weighted_ce_and_entropy


def tiny_model(seed=0, dims=(3, 5, 4), acts=None):
    rng = np.random.default_rng(seed)
    layers = []
    for i in range(len(dims) - 1):
        w = rng.normal(0, 1.0, size=(dims[i], dims[i + 1]))
        b = rng.normal(0, 0.2, size=dims[i + 1])
        act = "id" if i == len(dims) - 2 else "relu"
        if acts is not None:
            act = acts[i]
        layers.append(nn.Layer(w=w, b=b, act=act))
    return nn.Model(layers=tuple(layers), num_classes=dims[-1], seed=seed)


# ---------------------------------------------------------------------------
# forward


def test_zero_parameters_give_uniform_rows():
    layers = (nn.Layer(w=np.zeros((3, 4)), b=np.zeros(4), act="id"),)
    model = nn.Model(layers=layers, num_classes=4)
    probs = nn.forward(model, np.random.default_rng(0).random((6, 3)))
    assert np.allclose(probs, 0.25)


def test_forward_matches_hand_softmax():
    layers = (nn.Layer(w=np.array([[2.0, 0.0], [0.0, 2.0]]), b=np.zeros(2), act="id"),)
    model = nn.Model(layers=layers, num_classes=2)
    probs = nn.forward(model, np.array([[1.0, 0.0]]))
    # softmax(2, 0) = (e^2, 1) / (e^2 + 1)
    assert abs(probs[0, 0] - 0.8808) < 1e-4
    assert abs(probs[0, 1] - 0.1192) < 1e-4
    assert np.allclose(probs[0], np.array([np.e**2, 1.0]) / (np.e**2 + 1.0))


@pytest.mark.parametrize(
    "row", [[np.inf, 0.0, 1.0], [np.nan, 0.0, 1.0], [-np.inf] * 3, [np.inf, -np.inf, 0.0]]
)
def test_softmax_rejects_non_finite_logits(row):
    # each of these rows leaves a non-finite row denominator
    z = np.array([[0.5, 1.0, -2.0], row])
    for logits in (z, np.stack([z, z[::-1]])):
        with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="non-finite"):
            nn.softmax(logits)


@pytest.mark.parametrize(
    "row", [[np.inf, 0.0, 1.0], [np.nan, 0.0, 1.0], [-np.inf] * 3, [np.inf, -np.inf, 0.0]]
)
@pytest.mark.parametrize("shape", [(400, 3), (2, 300, 3)])
def test_softmax_rejects_non_finite_logits_when_it_reduces_by_columns(row, shape):
    # the rows of test_softmax_rejects_non_finite_logits, on the other side
    # of the switch to class-by-class reductions
    z = np.random.default_rng(0).normal(size=shape)
    z[..., -1, :] = row
    assert nn._by_columns(z)
    with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="non-finite"):
        nn.softmax(z)


def test_class_axis_reductions_go_by_columns_at_evaluation_batch_sizes():
    # a lockstep training step of two members on 30 rows stays with numpy's
    # reduce; an evaluation attack on 300 rows (one model or two members)
    # goes by columns, and so does a 10-class one of 10,000 rows (analyze-idx,
    # MNIST, CIFAR-10); 16 or more classes never do
    assert not nn._by_columns(np.zeros((2, 30, 3)))
    assert nn._by_columns(np.zeros((300, 3))) and nn._by_columns(np.zeros((2, 300, 3)))
    assert nn._by_columns(np.zeros((64 * 7, 7)))
    assert not nn._by_columns(np.zeros((64 * 7 - 1, 7)))
    assert nn._by_columns(np.zeros((10_000, 10))) and nn._by_columns(np.zeros((64 * 15, 15)))
    assert not nn._by_columns(np.zeros((64 * 15 - 1, 15)))
    assert not nn._by_columns(np.zeros((10_000, 16)))


def test_forward_rejects_logits_that_overflow():
    layers = (
        nn.Layer(w=np.full((2, 2), 1e200), b=np.zeros(2), act="relu"),
        nn.Layer(w=np.array([[1e200, -1e200], [1e200, 1e200]]), b=np.zeros(2), act="id"),
    )
    model = nn.Model(layers=layers, num_classes=2)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError, match="non-finite"):
        nn.forward(model, np.ones((3, 2)))


def test_softmax_takes_a_lone_minus_inf_logit_as_zero_probability():
    assert np.array_equal(nn.softmax(np.array([[-np.inf, 0.0, 0.0]])), [[0.0, 0.5, 0.5]])


def test_softmax_rows_pass_the_probability_check():
    rng = np.random.default_rng(3)
    for shape in [(1, 2), (7, 3), (4, 9, 5)]:
        z = rng.normal(0.0, 30.0, size=shape)
        z[..., 0] = 700.0  # exp overflows without the shift
        p = nn.softmax(z)
        assert nn._check_probs(p) is p


def test_rows_sum_to_one_and_deterministic():
    model = tiny_model(3)
    x = np.random.default_rng(1).random((40, 3))
    p1 = nn.forward(model, x)
    p2 = nn.forward(model, x)
    assert np.max(np.abs(p1.sum(axis=1) - 1.0)) < 1e-6
    assert np.array_equal(p1, p2)
    # large logits must not overflow
    big = tiny_model(0, dims=(3, 4))
    scaled = nn.Model(
        layers=(nn.Layer(w=big.layers[0].w * 500, b=big.layers[0].b, act="id"),),
        num_classes=4,
    )
    p = nn.forward(scaled, x)
    assert np.all(np.isfinite(p))


def test_forward_input_validation():
    model = tiny_model(0)
    with pytest.raises(ShapeError):
        nn.forward(model, np.zeros((2, 7)))
    with pytest.raises(ShapeError):
        nn.forward(model, np.zeros(3))
    bad = np.zeros((2, 3))
    bad[0, 0] = np.nan
    with pytest.raises(DomainError):
        nn.forward(model, bad)


def test_model_validation():
    w, b = np.zeros((3, 4)), np.zeros(4)
    with pytest.raises(ShapeError):
        nn.Model(layers=(nn.Layer(w=w, b=np.zeros(5), act="id"),), num_classes=4)
    with pytest.raises(ShapeError):  # chain break
        nn.Model(
            layers=(nn.Layer(w=w, b=b, act="relu"), nn.Layer(w=np.zeros((5, 2)), b=np.zeros(2), act="id")),
            num_classes=2,
        )
    with pytest.raises(ShapeError):  # final width != num_classes
        nn.Model(layers=(nn.Layer(w=w, b=b, act="id"),), num_classes=3)
    with pytest.raises(DomainError):
        nn.Model(layers=(nn.Layer(w=w * np.nan, b=b, act="id"),), num_classes=4)
    with pytest.raises(DomainError):
        nn.Model(layers=(nn.Layer(w=w, b=b, act="gelu"),), num_classes=4)


def test_init_model_shapes_and_determinism():
    m1 = nn.init_model(6, [8, 8], 3, seed=42)
    m2 = nn.init_model(6, [8, 8], 3, seed=42)
    assert [l.w.shape for l in m1.layers] == [(6, 8), (8, 8), (8, 3)]
    assert [l.act for l in m1.layers] == ["relu", "relu", "id"]
    for a, b in zip(m1.layers, m2.layers):
        assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)
    assert not np.array_equal(m1.layers[0].w, nn.init_model(6, [8, 8], 3, seed=43).layers[0].w)


# ---------------------------------------------------------------------------
# losses


def test_cross_entropy_hand_values():
    one_hot = np.array([[0.0, 1.0, 0.0]])
    assert nn.cross_entropy(one_hot, np.array([1])) == 0.0
    uniform = np.full((1, 10), 0.1)
    assert abs(nn.cross_entropy(uniform, np.array([7])) - math.log(10)) < 1e-12
    quarter = np.array([[0.25, 0.75]])
    assert abs(nn.cross_entropy(quarter, np.array([0])) - math.log(4)) < 1e-12


def test_cross_entropy_clamps_zero_probability():
    p = np.array([[1.0, 0.0]])
    v = nn.cross_entropy(p, np.array([1]))
    assert v == pytest.approx(-math.log(1e-12))


def test_stacked_ce_values_are_c_ordered_so_slice_means_match_row_means():
    # numpy gathers stacked label entries in Fortran order; a mean over the
    # last axis of such values sums each row in another order than np.mean
    # of that row alone, which changes the last bit of most random cases
    rng = np.random.default_rng(0)
    mismatched = 0
    for _ in range(300):
        k, b, m = rng.integers(2, 5), rng.integers(1, 60), rng.integers(2, 8)
        p = nn.softmax(rng.normal(0.0, 3.0, size=(k, b, m)))
        y = rng.integers(0, m, size=b)
        for values in (nn.cross_entropy_per_example(p, y), nn.ce_values_and_prob_grad(p, y)[0]):
            assert values.flags.c_contiguous
            rows = [np.mean(nn.cross_entropy_per_example(p[i], y)) for i in range(k)]
            mismatched += values.mean(axis=-1).tobytes() != np.array(rows).tobytes()
    assert mismatched == 0


def test_cross_entropy_label_validation():
    p = np.full((2, 3), 1 / 3)
    with pytest.raises(DomainError):
        nn.cross_entropy(p, np.array([0, 3]))
    with pytest.raises(DomainError):
        nn.cross_entropy(p, np.array([-1, 0]))
    with pytest.raises(ShapeError):
        nn.cross_entropy(p, np.array([0]))


def test_a_label_index_of_another_layout_raises_shape_error():
    # an index made for 20 rows, or for another stack of rows, must neither
    # score part of a 30-row batch nor land on another row's entry
    rng = np.random.default_rng(0)
    probs = nn.softmax(rng.normal(size=(2, 30, 3)))
    y = rng.integers(0, 3, size=30)
    for shape in ((2, 20, 3), (3, 30, 3), (30, 3), (1, 2, 30, 3)):
        wrong = nn.label_index(y[: shape[-2]], shape)
        for call in (
            lambda: nn.ce_values_and_prob_grad(probs, wrong, _checked=True),
            lambda: nn.cross_entropy_per_example(probs, wrong),
            lambda: nn.label_probs(probs, wrong),
        ):
            with pytest.raises(ShapeError, match="labels indexed for probabilities of shape"):
                call()
    right = nn.label_index(y, (2, 30, 3))
    assert nn.cross_entropy_per_example(probs, right).tobytes() == nn.cross_entropy_per_example(probs, y).tobytes()


def test_entropy_hand_values():
    assert abs(nn.entropy(np.full((1, 10), 0.1))[0] - math.log(10)) < 1e-12
    assert nn.entropy(np.array([[0.0, 1.0, 0.0]]))[0] == 0.0
    assert abs(nn.entropy(np.array([[0.5, 0.5, 0.0, 0.0]]))[0] - math.log(2)) < 1e-12
    with pytest.raises(DomainError):
        nn.entropy(np.array([[0.5, 0.6]]))


# ---------------------------------------------------------------------------
# backward: finite-difference oracle


def fd_gradients(model, batch, loss_of, h=1e-4):
    """Central finite differences of the loss loss_of(probs) w.r.t. every
    parameter and every input coordinate."""

    def loss_for(m, x):
        return float(loss_of(nn.forward(m, x)))

    def rebuilt(li, wi, delta, is_bias):
        layers = list(model.layers)
        lay = layers[li]
        if is_bias:
            b = lay.b.copy()
            b[wi] += delta
            layers[li] = nn.Layer(w=lay.w, b=b, act=lay.act)
        else:
            w = lay.w.copy()
            w[np.unravel_index(wi, w.shape)] += delta
            layers[li] = nn.Layer(w=w, b=lay.b, act=lay.act)
        return nn.Model(layers=tuple(layers), num_classes=model.num_classes)

    param_grads = []
    for li, lay in enumerate(model.layers):
        gw = np.zeros_like(lay.w)
        for wi in range(lay.w.size):
            up = loss_for(rebuilt(li, wi, h, False), batch)
            dn = loss_for(rebuilt(li, wi, -h, False), batch)
            gw[np.unravel_index(wi, gw.shape)] = (up - dn) / (2 * h)
        gb = np.zeros_like(lay.b)
        for bi in range(lay.b.size):
            up = loss_for(rebuilt(li, bi, h, True), batch)
            dn = loss_for(rebuilt(li, bi, -h, True), batch)
            gb[bi] = (up - dn) / (2 * h)
        param_grads.append((gw, gb))
    gx = np.zeros_like(batch)
    for i in range(batch.size):
        idx = np.unravel_index(i, batch.shape)
        up_x = batch.copy()
        up_x[idx] += h
        dn_x = batch.copy()
        dn_x[idx] -= h
        gx[idx] = (loss_for(model, up_x) - loss_for(model, dn_x)) / (2 * h)
    return param_grads, gx


def max_rel_err(a, b, floor=1e-6):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.abs(a), np.abs(b))
    err = np.abs(a - b)
    rel = np.where(scale > floor, err / np.maximum(scale, floor), 0.0)
    # below the floor compare absolutely against the FD noise level
    small_bad = (scale <= floor) & (err > floor)
    return float(np.max(rel)) if not small_bad.any() else np.inf


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(8):
        depth_dims = [int(rng.integers(2, 5))]
        for _ in range(int(rng.integers(1, 3))):
            depth_dims.append(int(rng.integers(3, 6)))
        depth_dims.append(int(rng.integers(2, 5)))
        model = tiny_model(seed=int(rng.integers(1e6)), dims=tuple(depth_dims))
        bsz = int(rng.integers(1, 5))
        x = rng.random((bsz, depth_dims[0]))
        y = rng.integers(0, depth_dims[-1], size=bsz)
        per_ex = rng.random(bsz)
        # CE and entropy terms, with scalar and with per-example weights
        scalar, per_row = weighted_ce_and_entropy(y, 1.0, -0.5), weighted_ce_and_entropy(y, per_ex, per_ex * 0.3)

        def loss_grad(p):
            (v1, g1), (v2, g2) = scalar(p), per_row(p)
            return v1 + v2, g1 + g2

        _, param_grads = nn.backward(model, x, loss_grad)
        fd_params, fd_x = fd_gradients(model, x, lambda p: loss_grad(p)[0])
        for (gw, gb), (fw, fb) in zip(param_grads, fd_params):
            worst = max(worst, max_rel_err(gw, fw), max_rel_err(gb, fb))
        worst = max(worst, max_rel_err(input_grad(model, x, loss_grad)[1], fd_x))
    assert worst < 1e-3, f"worst relative error {worst}"


def test_backward_takes_its_loss_gradient_from_its_own_probabilities():
    # loss_grad gets the pass's probabilities once; weights it forms from
    # them act as constants, as the same weights formed beforehand do
    model = tiny_model(2)
    rng = np.random.default_rng(2)
    x, y = rng.random((6, 3)), rng.integers(0, 4, size=6)
    probs = nn.forward(model, x)

    def gated(p):
        seen.append(p)
        gate = nn.label_probs(p, y)
        return weighted_ce_and_entropy(y, gate, gate - 1.0)(p)

    seen = []
    got = nn.backward(model, x, gated)
    assert len(seen) == 1 and np.array_equal(seen[0], probs)
    gate = nn.label_probs(probs, y)
    want = nn.backward(model, x, weighted_ce_and_entropy(y, gate, gate - 1.0))
    assert got[0] == want[0]
    for (gw, gb), (ww, wb) in zip(got[1], want[1]):
        assert np.array_equal(gw, ww) and np.array_equal(gb, wb)


def test_loss_functions_values_and_weights():
    # the CE values are the public per-example CE whatever the weight; the
    # default weight is 1 to the bit, and weight w scales the label entries
    rng = np.random.default_rng(4)
    probs = nn.softmax(rng.normal(size=(2, 5, 3)))
    y = rng.integers(0, 3, size=5)
    w = rng.random((2, 5))
    values, g = nn.ce_values_and_prob_grad(probs, y)
    assert values.tobytes() == nn.cross_entropy_per_example(probs, y).tobytes()
    assert g.tobytes() == nn.ce_values_and_prob_grad(probs, y, np.ones((2, 5)))[1].tobytes()
    weighted = nn.ce_values_and_prob_grad(probs, y, w)
    assert weighted[0].tobytes() == values.tobytes()
    assert np.allclose(weighted[1], g * w[..., None], rtol=1e-15, atol=0.0)
    assert np.array_equal(nn.entropy_grad(np.array([[0.0, 1.0]])), [[0.0, -1.0]])


def test_backward_zero_weight_gives_zero_gradients():
    model = tiny_model(0)
    x = np.random.default_rng(0).random((3, 3))
    y = np.array([0, 1, 2])

    def zero_weight(p):
        return nn.ce_values_and_prob_grad(p, y, 0.0)

    assert all(np.all(gw == 0) and np.all(gb == 0) for gw, gb in nn.backward(model, x, zero_weight)[1])
    assert np.all(input_grad(model, x, zero_weight)[1] == 0)


def test_backward_linear_input_gradient_sign():
    # f(x) = softmax(w x): dC/dx_feature = -(w_y - sum_j p_j w_j) per column
    rng = np.random.default_rng(11)
    w = rng.normal(0, 1, size=(1, 4))
    model = nn.Model(layers=(nn.Layer(w=w, b=np.zeros(4), act="id"),), num_classes=4)
    x = rng.random((5, 1))
    y = rng.integers(0, 4, size=5)
    _, gx = input_grad(model, x, lambda p: nn.ce_values_and_prob_grad(p, y))
    probs = nn.forward(model, x)
    expected = -(w[0, y] - probs @ w[0]) / x.shape[0]
    assert np.allclose(gx[:, 0], expected, atol=1e-12)
    assert np.array_equal(np.sign(gx[:, 0]), np.sign(expected))


@pytest.mark.parametrize("stacked", [False, True])
def test_backprop_of_a_masks_cache_forms_the_input_gradient_alone(stacked):
    # backprop forms the gradient its cache was kept for: an attack's cache
    # keeps only the relu masks and gets the input gradient, a training
    # step's keeps the layer inputs and gets the parameter gradients; each
    # has the bits of the one-model oracle's
    dims = (3, 5, 6, 4)
    models = [tiny_model(s, dims) for s in range(3)] if stacked else [tiny_model(0, dims)]
    model = nn.stack_models(models) if stacked else models[0]
    rng = np.random.default_rng(5)
    x = rng.random((7, 3))
    y = rng.integers(0, 4, size=7)
    probs, full = nn.forward_cached(model, x)
    _, masks = nn.forward_cached(model, x, "masks")
    assert masks.layer_inputs is None
    # a stack's slices share one (B, M) gradient, as the averaged prediction's members do
    g_probs = nn.ce_values_and_prob_grad(probs.mean(axis=0) if stacked else probs, y)[1]
    param_grads, got = nn.backprop(model, full, g_probs), nn.backprop(model, masks, g_probs)
    assert len(param_grads) == len(dims) - 1
    assert got.shape == ((3, 7, 3) if stacked else (7, 3))
    for k, m in enumerate(models):
        want_params, want = oracle_backprop(m, oracle_forward(m, x), g_probs)
        assert (got[k] if stacked else got).tobytes() == want.tobytes()
        for (gw, gb), (ww, wb) in zip(param_grads, want_params):
            assert (gw[k] if stacked else gw).tobytes() == ww.tobytes()
            assert (gb[k, 0] if stacked else gb).tobytes() == wb.tobytes()


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_is_exact_noop():
    model = tiny_model(5)
    state = nn.adam_init(model, lr=0.05)
    zeros = [(np.zeros_like(l.w), np.zeros_like(l.b)) for l in model.layers]
    new_model, new_state = nn.adam_step(model, zeros, state)
    for a, b in zip(model.layers, new_model.layers):
        assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)
    assert new_state.step == 1


def test_adam_zero_lr_is_noop():
    model = tiny_model(5)
    state = nn.adam_init(model, lr=0.0)
    grads = [(np.ones_like(l.w), np.ones_like(l.b)) for l in model.layers]
    new_model, _ = nn.adam_step(model, grads, state)
    for a, b in zip(model.layers, new_model.layers):
        assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)


def test_adam_matches_hand_rolled_scalar_trace():
    # 1-input 2-class layer, gradient 1.0 then 3.0 on w[0, 0] (a constant
    # one leaves beta2 out of the update), two steps
    w0 = 0.5
    layers = (nn.Layer(w=np.array([[w0, 0.0]]), b=np.zeros(2), act="id"),)
    model = nn.Model(layers=layers, num_classes=2)
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8  # the betas and eps: Adam's own
    state = nn.adam_init(model, lr=lr)

    theta, m, v = w0, 0.0, 0.0
    for t, gt in ((1, 1.0), (2, 3.0)):
        g = np.zeros((1, 2))
        g[0, 0] = gt
        model, state = nn.adam_step(model, [(g, np.zeros(2))], state)
        m = b1 * m + (1 - b1) * gt
        v = b2 * v + (1 - b2) * gt**2
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        theta = theta - lr * mhat / (math.sqrt(vhat) + eps)
        assert model.layers[0].w[0, 0] == pytest.approx(theta, abs=1e-15)
    # untouched coordinate never moved
    assert model.layers[0].w[0, 1] == 0.0


def test_adam_validation():
    model = tiny_model(0)
    state = nn.adam_init(model)
    bad = [(np.zeros((2, 2)), np.zeros(2))] * len(model.layers)
    with pytest.raises(ShapeError):
        nn.adam_step(model, bad, state)
    for lr in (-1.0, np.nan, np.inf, True, np.bool_(True), "a", None):
        with pytest.raises(DomainError, match="lr must be a finite non-negative real"):
            nn.adam_init(model, lr=lr)
    nan_grads = [(np.full_like(l.w, np.nan), np.zeros_like(l.b)) for l in model.layers]
    with pytest.raises(DomainError):
        nn.adam_step(model, nan_grads, state)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_is_byte_stable():
    model = tiny_model(9)
    s1 = json.dumps(nn.model_to_obj(model))
    loaded = nn.model_from_obj(json.loads(s1))
    s2 = json.dumps(nn.model_to_obj(loaded))
    assert s1 == s2
    for a, b in zip(model.layers, loaded.layers):
        assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b) and a.act == b.act
    assert loaded.num_classes == model.num_classes and loaded.seed == model.seed


def test_checkpoint_file_round_trip(tmp_path):
    # a Model's checkpoint is an ensemble file of one member
    model = tiny_model(2)
    path = tmp_path / "model.json"
    save_ensemble(Ensemble(members=(model,)), path)
    (loaded,) = load_ensemble(path).members
    assert nn.model_to_obj(loaded) == nn.model_to_obj(model)


def test_checkpoint_schema_and_errors(tmp_path):
    model = tiny_model(1)
    obj = nn.model_to_obj(model)
    assert set(obj) == {"layers", "num_classes", "seed"}
    assert set(obj["layers"][0]) == {"w", "b", "act"}
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        load_ensemble(path)
    with pytest.raises(FormatError):
        nn.model_from_obj({"num_classes": 3})
    with pytest.raises(FormatError):
        nn.model_from_obj({"layers": [{"w": "oops"}], "num_classes": 2})
