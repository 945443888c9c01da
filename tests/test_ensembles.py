import json

import numpy as np
import pytest

from advens import attacks, ensembles, nn
from advens.ensembles import Ensemble, Heads, SubsetPartition
from advens.errors import ConfigError, ContractError, ShapeError
from helpers import blobs_and_model, ensemble_and_batch, fit_plain


def constant_model(cls, num_classes=3, dim=2):
    # zero weights, a large bias on one class: predicts cls everywhere
    b = np.zeros(num_classes)
    b[cls] = 10.0
    layers = (nn.Layer(w=np.zeros((dim, num_classes)), b=b, act="id"),)
    return nn.Model(layers=layers, num_classes=num_classes)


def random_model(seed, dim=3, num_classes=4):
    return nn.init_model(dim, [6], num_classes, seed=seed)


# ---------------------------------------------------------------------------
# prediction


def test_identical_members_average_to_member():
    m = random_model(0)
    ens = Ensemble(members=(m, m))
    x = np.random.default_rng(1).random((10, 3))
    assert np.allclose(ensembles.ensemble_predict(ens, x), nn.forward(m, x), atol=1e-15)


def test_one_hot_members_average():
    m0 = constant_model(0)
    m1 = constant_model(1)
    ens = Ensemble(members=(m0, m1))
    probs = ensembles.ensemble_predict(ens, np.array([[0.2, 0.8]]))
    # softmax(10, 0, 0) is within 1e-4 of one-hot; the mean splits the mass
    assert abs(probs[0, 0] - 0.5) < 1e-4
    assert abs(probs[0, 1] - 0.5) < 1e-4
    assert probs[0, 2] < 1e-4


def test_three_member_mean_is_exact():
    ms = [random_model(s) for s in (1, 2, 3)]
    ens = Ensemble(members=tuple(ms))
    x = np.random.default_rng(4).random((7, 3))
    stack = [nn.forward(m, x) for m in ms]
    assert np.max(np.abs(ensembles.ensemble_predict(ens, x) - sum(stack) / 3)) < 1e-12
    assert np.max(np.abs(ensembles.ensemble_predict(ens, x).sum(axis=1) - 1)) < 1e-9


@pytest.mark.parametrize("kind", ["model", "ensemble", "stack"])
def test_a_stacked_batch_against_a_target_that_is_not_heads_raises_shape_error(kind):
    # slice k against member k is asked for through Heads.each alone; a
    # (K, B, d) batch once went per member to some calls and row-wise to others
    ens, x, labels = ensemble_and_batch(6)
    target = {"model": ens.members[0], "ensemble": ens, "stack": ens.stack}[kind]
    stacked = np.stack([x, x])
    calls = {
        "ce_values_and_input_grad": lambda: ensembles.ce_values_and_input_grad(target, stacked, labels),
        "spsa_gradient_estimate": lambda: attacks.spsa_gradient_estimate(
            target, stacked, labels, 1, 0.01, [np.random.default_rng(0), np.random.default_rng(1)]
        ),
        "ensemble_predict": lambda: ensembles.ensemble_predict(target, stacked),
        "predict_labels": lambda: ensembles.predict_labels(target, stacked),
    }
    for call in calls.values():
        with pytest.raises(ShapeError, match=r"\(2, 6, 4\)"):
            call()
    # and Heads take only their own iterate (H, B, d)
    with pytest.raises(ShapeError):
        ensembles.ce_values_and_input_grad(Heads.each(ens.stack), x, labels)


def test_heads_take_their_iterate_without_a_copy_where_each_slot_has_its_own_slice():
    # what keeps training's attack step from copying its iterate
    ens, x, _ = ensemble_and_batch(6)
    cur = np.stack([x, x / 2, x / 4])
    each = Heads.each(ens.stack)
    assert each.batch(cur[:2]).shape == (2, 6, 4) and np.shares_memory(each.batch(cur[:2]), cur[:2])
    g_probs = np.random.default_rng(0).random((2, 6, 3))
    before = g_probs.copy()
    slot_grads = each.slot_grads(g_probs)
    assert np.shares_memory(slot_grads, g_probs) and slot_grads.tobytes() == before.tobytes()
    # one head of all the members: its one batch, a view of slice 0
    one = Heads.whole(ens.stack).batch(cur[:1])
    assert one.shape == x.shape and np.shares_memory(one, cur) and one.tobytes() == cur[0].tobytes()
    # f1, f2 and en in lockstep: each head's slice once per slot of it
    taken = Heads.of([*ens.members, ens]).batch(cur)
    assert [t.tobytes() for t in taken] == [cur[h].tobytes() for h in (0, 1, 2, 2)]


def test_member_compatibility_checked():
    with pytest.raises(ConfigError):
        Ensemble(members=())
    with pytest.raises(ConfigError):
        Ensemble(members=(random_model(0, num_classes=4), random_model(1, num_classes=3)))
    with pytest.raises(ConfigError):
        Ensemble(members=(random_model(0, dim=3), random_model(1, dim=5)))
    # single member allowed: behaves as the member itself
    solo = Ensemble(members=(random_model(0),))
    x = np.random.default_rng(0).random((4, 3))
    assert np.allclose(ensembles.ensemble_predict(solo, x), nn.forward(solo.members[0], x))


# ---------------------------------------------------------------------------
# security sets


def test_partition_ball_contract_and_direct_argmax():
    # a probe is secure for a member when the member's argmax at the probe is
    # the label; every probe must lie in its ball, and a probe valid at eps'
    # stays valid in every ball of eps >= eps' around the same center
    ds, model = blobs_and_model(seed=2)
    rng = np.random.default_rng(3)
    eps = 0.08
    idx = rng.integers(0, len(ds), size=200)
    probes = np.clip(ds.inputs[idx] + rng.uniform(-eps, eps, size=(200, ds.dim)), 0, 1)
    part = ensembles.partition(model, model, probes, ds.inputs[idx], ds.labels[idx], eps)
    want = np.argmax(nn.forward(model, probes), axis=1) == ds.labels[idx]
    assert np.array_equal(part.assignments == "S11", want)
    assert np.array_equal(part.assignments == "S00", ~want)
    x, y = ds.inputs[idx[0]], ds.labels[idx[0]]
    with pytest.raises(ContractError):
        ensembles.partition(model, model, x + 0.2, x, y, 0.05)
    probe = np.clip(x + 0.01, 0, 1)
    for radius in (0.01 + 1e-8, 0.05):
        assert len(ensembles.partition(model, model, probe, x, y, radius).assignments) == 1


def test_partition_orientation_and_totality():
    # f1 wrong everywhere, f2 right everywhere -> S01 = 100 (first index = f1)
    f1 = constant_model(0)
    f2 = constant_model(1)
    x = np.full((8, 2), 0.5)
    probes = x.copy()
    part = ensembles.partition(f1, f2, probes, x, np.full(8, 1), 0.01)
    assert np.all(part.assignments == "S01")
    assert part.cardinalities == {"S11": 0.0, "S01": 100.0, "S10": 0.0, "S00": 100.0 * 0}
    both = ensembles.partition(f2, f2, probes, x, np.full(8, 1), 0.01)
    assert both.cardinalities["S11"] == 100.0
    assert abs(sum(part.cardinalities.values()) - 100.0) < 1e-12


def test_partition_mixed_cardinalities_sum_exactly():
    ds, m1 = blobs_and_model(seed=4)
    m2 = fit_plain(ds, seed=5, steps=60)
    rng = np.random.default_rng(6)
    eps = 0.1
    probes = np.clip(ds.inputs + rng.uniform(-eps, eps, ds.inputs.shape), 0, 1)
    part = ensembles.partition(m1, m2, probes, ds.inputs, ds.labels, eps)
    assert len(part.assignments) == len(ds)
    assert set(part.assignments) <= set(ensembles.TAGS)
    assert sum(part.cardinalities.values()) == pytest.approx(100.0, abs=1e-9)
    # the keys in TAGS order, each a Python float (transfer's metrics take them as they are)
    assert list(part.cardinalities) == list(ensembles.TAGS)
    assert all(type(v) is float for v in part.cardinalities.values())
    # totality: counts add back to the probe count
    total = sum(np.sum(part.assignments == t) for t in ensembles.TAGS)
    assert total == len(ds)


def test_joint_security_violations_zero_on_random_pairs():
    rng = np.random.default_rng(7)
    eps = 0.1
    for pair in range(10):
        f1 = random_model(100 + pair, dim=3, num_classes=3)
        f2 = random_model(200 + pair, dim=3, num_classes=3)
        centers = rng.random((40, 3))
        probes = np.clip(centers + rng.uniform(-eps, eps, centers.shape), 0, 1)
        y = rng.integers(0, 3, size=40)
        assert ensembles.joint_security_violations(f1, f2, probes, centers, y, eps) == 0


def test_containment_scope_ignores_joint_failures():
    # members that both fail may or may not leave the ensemble secure; the
    # violation counter must not flag them either way
    f1 = constant_model(0)
    f2 = constant_model(2)
    x = np.full((5, 2), 0.4)
    count = ensembles.joint_security_violations(f1, f2, x, x, np.full(5, 1), 0.01)
    assert count == 0


def test_partition_exports(tmp_path):
    part = SubsetPartition(
        assignments=np.array(["S11", "S00", "S01"], dtype="U3"),
        cardinalities={"S11": 100 / 3, "S01": 100 / 3, "S10": 0.0, "S00": 100 / 3},
    )
    path = tmp_path / "part.csv"
    ensembles.save_partition_csv(part, path)
    assert path.read_text() == "example_id,tag\n0,S11\n1,S00\n2,S01\n"
    summary = json.loads(json.dumps(part.cardinalities))  # JSON-ready, as transfer writes it
    assert list(summary) == list(ensembles.TAGS)
    assert summary["S11"] == pytest.approx(100 / 3)
