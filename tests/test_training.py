import math
from types import SimpleNamespace

import numpy as np
import pytest

from advens import analysis, attacks, data, nn, training
from advens.attacks import AttackSpec
from advens.ensembles import Ensemble
from advens.errors import ConfigError, DivergenceError
from advens.training import TrainConfig, derive_seed


def linear_model(w, b=None, num_classes=None):
    w = np.asarray(w, dtype=float)
    m = num_classes or w.shape[1]
    b = np.zeros(m) if b is None else np.asarray(b, dtype=float)
    return nn.Model(layers=(nn.Layer(w=w, b=b, act="id"),), num_classes=m)


def constant_model(logits, dim=2):
    logits = np.asarray(logits, dtype=float)
    return nn.Model(
        layers=(nn.Layer(w=np.zeros((dim, logits.size)), b=logits, act="id"),),
        num_classes=logits.size,
    )


def quick_attack(**kw):
    args = dict(family="pgd", steps=3, epsilon=0.05, eta=0.02, seed=0)
    args.update(kw)
    return AttackSpec(**args)


# ---------------------------------------------------------------------------
# config


def test_mode_table():
    for mode, (pm, dm) in (("RM", (1.0, 1.0)), ("DM", (0.0, 5.0)), ("Base", (0.0, 0.0))):
        cfg = TrainConfig(attack=quick_attack(), epochs=1, batch_size=8, seed=0, mode=mode)
        assert (cfg.lambda_pm, cfg.lambda_dm) == (pm, dm)
    with pytest.raises(ConfigError):
        TrainConfig(attack=quick_attack(), epochs=1, batch_size=8, seed=0, mode="RM", lambda_pm=2.0, lambda_dm=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(attack=quick_attack(), epochs=1, batch_size=8, seed=0, mode="zen")
    with pytest.raises(ConfigError):
        TrainConfig(attack=quick_attack(), epochs=1, batch_size=8, seed=0)  # custom, no lambdas
    with pytest.raises(ConfigError):
        TrainConfig(attack=quick_attack(), epochs=0, batch_size=8, seed=0, mode="RM")


# ---------------------------------------------------------------------------
# loss pieces


def test_promote_and_demote_loss_values():
    hot = constant_model([800.0, 0.0, 0.0])
    x = np.full((4, 2), 0.5)
    y0 = np.zeros(4, dtype=np.int64)
    assert training.promote_loss(hot, x, y0) == 0.0
    assert training.demote_loss(hot, x) == 0.0
    flat = constant_model(np.zeros(10))
    assert training.promote_loss(flat, x, y0) == pytest.approx(math.log(10), abs=1e-12)
    assert training.demote_loss(flat, x) == pytest.approx(math.log(10), abs=1e-12)
    # same arithmetic as the nn primitives
    probs = nn.forward(flat, x)
    assert training.promote_loss(flat, x, y0) == nn.cross_entropy(probs, y0)


def test_soft_indicator_values():
    hot = constant_model([0.0, 800.0])
    x = np.full((3, 2), 0.5)
    assert np.array_equal(training.soft_indicator(hot, x, np.full(3, 1)), np.ones(3))
    assert np.array_equal(training.soft_indicator(hot, x, np.zeros(3, dtype=int)), np.zeros(3))


def test_collab_loss_hand_arithmetic():
    # two 1-d linear members, one example; every term recomputed with
    # explicit scalar math
    f1 = linear_model([[1.0, -1.0]])
    f2 = linear_model([[0.5, 0.2]], b=[0.1, -0.1])
    ens = Ensemble(members=(f1, f2))
    x = np.array([[0.3]])
    y = np.array([0])
    xa1 = np.array([[0.4]])
    xa2 = np.array([[0.2]])
    lpm, ldm = 0.7, 1.3

    def probs1(v):
        z = (v * 1.0, v * -1.0)
        e = (math.exp(z[0]), math.exp(z[1]))
        s = e[0] + e[1]
        return (e[0] / s, e[1] / s)

    p_clean = probs1(0.3)
    p_own = probs1(0.4)
    p_cross = probs1(0.2)
    ind = p_cross[0]
    h_cross = -(p_cross[0] * math.log(p_cross[0]) + p_cross[1] * math.log(p_cross[1]))
    expected = (
        -math.log(p_clean[0])
        - math.log(p_own[0])
        + lpm * ind * -math.log(p_cross[0])
        - ldm * (1 - ind) * h_cross
    )
    total, parts = training.member_collab_loss(0, ens, x, y, [xa1, xa2], lpm, ldm)
    assert total == pytest.approx(expected, abs=1e-12)
    assert parts["clean_ce"] == pytest.approx(-math.log(p_clean[0]), abs=1e-12)
    assert parts["dpo_ce"] == pytest.approx(-math.log(p_own[0]), abs=1e-12)
    assert parts["cpo_ce"] == pytest.approx(lpm * ind * -math.log(p_cross[0]), abs=1e-12)
    assert parts["do_h"] == pytest.approx(ldm * (1 - ind) * h_cross, abs=1e-12)
    assert total == parts["clean_ce"] + parts["dpo_ce"] + parts["cpo_ce"] - parts["do_h"]


def test_two_member_form_matches_general_loss():
    # the N=2 pairwise objectives, coded directly, against the general form
    rng = np.random.default_rng(0)
    f1 = linear_model(rng.normal(size=(3, 4)))
    f2 = linear_model(rng.normal(size=(3, 4)))
    ens = Ensemble(members=(f1, f2))
    x = rng.random((5, 3))
    xa = [rng.random((5, 3)), rng.random((5, 3))]
    y = rng.integers(0, 4, size=5)
    lpm, ldm = 1.0, 1.0

    def pairwise(f, own, other, other_idx):
        p_cross = nn.forward(f, other)
        ind = p_cross[np.arange(5), y]
        return (
            nn.cross_entropy(nn.forward(f, x), y)
            + nn.cross_entropy(nn.forward(f, own), y)
            + lpm * float(np.mean(ind * nn.cross_entropy_per_example(p_cross, y)))
            - ldm * float(np.mean((1 - ind) * nn.entropy(p_cross)))
        )

    t1, _ = training.member_collab_loss(0, ens, x, y, xa, lpm, ldm)
    t2, _ = training.member_collab_loss(1, ens, x, y, xa, lpm, ldm)
    assert t1 == pytest.approx(pairwise(f1, xa[0], xa[1], 1), abs=1e-12)
    assert t2 == pytest.approx(pairwise(f2, xa[1], xa[0], 0), abs=1e-12)


def test_lambda_zero_collapses_to_plain_adversarial_loss():
    rng = np.random.default_rng(1)
    f1 = linear_model(rng.normal(size=(2, 3)))
    f2 = linear_model(rng.normal(size=(2, 3)))
    ens = Ensemble(members=(f1, f2))
    x = rng.random((4, 2))
    xa = [rng.random((4, 2)), rng.random((4, 2))]
    y = rng.integers(0, 3, size=4)
    total, parts = training.member_collab_loss(0, ens, x, y, xa, 0.0, 0.0)
    at = nn.cross_entropy(nn.forward(f1, x), y) + nn.cross_entropy(nn.forward(f1, xa[0]), y)
    assert total == pytest.approx(at, abs=1e-12)
    assert parts["cpo_ce"] == 0.0 and parts["do_h"] == 0.0


def test_collab_loss_needs_two_members():
    f = linear_model(np.zeros((2, 3)))
    solo = Ensemble(members=(f,))
    with pytest.raises(ConfigError):
        training.member_collab_loss(0, solo, np.zeros((1, 2)), np.zeros(1, dtype=int), [np.zeros((1, 2))], 1, 1)


def test_case_logic_with_exact_indicators():
    # exact one-hot / exact-zero-mass outputs realize the hard-gate rows:
    # a member correct on the other's adversarial batch runs promote only,
    # a wrong member runs demote only
    y = np.zeros(2, dtype=np.int64)
    x = np.full((2, 2), 0.5)
    adv = [x + 0.01, x - 0.01]
    right = constant_model([0.0, -2000.0, -2000.0])  # probs (1, 0, 0) exactly
    wrong = constant_model([-2000.0, 0.0, 0.0])  # probs (0, .5, .5) exactly
    lpm, ldm = 1.0, 5.0

    # scenario: other member's adversarial sits where this member is right
    ens = Ensemble(members=(right, wrong))
    _, parts = training.member_collab_loss(0, ens, x, y, adv, lpm, ldm)
    assert parts["cpo_gate"] == 1.0 and parts["do_gate"] == 0.0
    assert parts["do_h"] == 0.0  # demote gated off exactly

    # scenario: this member is wrong there -> demote only, fully active
    _, parts = training.member_collab_loss(1, ens, x, y, adv, lpm, ldm)
    assert parts["cpo_gate"] == 0.0 and parts["do_gate"] == 1.0
    assert parts["cpo_ce"] == 0.0  # promote gated off despite clamped CE
    assert parts["do_h"] == pytest.approx(ldm * math.log(2), abs=1e-12)

    # both-right and both-wrong rows, for completeness
    ens_rr = Ensemble(members=(right, right))
    _, p_rr = training.member_collab_loss(0, ens_rr, x, y, adv, lpm, ldm)
    assert p_rr["cpo_gate"] == 1.0 and p_rr["do_h"] == 0.0
    ens_ww = Ensemble(members=(wrong, wrong))
    _, p_ww = training.member_collab_loss(0, ens_ww, x, y, adv, lpm, ldm)
    assert p_ww["do_gate"] == 1.0 and p_ww["cpo_ce"] == 0.0
    assert p_ww["do_h"] == pytest.approx(ldm * math.log(2), abs=1e-12)


def test_stop_gradient_contract_by_finite_differences():
    # the analytic gradient must equal finite differences of the loss with
    # the gates frozen at their base values
    rng = np.random.default_rng(3)
    f1 = linear_model(rng.normal(size=(2, 3)) * 0.5)
    f2 = linear_model(rng.normal(size=(2, 3)) * 0.5)
    members = [f1, f2]
    x = rng.random((4, 2))
    adv = [rng.random((4, 2)), rng.random((4, 2))]
    y = rng.integers(0, 3, size=4)
    lpm, ldm = 1.0, 2.0

    base_gates = {1: training.soft_indicator(f1, adv[1], y)}
    _, _, grads = training._member_collab_grads(0, members, x, y, adv, lpm, ldm)

    def loss_at(w):
        f = linear_model(w)
        frozen = Ensemble(members=(f, f2))
        total, _ = training.member_collab_loss(
            0, frozen, x, y, adv, lpm, ldm, indicators=base_gates
        )
        return total

    h = 1e-4
    w0 = f1.layers[0].w
    fd = np.zeros_like(w0)
    for i in range(w0.size):
        idx = np.unravel_index(i, w0.shape)
        up, dn = w0.copy(), w0.copy()
        up[idx] += h
        dn[idx] -= h
        fd[idx] = (loss_at(up) - loss_at(dn)) / (2 * h)
    assert np.max(np.abs(grads[0][0] - fd)) < 1e-6


# ---------------------------------------------------------------------------
# ensemble-as-one-model loss and the diversity regularizer


def test_ensemble_adv_loss_hand_value_and_single_member():
    rng = np.random.default_rng(4)
    f1 = linear_model(rng.normal(size=(2, 3)))
    f2 = linear_model(rng.normal(size=(2, 3)))
    x = rng.random((4, 2))
    xa = rng.random((4, 2))
    y = rng.integers(0, 3, size=4)
    ens = Ensemble(members=(f1, f2))
    total, parts = training.ensemble_adv_loss(ens, x, y, xa)
    mean_clean = (nn.forward(f1, x) + nn.forward(f2, x)) / 2
    mean_adv = (nn.forward(f1, xa) + nn.forward(f2, xa)) / 2
    want = nn.cross_entropy(mean_clean, y) + nn.cross_entropy(mean_adv, y)
    assert total == pytest.approx(want, abs=1e-12)
    assert total == parts["clean_ce"] + parts["dpo_ce"]

    solo = Ensemble(members=(f1,))
    total_solo, _ = training.ensemble_adv_loss(solo, x, y, xa)
    at = nn.cross_entropy(nn.forward(f1, x), y) + nn.cross_entropy(nn.forward(f1, xa), y)
    assert total_solo == pytest.approx(at, abs=1e-15)


def test_identical_members_get_identical_gradients():
    rng = np.random.default_rng(5)
    f = linear_model(rng.normal(size=(2, 3)))
    x = rng.random((4, 2))
    xa = rng.random((4, 2))
    y = rng.integers(0, 3, size=4)
    _, _, grads = training._ensemble_adv_grads([f, f], x, y, xa)
    for (gw1, gb1), (gw2, gb2) in zip(grads[0], grads[1]):
        assert np.array_equal(gw1, gw2) and np.array_equal(gb1, gb2)


def test_ensemble_adv_grads_match_finite_differences():
    rng = np.random.default_rng(6)
    f1 = linear_model(rng.normal(size=(2, 3)) * 0.7)
    f2 = linear_model(rng.normal(size=(2, 3)) * 0.7)
    x = rng.random((3, 2))
    xa = rng.random((3, 2))
    y = rng.integers(0, 3, size=3)
    _, _, grads = training._ensemble_adv_grads([f1, f2], x, y, xa)

    h = 1e-4
    w0 = f1.layers[0].w
    fd = np.zeros_like(w0)
    for i in range(w0.size):
        idx = np.unravel_index(i, w0.shape)
        up, dn = w0.copy(), w0.copy()
        up[idx] += h
        dn[idx] -= h
        lu, _ = training.ensemble_adv_loss(Ensemble(members=(linear_model(up), f2)), x, y, xa)
        ld, _ = training.ensemble_adv_loss(Ensemble(members=(linear_model(dn), f2)), x, y, xa)
        fd[idx] = (lu - ld) / (2 * h)
    assert np.max(np.abs(grads[0][0][0] - fd)) < 1e-6


def test_diversity_regularizer_hand_cases():
    # identical members: collinear rows, determinant 0, clamped at floor
    p = np.array([[0.2, 0.5, 0.3], [0.2, 0.5, 0.3]])
    value, clamped = training.diversity_regularizer(p, 0, alpha=0.0, beta=1.0)
    assert clamped == 1
    assert value == pytest.approx(math.log(1e-30))

    # orthogonal non-maximal vectors: determinant exactly 1, log 0
    q = np.array([[0.5, 0.5, 0.0], [0.4, 0.0, 0.6]])
    value, clamped = training.diversity_regularizer(q, 0, alpha=0.0, beta=1.0)
    assert clamped == 0
    assert value == pytest.approx(0.0, abs=1e-12)

    # alpha term only: entropy of the mean row
    mean_row = (q[0] + q[1]) / 2
    h = -(mean_row * np.log(mean_row)).sum()
    value, _ = training.diversity_regularizer(q, 0, alpha=2.0, beta=0.0)
    assert value == pytest.approx(2 * h, abs=1e-12)

    # alpha = beta = 0 switches the regularizer off
    value, _ = training.diversity_regularizer(q, 0, alpha=0.0, beta=0.0)
    assert value == 0.0

    with pytest.raises(ConfigError):
        training.diversity_regularizer(q[:1], 0, 1.0, 1.0)


def test_diversity_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    probs = rng.dirichlet(np.ones(4), size=(3, 5)).transpose(0, 1, 2)  # (3 members, 5 examples, 4)
    y = rng.integers(0, 4, size=5)
    alpha, beta = 1.5, 0.8
    value, grads, clamped = training._diversity_value_and_grads(probs, y, alpha, beta)
    assert clamped == 0
    h = 1e-6
    for _ in range(20):
        n = rng.integers(0, 3)
        e = rng.integers(0, 5)
        j = rng.integers(0, 4)
        up, dn = probs.copy(), probs.copy()
        up[n, e, j] += h
        dn[n, e, j] -= h
        vu, _, _ = training._diversity_value_and_grads(up, y, alpha, beta)
        vd, _, _ = training._diversity_value_and_grads(dn, y, alpha, beta)
        fd = (vu - vd) / (2 * h)
        assert grads[n, e, j] == pytest.approx(fd, abs=2e-4)


# ---------------------------------------------------------------------------
# the loop


def small_setup(seed=0, n_per_class=12, num_classes=2, dim=3):
    ds = data.gen_blobs(seed=seed, n_per_class=n_per_class, num_classes=num_classes, dim=dim, separation=3)
    ens = training.init_ensemble(dim, [8], num_classes, 2, seed=seed)
    return ds, ens


@pytest.mark.parametrize("method", ["CCE", "ADP"])
def test_epoch_accuracies_equal_the_public_measures_of_the_trained_ensemble(method):
    # the last epoch evaluates the final weights: its accuracies are the
    # analysis module's, with the epoch's own attack seed
    ds, ens = small_setup(num_classes=3)
    cfg = TrainConfig(attack=quick_attack(epsilon=0.3, eta=0.1), epochs=2, batch_size=12, seed=4, mode="RM")
    report = training.train(ens, ds, cfg, method)
    spec = quick_attack(epsilon=0.3, eta=0.1, seed=derive_seed(cfg.seed, training._TAG_EVAL, 1))
    last = report.epochs[-1]
    assert last.nat_acc == analysis.natural_accuracy(report.ensemble, ds)
    assert last.rob_acc == analysis.robust_accuracy(report.ensemble, ds, spec)
    assert 0.0 < last.rob_acc < last.nat_acc  # the attack defeats some examples, not all


def test_train_smoke_all_methods():
    # 3 classes: ADP rejects more members than num_classes - 1
    ds, ens = small_setup(num_classes=3)
    cfg = TrainConfig(attack=quick_attack(), epochs=2, batch_size=12, seed=5, mode="RM", lr=0.01)
    for method in training.METHODS:
        report = training.train(ens, ds, cfg, method)
        assert len(report.epochs) == 2
        assert report.method == method
        for ep in report.epochs:
            assert 0.0 <= ep.nat_acc <= 100.0 and 0.0 <= ep.rob_acc <= 100.0
            for terms in ep.member_terms:
                assert all(np.isfinite(v) for v in terms.values())


def test_train_is_deterministic():
    ds, ens = small_setup(seed=1)
    cfg = TrainConfig(attack=quick_attack(), epochs=2, batch_size=8, seed=9, mode="RM", lr=0.01)
    r1 = training.train(ens, ds, cfg, "CCE")
    r2 = training.train(ens, ds, cfg, "CCE")
    for m1, m2 in zip(r1.ensemble.members, r2.ensemble.members):
        for l1, l2 in zip(m1.layers, m2.layers):
            assert np.array_equal(l1.w, l2.w) and np.array_equal(l1.b, l2.b)
    assert r1.epochs == r2.epochs


def test_cce_base_equals_per_member_adversarial_training():
    # lambdas (0,0): the collaborative loss is exactly per-member
    # adversarial training, and the attack seed lineage coincides
    ds, ens = small_setup(seed=2)
    cfg = TrainConfig(attack=quick_attack(), epochs=2, batch_size=8, seed=4, mode="Base", lr=0.01)
    r_base = training.train(ens, ds, cfg, "CCE")
    r_adv = training.train(ens, ds, cfg, "ADV")
    for m1, m2 in zip(r_base.ensemble.members, r_adv.ensemble.members):
        for l1, l2 in zip(m1.layers, m2.layers):
            assert np.array_equal(l1.w, l2.w) and np.array_equal(l1.b, l2.b)
    for ep in r_base.epochs:
        for terms in ep.member_terms:
            assert terms["cpo_ce"] == 0.0 and terms["do_h"] == 0.0


def test_train_validation_and_divergence(monkeypatch):
    ds, ens = small_setup(seed=3)
    cfg = TrainConfig(attack=quick_attack(), epochs=1, batch_size=8, seed=0, mode="RM")
    with pytest.raises(ConfigError):
        training.train(ens, ds, cfg, "FGSM_TRAIN")
    solo = Ensemble(members=ens.members[:1])
    with pytest.raises(ConfigError):
        training.train(solo, ds, cfg, "CCE")
    wrong_m = data.gen_blobs(seed=0, n_per_class=5, num_classes=3, dim=3, separation=3)
    with pytest.raises(ConfigError):
        training.train(ens, wrong_m, cfg, "ADV")

    def explode(stack, *args, **kwargs):
        terms = [(np.inf, {"clean_ce": np.inf, "dpo_ce": 0.0, "cpo_ce": 0.0, "do_h": 0.0})] * len(stack)
        return terms, [[(np.zeros_like(l.w), np.zeros_like(l.b)) for l in run.layers] for run in stack.runs]

    monkeypatch.setattr(training, "_collab_step", explode)
    with pytest.raises(DivergenceError, match="epoch 0 batch 0"):
        training.train(ens, ds, cfg, "CCE")


def test_adp_rejects_more_members_than_classes_minus_one():
    # the Gram matrix of N rows with num_classes - 1 entries is singular for N > num_classes - 1
    ds, ens = small_setup(num_classes=3)
    cfg = TrainConfig(attack=quick_attack(), epochs=1, batch_size=12, seed=0, mode="RM")
    three = training.init_ensemble(3, [8], 3, 3, seed=0)
    with pytest.raises(ConfigError, match="3 members for 3 classes"):
        training.train(three, ds, cfg, "ADP")
    assert training.train(ens, ds, cfg, "ADP").method == "ADP"  # 2 members, 3 classes


@pytest.mark.parametrize(
    "method, forwards",
    [
        ("CCE", lambda n: [n * (n + 1)]),  # per member: clean, own, then its crossings
        ("ADV", lambda n: [2 * n]),
        ("ADP", lambda n: [n, n]),  # clean, adversarial
    ],
)
def test_one_step_forwards_each_member_batch_pair_once(monkeypatch, method, forwards):
    # one epoch of one batch; the attacks and the epoch evaluation are
    # stubbed out, so every forwarded (member, batch) slice belongs to the
    # training step
    n = 3
    ds = data.gen_blobs(seed=0, n_per_class=4, num_classes=4, dim=3, separation=3)
    ens = training.init_ensemble(3, [8], 4, n, seed=0)
    cfg = TrainConfig(attack=quick_attack(), epochs=1, batch_size=len(ds), seed=0, mode="RM")
    monkeypatch.setattr(
        training, "run_attack",
        lambda target, x, y, spec: SimpleNamespace(
            adversarial=np.clip(x + 0.01, 0.0, 1.0), success_mask=np.zeros(len(x), dtype=bool)
        ),
    )
    monkeypatch.setattr(
        training, "run_member_attacks",
        lambda members, x, y, specs: [
            SimpleNamespace(adversarial=np.clip(x + 0.01, 0.0, 1.0)) for _ in range(len(members))
        ],
    )
    monkeypatch.setattr(training, "predict_labels", lambda target, x: np.zeros(len(x), dtype=int))
    slices = []
    forward_cached = nn.forward_cached

    def counting(model, batch, *args, **kwargs):
        slices.append(len(batch) if np.ndim(batch) == 3 else len(model.layers[0].w))
        return forward_cached(model, batch, *args, **kwargs)

    monkeypatch.setattr(nn, "forward_cached", counting)
    training.train(ens, ds, cfg, method)
    assert slices == forwards(n)  # one stacked forward per slice group
    assert sum(slices) == {"CCE": n * (n + 1), "ADV": 2 * n, "ADP": 2 * n}[method]


@pytest.mark.parametrize("method", ["CCE", "ADV"])
def test_member_attacks_of_a_batch_take_steps_stacked_steps_and_no_backprop(monkeypatch, method):
    # one epoch of one batch: the members' attacks advance together, one
    # stacked input-gradient step per attack step, and form no parameter
    # gradient; the epoch evaluation is stubbed out
    n, steps = 3, 4
    ds = data.gen_blobs(seed=0, n_per_class=4, num_classes=4, dim=3, separation=3)
    ens = training.init_ensemble(3, [8], 4, n, seed=0)
    cfg = TrainConfig(
        attack=quick_attack(steps=steps), epochs=1, batch_size=len(ds), seed=0, mode="RM"
    )
    monkeypatch.setattr(
        training, "run_attack",
        lambda target, x, y, spec: SimpleNamespace(adversarial=x, success_mask=np.zeros(len(x), dtype=bool)),
    )
    monkeypatch.setattr(training, "predict_labels", lambda target, x: np.zeros(len(x), dtype=int))
    inside, step_shapes, backprop_inside = [], [], []

    def wrap(fn, record):
        def counted(*args):
            record(args)
            return fn(*args)
        return counted

    member_attacks = training.run_member_attacks

    def attacking(*args):
        inside.append(True)
        try:
            return member_attacks(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(training, "run_member_attacks", attacking)
    monkeypatch.setattr(
        attacks, "ce_values_and_input_grad",
        wrap(attacks.ce_values_and_input_grad, lambda args: step_shapes.append(np.shape(args[1]))),
    )
    monkeypatch.setattr(nn, "backprop", wrap(nn.backprop, lambda args: backprop_inside.append(bool(inside))))
    training.train(ens, ds, cfg, method)
    assert step_shapes == [(n, len(ds), 3)] * steps
    assert backprop_inside and not any(backprop_inside)  # the training step backprops, the attacks do not


def test_member_seed_lineage_and_derive_seed():
    ens = training.init_ensemble(3, [4], 2, 3, seed=100)
    assert tuple(m.seed for m in ens.members) == (100, 101, 102)
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)


def test_report_csv_and_dict(tmp_path):
    ds, ens = small_setup(seed=4)
    cfg = TrainConfig(attack=quick_attack(), epochs=1, batch_size=12, seed=2, mode="DM", lr=0.01)
    report = training.train(ens, ds, cfg, "CCE")
    path = tmp_path / "report.csv"
    training.save_report_csv(report, path, preamble="# seed=2\n")
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed=2"
    assert lines[1] == "epoch,member,clean_ce,dpo_ce,cpo_ce,do_h,nat_acc,rob_acc"
    assert len(lines) == 2 + 2  # one epoch, two members
    d = training.report_to_dict(report)
    assert d["mode"] == "DM" and d["lambda_pm"] == 0.0 and d["lambda_dm"] == 5.0
    assert d["attack"]["family"] == "pgd"
    # decomposition signs: total reassembles from the four columns
    row = lines[2].split(",")
    total = float(row[2]) + float(row[3]) + float(row[4]) - float(row[5])
    assert np.isfinite(total)
