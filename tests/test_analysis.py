import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from advens import analysis, attacks, data, ensembles, nn, training
from advens.atomic import write_json
from advens.attacks import AttackSpec, run_attack
from advens.ensembles import Ensemble, Heads, partition, predict_labels
from advens.errors import (
    ConfigError,
    ConsistencyWarning,
    ContractError,
    DomainError,
    ShapeError,
)
from helpers import blobs_and_model, ensemble_and_batch, fit_plain


def linear_model(w, b=None):
    w = np.asarray(w, dtype=float)
    b = np.zeros(w.shape[1]) if b is None else np.asarray(b, dtype=float)
    return nn.Model(layers=(nn.Layer(w=w, b=b, act="id"),), num_classes=w.shape[1])


def constant_model(logits, dim=2):
    logits = np.asarray(logits, dtype=float)
    return nn.Model(
        layers=(nn.Layer(w=np.zeros((dim, logits.size)), b=logits, act="id"),),
        num_classes=logits.size,
    )


def pgd(**kw):
    args = dict(family="pgd", steps=5, epsilon=0.05, eta=0.02, seed=0)
    args.update(kw)
    return AttackSpec(**args)


def brute_force_auc(benign, adv):
    total = 0
    for a in adv:
        for b in benign:
            total += 2 if a > b else (1 if a == b else 0)
    return total / (2 * len(benign) * len(adv))


# ---------------------------------------------------------------------------
# accuracies


def test_zero_budget_attack_equals_natural_accuracy():
    ds, model = blobs_and_model(seed=0)
    nat = analysis.natural_accuracy(model, ds)
    rob = analysis.robust_accuracy(model, ds, pgd(epsilon=0.0, eta=0.01))
    assert rob == nat


def test_constant_correct_model_is_fully_robust():
    ds = data.gen_blobs(seed=1, n_per_class=20, num_classes=2, dim=2, separation=3)
    always0 = constant_model([800.0, 0.0])
    sub = data.Dataset(inputs=ds.inputs[ds.labels == 0], labels=ds.labels[ds.labels == 0], num_classes=2, name="sub", seed=1)
    assert analysis.robust_accuracy(always0, sub, pgd(epsilon=0.1)) == 100.0


def test_robust_accuracy_complements_success_rate():
    ds, model = blobs_and_model(seed=2)
    spec = pgd(epsilon=0.08)
    result = run_attack(model, ds.inputs, ds.labels, spec)
    rob = analysis.robust_accuracy(model, ds, spec)
    assert rob == pytest.approx(100.0 * (1 - result.success_mask.mean()), abs=1e-9)


def test_robust_accuracy_reads_the_attack_and_equals_scoring_its_batch(monkeypatch):
    ds, model = blobs_and_model(seed=2)
    ens = Ensemble(members=(model, fit_plain(ds, seed=7)))
    spec = pgd(epsilon=0.08)
    for target in (model, ens):
        adv = run_attack(target, ds.inputs, ds.labels, spec).adversarial
        scored = float(np.mean(analysis.predict_labels(target, adv) == ds.labels) * 100.0)
        assert analysis.robust_accuracy(target, ds, spec) == scored
    # the attack's own final prediction is the score: no second forward
    monkeypatch.setattr(analysis, "predict_labels", None)
    analysis.robust_accuracy(ens, ds, spec)


def test_cross_matrix_scores_each_attacked_batch_in_one_pass_of_the_distinct_members(monkeypatch):
    # m1 and the second model are the distinct members; each of the three
    # batches takes one pass of the member its attacked head does not hold
    # (the head's own rows come from its final check), and no target is
    # scored on its own
    ds, m1 = blobs_and_model(seed=3)
    targets = [m1, fit_plain(ds, seed=7), Ensemble(members=(m1, m1))]
    spec = pgd(epsilon=0.06)
    passes = []
    probs = analysis.member_probs
    monkeypatch.setattr(analysis, "member_probs", lambda t, x: passes.append(len(t)) or probs(t, x))
    monkeypatch.setattr(analysis, "predict_labels", None)
    mat = analysis.cross_matrix(targets, ds, spec)
    assert passes == [1] * 3
    for i, target in enumerate(targets):  # each row's lone attack, bit-equal to its lockstep row
        adv = run_attack(target, ds.inputs, ds.labels, spec).adversarial
        for j, t in enumerate(targets):
            assert mat.a[i, j] == np.mean(predict_labels(t, adv) == ds.labels) * 100.0
    assert mat.adversarial.tobytes() == adv.tobytes()  # the last row's batch, the only one kept


def test_cross_matrix_of_members_then_their_ensemble_scores_each_batch_in_one_pass(monkeypatch):
    ds = data.gen_blobs(seed=6, n_per_class=30, num_classes=3, dim=3, separation=3)
    ens = training.init_ensemble(3, [8], 3, 2, seed=6)
    targets = [*ens.members, ens]
    passes = []
    probs = analysis.member_probs
    monkeypatch.setattr(analysis, "member_probs", lambda t, x: passes.append(t) or probs(t, x))
    monkeypatch.setattr(analysis, "predict_labels", None)  # no per-target scoring
    mat = analysis.cross_matrix(targets, ds, pgd(epsilon=0.1))
    # a member's batch takes one pass of the other member; en's batch is
    # scored from its attack's final rows alone
    assert [len(t) for t in passes] == [1, 1]
    for t, other in zip(passes, reversed(ens.members)):
        assert np.array_equal(t.layers[0].w[0], other.layers[0].w)
    for i, target in enumerate(targets):  # each row's lone attack, bit-equal to its lockstep row
        adv = run_attack(target, ds.inputs, ds.labels, pgd(epsilon=0.1)).adversarial
        for j, t in enumerate(targets):
            ok = predict_labels(t, adv) == ds.labels
            assert np.array_equal(mat.correct[i][j], ok)
            assert mat.a[i, j] == np.mean(ok) * 100.0
    # the matrix keeps en's batch, and the partition takes its row's member
    # masks as they are
    assert mat.adversarial.tobytes() == adv.tobytes()
    part = partition(*ens.members, adv, ds.inputs, ds.labels, 0.1)
    shared = partition(*ens.members, adv, ds.inputs, ds.labels, 0.1, correct=mat.correct[-1][:2])
    assert np.array_equal(shared.assignments, part.assignments)
    assert shared.cardinalities == part.cardinalities
    with pytest.raises(ShapeError):
        partition(*ens.members, adv, ds.inputs, ds.labels, 0.1, correct=mat.correct[-1][:2, 1:])
    with pytest.raises(ContractError):
        partition(*ens.members, adv + 0.2, ds.inputs, ds.labels, 0.1, correct=mat.correct[-1][:2])


# ---------------------------------------------------------------------------
# cross matrices and derived metrics


def test_cross_matrix_diagonal_and_identical_models():
    ds, m1 = blobs_and_model(seed=3)
    m2 = fit_plain(ds, seed=7)
    spec = pgd(epsilon=0.06)
    mat = analysis.cross_matrix([m1, m2, m1], ds, spec)
    assert mat.labels == ("f1", "f2", "f3")
    for i, m in enumerate([m1, m2, m1]):
        assert mat.a[i, i] == pytest.approx(analysis.robust_accuracy(m, ds, spec), abs=1e-9)
    # duplicated model: attacking it transfers perfectly to its twin
    assert mat.a[0, 2] == mat.a[0, 0]
    assert mat.a[2, 0] == mat.a[2, 2]


@pytest.mark.parametrize("rows", [30, 4096])  # one search of both targets; one at a time, in row blocks
def test_cross_matrix_of_two_checkpoints_equals_lone_attacks_and_scoring(monkeypatch, rows):
    ens_a, x, y = ensemble_and_batch(rows)
    ens_b, _, _ = ensemble_and_batch(rows, seed=5)
    ds = data.Dataset(inputs=x, labels=y, num_classes=3, name="two", seed=0)
    spec = pgd(steps=3, epsilon=0.05, eta=0.02)
    searches, passes = [], []
    search, probs = attacks._search, analysis.member_probs
    monkeypatch.setattr(attacks, "_search", lambda heads, *a: searches.append(len(heads)) or search(heads, *a))
    monkeypatch.setattr(analysis, "member_probs", lambda t, x: passes.append(len(t)) or probs(t, x))
    mat = analysis.cross_matrix([ens_a, ens_b], ds, spec)
    assert searches == ([2] if rows == 30 else [1, 1])
    assert passes == [2, 2]  # each batch forwards the other checkpoint's members only
    monkeypatch.undo()
    assert mat.labels == ("en", "en2")
    for i, target in enumerate((ens_a, ens_b)):
        lone = run_attack(target, x, y, spec)
        for j, other in enumerate((ens_a, ens_b)):
            ok = ~lone.success_mask if j == i else predict_labels(other, lone.adversarial) == y
            assert np.array_equal(mat.correct[i][j], ok)
            assert mat.a[i, j] == np.mean(ok) * 100.0
    assert mat.adversarial.tobytes() == lone.adversarial.tobytes()  # the last row's batch alone


def test_cross_matrix_holds_one_attacked_batch_and_the_ball_check_no_whole_batch_temporary():
    # tracemalloc sees numpy's array buffers; a batch of 4,096 rows attacks
    # its heads one at a time, in row blocks
    ens, x, y = ensemble_and_batch(4096, d=16)
    ds = data.Dataset(inputs=x, labels=y, num_classes=3, name="big", seed=0)
    targets, spec = [*ens.members, ens], pgd(steps=2)
    analysis.cross_matrix(targets, ds, spec)  # the helper pool and any lazy set-up
    probes = np.random.default_rng(0).random((10_000, 64))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mat = analysis.cross_matrix(targets, ds, spec)
        held = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        ensembles._check_in_ball(probes, probes, 0.01)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert mat.adversarial.shape == x.shape and held < 2 * x.nbytes  # one batch, not one per row
    assert peak < probes.nbytes  # under one batch of 5.12 MB: the gaps go a row block at a time


def test_cross_matrix_of_one_row_block_holds_one_attacked_batch():
    # 300 rows attack f1, f2 and en in one lockstep search, whose results
    # are slices of one (3, 300, d) iterate: the kept batch is copied out
    ens, x, y = ensemble_and_batch(300, d=64)
    ds = data.Dataset(inputs=x, labels=y, num_classes=3, name="small", seed=0)
    targets, spec = [*ens.members, ens], pgd(steps=2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mat = analysis.cross_matrix(targets, ds, spec)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    adv = mat.adversarial
    assert adv.shape == x.shape and (adv.base is None or adv.base.nbytes == adv.nbytes)
    assert held < 2 * x.nbytes  # one batch, not the three of the iterate


def test_head_labels_equal_each_targets_predicted_labels():
    ens, x, _ = ensemble_and_batch(50, members=3)
    m1, m2, m3 = ens.members
    targets = [m2, ens, Ensemble(members=(m3, m1)), m3]
    heads = Heads.of(targets)
    assert heads.groups == ((0,), (1, 0, 2), (2, 1), (2,))
    for labels, target in zip(analysis.head_labels(heads, x), targets, strict=True):
        assert np.array_equal(labels, predict_labels(target, x))


def test_targets_of_two_layer_shapes_raise_shape_error():
    ens, x, y = ensemble_and_batch(30)
    wider, _, _ = ensemble_and_batch(30, hidden=(6,))
    ds = data.Dataset(inputs=x, labels=y, num_classes=3, name="two", seed=0)
    with pytest.raises(ShapeError):
        analysis.cross_matrix([ens, wider], ds, pgd())
    with pytest.raises(ShapeError):
        Heads.of([ens.members[0], wider.members[0]])


def test_cross_matrix_labels_and_validation():
    ds, m1 = blobs_and_model(seed=4)
    ens = Ensemble(members=(m1, fit_plain(ds, seed=5)))
    mat = analysis.cross_matrix([m1, ens], ds, pgd(steps=2))
    assert mat.labels == ("f1", "en")
    with pytest.raises(ConfigError):
        analysis.cross_matrix([m1], ds, pgd())
    with pytest.raises(DomainError):
        analysis.CrossMatrix(a=np.array([[50.0, 101.0], [0.0, 0.0]]), labels=("a", "b"))
    with pytest.raises(ShapeError):
        analysis.CrossMatrix(a=np.zeros((2, 3)), labels=("a", "b"))


def test_transferability_arithmetic():
    mat = analysis.CrossMatrix(
        a=np.array([[40.0, 60.0], [58.0, 42.0]]), labels=("f1", "f2")
    )
    assert analysis.transferability_T(mat) == pytest.approx(36.0, abs=1e-12)
    same = analysis.CrossMatrix(a=np.array([[37.0, 37.0], [37.0, 37.0]]), labels=("f1", "f2"))
    assert analysis.transferability_T(same) == 0.0
    with pytest.raises(ConfigError):
        analysis.transferability_T(mat, 0, 0)
    with pytest.raises(ConfigError):
        analysis.transferability_T(mat, 0, 5)


def test_table_metric_arithmetic_matches_published_rows():
    assert analysis.non_transferable_nT(45.5, 49.5) == pytest.approx(5.0, abs=1e-9)
    assert analysis.non_transferable_nT(40.7, 46.0) == pytest.approx(13.3, abs=1e-9)
    assert analysis.non_transferable_nT(100.0, 0.0) == 0.0
    assert analysis.single_correct_a_single(45.5, 39.9) == pytest.approx(5.6, abs=1e-9)
    assert analysis.single_correct_a_single(42.9, 25.7) == pytest.approx(17.2, abs=1e-9)
    assert analysis.single_correct_a_single(63.0, 63.0) == 0.0


def test_metric_contract_and_consistency_warning():
    with pytest.raises(ContractError):
        analysis.non_transferable_nT(101.0, 0.0)
    with pytest.raises(ContractError):
        analysis.single_correct_a_single(50.0, float("nan"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = analysis.non_transferable_nT(60.0, 45.0)  # -5, beyond rounding slack
    assert value == pytest.approx(-5.0)
    assert any(issubclass(w.category, ConsistencyWarning) for w in caught)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        analysis.non_transferable_nT(60.0, 40.2)  # -0.2 is rounding slack
    assert not caught


def test_same_run_metrics_are_consistent_two_classes():
    # with two classes a both-wrong point cannot be ensemble-correct, so
    # nT from one evaluation run is non-negative by construction
    ds = data.gen_blobs(seed=5, n_per_class=30, num_classes=2, dim=3, separation=3)
    ens = training.init_ensemble(3, [8], 2, 2, seed=5)
    adv = run_attack(ens, ds.inputs, ds.labels, pgd(epsilon=0.1)).adversarial
    part = partition(ens.members[0], ens.members[1], adv, ds.inputs, ds.labels, 0.1)
    from advens.ensembles import predict_labels

    a_en = float(np.mean(predict_labels(ens, adv) == ds.labels) * 100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConsistencyWarning)
        nt = analysis.non_transferable_nT(a_en, part.cardinalities["S00"])
        single = analysis.single_correct_a_single(a_en, part.cardinalities["S11"])
    assert nt >= -1e-9
    # both definitions hold at once on a single run's numbers
    assert nt + single == pytest.approx(
        100.0 - part.cardinalities["S00"] - part.cardinalities["S11"], abs=1e-9
    )


# ---------------------------------------------------------------------------
# detector


def test_auc_hand_example_and_brute_force():
    assert analysis.auc_from_scores([0.1, 0.2], [0.15, 0.3]) == 0.75
    rng = np.random.default_rng(0)
    for trial in range(5):
        benign = rng.integers(0, 9, size=60) / 8.0  # coarse grid forces ties
        adv = rng.integers(2, 11, size=45) / 8.0
        got = analysis.auc_from_scores(benign, adv)
        assert got == brute_force_auc(list(benign), list(adv))


def test_auc_extremes_and_monotone_invariance():
    assert analysis.auc_from_scores([1.0, 2.0], [3.0, 4.0]) == 1.0
    assert analysis.auc_from_scores([3.0, 4.0], [1.0, 2.0]) == 0.0
    s = np.array([0.3, 0.1, 0.4, 0.1, 0.5])
    assert analysis.auc_from_scores(s, s) == 0.5
    rng = np.random.default_rng(1)
    b, a = rng.random(40), rng.random(30)
    base = analysis.auc_from_scores(b, a)
    assert analysis.auc_from_scores(np.exp(b), np.exp(a)) == base
    assert analysis.auc_from_scores(3 * b - 7, 3 * a - 7) == base
    with pytest.raises(ContractError):
        analysis.auc_from_scores([], [1.0])


def detector_model():
    # 1-d inputs: confident far from 0, uniform at 0
    return linear_model([[12.0, -12.0]])


def test_detect_separated_and_identical_batches():
    model = detector_model()
    benign = np.array([[1.0], [0.9], [0.8]])
    adv = np.array([[0.0], [0.05], [0.1]])
    report = analysis.detect(model, benign, adv)
    assert report.auc == 1.0
    same = analysis.detect(model, benign, benign)
    assert same.auc == 0.5
    with pytest.raises(ContractError):
        analysis.detect(model, benign[:0], adv)


def test_roc_sweep_structure():
    model = detector_model()
    rng = np.random.default_rng(2)
    benign = rng.random((25, 1))
    adv = rng.random((20, 1)) * 0.5
    report = analysis.detect(model, benign, adv)
    assert (report.fpr[0], report.tpr[0]) == (0.0, 0.0)
    assert (report.fpr[-1], report.tpr[-1]) == (1.0, 1.0)
    assert np.all(np.diff(report.fpr) >= 0) and np.all(np.diff(report.tpr) >= 0)
    distinct = np.unique(np.concatenate([report.benign_scores, report.adv_scores]))
    assert report.thresholds.size == distinct.size + 1
    # trapezoid area under the exact ROC equals the pair-count AUC
    area = float(np.trapezoid(report.tpr, report.fpr))
    assert area == pytest.approx(report.auc, abs=1e-12)


def test_roc_rates_equal_exhaustive_threshold_sweep_with_ties():
    # oracle: the share of scores >= t, counted threshold by threshold
    rng = np.random.default_rng(11)
    for trial in range(200):
        levels = int(rng.integers(1, 6))  # few levels, so many scores tie
        b_scores = rng.integers(0, levels, size=int(rng.integers(1, 40))) / 3.0
        a_scores = rng.integers(0, levels, size=int(rng.integers(1, 40))) / 3.0
        distinct = np.unique(np.concatenate([b_scores, a_scores]))
        mids = (distinct[:-1] + distinct[1:]) / 2.0
        thresholds = np.concatenate(([np.inf], distinct, mids[::-1], [-np.inf]))
        for scores in (b_scores, a_scores):
            oracle = np.array([np.mean(scores >= t) for t in thresholds])
            swept = analysis._share_at_or_above(scores, thresholds)
            assert swept.tobytes() == oracle.tobytes()

    model = detector_model()
    benign = np.round(rng.random((40, 1)), 1)  # repeated inputs tie their scores
    adv = np.round(rng.random((30, 1)) * 0.5, 1)
    report = analysis.detect(model, benign, adv)
    for scores, rates in ((report.benign_scores, report.fpr), (report.adv_scores, report.tpr)):
        oracle = np.array([np.mean(scores >= t) for t in report.thresholds])
        assert rates.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("n_members", [1, 2, 3])
def test_detect_forwards_each_member_once_per_batch(monkeypatch, n_members):
    ds, m1 = blobs_and_model(seed=6)
    ens = Ensemble(members=(m1,) + tuple(fit_plain(ds, seed=8 + i, steps=5) for i in range(n_members - 1)))
    slices = []
    forward_cached = nn.forward_cached

    def counting(model, batch, *args, **kwargs):
        slices.append(len(batch) if np.ndim(batch) == 3 else len(model.layers[0].w))
        return forward_cached(model, batch, *args, **kwargs)

    monkeypatch.setattr(nn, "forward_cached", counting)
    analysis.detect(ens, ds.inputs[:10], ds.inputs[10:20])
    assert slices == [n_members, n_members]  # one stacked forward of every member per batch


def test_detect_scores_the_attacks_member_rows_of_its_batch(monkeypatch):
    # with the rows an attack's final check formed, detect forwards only the
    # benign batch and builds the same report
    ds, m1 = blobs_and_model(seed=6)
    ens = Ensemble(members=(m1, fit_plain(ds, seed=8, steps=5)))
    x, y = ds.inputs[:40], ds.labels[:40]
    result = run_attack(ens, x, y, pgd(epsilon=0.1))
    want = analysis.detect(ens, x, result.adversarial)
    forwards = []
    forward_cached = nn.forward_cached
    monkeypatch.setattr(nn, "forward_cached", lambda *a, **k: forwards.append(a[1]) or forward_cached(*a, **k))
    got = analysis.detect(ens, x, result.adversarial, adv_probs=result.member_probs)
    assert len(forwards) == 1 and forwards[0] is x
    for field in vars(want):
        assert np.asarray(getattr(got, field)).tobytes() == np.asarray(getattr(want, field)).tobytes()
    with pytest.raises(ShapeError):
        analysis.detect(ens, x, result.adversarial, adv_probs=result.member_probs[:, 1:])
    # one member's rows too many: once scored as a third member (AUC 0.528)
    with pytest.raises(ShapeError, match="for 2 members"):
        analysis.detect(ens, x, result.adversarial, adv_probs=result.member_probs[[0, 1, 1]])


def test_detect_member_mean_scores():
    ds, m1 = blobs_and_model(seed=6)
    m2 = fit_plain(ds, seed=8)
    ens = Ensemble(members=(m1, m2))
    report = analysis.detect(ens, ds.inputs[:10], ds.inputs[10:20])
    h1 = nn.entropy(nn.forward(m1, ds.inputs[:10]))
    h2 = nn.entropy(nn.forward(m2, ds.inputs[:10]))
    assert np.allclose(report.member_mean_benign, (h1 + h2) / 2, atol=1e-12)
    assert np.allclose(report.benign_scores, nn.entropy((nn.forward(m1, ds.inputs[:10]) + nn.forward(m2, ds.inputs[:10])) / 2), atol=1e-12)


# ---------------------------------------------------------------------------
# loss surface


def test_surface_center_orthogonality_and_shape():
    ds, model = blobs_and_model(seed=9)
    x_a = ds.inputs[0]
    y = int(ds.labels[0])
    grid = analysis.surface_grid(model, x_a, y, radius_steps=3, step=0.01, seed=4)
    assert grid.losses.shape == (7, 7) and grid.labels.shape == (7, 7)
    center_loss = nn.cross_entropy(nn.forward(model, x_a[None]), np.array([y]))
    assert grid.losses[3, 3] == pytest.approx(center_loss, abs=1e-12)
    assert abs(np.dot(grid.u, grid.v)) <= 1e-9
    assert np.linalg.norm(grid.u) == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(grid.v) == pytest.approx(1.0, abs=1e-9)
    assert not grid.fallback_u


def test_surface_zero_gradient_falls_back_to_random_direction():
    flat = constant_model([0.3, -0.1, 0.2], dim=4)
    grid = analysis.surface_grid(flat, np.full(4, 0.5), 0, radius_steps=1, step=0.05, seed=1)
    assert grid.fallback_u
    assert np.linalg.norm(grid.u) == pytest.approx(1.0, abs=1e-9)
    # seeded: same call gives the same directions
    again = analysis.surface_grid(flat, np.full(4, 0.5), 0, radius_steps=1, step=0.05, seed=1)
    assert np.array_equal(grid.u, again.u) and np.array_equal(grid.v, again.v)


def test_surface_first_step_ascends_along_gradient():
    ds, model = blobs_and_model(seed=10)
    checked = 0
    for k in range(len(ds.inputs)):
        x, y = ds.inputs[k], int(ds.labels[k])
        _, g = analysis.ce_values_and_input_grad(model, x[None], np.array([y]))
        if np.linalg.norm(g[0]) < 0.1:
            continue
        if x.min() < 0.05 or x.max() > 0.95:
            continue  # keep the step off the box boundary
        grid = analysis.surface_grid(model, x, y, radius_steps=1, step=1e-3, seed=0)
        assert grid.losses[2, 1] >= grid.losses[1, 1]
        checked += 1
        if checked == 10:
            break
    assert checked >= 5


def test_surface_validation():
    ds, model = blobs_and_model(seed=11)
    x = ds.inputs[0]
    with pytest.raises(ConfigError):
        analysis.surface_grid(model, x, 0, radius_steps=0, step=0.01)
    with pytest.raises(ConfigError):
        analysis.surface_grid(model, x, 0, radius_steps=2, step=0.0)
    with pytest.raises(DomainError):
        analysis.surface_grid(model, x, 99, radius_steps=1, step=0.01)
    with pytest.raises(DomainError):
        analysis.surface_grid(model, x + 5.0, 0, radius_steps=1, step=0.01)
    with pytest.raises(ConfigError):
        analysis.surface_grid(linear_model([[1.0, -1.0]]), np.array([0.5]), 0, radius_steps=1, step=0.01)


# ---------------------------------------------------------------------------
# file emission


def test_csv_and_json_outputs(tmp_path):
    ds, m1 = blobs_and_model(seed=12)
    m2 = fit_plain(ds, seed=13)
    mat = analysis.cross_matrix([m1, m2], ds, pgd(steps=2))
    cross_path = tmp_path / "cross.csv"
    analysis.save_cross_csv(mat, cross_path, preamble="# seed=0\n")
    lines = cross_path.read_text().splitlines()
    assert lines[0] == "# seed=0"
    assert lines[1] == "source,f1,f2"
    assert len(lines) == 4
    assert lines[2].split(",")[1] == f"{mat.a[0, 0]:.1f}"

    report = analysis.detect(m1, ds.inputs[:8], ds.inputs[8:16])
    roc_path = tmp_path / "roc.csv"
    analysis.save_detection_csv(report, roc_path)
    roc_lines = roc_path.read_text().splitlines()
    assert roc_lines[0] == "fpr,tpr"
    assert len(roc_lines) == 1 + report.thresholds.size
    json_path = tmp_path / "det.json"
    write_json(json_path, analysis.detection_summary(report) | {"seed": 0})

    payload = json.loads(json_path.read_text())
    assert payload["auc"] == report.auc and payload["n_benign"] == 8 and payload["seed"] == 0

    grid = analysis.surface_grid(m1, ds.inputs[0], int(ds.labels[0]), radius_steps=2, step=0.01)
    surf_path = tmp_path / "surface.csv"
    analysis.save_surface_csv(grid, surf_path)
    surf_lines = surf_path.read_text().splitlines()
    assert surf_lines[0] == "i,j,loss,label"
    assert len(surf_lines) == 1 + 25
    first = surf_lines[1].split(",")
    assert first[0] == "-2" and first[1] == "-2"


# ---------------------------------------------------------------------------
# paired directional experiments


def test_undefended_source_transfers_worse_than_white_box():
    # adversarial examples built against an undefended model hurt a
    # hardened model less than its own white-box attack does
    ds = data.gen_blobs(seed=20, n_per_class=40, num_classes=3, dim=2, separation=2.5)
    nat = fit_plain(ds, seed=20, steps=300)
    cfg = training.TrainConfig(
        attack=pgd(epsilon=0.1, eta=0.03), epochs=4, batch_size=20, seed=20, mode="Base", lr=0.02
    )
    hard = training.train(training.init_ensemble(2, [16], 3, 1, seed=20), ds, cfg, "ADV").ensemble.members[0]
    mat = analysis.cross_matrix([nat, hard], ds, pgd(epsilon=0.1, eta=0.03, steps=10))
    assert mat.a[0, 1] > mat.a[1, 1]


def test_collaborative_pair_transfers_more_than_independent_pair():
    # attacks cross between collaboratively trained members more easily,
    # which reads as a smaller T than for members trained without each
    # other, and far smaller than for a jointly trained ensemble whose
    # members divide the labor
    t_rm, t_solo, t_joint = [], [], []
    for seed in range(5):
        ds = data.gen_blobs(seed=seed, n_per_class=50, num_classes=3, dim=8, separation=3.0)
        eval_spec = pgd(epsilon=0.05, eta=0.0125, steps=10, seed=100 + seed)

        def fit(method, seed_, n_members=2):
            cfg = training.TrainConfig(
                attack=pgd(epsilon=0.05, eta=0.02, steps=7, seed=seed_),
                epochs=15, batch_size=30, seed=seed_, mode="RM", lr=0.03,
            )
            init = training.init_ensemble(8, [24], 3, n_members, seed=seed_)
            return training.train(init, ds, cfg, method).ensemble

        rm = fit("CCE", seed)
        pair = Ensemble(members=(fit("ADV", seed + 1000, 1).members[0], fit("ADV", seed + 2000, 1).members[0]))
        joint = fit("ADV_EN", seed)
        for ens, bucket in ((rm, t_rm), (pair, t_solo), (joint, t_joint)):
            bucket.append(analysis.transferability_T(analysis.cross_matrix(list(ens.members), ds, eval_spec)))
    assert np.mean(t_rm) < np.mean(t_solo)
    assert np.mean(t_rm) < np.mean(t_joint)
