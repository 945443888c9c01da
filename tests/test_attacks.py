from dataclasses import replace

import numpy as np
import pytest

from advens import attacks, data, nn
from advens.attacks import AttackSpec
from advens.ensembles import Ensemble, Heads, ce_values_and_input_grad, ensemble_predict, predict_labels
from advens.errors import ConfigError, DomainError, ShapeError
from helpers import assert_same_bytes, blobs_and_model, ensemble_and_batch, fit_plain, read_on


def logistic_1d(w0, w1):
    layers = (nn.Layer(w=np.array([[w0, w1]]), b=np.zeros(2), act="id"),)
    return nn.Model(layers=layers, num_classes=2)


# ---------------------------------------------------------------------------
# fgsm step


def test_fgsm_step_plain_and_clipped():
    x = np.array([[0.5, 0.5, 1.0]])
    grad = np.array([[1.0, -2.0, 3.0]])
    bounds = attacks.ball_box(x, 0.25)
    out = attacks.fgsm_step(x, grad, 0.1, *bounds)
    assert np.allclose(out, [[0.6, 0.4, 1.0]])  # third coord pinned at box
    assert np.array_equal(attacks.fgsm_step(x, grad, 0.0, *bounds), x)
    # sign(0) = 0 keeps the coordinate still
    out = attacks.fgsm_step(x, np.zeros_like(x), 0.1, *bounds)
    assert np.array_equal(out, x)
    # ball clip: large eta cannot leave the ball
    out = attacks.fgsm_step(x, grad, 5.0, *bounds)
    assert np.abs(out - x).max() <= 0.25 + 1e-12
    with pytest.raises(ShapeError):
        attacks.fgsm_step(x, grad[:, :2], 0.1, *bounds)


# ---------------------------------------------------------------------------
# spec validation


def test_attack_spec_validation():
    with pytest.raises(ConfigError):
        AttackSpec(family="jsma")
    with pytest.raises(ConfigError):
        AttackSpec(family="pgd", steps=0)
    with pytest.raises(ConfigError):
        AttackSpec(family="pgd", epsilon=-0.1)
    with pytest.raises(ConfigError):
        AttackSpec(family="pgd", eta=0.0)
    with pytest.raises(ConfigError):
        AttackSpec(family="mim", momentum=-1.0)
    with pytest.raises(ConfigError):
        AttackSpec(family="spsa", spsa_samples=0)
    with pytest.warns(UserWarning):
        AttackSpec(family="pgd", epsilon=0.01, eta=0.5)
    spec = AttackSpec(family="pgd")
    assert (spec.steps, spec.epsilon, spec.eta) == (10, 8 / 255, 2 / 255)


# ---------------------------------------------------------------------------
# pgd / bim


def test_pgd_zero_epsilon_returns_x_exactly():
    ds, model = blobs_and_model(seed=1)
    spec = AttackSpec(family="pgd", steps=5, epsilon=0.0, eta=0.01, seed=3)
    res = attacks.run_attack(model, ds.inputs[:32], ds.labels[:32], spec)
    assert np.array_equal(res.adversarial, ds.inputs[:32])
    wrong = predict_labels(model, ds.inputs[:32]) != ds.labels[:32]
    assert np.array_equal(res.success_mask, wrong)


def test_pgd_matches_grid_search_on_1d_logistic():
    # loss along the single coordinate is monotone, so the ball optimum sits
    # at an endpoint; exhaustive search at resolution eps/1000 is the oracle
    for w0, w1, x0 in [(2.0, -1.0, 0.4), (-1.5, 2.5, 0.45), (0.3, 0.9, 0.62)]:
        model = logistic_1d(w0, w1)
        eps, eta = 0.1, 0.02
        spec = AttackSpec(
            family="pgd", steps=int(np.ceil(eps / eta)) + 2, epsilon=eps, eta=eta,
            random_start=False, seed=0,
        )
        x = np.array([[x0]])
        y = np.array([0])
        res = attacks.run_attack(model, x, y, spec)
        grid = np.clip(np.linspace(x0 - eps, x0 + eps, 2001), 0.0, 1.0)
        losses = nn.cross_entropy_per_example(
            nn.forward(model, grid[:, None]), np.zeros(2001, dtype=np.int64)
        )
        best = grid[np.argmax(losses)]
        assert abs(res.adversarial[0, 0] - best) <= eps / 100
        assert res.queries == spec.steps + 1


def test_ball_and_box_invariants_all_families():
    ds, model = blobs_and_model(seed=2)
    ens = Ensemble(members=(model, fit_plain(ds, seed=9)))
    x, y = ds.inputs[:40], ds.labels[:40]
    specs = [
        AttackSpec(family="pgd", steps=8, epsilon=0.07, eta=0.02, seed=1),
        AttackSpec(family="bim", steps=8, epsilon=0.07, eta=0.02),
        AttackSpec(family="mim", steps=8, epsilon=0.07, eta=0.02, momentum=1.0),
        AttackSpec(family="spsa", steps=4, epsilon=0.07, eta=0.02, spsa_samples=8),
    ]
    for target in (model, ens):
        for spec in specs:
            res = attacks.run_attack(target, x, y, spec)
            gap = np.abs(res.adversarial - x).max()
            assert gap <= spec.epsilon + 1e-9, (spec.family, gap)
            assert res.adversarial.min() >= 0.0 and res.adversarial.max() <= 1.0


def test_pgd_success_monotone_in_epsilon():
    ds, model = blobs_and_model(seed=3, separation=3)
    x, y = ds.inputs, ds.labels
    rates = []
    for eps in (0.0, 2 / 255, 4 / 255, 8 / 255):
        spec = AttackSpec(
            family="pgd", steps=20, epsilon=eps, eta=max(eps / 4, 1e-4),
            random_start=False, seed=0,
        )
        rates.append(attacks.run_attack(model, x, y, spec).success_mask.mean())
    assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:])), rates


def test_bim_equals_pgd_without_random_start():
    ds, model = blobs_and_model(seed=4)
    x, y = ds.inputs[:16], ds.labels[:16]
    kw = dict(steps=6, epsilon=0.05, eta=0.01)
    res_b = attacks.run_attack(model, x, y, AttackSpec(family="bim", **kw))
    res_p = attacks.run_attack(model, x, y, AttackSpec(family="pgd", random_start=False, **kw))
    assert np.array_equal(res_b.adversarial, res_p.adversarial)
    # mim with zero momentum follows the same trajectory
    res_m = attacks.run_attack(model, x, y, AttackSpec(family="mim", momentum=0.0, **kw))
    assert np.allclose(res_m.adversarial, res_b.adversarial, atol=1e-12)


def test_bim_trajectory_loss_nondecreasing_with_small_steps():
    ds, model = blobs_and_model(seed=5)
    eps = 0.05
    spec = AttackSpec(family="bim", steps=10, epsilon=eps, eta=eps / 10)
    res = attacks.run_attack(model, ds.inputs[:64], ds.labels[:64], spec)
    trace = np.array(res.loss_trace)
    decreasing = np.sum(trace[1:] < trace[:-1] - 1e-12)
    assert decreasing <= max(1, int(0.05 * len(trace)))


def test_attack_determinism():
    ds, model = blobs_and_model(seed=6)
    spec = AttackSpec(family="pgd", steps=6, epsilon=0.05, eta=0.01, seed=77)
    x, y = ds.inputs[:20], ds.labels[:20]
    r1 = attacks.run_attack(model, x, y, spec)
    r2 = attacks.run_attack(model, x, y, spec)
    assert np.array_equal(r1.adversarial, r2.adversarial)
    assert np.array_equal(r1.success_mask, r2.success_mask)
    r3 = attacks.run_attack(model, x, y, AttackSpec(family="pgd", steps=6, epsilon=0.05, eta=0.01, seed=78))
    assert not np.array_equal(r1.adversarial, r3.adversarial)


# ---------------------------------------------------------------------------
# mim


def test_mim_matches_hand_unrolled_recurrence():
    ds, model = blobs_and_model(seed=7)
    x, y = ds.inputs[:8], ds.labels[:8]
    mu, eta, eps = 0.8, 0.02, 0.06
    spec = AttackSpec(family="mim", steps=2, epsilon=eps, eta=eta, momentum=mu)
    res = attacks.run_attack(model, x, y, spec)

    cur = x.copy()
    g = np.zeros_like(x)
    for _ in range(2):
        _, grad = ce_values_and_input_grad(model, cur, y)
        norms = np.abs(grad).sum(axis=1, keepdims=True)
        live = norms[:, 0] > 0
        g = mu * g
        g[live] += grad[live] / norms[live]
        cur = np.clip(np.clip(cur + eta * np.sign(g), x - eps, x + eps), 0.0, 1.0)
    assert np.allclose(res.adversarial, cur, atol=1e-12)


def test_mim_zero_gradient_rows_keep_accumulator():
    # saturated example: uniform output everywhere -> zero input gradient
    layers = (nn.Layer(w=np.zeros((2, 3)), b=np.zeros(3), act="id"),)
    flat = nn.Model(layers=layers, num_classes=3)
    x = np.array([[0.5, 0.5]])
    y = np.array([0])
    spec = AttackSpec(family="mim", steps=3, epsilon=0.1, eta=0.02, momentum=0.9)
    res = attacks.run_attack(flat, x, y, spec)
    # no gradient anywhere: the attack must not move the point
    assert np.array_equal(res.adversarial, x)


# ---------------------------------------------------------------------------
# targeted protocols


def test_targeted_trivial_success_at_zero_epsilon():
    ds, model = blobs_and_model(seed=8)
    x = ds.inputs[:10]
    pred = predict_labels(model, x)
    spec = AttackSpec(family="pgd", steps=3, epsilon=0.0, eta=0.01, seed=0)
    res = attacks.targeted(model, x, pred, spec)
    assert res.success_mask.all()
    assert np.array_equal(res.adversarial, x)


def test_targeted_success_implies_target_prediction():
    ds, model = blobs_and_model(seed=9)
    x = ds.inputs[:60]
    t = (ds.labels[:60] + 1) % ds.num_classes
    spec = AttackSpec(family="pgd", steps=15, epsilon=0.15, eta=0.02, seed=1)
    res = attacks.targeted(model, x, t, spec)
    got = predict_labels(model, res.adversarial)
    assert np.array_equal(got[res.success_mask], t[res.success_mask])


def test_targeted_crosses_midpoint_margin():
    # for each example, scan the segment toward the target-class center to
    # find the l-inf distance where the prediction flips; a budget 1.5x that
    # margin must let the targeted attack through
    ds, model = blobs_and_model(seed=10, separation=4)
    centers = np.stack([ds.inputs[ds.labels == c].mean(axis=0) for c in range(ds.num_classes)])
    rng = np.random.default_rng(0)
    idx = rng.choice(np.nonzero(predict_labels(model, ds.inputs) == ds.labels)[0], 12, replace=False)
    hits = 0
    used = 0
    for i in idx:
        x0, y0 = ds.inputs[i], ds.labels[i]
        t = int((y0 + 1) % ds.num_classes)
        seg = x0[None, :] + np.linspace(0, 1, 400)[:, None] * (centers[t] - x0)[None, :]
        seg = np.clip(seg, 0.0, 1.0)
        flips = np.nonzero(predict_labels(model, seg) == t)[0]
        if flips.size == 0:
            continue
        margin = np.abs(seg[flips[0]] - x0).max()
        eps = 1.5 * margin + 1e-6
        spec = AttackSpec(family="pgd", steps=25, epsilon=eps, eta=eps / 8, seed=5)
        res = attacks.targeted(model, x0[None, :], np.array([t]), spec)
        used += 1
        hits += int(res.success_mask[0])
    assert used >= 5
    assert hits >= 0.8 * used


def test_multi_targeted_two_classes_equals_single_targeted():
    ds = data.gen_blobs(seed=12, n_per_class=40, num_classes=2, dim=3, separation=3)
    model = fit_plain(ds, seed=3)
    x, y = ds.inputs[:30], ds.labels[:30]
    spec = AttackSpec(family="pgd", steps=8, epsilon=0.06, eta=0.015, seed=4)
    multi = attacks.multi_targeted(model, x, y, spec)
    single = attacks.targeted(model, x, 1 - y, spec)
    assert np.array_equal(multi.success_mask, single.success_mask)
    assert np.array_equal(multi.adversarial[multi.success_mask], single.adversarial[single.success_mask])


def test_multi_targeted_dominates_pgd_and_counts_queries():
    ds, model = blobs_and_model(seed=13, separation=3)
    x, y = ds.inputs, ds.labels
    spec = AttackSpec(family="pgd", steps=10, epsilon=0.06, eta=0.015, seed=2, random_start=False)
    multi = attacks.multi_targeted(model, x, y, spec)
    plain = attacks.run_attack(model, x, y, spec)
    # every multi-targeted adversarial is a real misprediction
    got = predict_labels(model, multi.adversarial)
    assert np.all(got[multi.success_mask] != y[multi.success_mask])
    assert multi.success_mask.mean() >= plain.success_mask.mean() - 0.05
    assert multi.queries == (ds.num_classes - 1) * plain.queries


# ---------------------------------------------------------------------------
# spsa


def test_spsa_zero_epsilon_and_query_accounting():
    ds, model = blobs_and_model(seed=14)
    spec = AttackSpec(family="spsa", steps=3, epsilon=0.0, eta=0.01, spsa_samples=4)
    res = attacks.run_attack(model, ds.inputs[:5], ds.labels[:5], spec)
    assert np.array_equal(res.adversarial, ds.inputs[:5])
    assert res.queries == 3 * 2 * 4 + 1


def test_spsa_estimate_sign_matches_analytic_gradient():
    # linear model, well-separated coordinate magnitudes
    rng = np.random.default_rng(0)
    d = 10
    diffs = np.array([1.5, -1.2, 0.9, -2.0, 1.1, -0.8, 1.8, -1.4, 0.7, -1.0])
    w = np.zeros((d, 2))
    w[:, 1] = diffs  # gradient of CE vs class 0 is p1 * diffs
    model = nn.Model(layers=(nn.Layer(w=w, b=np.zeros(2), act="id"),), num_classes=2)
    x = np.full((1, d), 0.5)
    y = np.array([0])
    _, true_grad = ce_values_and_input_grad(model, x, y)
    matches = []
    for seed in range(100):
        est, _ = attacks.spsa_gradient_estimate(
            model, x, y, samples=64, delta=0.01, rng=np.random.default_rng(seed)
        )
        matches.append(np.mean(np.sign(est) == np.sign(true_grad)))
    assert np.mean(matches) >= 0.95


def spsa_of_two_members(rng, samples=2, delta=0.01):
    ens, x, y = ensemble_and_batch(6)
    return attacks.spsa_gradient_estimate(Heads.each(ens.stack), np.stack([x, x]), y, samples, delta, rng)


@pytest.mark.parametrize("count, bare", [(1, False), (3, False), (1, True)])  # bare: one generator, not a list
def test_spsa_estimate_takes_one_generator_per_head(count, bare):
    rngs = [np.random.default_rng(k) for k in range(count)]
    with pytest.raises(ConfigError, match=f"^{count} SPSA generators for 2 heads$"):
        spsa_of_two_members(rngs[0] if bare else rngs)


@pytest.mark.parametrize("samples", [0, -1, 1.5, True])
def test_spsa_estimate_takes_an_integer_sample_count_of_at_least_one(samples):
    with pytest.raises(ConfigError, match="SPSA samples must be an integer >= 1"):
        spsa_of_two_members([np.random.default_rng(0)] * 2, samples=samples)


@pytest.mark.parametrize("delta", [0.0, -0.01, np.nan, np.inf, "0.01", True])
def test_spsa_estimate_takes_a_finite_positive_delta(delta):
    with pytest.raises(ConfigError, match="SPSA delta must be finite and > 0"):
        spsa_of_two_members([np.random.default_rng(0)] * 2, delta=delta)


@pytest.mark.parametrize("bitgen", [np.random.MT19937, np.random.Philox, np.random.PCG64DXSM])
def test_spsa_estimate_draws_only_from_pcg64(bitgen):
    with pytest.raises(ConfigError, match=f"^SPSA draws from PCG64 generators, not {bitgen.__name__}$"):
        spsa_of_two_members([np.random.default_rng(0), np.random.Generator(bitgen(0))])


def test_spsa_estimate_of_an_empty_batch_draws_nothing():
    ens, _, _ = ensemble_and_batch(6)
    got, want = np.random.default_rng(0), np.random.default_rng(0)
    for r in (got, want):  # a half pending, not of the output before the state
        r.integers(0, 2, size=1, dtype=np.int32)
        r.bit_generator.random_raw()
    est, used = attacks.spsa_gradient_estimate(ens, np.zeros((0, 4)), np.zeros(0, dtype=int), 2, 0.01, got)
    assert est.shape == (0, 4) and used == 4
    assert read_on(got) == read_on(want)


def test_spsa_moves_toward_higher_loss():
    ds, model = blobs_and_model(seed=15, separation=3)
    x, y = ds.inputs[:40], ds.labels[:40]
    spec = AttackSpec(family="spsa", steps=10, epsilon=0.06, eta=0.015, spsa_samples=32, seed=6)
    res = attacks.run_attack(model, x, y, spec)
    before = nn.cross_entropy_per_example(ensemble_predict(model, x), y).mean()
    after = nn.cross_entropy_per_example(ensemble_predict(model, res.adversarial), y).mean()
    assert after > before


# ---------------------------------------------------------------------------
# adaptive attack and export


def test_ensemble_gradient_is_of_averaged_probability():
    ds, m1 = blobs_and_model(seed=16)
    m2 = fit_plain(ds, seed=17)
    ens = Ensemble(members=(m1, m2))
    x, y = ds.inputs[:6], ds.labels[:6]
    _, grad = ce_values_and_input_grad(ens, x, y)
    # finite differences of CE(mean probs) w.r.t. inputs
    h = 1e-5
    fd = np.zeros_like(x)
    for i in range(x.size):
        idx = np.unravel_index(i, x.shape)
        up, dn = x.copy(), x.copy()
        up[idx] += h
        dn[idx] -= h
        lu = nn.cross_entropy_per_example(ensemble_predict(ens, up), y).mean()
        ld = nn.cross_entropy_per_example(ensemble_predict(ens, dn), y).mean()
        fd[idx] = (lu - ld) / (2 * h)
    assert np.max(np.abs(grad - fd)) < 1e-6


# ---------------------------------------------------------------------------
# where the checks run


@pytest.mark.parametrize("labels", [[0.5, 1.7, 2.2, 0, 1], [True, False, True, True, False]])
def test_attacks_reject_labels_that_are_not_integers(labels):
    # a float label used to be truncated toward zero and a bool one taken as 0/1
    ds, model = blobs_and_model(seed=9)
    x = ds.inputs[:5]
    spec = AttackSpec(family="pgd", steps=2, epsilon=0.05, eta=0.02)
    ens = Ensemble(members=(model, model))
    calls = [
        lambda: attacks.run_attack(model, x, labels, spec),
        lambda: attacks.run_attack(ens, x, labels, spec),
        lambda: attacks.targeted(model, x, labels, spec),
        lambda: attacks.multi_targeted(model, x, labels, spec),
        lambda: attacks.run_heads(Heads.of([*ens.members, ens]), x, labels, spec),
        lambda: attacks.adversarial_batches(Heads.each(ens.stack), x, labels, spec, [0, 0]),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="labels must be integers"):
            call()


@pytest.mark.parametrize("family", ["pgd", "spsa"])
def test_a_batch_of_another_width_raises_shape_error(family):
    # the width is checked once per attack, not by each step's forward, so a
    # batch one column too wide must raise ShapeError, not numpy's matmul error
    ens, x, y = ensemble_and_batch(6, d=4)
    wide = np.hstack([x, x[:, :1]])
    spec = AttackSpec(family=family, steps=2, epsilon=0.05, eta=0.02, spsa_samples=2)
    model, stack = ens.members[0], ens.stack
    calls = [
        lambda: attacks.run_attack(model, wide, y, spec),
        lambda: attacks.run_attack(ens, wide, y, spec),
        lambda: attacks.targeted(model, wide, y, spec),
        lambda: attacks.multi_targeted(ens, wide, y, spec),
        lambda: next(attacks.run_heads(Heads.of([*ens.members, ens]), wide, y, spec)),
        lambda: attacks.adversarial_batches(Heads.each(stack), wide, y, spec, [0, 1]),
        lambda: ce_values_and_input_grad(model, wide, y),
        lambda: ce_values_and_input_grad(ens, wide, y),
        lambda: ce_values_and_input_grad(Heads.each(stack), np.stack([wide, wide]), y),
        lambda: attacks.spsa_gradient_estimate(ens, wide, y, 2, 0.01, np.random.default_rng(0)),
        lambda: attacks.spsa_gradient_estimate(Heads.each(stack), np.stack([wide, wide]), y, 2, 0.01, [None, None]),
    ]
    for call in calls:
        with pytest.raises(ShapeError):
            call()
    with pytest.raises(DomainError, match="labels must be integers"):
        attacks.targeted(model, x, 1.7, spec)  # a scalar target class too


@pytest.mark.parametrize("family", attacks.FAMILIES)
@pytest.mark.parametrize("entry", ["run_attack", "run_heads", "targeted", "multi_targeted", "adversarial_batches"])
def test_an_empty_batch_raises_shape_error(entry, family):
    # every entry point checks its batch once, so a batch of no rows raises
    # ShapeError naming it, not numpy's reshape error or an empty result
    ens, x, y = ensemble_and_batch(3, d=4)
    x, y = x[:0], y[:0]
    spec = AttackSpec(family=family, steps=2, epsilon=0.05, eta=0.02, spsa_samples=2)
    call = {
        "run_attack": lambda: attacks.run_attack(ens, x, y, spec),
        "run_heads": lambda: next(attacks.run_heads(Heads.of([*ens.members, ens]), x, y, spec)),
        "targeted": lambda: attacks.targeted(ens, x, y, spec),
        "multi_targeted": lambda: attacks.multi_targeted(ens, x, y, spec),
        "adversarial_batches": lambda: attacks.adversarial_batches(Heads.each(ens.stack), x, y, spec, [0, 1]),
    }[entry]
    with pytest.raises(ShapeError, match=r"one or more rows of 4 features, not shape \(0, 4\)"):
        call()


def test_attack_inputs_are_validated_once_per_call(monkeypatch):
    ds, model = blobs_and_model(seed=10)
    x, y = ds.inputs[:12], ds.labels[:12]
    ens = Ensemble(members=(model, model))
    spec = AttackSpec(family="mim", steps=6, epsilon=0.05, eta=0.02)
    small, x30, y30 = ensemble_and_batch(30)
    large, x4096, y4096 = ensemble_and_batch(4096)  # two row blocks: one target after another
    validated = []
    validate = attacks._validate_inputs

    def counting(*args):
        validated.append(args[0])
        return validate(*args)

    monkeypatch.setattr(attacks, "_validate_inputs", counting)
    calls = [
        lambda: attacks.run_attack(model, x, y, spec),
        lambda: attacks.run_attack(ens, x, y, spec),
        lambda: attacks.targeted(ens, x, 0, spec),
        lambda: attacks.multi_targeted(model, x, y, spec),
        lambda: list(attacks.run_heads(Heads.of([*small.members, small]), x30, y30, spec)),
        lambda: list(attacks.run_heads(Heads.of([*large.members, large]), x4096, y4096, spec)),
        lambda: attacks.adversarial_batches(Heads.each(ens.stack), x, y, spec, [0, 1]),
    ]
    for call in calls:
        validated.clear()
        call()
        assert len(validated) == 1  # one check per call, none per step or target


def overflowing_model(threshold, scale):
    """One input, two classes: logit 0 is x plus scale * relu(scale * (x -
    threshold)), logit 1 is 0. Below the threshold the logits are small;
    past it logit 0 overflows to inf."""
    layers = (
        nn.Layer(w=np.array([[1.0, scale]]), b=np.array([0.0, -scale * threshold]), act="relu"),
        nn.Layer(w=np.array([[1.0, 0.0], [0.0, scale]]), b=np.zeros(2), act="relu"),
        nn.Layer(w=np.array([[1.0, 0.0], [1.0, 0.0]]), b=np.zeros(2), act="id"),
    )
    return nn.Model(layers=layers, num_classes=2)


@pytest.mark.parametrize("family", ["pgd", "bim", "mim"])
def test_logits_that_overflow_partway_through_an_attack_raise_domain_error(family):
    # the ascent against label 1 raises logit 0: the first step's forward is
    # finite, the second's overflows and its probabilities turn NaN
    model = overflowing_model(threshold=0.45, scale=1e200)
    x, y = np.array([[0.4]]), np.array([1])
    assert np.isfinite(ensemble_predict(model, x)).all()
    spec = AttackSpec(family=family, steps=3, epsilon=0.2, eta=0.1, random_start=False)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="non-finite"):
            attacks.run_attack(model, x, y, spec)


def test_an_attack_checks_x_once_and_vouches_for_its_iterate(monkeypatch):
    # x is checked at entry; every forward of the search then skips the
    # finiteness check of its batch: the iterate and SPSA's bumped batches
    # are clipped into finite bounds, and every gradient is checked
    ds, model = blobs_and_model(seed=11)
    x, y = ds.inputs[:12], ds.labels[:12]
    ens = Ensemble(members=(model, fit_plain(ds, seed=12, steps=5)))
    checked = []
    as_f64 = nn._as_f64
    monkeypatch.setattr(nn, "_as_f64", lambda a, name="array": checked.append(name) or as_f64(a, name))
    for family in ("pgd", "mim", "spsa"):
        spec = AttackSpec(family=family, steps=3, epsilon=0.05, eta=0.02, spsa_samples=2)
        attacks.run_attack(ens, x, y, spec)
        list(attacks.run_heads(Heads.of([*ens.members, ens]), x, y, spec))
        attacks.adversarial_batches(Heads.each(ens.stack), x, y, spec, [5, 9])
    assert checked == []
    bad = x.copy()
    bad[3, 1] = np.inf
    with pytest.raises(DomainError, match="attack inputs contain non-finite values"):
        attacks.run_heads(Heads.of([*ens.members, ens]), bad, y, spec)


@pytest.mark.parametrize("family", ["pgd", "spsa"])
def test_member_attacks_of_a_shared_seed_draw_once_and_equal_lone_attacks(family):
    # members 0 and 1 share a seed (one generator's draws serve both), member
    # 2 has its own: the random start and each SPSA bump are each lone attack's
    ds, model = blobs_and_model(seed=13)
    x, y = ds.inputs[:20], ds.labels[:20]
    members = (model, fit_plain(ds, seed=14, steps=5), fit_plain(ds, seed=15, steps=5))
    spec = AttackSpec(family=family, steps=3, epsilon=0.05, eta=0.02, spsa_samples=2)
    seeds = (5, 5, 6)
    got = attacks.adversarial_batches(Heads.each(Ensemble(members=members).stack), x, y, spec, seeds)
    want = [attacks.run_attack(m, x, y, replace(spec, seed=s)).adversarial for m, s in zip(members, seeds)]
    assert_same_bytes(got, want)


def test_heads_of_one_seed_make_one_generator(monkeypatch):
    # f1, f2 and en of one spec draw from one generator: it is made once
    ens, x, y = ensemble_and_batch(30)
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: made.append(a) or default_rng(*a))
    spec = AttackSpec(family="pgd", steps=2, epsilon=0.1, eta=0.04, seed=3)
    list(attacks.run_heads(Heads.of([*ens.members, ens]), x, y, spec))
    assert made == [(3,)]


@pytest.mark.parametrize("rows", [30, 4096])  # one row block, two
@pytest.mark.parametrize("family", ["pgd", "bim", "mim", "spsa"])
def test_the_steps_alone_give_each_results_adversarial(family, rows):
    # adversarial_batches runs a search's steps without its final check:
    # each head's batch is the adversarial of the lone attack of its seed on
    # its member (Heads.each) or on the averaged prediction (Heads.whole)
    ens, x, y = ensemble_and_batch(rows)
    spec = AttackSpec(family=family, steps=2, epsilon=0.1, eta=0.04, spsa_samples=2, seed=3)
    got = attacks.adversarial_batches(Heads.each(ens.stack), x, y, spec, [5, 9])
    want = [attacks.run_attack(m, x, y, replace(spec, seed=s)).adversarial for m, s in zip(ens.members, (5, 9))]
    assert_same_bytes(got, want)
    got = attacks.adversarial_batches(Heads.whole(ens.stack), x, y, spec, [3])
    assert_same_bytes(got, [attacks.run_attack(ens, x, y, spec).adversarial])
    with pytest.raises(ConfigError, match="1 attack seeds for 2 heads"):
        attacks.adversarial_batches(Heads.each(ens.stack), x, y, spec, [5])
