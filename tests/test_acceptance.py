"""Acceptance gate: ten checks, one test per criterion.

Each test ends by printing a single pass/fail line for its criterion
(visible with -v through the test id, and in captured output on failure).
Criteria 7 and 8 train small ensembles and dominate the runtime; the
whole gate stays under a minute on a laptop.
"""
import copy
import itertools
import json
import os
import time

import numpy as np

from advens import analysis, cli, data, nn, training
from advens.attacks import AttackSpec, run_attack
from advens.ensembles import Ensemble, joint_security_violations, partition
from helpers import blobs_and_model, member_grads, oracle_collab, oracle_ensemble_adv


def verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def constant_model(logits, dim=4):
    """Input-independent predictions: zero weights, logits in the bias."""
    layers = (nn.Layer(w=np.zeros((dim, len(logits))), b=np.array(logits, float), act="id"),)
    return nn.Model(layers=layers, num_classes=len(logits))


# ---------------------------------------------------------------------------
# criterion 1: joint security containment


def test_criterion_01_joint_security_containment():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    pairs, probes_per_pair = 20, 5000
    eps = 0.1
    violations = 0
    for k in range(pairs):
        d = int(rng.integers(3, 8))
        classes = int(rng.integers(2, 6))
        f1 = nn.init_model(d, [8], classes, seed=1000 + k)
        f2 = nn.init_model(d, [8], classes, seed=2000 + k)
        x = rng.uniform(0.1, 0.9, size=(probes_per_pair, d))
        probes = np.clip(x + rng.uniform(-eps, eps, size=x.shape), 0.0, 1.0)
        y = rng.integers(0, classes, size=probes_per_pair)
        violations += joint_security_violations(f1, f2, probes, x, y, eps)
    elapsed = time.perf_counter() - start
    verdict(
        1,
        violations == 0 and elapsed < 30.0,
        f"{violations} violations over {pairs * probes_per_pair} probes, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: reverse-mode gradients vs central finite differences


def _perturbed(model, li, field, idx, delta):
    layers = list(model.layers)
    layer = layers[li]
    arr = getattr(layer, field).copy()
    arr[idx] += delta
    kw = {"w": layer.w, "b": layer.b, "act": layer.act, field: arr}
    layers[li] = nn.Layer(**kw)
    return nn.Model(layers=tuple(layers), num_classes=model.num_classes, seed=model.seed)


def _fd_grads(loss_of_model, model, h=1e-4):
    out = []
    for li, layer in enumerate(model.layers):
        gw = np.zeros_like(layer.w)
        for idx in np.ndindex(layer.w.shape):
            up = loss_of_model(_perturbed(model, li, "w", idx, h))
            dn = loss_of_model(_perturbed(model, li, "w", idx, -h))
            gw[idx] = (up - dn) / (2 * h)
        gb = np.zeros_like(layer.b)
        for idx in np.ndindex(layer.b.shape):
            up = loss_of_model(_perturbed(model, li, "b", idx, h))
            dn = loss_of_model(_perturbed(model, li, "b", idx, -h))
            gb[idx] = (up - dn) / (2 * h)
        out.append((gw, gb))
    return out


def _max_rel_err(analytic, fd):
    worst = 0.0
    for (aw, ab), (fw, fb) in zip(analytic, fd):
        for a, f in ((aw, fw), (ab, fb)):
            err = np.abs(a - f) / np.maximum(np.abs(f), 1.0)
            worst = max(worst, float(err.max()))
    return worst


def _kink_margin(model, batches):
    """Smallest |pre-activation| any batch puts on a relu unit.

    Central differences straddle the kink when this is below the step
    size, and then they measure a subgradient mixture rather than the
    gradient, so such draws are invalid for an FD check and get resampled.
    """
    margin = np.inf
    for batch in batches:
        a = batch
        for layer in model.layers:
            z = a @ layer.w + layer.b
            if layer.act == "relu":
                margin = min(margin, float(np.abs(z).min()))
                a = np.maximum(z, 0.0)
            else:
                a = z
    return margin


def test_criterion_02_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    lambdas = [(1.0, 1.0), (0.0, 5.0), (0.0, 0.0), (0.7, 2.3), (2.0, 0.4)]
    hiddens = [[], [5], [6, 3]]
    worst = 0.0
    configs = 0
    draws = 0

    k = 0
    while k < 22:  # full collaborative member loss, gates held fixed
        n_members = 2 + k % 2
        d = int(rng.integers(2, 6))
        classes = int(rng.integers(2, 5))
        batch = int(rng.integers(3, 7))
        members = tuple(
            nn.init_model(d, hiddens[(k + j) % 3], classes, seed=100 * k + 7000 * draws + j)
            for j in range(n_members)
        )
        x = rng.uniform(0.0, 1.0, size=(batch, d))
        y = rng.integers(0, classes, size=batch)
        adv_set = [np.clip(x + rng.uniform(-0.1, 0.1, x.shape), 0, 1) for _ in members]
        draws += 1
        if _kink_margin(members[k % n_members], [x] + adv_set) < 1e-3:
            continue
        pm, dm = lambdas[k % len(lambdas)]
        n = k % n_members
        gates = {
            i: nn.label_probs(nn.forward(members[n], adv_set[i]), y)
            for i in range(n_members)
            if i != n
        }
        # member n's step reads no other member's weights: it runs on a stack
        # of member n alone, one slice per member, and keeps slice n
        _, grads = training._collab_step(
            nn.stack_models([members[n]] * n_members), x, y, adv_set, pm, dm, gates={n: gates}
        )

        def loss_of(m, _n=n, _ms=members, _adv=adv_set, _pm=pm, _dm=dm, _g=gates, _x=x, _y=y):
            ms = [m if j == _n else f for j, f in enumerate(_ms)]
            return oracle_collab(_n, ms, _x, _y, _adv, _pm, _dm, indicators=_g)[0]

        worst = max(worst, _max_rel_err(member_grads(grads, n), _fd_grads(loss_of, members[n])))
        configs += 1
        k += 1

    k = 0
    while k < 4:  # unified-ensemble adversarial loss
        d, classes, batch = 3, 3, 4
        members = tuple(
            nn.init_model(d, [4], classes, seed=900 + 10 * k + 7000 * draws + j)
            for j in range(2)
        )
        x = rng.uniform(0.0, 1.0, size=(batch, d))
        y = rng.integers(0, classes, size=batch)
        x_a = np.clip(x + rng.uniform(-0.1, 0.1, x.shape), 0, 1)
        draws += 1
        if min(_kink_margin(m, [x, x_a]) for m in members) < 1e-3:
            continue
        grads = training._ensemble_adv_step(nn.stack_models(members), x, y, x_a)[2]
        for j in range(2):

            def loss_of(m, _j=j, _ms=members, _x=x, _y=y, _xa=x_a):
                ms = [m if i == _j else f for i, f in enumerate(_ms)]
                return oracle_ensemble_adv(ms, _x, _y, _xa)[0]

            worst = max(worst, _max_rel_err(member_grads(grads, j), _fd_grads(loss_of, members[j])))
        configs += 1
        k += 1

    verdict(
        2,
        worst < 1e-3,
        f"max relative error {worst:.2e} over {configs} configurations ({draws} draws)",
    )


# ---------------------------------------------------------------------------
# criterion 3: published nT and a_single arithmetic


def test_criterion_03_metric_arithmetic():
    nt_cases = [((45.5, 49.5), 5.0), ((40.7, 46.0), 13.3)]
    single_cases = [((45.5, 39.9), 5.6), ((42.9, 25.7), 17.2)]
    ok = True
    for (a_en, s00), want in nt_cases:
        ok &= round(analysis.non_transferable_nT(a_en, s00), 1) == want
    for (a_en, s11), want in single_cases:
        ok &= round(analysis.single_correct_a_single(a_en, s11), 1) == want
    verdict(3, ok, "4 published (nT, a_single) values reproduced to 1 decimal")


# ---------------------------------------------------------------------------
# criterion 4: two-member form against the general loss


def test_criterion_04_two_member_consistency():
    rng = np.random.default_rng(77)
    worst_pair = 0.0
    worst_collapse = 0.0
    for trial in range(6):
        d, classes, batch = 3, 3, 5
        members = tuple(nn.init_model(d, [5], classes, seed=500 + 2 * trial + j) for j in range(2))
        stack = Ensemble(members=members).stack
        x = rng.uniform(0, 1, size=(batch, d))
        y = rng.integers(0, classes, size=batch)
        adv = [np.clip(x + rng.uniform(-0.08, 0.08, x.shape), 0, 1) for _ in range(2)]
        pm, dm = [(1.0, 1.0), (0.0, 5.0), (0.9, 1.7)][trial % 3]
        general = training._collab_step(stack, x, y, adv, pm, dm)[0]
        collapsed = training._collab_step(stack, x, y, adv, 0.0, 0.0)[0]
        for n, other in ((0, 1), (1, 0)):
            f = members[n]
            # explicit two-member statement, recomputed from raw probabilities
            probs_other = nn.forward(f, adv[other])
            gate = probs_other[np.arange(batch), y]
            ce_other = -np.log(np.maximum(probs_other[np.arange(batch), y], nn.LOG_FLOOR))
            h_other = nn.entropy(probs_other)
            plain_at = nn.cross_entropy(nn.forward(f, x), y) + nn.cross_entropy(nn.forward(f, adv[n]), y)
            explicit = (
                plain_at
                + pm * float(np.mean(gate * ce_other))
                - dm * float(np.mean((1 - gate) * h_other))
            )
            worst_pair = max(worst_pair, abs(explicit - general[n][0]))

            total, parts = collapsed[n]
            worst_collapse = max(worst_collapse, abs(total - plain_at))
            assert parts["cpo_ce"] == 0.0 and parts["do_h"] == 0.0
    verdict(
        4,
        worst_pair < 1e-12 and worst_collapse < 1e-12,
        f"pairwise gap {worst_pair:.1e}, lambda-zero gap {worst_collapse:.1e}",
    )


# ---------------------------------------------------------------------------
# criterion 5: scenario case logic with hard indicators


def test_criterion_05_case_logic():
    right = constant_model([0.0, -2000.0, -2000.0])  # predicts the label, prob 1
    wrong = constant_model([-2000.0, 0.0, 0.0])  # prob 0 on the label
    x = np.full((4, 4), 0.5)
    y = np.zeros(4, dtype=np.int64)
    adv = [x, x]
    pm, dm = 1.0, 5.0
    ln2 = float(np.log(2.0))
    ok = True
    for a_right, b_right in itertools.product((True, False), repeat=2):
        pair = (right if a_right else wrong, right if b_right else wrong)
        terms = training._collab_step(Ensemble(members=pair).stack, x, y, adv, pm, dm)[0]
        for (_, parts), n_right in zip(terms, (a_right, b_right)):
            if n_right:  # gate exactly 1: promote fires, demote is silent
                ok &= parts["cpo_gate"] == 1.0 and parts["do_h"] == 0.0
                ok &= parts["cpo_ce"] == 0.0  # CE of a certain-correct model
            else:  # gate exactly 0: demote fires, promote is silent
                ok &= parts["do_gate"] == 1.0 and parts["cpo_ce"] == 0.0
                ok &= parts["do_h"] == dm * ln2  # entropy of (0, .5, .5)
    verdict(5, ok, "4 scenario rows activate exactly the listed terms")


# ---------------------------------------------------------------------------
# criterion 6: attack contracts


def test_criterion_06_attack_contracts():
    rng = np.random.default_rng(3)
    d, classes, batch = 6, 3, 10_000
    model = nn.init_model(d, [8], classes, seed=42)
    x = rng.uniform(0, 1, size=(batch, d))
    y = rng.integers(0, classes, size=batch)
    eps = 0.05
    specs = {
        "pgd": AttackSpec(family="pgd", steps=5, epsilon=eps, eta=0.02, seed=1),
        "bim": AttackSpec(family="bim", steps=5, epsilon=eps, eta=0.02),
        "mim": AttackSpec(family="mim", steps=5, epsilon=eps, eta=0.02),
        "spsa": AttackSpec(
            family="spsa", steps=3, epsilon=eps, eta=0.02, spsa_samples=16, seed=1
        ),
    }
    ball_ok = box_ok = True
    for spec in specs.values():
        adv = run_attack(model, x, y, spec).adversarial
        ball_ok &= float(np.abs(adv - x).max()) <= eps + 1e-9
        box_ok &= float(adv.min()) >= 0.0 and float(adv.max()) <= 1.0

    # one-dimensional logistic model against an exhaustive grid
    grid_ok = True
    for w0, w1, x0 in [(2.0, -1.0, 0.4), (-1.5, 2.5, 0.45), (0.3, 0.9, 0.62)]:
        logistic = nn.Model(
            layers=(nn.Layer(w=np.array([[w0, w1]]), b=np.zeros(2), act="id"),),
            num_classes=2,
        )
        geps, geta = 0.1, 0.02
        spec = AttackSpec(
            family="pgd", steps=10, epsilon=geps, eta=geta, random_start=False, seed=0
        )
        res = run_attack(logistic, np.array([[x0]]), np.array([0]), spec)
        grid = np.clip(np.linspace(x0 - geps, x0 + geps, 2001), 0.0, 1.0)
        losses = nn.cross_entropy_per_example(
            nn.forward(logistic, grid[:, None]), np.zeros(2001, dtype=np.int64)
        )
        best = grid[np.argmax(losses)]
        grid_ok &= abs(float(res.adversarial[0, 0]) - best) <= geps / 100

    ds, fitted = blobs_and_model(seed=3, separation=3)
    rates = []
    for e in (0.0, 2 / 255, 4 / 255, 8 / 255):
        spec = AttackSpec(
            family="pgd", steps=20, epsilon=e, eta=max(e / 4, 1e-4), random_start=False, seed=0
        )
        rates.append(run_attack(fitted, ds.inputs, ds.labels, spec).success_mask.mean())
    mono_ok = all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))

    verdict(
        6,
        ball_ok and box_ok and grid_ok and mono_ok,
        f"ball/box on 4x10^4 examples, grid oracle, success rates {np.round(rates, 3)}",
    )


# ---------------------------------------------------------------------------
# criteria 7 and 8: trained directional checks


def _train_pair(seed, mode, separation, n_per_class, hidden, epochs, attack_steps, eta):
    ds = data.gen_blobs(
        seed=seed, n_per_class=n_per_class, num_classes=3, dim=8, separation=separation
    )
    spec = AttackSpec(family="pgd", steps=attack_steps, epsilon=0.05, eta=eta, seed=seed)
    config = training.TrainConfig(
        attack=spec, epochs=epochs, batch_size=30, seed=seed, mode=mode, lr=0.03
    )
    init = training.init_ensemble(8, hidden, 3, 2, seed=seed)
    return ds, training.train(init, ds, config, "CCE")


def test_criterion_07_transferring_flow_direction():
    start = time.perf_counter()
    s11 = {"RM": [], "Base": []}
    rob = {"RM": [], "Base": []}
    for seed in range(5):
        for mode in ("RM", "Base"):
            ds, report = _train_pair(
                seed, mode, separation=3.0, n_per_class=50, hidden=[24],
                epochs=15, attack_steps=7, eta=0.02,
            )
            ens = report.ensemble
            eval_spec = AttackSpec(
                family="pgd", steps=10, epsilon=0.05, eta=0.0125, seed=100 + seed
            )
            adv = run_attack(ens, ds.inputs, ds.labels, eval_spec).adversarial
            part = partition(ens.members[0], ens.members[1], adv, ds.inputs, ds.labels, 0.05)
            s11[mode].append(part.cardinalities["S11"])
            rob[mode].append(analysis.robust_accuracy(ens, ds, eval_spec))
    elapsed = time.perf_counter() - start
    s11_rm, s11_base = np.mean(s11["RM"]), np.mean(s11["Base"])
    rob_rm, rob_base = np.mean(rob["RM"]), np.mean(rob["Base"])
    verdict(
        7,
        s11_rm > s11_base and rob_rm >= rob_base and elapsed < 300,
        f"|S11| RM {s11_rm:.2f} vs Base {s11_base:.2f}, "
        f"robust RM {rob_rm:.2f} vs Base {rob_base:.2f}, {elapsed:.0f}s",
    )


def test_criterion_08_detection_mode_direction():
    nat = {"DM": [], "RM": []}
    aucs = []
    for seed in range(5):
        reports = {}
        for mode in ("DM", "RM"):
            ds, report = _train_pair(
                seed, mode, separation=10.0, n_per_class=100, hidden=[32],
                epochs=60, attack_steps=10, eta=0.008,
            )
            nat[mode].append(analysis.natural_accuracy(report.ensemble, ds))
            reports[mode] = (ds, report.ensemble)
        ds, ens = reports["DM"]
        spec = AttackSpec(
            family="pgd", steps=25, epsilon=0.05, eta=0.05 / 8, seed=200 + seed
        )
        adv = run_attack(ens, ds.inputs, ds.labels, spec).adversarial
        aucs.append(analysis.detect(ens, ds.inputs, adv).auc)
    nat_dm, nat_rm, auc = np.mean(nat["DM"]), np.mean(nat["RM"]), np.mean(aucs)
    verdict(
        8,
        nat_dm >= nat_rm and auc >= 0.9,
        f"natural DM {nat_dm:.2f} vs RM {nat_rm:.2f}, detector AUC {auc:.3f}",
    )


# ---------------------------------------------------------------------------
# criterion 9: AUC against exhaustive pair counting


def _auc_pairs(benign, adv):
    units = 0
    for a in adv:
        for b in benign:
            if a > b:
                units += 2
            elif a == b:
                units += 1
    return units / (2 * len(benign) * len(adv))


def test_criterion_09_auc_oracle():
    rng = np.random.default_rng(21)
    ok = True
    trials = 0
    for _ in range(20):
        nb, na = int(rng.integers(1, 201)), int(rng.integers(1, 201))
        # coarse value grid so ties actually occur
        benign = rng.integers(0, 12, size=nb) / 7.0
        adv = rng.integers(0, 12, size=na) / 7.0
        ok &= analysis.auc_from_scores(benign, adv) == _auc_pairs(benign, adv)
        trials += 1
    for benign, adv in [
        (np.zeros(200), np.zeros(200)),        # all ties: exactly 1/2
        (np.zeros(17), np.ones(151)),          # disjoint: exactly 1
        (np.ones(3), np.zeros(3)),             # reversed: exactly 0
    ]:
        ok &= analysis.auc_from_scores(benign, adv) == _auc_pairs(benign, adv)
        trials += 1
    verdict(9, ok, f"exact equality on {trials} score sets up to size 200")


# ---------------------------------------------------------------------------
# criterion 10: end-to-end determinism


def test_criterion_10_cli_determinism(tmp_path):
    config = {
        "dataset": {
            "generator": "blobs", "n_per_class": 30, "num_classes": 3,
            "dim": 4, "separation": 3.0,
        },
        "model": {"hidden": [16], "members": 2},
        "method": {"name": "RM"},
        "train": {
            "epochs": 2, "batch_size": 30, "lr": 0.03,
            "attack": {"family": "pgd", "steps": 3, "epsilon": 0.05, "eta": 0.02},
        },
        "eval_attacks": {"pgd": {"family": "pgd", "steps": 3, "epsilon": 0.05, "eta": 0.02}},
        "surface": {"radius_steps": 2, "step": 0.02, "index": 0, "target": "en"},
        "out": "unused",
        "seed": 7,
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config))

    def run_all(root):
        outs = {}
        assert cli.main(["train", "--config", str(path), "--out", f"{root}/tr"]) == 0
        ckpt = f"{root}/tr/ensemble.json"
        for sub in ("eval", "transfer", "detect", "surface"):
            code = cli.main(
                [sub, "--config", str(path), "--checkpoint", ckpt, "--out", f"{root}/{sub}"]
            )
            assert code == 0
        for dirpath, _, names in os.walk(root):
            for name in names:
                full = os.path.join(dirpath, name)
                with open(full, "rb") as f:
                    outs[os.path.relpath(full, root)] = f.read()
        return outs

    first = run_all(str(tmp_path / "one"))
    second = run_all(str(tmp_path / "two"))
    identical = first.keys() == second.keys() and all(
        first[k] == second[k] for k in first
    )
    verdict(10, identical, f"{len(first)} artifacts byte-identical across reruns")
