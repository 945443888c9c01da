"""Row blocks on helper threads (nn.over_blocks): every blocked pass, attack
and CLI artifact keeps its bits with helpers on and off; numpy's error state
and a block's exception cross the threads; OpenBLAS runs on one thread
while helpers run; nested calls do not wait on the pool; and nothing starts
a thread before a pass has more than one block."""

import json
import os
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from advens import cli, data, nn
from advens.attacks import FAMILIES, AttackSpec, run_attack, run_heads, spsa_gradient_estimate, targeted
from advens.ensembles import Ensemble, Heads, ce_values_and_input_grad, ensemble_predict, member_probs, save_ensemble
from advens.errors import DomainError
from helpers import assert_same_bytes, ensemble_and_batch, read_on, reference_spsa

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ON = 3  # helpers, whatever the core count: every block of 10,000 rows in flight at once


@pytest.fixture
def helpers(monkeypatch):
    """use(n) runs blocked passes with n helpers from a fresh pool. With
    helpers on, the calling thread's forwards wait until a helper has
    started one, so that helpers surely take part; use returns that event."""
    taken = threading.Event()
    forward = nn.forward_cached

    def waiting_forward(*args, **kwargs):
        if threading.current_thread().name.startswith("advens-block"):
            taken.set()
        else:
            taken.wait(timeout=10)
        return forward(*args, **kwargs)

    def use(n):
        monkeypatch.setattr(nn, "_HELPERS", n)
        monkeypatch.setattr(nn, "_pool", None)
        monkeypatch.setattr(nn, "forward_cached", waiting_forward if n else forward)
        return taken

    return use


def passes(ens, x, labels):
    """The blocked passes outside an attack's search (whose blocked steps
    the attacks below take); the stacked cases slice k against member k."""
    stacked = np.stack([np.roll(x, k, axis=0) for k in range(len(ens))])
    rngs = [np.random.default_rng(4 + k) for k in range(len(ens))]
    return [
        member_probs(ens, x),
        member_probs(ens.stack, stacked),
        spsa_gradient_estimate(ens, x, labels, 2, 0.01, np.random.default_rng(3))[0],
        spsa_gradient_estimate(Heads.each(ens.stack), stacked, labels, 2, 0.01, rngs)[0],
    ]


def attacks(ens, x, labels, family):
    spec = AttackSpec(family=family, steps=2, epsilon=0.02, eta=0.005, spsa_samples=2, seed=5)
    results = [
        run_attack(ens, x, labels, spec),
        targeted(ens, x, (labels + 1) % 3, spec),
        *run_heads(Heads.of([*ens.members, ens]), x, labels, spec),
    ]
    return [a for r in results for a in (r.adversarial, r.success_mask, np.array(r.loss_trace), r.member_probs)]


@pytest.mark.parametrize("b", [4096, 10_000])
def test_blocked_passes_keep_their_bits_on_helpers(helpers, b):
    ens, x, labels = ensemble_and_batch(b)
    helpers(0)
    serial = passes(ens, x, labels)
    taken = helpers(ON)
    assert_same_bytes(passes(ens, x, labels), serial)
    assert taken.is_set()


@pytest.mark.parametrize("pending", [0, 1])
@pytest.mark.parametrize("n_helpers", [0, ON])
def test_blocked_spsa_draws_keep_the_generator_stream(helpers, n_helpers, pending):
    # 4,099 rows of 5 features: blocks (0, 2049) and (2049, 4099), so a
    # block's rows of a sample's draw start at odd and even uint32 entries;
    # pending leaves half of a generator's last uint32 output unread, and a
    # raw read after it makes that half no part of the output before its state
    ens, x, labels = ensemble_and_batch(4099, d=5)
    assert nn.row_blocks(x) == [(0, 2049), (2049, 4099)]
    stacked = np.stack([x, np.roll(x, 1, axis=0)])
    taken = helpers(n_helpers)

    def generators(seeds):  # one per seed, after 2 + pending int32 draws and a raw one
        made = [np.random.default_rng(s) for s in seeds]
        for r in made:
            r.integers(0, 2, size=2 + pending, dtype=np.int32)
            r.bit_generator.random_raw()
        return made

    for target, batch, probs_of, seeds in (
        (ens, x, lambda b: ensemble_predict(ens, b), (9,)),
        (Heads.each(ens.stack), stacked, lambda b: member_probs(ens.stack, b), (9, 10)),
        (Heads.each(ens.stack), stacked, lambda b: member_probs(ens.stack, b), (9, 9)),  # two of one seed
    ):
        # want[h] draws slice h's bumps alone: each slice gets its lone
        # estimate's bumps, and each generator ends where that leaves it
        got, want = generators(seeds), generators(seeds)
        est, _ = spsa_gradient_estimate(target, batch, labels, 3, 0.02, got[0] if target is ens else got)
        assert est.tobytes() == reference_spsa(probs_of, batch, labels, 3, 0.02, want).tobytes()
        assert [read_on(r) for r in got] == [read_on(r) for r in want]
    assert taken.is_set() == bool(n_helpers)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("b", [4096, 10_000])
def test_attacks_keep_their_bits_on_helpers(helpers, b, family):
    ens, x, labels = ensemble_and_batch(b, seed=b)
    helpers(0)
    serial = attacks(ens, x, labels, family)
    taken = helpers(ON)
    assert_same_bytes(attacks(ens, x, labels, family), serial)
    assert taken.is_set()


def overflowing_model():
    # at x = 0 the logits are b1 @ w2, of order 1, and the input gradient runs
    # through w2 and w1 at 1e450 / B: it overflows; at x = -1 the relu is off
    # and the gradient is 0
    w1 = np.full((3, 4), 1e300)
    b1 = np.full(4, 1e-150)
    w2 = 1e150 * np.array([[1.0, -1.0, 0.5], [0.2, 0.3, -0.7], [-1.0, 0.1, 0.4], [0.6, -0.2, 0.0]])
    return nn.Model(layers=(nn.Layer(w1, b1), nn.Layer(w2, np.zeros(3), "id")), num_classes=3)


def test_numpy_error_state_reaches_the_helpers(helpers):
    # the attack step over row blocks, as an attack's search takes it
    model, x, labels = overflowing_model(), np.zeros((10_000, 3)), np.arange(10_000) % 3
    taken = helpers(ON)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            grads = nn.over_blocks(
                lambda lo, hi: ce_values_and_input_grad(model, x[lo:hi], labels[lo:hi])[1], nn.row_blocks(x)
            )
    assert taken.is_set()
    assert len(grads) == 4 and all(not np.isfinite(g).all() for g in grads)


def test_a_divergence_in_a_helpers_block_reaches_the_caller(helpers):
    # block 0 (the caller's, which waits for a helper to start) is finite;
    # block 1 diverges, on the helper
    x, labels = np.zeros((4096, 3)), np.arange(4096) % 3
    x[:2048] = -1.0
    taken = helpers(ON)
    spec = AttackSpec(family="bim", steps=2, epsilon=0.01, eta=0.005)
    with np.errstate(over="ignore"), pytest.raises(DomainError, match="^non-finite attack gradient at step 0$"):
        run_attack(overflowing_model(), x, labels, spec)
    assert taken.is_set()


def test_over_blocks_returns_in_block_order_and_raises_as_the_serial_loop(helpers):
    helpers(ON)
    blocks = [(i, i + 1) for i in range(8)]
    assert nn.over_blocks(lambda lo, hi: (lo, hi), blocks) == blocks
    started, finished = set(), set()

    def fn(lo, hi):
        started.add(lo)
        time.sleep(0.01 * (5 - lo) if lo < 5 else 0.0)  # later blocks fail first
        finished.add(lo)
        if lo >= 2:
            raise ValueError(lo)

    with pytest.raises(ValueError) as e:
        nn.over_blocks(fn, blocks)
    assert e.value.args == (2,)  # the lowest failing block, as the serial loop raises
    assert started == finished and {0, 1, 2} <= started  # every started block finished


def test_a_pass_with_helpers_runs_blas_on_one_thread(helpers):
    # OpenBLAS's own threads would compete with the helpers: while helpers
    # take a pass's blocks it runs on one thread, and it gets its count back
    # after the pass, also after a block that raises
    blas = nn._blas_threads()
    if not blas:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread-count functions")
    get, set_count = blas
    before = get()
    try:
        set_count(2)
        helpers(ON)
        blocks = [(i, i + 1) for i in range(8)]
        assert nn.over_blocks(lambda lo, hi: get(), blocks) == [1] * 8
        assert get() == 2

        def fn(lo, hi):
            if lo == 3:
                raise ValueError(lo)
            return get()

        with pytest.raises(ValueError):
            nn.over_blocks(fn, blocks)
        assert get() == 2
        assert nn.over_blocks(lambda lo, hi: get(), blocks[:1]) == [2]  # one block: no helper
        # passes on two threads, the first ending while the second runs: one
        # thread until the second ends, then the count before the first
        second_in, first_out, seen = threading.Event(), threading.Event(), []

        def second(lo, hi):
            second_in.set()
            assert first_out.wait(timeout=10)
            seen.append(get())

        def first(lo, hi):
            if lo == 0:
                other.start()
            assert second_in.wait(timeout=10)

        other = threading.Thread(target=nn.over_blocks, args=(second, blocks[:2]))
        nn.over_blocks(first, blocks[:2])
        first_out.set()
        other.join(timeout=10)
        assert not other.is_alive() and seen == [1, 1] and get() == 2
    finally:
        set_count(before)


def test_a_nested_call_on_a_helper_runs_its_blocks_there(helpers):
    # with a second helper idle, a nested call that went to the pool would
    # hand it some of the slow inner blocks
    helpers(2)
    names, gate = [], threading.Event()

    def inner(lo, hi):
        time.sleep(0.02)
        names.append(threading.current_thread().name)

    def outer(lo, hi):
        if threading.current_thread().name.startswith("advens-block"):
            nn.over_blocks(inner, [(0, 1), (1, 2), (2, 3)])
            gate.set()
        else:  # the caller's block waits until a helper has run the nested call
            gate.wait(timeout=10)

    nn.over_blocks(outer, [(0, 1), (1, 2)])
    assert gate.is_set() and len(names) == 3
    assert len(set(names)) == 1 and names[0].startswith("advens-block")


def test_importing_and_a_small_train_start_no_thread(tmp_path):
    config = {
        "dataset": {"generator": "blobs", "n_per_class": 30, "num_classes": 3, "dim": 4, "separation": 3.0},
        "model": {"hidden": [8], "members": 2},
        "method": {"name": "RM"},
        "train": {"epochs": 1, "batch_size": 30, "lr": 0.03,
                  "attack": {"family": "pgd", "steps": 2, "epsilon": 0.05, "eta": 0.02}},
        "eval_attacks": {"pgd": {"family": "pgd", "steps": 2, "epsilon": 0.05, "eta": 0.02}},
        "out": str(tmp_path / "out"),
        "seed": 1,
    }
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    script = (
        "import sys, threading\n"
        "before = threading.active_count()\n"
        "import advens, advens.cli\n"
        "imported = threading.active_count()\n"
        "assert advens.cli.main(['train', '--config', sys.argv[1]]) == 0\n"
        "print(before, imported, threading.active_count(), advens.nn._pool)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "cfg.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-4:] == ["1", "1", "1", "None"]  # after the paths train prints


def test_cli_artifacts_of_a_blocked_batch_keep_their_bytes_on_helpers(helpers, tmp_path):
    ds = data.gen_blobs(seed=3, n_per_class=1366, num_classes=3, dim=4, separation=3.0)
    assert len(nn.row_blocks(ds.inputs)) == 2
    images, labels = str(tmp_path / "x.idx"), str(tmp_path / "y.idx")
    data.save_idx(ds, images, labels, rows=2, cols=2)
    ckpt = str(tmp_path / "ensemble.json")
    save_ensemble(Ensemble(members=tuple(nn.init_model(4, [8], 3, seed=s) for s in (1, 2))), ckpt)
    config = {
        "dataset": {"idx_images": images, "idx_labels": labels},
        "model": {"hidden": [8], "members": 2},
        "method": {"name": "RM"},
        "train": {"epochs": 1, "batch_size": 30, "lr": 0.03,
                  "attack": {"family": "pgd", "steps": 2, "epsilon": 0.05, "eta": 0.02}},
        "eval_attacks": {
            "pgd": {"family": "pgd", "steps": 3, "epsilon": 0.05, "eta": 0.02, "seed": 2},
            "spsa": {"family": "spsa", "steps": 2, "epsilon": 0.05, "eta": 0.02, "spsa_samples": 2},
        },
        "out": str(tmp_path / "out"),
        "seed": 4,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    artifacts = {}
    for n in (0, ON):
        taken = helpers(n)
        out = tmp_path / f"helpers{n}"
        for sub in ("eval", "transfer", "detect"):
            assert cli.main([sub, "--config", str(path), "--checkpoint", ckpt, "--out", str(out)]) == 0
        artifacts[n] = {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}
        assert taken.is_set() == bool(n)
    assert sorted(artifacts[0]) == sorted(
        ["eval_pgd.csv", "eval_spsa.csv", "transfer.csv", "transfer_metrics.json", "partition.csv",
         "detect_roc.csv", "detect.json"]
    )
    assert artifacts[ON] == artifacts[0]
