"""Large batches in row blocks (nn.row_blocks): the attack step as an
attack takes it block by block, the member forward and the SPSA estimate
against the whole-batch pass, forced by a block constant no batch
reaches; and the SPSA estimate against its definition, with the draws of
its generators."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advens import nn
from advens.attacks import (
    AttackSpec,
    adversarial_batches,
    run_attack,
    run_heads,
    spsa_gradient_estimate,
)
from advens.ensembles import Heads, ce_values_and_input_grad, ensemble_predict, member_probs
from advens.errors import DomainError
from helpers import assert_same_bytes, ensemble_and_batch, reference_spsa

WHOLE = 10**9  # a block constant that leaves every batch whole


def blocked_step(target, x, labels):
    """ce_values_and_input_grad as an attack's search takes it: row block
    by row block (nn.row_blocks), each block's LabelIndex with the whole
    batch's 1/B, made for the heads' (H, B, M) rows (one head for a target
    that is not Heads)."""
    heads = len(target) if isinstance(target, Heads) else 1
    index = nn.label_index(labels, (heads, len(labels), target.num_classes))
    values, grads = zip(*(
        ce_values_and_input_grad(target, x[..., lo:hi, :], index.block(lo, hi)) for lo, hi in nn.row_blocks(x)
    ))
    return np.concatenate(values, axis=-1), np.concatenate(grads, axis=-2)


def results(x, labels, ens):
    """Everything the blocks touch, for one ensemble and one batch; the
    stacked cases slice k against member k (Heads.each)."""
    stacked = np.stack([np.roll(x, k, axis=0) for k in range(len(ens))])
    heads = Heads.each(ens.stack)
    est, _ = spsa_gradient_estimate(ens, x, labels, 2, 0.01, np.random.default_rng(3))
    rngs = [np.random.default_rng(4 + k) for k in range(len(ens))]
    member_est, _ = spsa_gradient_estimate(heads, stacked, labels, 2, 0.01, rngs)
    return [
        *blocked_step(ens, x, labels),
        *blocked_step(heads, stacked, labels),
        member_probs(ens, x),
        member_probs(ens.stack, stacked),
        est,
        member_est,
    ]


def attack_results(x, labels, ens):
    out = []
    for family in ("pgd", "bim", "mim", "spsa"):
        spec = AttackSpec(family=family, steps=2, epsilon=0.01, eta=0.0025, spsa_samples=2, seed=7)
        for target in (ens, ens.members[0]):
            r = run_attack(target, x, labels, spec)
            out += [r.adversarial, r.success_mask, np.array(r.loss_trace)]
    return out


def test_blocks_keep_every_bit_at_the_analyze_idx_shape(monkeypatch):
    # d=64, one hidden layer of 64, 10 classes, 2 members, 10,000 rows: 4 blocks
    ens, x, labels = ensemble_and_batch(10_000, 64, (64,), 10, 2)
    assert len(nn.row_blocks(x)) == 4
    blocked = results(x, labels, ens) + attack_results(x, labels, ens)
    monkeypatch.setattr(nn, "_BLOCK_ROWS", WHOLE)
    assert_same_bytes(blocked, results(x, labels, ens) + attack_results(x, labels, ens))


@settings(max_examples=40, deadline=None, database=None)
@given(
    b=st.integers(4096, 9000),
    d=st.integers(1, 6),
    hidden=st.lists(st.integers(1, 6), max_size=2),
    m=st.integers(2, 5),
    members=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_blocked_results_are_deterministic_and_near_the_whole_pass(b, d, hidden, m, members, seed):
    ens, x, labels = ensemble_and_batch(b, d, hidden, m, members, seed)
    blocked = results(x, labels, ens)
    assert_same_bytes(results(x, labels, ens), blocked)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "_BLOCK_ROWS", WHOLE)
        whole = results(x, labels, ens)
    for got, want in zip(blocked, whole):
        # a block's matmul may take another kernel than the whole batch's,
        # which moves last bits; a gradient entry summed to near zero moves
        # by the scale of its terms, hence the tolerance on the array's scale
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())


def test_a_non_finite_row_in_the_last_block_still_raises():
    ens, x, labels = ensemble_and_batch(4096, 3, (4,), 3, 2)
    x[-1, 0] = np.nan
    for call in (lambda: ce_values_and_input_grad(ens, x, labels), lambda: member_probs(ens, x)):
        with pytest.raises(DomainError, match="^batch contains non-finite values$"):
            call()


def test_a_non_finite_gradient_still_raises_domain_error():
    # at x = 0 the logits are b1 @ w2, of order 1, and the input gradient
    # runs through w2 and w1 at 1e450 / B: it overflows in every block
    w1 = np.full((3, 4), 1e300)
    b1 = np.full(4, 1e-150)
    w2 = 1e150 * np.array([[1.0, -1.0, 0.5], [0.2, 0.3, -0.7], [-1.0, 0.1, 0.4], [0.6, -0.2, 0.0]])
    model = nn.Model(layers=(nn.Layer(w1, b1), nn.Layer(w2, np.zeros(3), "id")), num_classes=3)
    x, labels = np.zeros((4096, 3)), np.arange(4096) % 3
    with np.errstate(over="ignore"), pytest.raises(DomainError, match="^non-finite attack gradient at step 0$"):
        run_attack(model, x, labels, AttackSpec(family="bim", steps=2, epsilon=0.01, eta=0.005))


def test_row_blocks_start_at_twice_the_block_rows(monkeypatch):
    assert nn.row_blocks(np.zeros((4095, 2))) == [(0, 4095)]
    assert nn.row_blocks(np.zeros((2, 4096, 2))) == [(0, 2048), (2048, 4096)]
    assert nn.row_blocks(np.zeros((10_000, 2))) == [(0, 2500), (2500, 5000), (5000, 7500), (7500, 10_000)]
    ens, x, labels = ensemble_and_batch(4096, 3, (4,), 3, 2)
    spec = AttackSpec(family="bim", steps=1, epsilon=0.01, eta=0.005)
    calls = []
    forward = nn.forward_cached
    monkeypatch.setattr(nn, "forward_cached", lambda *a, **k: calls.append(len(a[1])) or forward(*a, **k))
    member_probs(ens, x[:4095])
    run_attack(ens, x[:4095], labels[:4095], spec)  # one step, then the final check
    assert calls == [4095] * 3
    calls.clear()
    member_probs(ens, x)
    run_attack(ens, x, labels, spec)
    assert calls == [2048] * 6


def test_block_index_keeps_the_whole_batch_mean():
    index = nn.label_index(np.array([0, 1, 1, 0]), (4, 2))
    block = index.block(2, 4)
    assert block.flat.tolist() == [1, 2] and block.labels.tolist() == [1, 0] and block.batch_size == 4
    assert block.shape == (2, 2) and block.block(1, 2).batch_size == 4
    probs = np.array([[0.5, 0.5], [0.25, 0.75], [0.75, 0.25], [0.5, 0.5]])
    whole = nn.ce_values_and_prob_grad(probs, index)[1]
    assert whole[2:].tobytes() == nn.ce_values_and_prob_grad(probs[2:], block)[1].tobytes()


@pytest.mark.parametrize("family", ["pgd", "spsa"])
def test_member_attacks_equal_lone_attacks_in_blocks(family):
    # the steps alone of one attack per member, seeds 1 and 2, over two row
    # blocks: slice k is member k's lone run_attack adversarial
    ens, x, labels = ensemble_and_batch(4096)
    spec = AttackSpec(family=family, steps=2, epsilon=0.02, eta=0.005, spsa_samples=2)
    together = adversarial_batches(Heads.each(ens.stack), x, labels, spec, [1, 2])
    for member, seed, got in zip(ens.members, (1, 2), together, strict=True):
        assert got.tobytes() == run_attack(member, x, labels, replace(spec, seed=seed)).adversarial.tobytes()



@pytest.mark.parametrize("family", ["pgd", "mim", "spsa"])
def test_member_and_ensemble_attacks_take_a_blocked_batch_one_target_at_a_time(monkeypatch, family):
    # above the block threshold the targets do not step together: each pass
    # holds one target's row block, and each result is its lone attack's
    ens, x, labels = ensemble_and_batch(4096)
    spec = AttackSpec(family=family, steps=2, epsilon=0.02, eta=0.005, spsa_samples=2, seed=3)
    shapes = []
    forward = nn.forward_cached
    monkeypatch.setattr(nn, "forward_cached", lambda *a, **k: shapes.append(np.shape(a[1])) or forward(*a, **k))
    together = list(run_heads(Heads.of([*ens.members, ens]), x, labels, spec))
    assert shapes and all(s in ((1, 2048, 4), (2048, 4)) for s in shapes)
    monkeypatch.undo()
    for got, target in zip(together, [*ens.members, ens], strict=True):
        lone = run_attack(target, x, labels, spec)
        assert got.adversarial.tobytes() == lone.adversarial.tobytes()
        assert got.member_probs.tobytes() == lone.member_probs.tobytes()
        assert np.array_equal(got.success_mask, lone.success_mask)
        assert got.loss_trace == lone.loss_trace and got.queries == lone.queries


@pytest.mark.parametrize("members", [1, 2])
def test_spsa_estimate_keeps_its_definition_and_the_generator_stream(members):
    ens, x, labels = ensemble_and_batch(300, 5, (6,), 4, members)
    stacked = np.stack([np.roll(x, k, axis=0) for k in range(members)])
    heads = Heads.each(ens.stack)  # slice k against member k: member k's rows of it
    for target, batch, probs_of, k in (
        (ens, x, lambda b: ensemble_predict(ens, b), 1),
        (heads, stacked, lambda b: member_probs(ens.stack, b), members),
    ):
        got_rngs, want_rngs = ([np.random.default_rng(9 + i) for i in range(k)] for _ in range(2))
        got, used = spsa_gradient_estimate(target, batch, labels, 3, 0.02, got_rngs if target is heads else got_rngs[0])
        assert used == 6
        assert got.tobytes() == reference_spsa(probs_of, batch, labels, 3, 0.02, want_rngs).tobytes()
        assert [r.integers(0, 2**62) for r in got_rngs] == [r.integers(0, 2**62) for r in want_rngs]
