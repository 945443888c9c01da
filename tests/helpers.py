"""Small trained models and the one-model-at-a-time oracles shared by the
test modules.

Training here is plain cross-entropy with Adam, built directly on the nn
primitives so that attack/analysis tests do not depend on the training
module they help validate. The oracles restate the training steps one
model and one batch at a time, in plain numpy: oracle_collab (ADV/CCE),
oracle_ensemble_adv (ADV_EN/ADP) and reference_diversity (the ADP
regulariser one example at a time). The step is checked against their
values and gradients bit for bit, and finite differences of their values.
"""
import numpy as np

from advens import data, nn, training
from advens.ensembles import Ensemble


def fit_plain(dataset, hidden=(16,), steps=400, lr=0.05, seed=0, batch=None):
    model = nn.init_model(dataset.dim, list(hidden), dataset.num_classes, seed=seed)
    state = nn.adam_init(model, lr=lr)
    x, y = dataset.inputs, dataset.labels
    rng = np.random.default_rng(seed + 1)
    n = len(dataset)
    for _ in range(steps):
        if batch is None:
            bx, by = x, y
        else:
            idx = rng.integers(0, n, size=batch)
            bx, by = x[idx], y[idx]
        _, grads = nn.backward(model, bx, lambda p: nn.ce_values_and_prob_grad(p, by))
        model, state = nn.adam_step(model, grads, state)
    return model


def weighted_ce_and_entropy(y, ce_w, h_w):
    """A loss_grad for nn.backward: the loss mean_b(ce_w CE_b) + mean_b(h_w
    H_b) of each slice and its gradient in the probabilities, built from
    the nn loss functions. Each weight is a scalar or one per row."""

    def loss_grad(probs):
        b = probs.shape[-2]
        ce, g = nn.ce_values_and_prob_grad(probs, y, ce_w, _checked=True)
        h_w_rows = np.broadcast_to(h_w, probs.shape[:-1])
        g += (h_w_rows / b)[..., None] * nn.entropy_grad(probs)
        return (ce_w * ce).sum(axis=-1) / b + (h_w_rows * nn.entropy_rows(probs)).sum(axis=-1) / b, g

    return loss_grad


def input_grad(model, x, loss_grad):
    """(values, dLoss/dx) of a loss_grad's loss of a Model's or a
    ModelStack's probabilities on x, by the attacks' path: a keep="masks"
    forward and its backprop."""
    probs, cache = nn.forward_cached(model, x, "masks")
    values, g_probs = loss_grad(probs)
    return values, nn.backprop(model, cache, g_probs)


def blobs_and_model(seed=0, num_classes=3, dim=2, separation=4, hidden=(16,)):
    ds = data.gen_blobs(
        seed=seed, n_per_class=60, num_classes=num_classes, dim=dim, separation=separation
    )
    return ds, fit_plain(ds, hidden=hidden, seed=seed)


def ensemble_and_batch(b, d=4, hidden=(5,), m=3, members=2, seed=0):
    """An untrained ensemble of d inputs and m classes, and a random batch
    of b rows in the data box with random labels."""
    ens = Ensemble(members=tuple(nn.init_model(d, list(hidden), m, seed=seed + k) for k in range(members)))
    rng = np.random.default_rng(seed + 100)
    return ens, rng.random((b, d)), rng.integers(0, m, size=b)


def assert_same_bytes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def reference_spsa(probs_of, x, labels, samples, delta, rngs):
    """The two-point estimate as defined, both bumped batches whole, one
    generator per batch slice: row r of a slice's bump is bits 0 .. d-1 of
    its r-th W = ceil(d/64) raw 64-bit outputs of the sample, low bits
    first, a set bit +1 and a clear one -1; probs_of gives the probability
    rows of a batch shaped like x."""
    b, d = x.shape[-2:]
    w = -(-d // 64)
    est = np.zeros_like(x)
    for _ in range(samples):
        raw = np.stack([r.bit_generator.random_raw((b, w)) for r in rngs])  # (H, B, W) uint64
        bits = (raw[..., None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
        bump = np.reshape(bits.reshape(len(rngs), b, 64 * w)[..., :d], x.shape) * 2.0 - 1.0
        lp = nn.cross_entropy_per_example(probs_of(np.clip(x + delta * bump, 0.0, 1.0)), labels)
        ln = nn.cross_entropy_per_example(probs_of(np.clip(x - delta * bump, 0.0, 1.0)), labels)
        est += ((lp - ln) / (2.0 * delta))[..., None] * bump
    return est / samples


def read_on(r):
    """What generator r gives next: three int32 entries of integers(0, 2),
    the first of them a pending uint32 half if r holds one, then a 64-bit
    draw; two generators read on alike where they are at one place of their
    stream with one pending half, or none."""
    return r.integers(0, 2, size=3, dtype=np.int32).tolist(), r.integers(0, 2**62)


def member_grads(grads, k):
    """Member k's (gw, gb) list cut from a step's stacked gradients."""
    return [(gw[k], gb[k, 0]) for gw, gb in grads]


# ---------------------------------------------------------------------------
# one-model-at-a-time oracles of the training steps


def oracle_forward(model, x):
    """One model on one batch: (probs, each layer's input, each layer's
    pre-activation)."""
    a, inputs, preacts = x, [], []
    for layer in model.layers:
        z = a @ layer.w + layer.b
        inputs.append(a)
        preacts.append(z)
        a = np.maximum(z, 0.0) if layer.act == "relu" else z
    e = np.exp(a - a.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True), inputs, preacts


def oracle_backprop(model, cache, g_probs):
    """((gw, gb) per layer, dLoss/dinputs) of one model on one batch."""
    probs, inputs, preacts = cache
    g = probs * (g_probs - (g_probs * probs).sum(axis=1, keepdims=True))
    grads = [None] * len(model.layers)
    for i in range(len(model.layers) - 1, -1, -1):
        if model.layers[i].act == "relu":
            g = g * (preacts[i] > 0.0)
        grads[i] = (inputs[i].T @ g, g.sum(axis=0))
        g = g @ model.layers[i].w.T
    return grads, g


def oracle_terms(probs, y, terms):
    """Loss and dLoss/dprobs of (kind, per-example weight) terms on one batch."""
    b = len(y)
    rows = np.arange(b)
    loss, g_probs = 0.0, np.zeros_like(probs)
    for kind, w in terms:
        w = np.broadcast_to(np.asarray(w, dtype=np.float64), (b,))
        if kind == "ce":
            p_y = probs[rows, y]
            loss += float(np.mean(w * -np.log(np.maximum(p_y, nn.LOG_FLOOR))))
            g_probs[rows, y] += np.where(p_y > nn.LOG_FLOOR, -w / (b * np.maximum(p_y, nn.LOG_FLOOR)), 0.0)
        else:
            plogp = np.where(probs > 0.0, probs * np.log(np.maximum(probs, nn.LOG_FLOOR)), 0.0)
            loss += float(np.mean(w * -plogp.sum(axis=1)))
            g = np.where(probs > 0.0, -(np.log(np.maximum(probs, nn.LOG_FLOOR)) + 1.0), 0.0)
            g_probs += (w / b)[:, None] * g
    return loss, g_probs


def oracle_add(a, b):
    """Two (gw, gb) lists added layer by layer."""
    return [(gw + dw, gb + db) for (gw, gb), (dw, db) in zip(a, b)]


def oracle_collab(n, members, x, y, adv_set, lambda_pm, lambda_dm, indicators=None):
    """Member n's CCE step one model and one batch at a time: clean +
    own, then the crossings with i ascending. One member is ADV."""
    f = members[n]

    def direct(batch):
        cache = oracle_forward(f, batch)
        loss, g_probs = oracle_terms(cache[0], y, [("ce", 1.0)])
        return loss, oracle_backprop(f, cache, g_probs)[0]

    (clean, g_clean), (own, g_own) = direct(x), direct(adv_set[n])
    grads = oracle_add(g_clean, g_own)
    others = [i for i in range(len(members)) if i != n]
    cpo_ce = do_h = gate_sum = 0.0
    for i in others:
        share = 1.0 / len(others)
        cache = oracle_forward(f, adv_set[i])
        probs = cache[0]
        gate = indicators[i] if indicators is not None else probs[np.arange(len(y)), y]
        terms = [("ce", share * lambda_pm * gate), ("entropy", -share * lambda_dm * (1.0 - gate))]
        grads = oracle_add(grads, oracle_backprop(f, cache, oracle_terms(probs, y, terms)[1])[0])
        cpo_ce += share * lambda_pm * float(np.mean(gate * nn.cross_entropy_per_example(probs, y)))
        do_h += share * lambda_dm * float(np.mean((1.0 - gate) * nn.entropy(probs)))
        gate_sum += share * float(np.mean(gate))
    parts = {"clean_ce": clean, "dpo_ce": own, "cpo_ce": cpo_ce, "do_h": do_h}
    if others:
        parts.update(cpo_gate=gate_sum, do_gate=1.0 - gate_sum)
    return clean + own + cpo_ce - do_h, parts, grads


def oracle_averaged_ce(members, x, y):
    """Per-example CE of the members' averaged rows (a lone member's own),
    each member's cache and each member's (gw, gb) list."""
    caches = [oracle_forward(m, x) for m in members]
    probs = caches[0][0] if len(members) == 1 else np.mean([c[0] for c in caches], axis=0)
    values, g_probs = nn.ce_values_and_prob_grad(probs, y)
    if len(members) > 1:
        g_probs = g_probs / len(members)
    return values, caches, [oracle_backprop(m, c, g_probs)[0] for m, c in zip(members, caches)]


def oracle_ensemble_adv(members, x, y, x_a, adp=None):
    """ADV_EN (adp None) or ADP (adp = (alpha, beta)) one member at a time."""
    (v1, c1, r1), (v2, c2, r2) = oracle_averaged_ce(members, x, y), oracle_averaged_ce(members, x_a, y)
    clean, adv = float(np.mean(v1)), float(np.mean(v2))
    total, parts = clean + adv, {"clean_ce": clean, "dpo_ce": adv, "cpo_ce": 0.0, "do_h": 0.0}
    grads = [oracle_add(a, b) for a, b in zip(r1, r2)]
    for tag, caches in zip(("clean", "adv"), (c1, c2)) if adp else ():
        value, g_probs, _ = reference_diversity(np.stack([c[0] for c in caches]), y, *adp)
        parts[f"adp_reg_{tag}"] = value
        total -= value
        for i, (m, c) in enumerate(zip(members, caches)):
            grads[i] = oracle_add(grads[i], oracle_backprop(m, c, -g_probs[i])[0])
    return total, parts, grads


def reference_diversity(probs, y, alpha, beta):
    """The regulariser of the members' rows probs (N, B, M) and labels y one
    example at a time, with the three exits of its definition: a zero row,
    a determinant under the floor, a singular solve."""
    n, b, m = probs.shape
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
    return float(np.mean(alpha * h_vals + beta * log_ed)), grads / b, clamped
