"""Small trained models shared by the test modules.

Training here is plain cross-entropy with Adam, built directly on the nn
primitives so that attack/analysis tests do not depend on the training
module they help validate.
"""
import numpy as np

from advens import data, nn
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
        res = nn.backward(model, bx, [nn.LossTerm(kind="ce", labels=by)])
        model, state = nn.adam_step(model, res.param_grads, state)
    return model


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
    """The two-point estimate as defined: int64 draws mapped to +-1, both
    bumped batches whole, one generator per batch slice; probs_of gives
    the probability rows of a batch shaped like x."""
    est = np.zeros_like(x)
    for _ in range(samples):
        bump = np.reshape([r.integers(0, 2, size=x.shape[-2:]) for r in rngs], x.shape) * 2.0 - 1.0
        lp = nn.cross_entropy_per_example(probs_of(np.clip(x + delta * bump, 0.0, 1.0)), labels)
        ln = nn.cross_entropy_per_example(probs_of(np.clip(x - delta * bump, 0.0, 1.0)), labels)
        est += ((lp - ln) / (2.0 * delta))[..., None] * bump
    return est / samples


def read_on(r):
    """What generator r draws next: three int32 entries of integers(0, 2),
    each the top bit of a uint32 half (a pending one first), then a 64-bit
    draw."""
    return r.integers(0, 2, size=3, dtype=np.int32).tolist(), r.integers(0, 2**62)
