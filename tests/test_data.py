import struct
import tracemalloc

import numpy as np
import pytest

from advens import data, nn
from advens.errors import (
    ConsistencyError,
    DomainError,
    FormatError,
    ShapeError,
    TruncatedFileError,
)


# ---------------------------------------------------------------------------
# generators


def test_blobs_determinism_and_counts():
    a = data.gen_blobs(seed=3, n_per_class=50, num_classes=3, dim=4, separation=4)
    b = data.gen_blobs(seed=3, n_per_class=50, num_classes=3, dim=4, separation=4)
    assert np.array_equal(a.inputs, b.inputs) and np.array_equal(a.labels, b.labels)
    assert len(a) == 150
    assert all(np.sum(a.labels == c) == 50 for c in range(3))
    assert a.inputs.min() >= 0.0 and a.inputs.max() <= 1.0
    c = data.gen_blobs(seed=4, n_per_class=50, num_classes=3, dim=4, separation=4)
    assert not np.array_equal(a.inputs, c.inputs)


def test_blobs_parameter_validation():
    with pytest.raises(DomainError):
        data.gen_blobs(0, 10, 1, 4, 3)
    with pytest.raises(DomainError):
        data.gen_blobs(0, 10, 3, 1, 3)
    with pytest.raises(DomainError):
        data.gen_blobs(0, 10, 3, 4, 0.0)
    with pytest.raises(DomainError):
        data.gen_blobs(0, 0, 3, 4, 3)


def test_blobs_wide_separation_is_linearly_separable():
    # margin >= 5 sigma: softmax regression should reach 99%+
    ds = data.gen_blobs(seed=11, n_per_class=60, num_classes=3, dim=2, separation=6)
    model = nn.init_model(2, [], 3, seed=0)
    state = nn.adam_init(model, lr=0.05)
    for _ in range(300):
        _, grads = nn.backward(model, ds.inputs, lambda p: nn.ce_values_and_prob_grad(p, ds.labels))
        model, state = nn.adam_step(model, grads, state)
    acc = np.mean(nn.predict(model, ds.inputs) == ds.labels)
    assert acc >= 0.99


def test_rings_geometry():
    ds = data.gen_rings(seed=5, n_per_class=80, num_classes=2, noise=0.0)
    assert len(ds) == 160 and ds.dim == 2
    assert np.array_equal(
        ds.inputs, data.gen_rings(seed=5, n_per_class=80, num_classes=2, noise=0.0).inputs
    )
    # noiseless radii 0.2 / 0.4: closest cross-class pair >= 0.19
    a = ds.inputs[ds.labels == 0]
    b = ds.inputs[ds.labels == 1]
    dists = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1))
    assert dists.min() >= 0.19
    with pytest.raises(DomainError):
        data.gen_rings(0, 10, 2, -0.1)


def test_dataset_validation():
    x = np.zeros((4, 2))
    with pytest.raises(ConsistencyError):
        data.Dataset(inputs=x, labels=np.zeros(3, dtype=np.int64), num_classes=2, name="t", seed=0)
    with pytest.raises(DomainError):
        data.Dataset(inputs=x + 2.0, labels=np.zeros(4, dtype=np.int64), num_classes=2, name="t", seed=0)
    with pytest.raises(DomainError):
        data.Dataset(inputs=x, labels=np.full(4, 5, dtype=np.int64), num_classes=2, name="t", seed=0)
    with pytest.raises(ShapeError):
        data.Dataset(inputs=np.zeros(4), labels=np.zeros(4, dtype=np.int64), num_classes=2, name="t", seed=0)


# ---------------------------------------------------------------------------
# IDX


def write_idx_pair(tmp_path, pixels, labels, rows, cols):
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    with open(img, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, pixels.shape[0], rows, cols))
        f.write(pixels.astype(np.uint8).tobytes())
    with open(lab, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, labels.shape[0]))
        f.write(labels.astype(np.uint8).tobytes())
    return img, lab


def test_idx_scaling_and_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(4, 6), dtype=np.uint8)
    pixels[0, 0], pixels[0, 1] = 255, 0
    labels = np.array([0, 1, 2, 1], dtype=np.uint8)
    img, lab = write_idx_pair(tmp_path, pixels, labels, 2, 3)
    ds = data.load_idx(img, lab)
    assert ds.inputs[0, 0] == 1.0 and ds.inputs[0, 1] == 0.0
    assert ds.num_classes == 3 and len(ds) == 4

    # write-then-read of byte-valued data reproduces the dataset exactly
    out_img, out_lab = tmp_path / "o.idx", tmp_path / "ol.idx"
    data.save_idx(ds, out_img, out_lab, rows=2, cols=3)
    again = data.load_idx(out_img, out_lab)
    assert np.array_equal(ds.inputs, again.inputs)
    assert np.array_equal(ds.labels, again.labels)
    assert (out_img.read_bytes(), out_lab.read_bytes()) == (
        img.read_bytes(),
        lab.read_bytes(),
    )


def test_idx_error_paths(tmp_path):
    pixels = np.zeros((2, 4), dtype=np.uint8)
    labels = np.zeros(2, dtype=np.uint8)
    img, lab = write_idx_pair(tmp_path, pixels, labels, 2, 2)

    bad_magic = tmp_path / "badmagic.idx"
    bad_magic.write_bytes(struct.pack(">IIII", 0x12345678, 2, 2, 2) + pixels.tobytes())
    with pytest.raises(FormatError):
        data.load_idx(bad_magic, lab)

    short_lab = tmp_path / "short.idx"
    short_lab.write_bytes(struct.pack(">II", 0x00000801, 5) + labels.tobytes())
    with pytest.raises(ConsistencyError):
        data.load_idx(img, write_idx_pair(tmp_path, pixels, np.zeros(1, dtype=np.uint8), 2, 2)[1])

    with pytest.raises(TruncatedFileError):
        data.load_idx(img, short_lab)
    truncated = tmp_path / "trunc.idx"
    truncated.write_bytes(struct.pack(">IIII", 0x00000803, 9, 2, 2))
    with pytest.raises(TruncatedFileError):
        data.load_idx(truncated, lab)
    assert issubclass(TruncatedFileError, OSError)


def test_idx_header_sizes_checked_before_reading(tmp_path):
    # headers claiming 0xFFFFFFFF in every size field must fail on the file
    # size, before anything of the declared size is requested
    huge = 0xFFFFFFFF
    pixels = np.zeros((2, 4), dtype=np.uint8)
    img, lab = write_idx_pair(tmp_path, pixels, np.zeros(2, dtype=np.uint8), 2, 2)
    big_img = tmp_path / "big_img.idx"
    big_img.write_bytes(struct.pack(">IIII", 0x00000803, huge, huge, huge))
    big_lab = tmp_path / "big_lab.idx"
    big_lab.write_bytes(struct.pack(">II", 0x00000801, huge))
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedFileError, match=str(huge**3)):
            data.load_idx(big_img, lab)
        with pytest.raises(TruncatedFileError, match=str(huge)):
            data.load_idx(img, big_lab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# batching


def test_batches_cover_dataset_exactly_once():
    ds = data.gen_blobs(seed=1, n_per_class=17, num_classes=3, dim=3, separation=3)
    got_x, got_y = [], []
    sizes = []
    for bx, by in data.batches(ds, 8, seed=9):
        sizes.append(len(by))
        got_x.append(bx)
        got_y.append(by)
    assert sum(sizes) == len(ds) and max(sizes) == 8
    all_x = np.concatenate(got_x)
    order = np.lexsort(all_x.T)
    ref = np.lexsort(ds.inputs.T)
    assert np.array_equal(all_x[order], ds.inputs[ref])
    assert sorted(np.concatenate(got_y)) == sorted(ds.labels)
    # same seed, same sequence
    rerun = list(data.batches(ds, 8, seed=9))
    for (x1, y1), (x2, y2) in zip(zip(got_x, got_y), rerun):
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)


def test_single_batch_is_permutation():
    ds = data.gen_rings(seed=2, n_per_class=10, num_classes=2, noise=0.01)
    (bx, by), = list(data.batches(ds, len(ds), seed=0))
    assert sorted(map(tuple, bx)) == sorted(map(tuple, ds.inputs))
    assert len(by) == len(ds)
