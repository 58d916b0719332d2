import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slatlab.data import (IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, BadMagic,
                          CountMismatch, LabeledDataset, ToySpec,
                          TruncatedFile, _read_idx, augment_pad_crop, gen_toy,
                          load_idx, rademacher, write_idx_images,
                          write_idx_labels)


def test_gen_toy_deterministic():
    a = gen_toy(ToySpec(seed=3))
    b = gen_toy(ToySpec(seed=3))
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
    c = gen_toy(ToySpec(seed=4))
    assert not np.array_equal(a.xs, c.xs)


def test_gen_toy_marginals():
    spec = ToySpec(n_per_class=4000, seed=0)
    ds = gen_toy(spec)
    mu = np.asarray(spec.mu)
    sig = np.asarray(spec.sigma)
    tol = 3 * sig / np.sqrt(spec.n_per_class)
    assert np.all(np.abs(ds.xs[ds.ys == 1].mean(axis=0) - mu) < tol)
    assert np.all(np.abs(ds.xs[ds.ys == 0].mean(axis=0) + mu) < tol)


def test_gen_toy_y_feature_is_predictive_but_fragile():
    # the y margin alone separates ~99% of samples yet sits inside eps=0.1
    spec = ToySpec(n_per_class=2000, seed=1)
    ds = gen_toy(spec)
    y_only = (ds.xs[:, 1] > 0).astype(int)
    assert (y_only == ds.ys).mean() > 0.95
    assert spec.mu[1] < 0.1   # flippable by the toy attack budget


def test_gen_toy_linear_probe_on_y():
    from slatlab.models import build_linear
    from slatlab.training import TrainSpec, init_optimizer, standard_step
    ds = gen_toy(ToySpec(n_per_class=400, seed=2))
    xs = ds.xs.copy()
    xs[:, 0] = 0.0           # leave only the non-robust coordinate
    m = build_linear(2, 2, seed=0)
    spec = TrainSpec(method="standard", lr_max=0.5, weight_decay=0.0)
    state = init_optimizer(m)
    rng = np.random.default_rng(0)
    for _ in range(150):
        sel = rng.permutation(len(xs))[:128]
        standard_step(m, xs[sel], ds.ys[sel], spec, state, lr=0.5)
    from slatlab.metrics import accuracy
    assert accuracy(m, xs, ds.ys) > 0.95


def test_degenerate_mu_is_chance():
    ds = gen_toy(ToySpec(mu=(0.0, 0.0), sigma=(0.5, 0.02), n_per_class=3000, seed=5))
    best = max(((ds.xs[:, i] > 0) == ds.ys).mean() for i in (0, 1))
    assert abs(best - 0.5) < 0.05


def test_idx_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    imgs = rng.integers(0, 256, size=(4, 8, 8)).astype(np.uint8)
    labels = np.array([3, 1, 4, 1], dtype=np.uint8)
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    write_idx_images(imgs, ip)
    write_idx_labels(labels, lp)
    ds = load_idx(ip, lp)
    assert np.array_equal((ds.xs[:, 0] * 255).round().astype(np.uint8), imgs)
    assert np.array_equal(ds.ys, labels)
    assert ds.input_scale == (0.0, 1.0)
    assert ds.subset([2, 0]).input_scale == (0.0, 1.0)


def test_idx_pixel_scaling(tmp_path):
    imgs = np.zeros((1, 8, 8), dtype=np.uint8)
    imgs[0, 0, 0] = 255
    write_idx_images(imgs, tmp_path / "i.idx")
    write_idx_labels(np.zeros(1, dtype=np.uint8), tmp_path / "l.idx")
    ds = load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
    assert ds.xs[0, 0, 0, 0] == 1.0
    assert ds.xs[0, 0, 1, 1] == 0.0


def test_idx_bad_magic(tmp_path):
    p = tmp_path / "bad.idx"
    p.write_bytes(b"\x00\x00\x08\x04" + b"\x00" * 16)
    write_idx_labels(np.zeros(1, dtype=np.uint8), tmp_path / "l.idx")
    with pytest.raises(BadMagic):
        load_idx(p, tmp_path / "l.idx")


def test_idx_truncated(tmp_path):
    imgs = np.ones((2, 4, 4), dtype=np.uint8)
    p = tmp_path / "trunc.idx"
    write_idx_images(imgs, p)
    p.write_bytes(p.read_bytes()[:-3])
    write_idx_labels(np.zeros(2, dtype=np.uint8), tmp_path / "l.idx")
    with pytest.raises(TruncatedFile):
        load_idx(p, tmp_path / "l.idx")


def test_idx_count_mismatch(tmp_path):
    write_idx_images(np.ones((2, 4, 4), dtype=np.uint8), tmp_path / "i.idx")
    write_idx_labels(np.zeros(3, dtype=np.uint8), tmp_path / "l.idx")
    with pytest.raises(CountMismatch):
        load_idx(tmp_path / "i.idx", tmp_path / "l.idx")


def test_idx_element_count_does_not_wrap(tmp_path):
    # 2**21 * 2**21 * 2**22 = 2**64 wraps to 0 in int64
    p = tmp_path / "huge.idx"
    p.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, 2**21, 2**21, 2**22))
    with pytest.raises(TruncatedFile, match="header implies 18446744073709551616"):
        _read_idx(p, IDX_IMAGES_MAGIC, 3)


# A valid images or labels file cut short, with bytes overwritten, or with
# bytes inserted; arbitrary bytes cover the rest.
EDITS = st.lists(st.tuples(st.integers(0, 40), st.binary(min_size=1, max_size=5),
                           st.booleans()), max_size=4)


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(images=st.booleans(), cut=st.integers(0, 40), edits=EDITS,
       junk=st.binary(max_size=40), arbitrary=st.booleans())
def test_read_idx_raises_only_declared_errors(tmp_path, images, cut, edits,
                                              junk, arbitrary):
    p = tmp_path / "fuzzed.idx"
    if images:
        write_idx_images(np.arange(18, dtype=np.uint8).reshape(2, 3, 3), p)
    else:
        write_idx_labels(np.arange(5, dtype=np.uint8), p)
    blob = bytearray(junk if arbitrary else p.read_bytes()[:cut])
    for at, raw, insert in edits:
        at = min(at, len(blob))
        blob[at:at if insert else at + len(raw)] = raw
    p.write_bytes(bytes(blob))
    magic, rank = (IDX_IMAGES_MAGIC, 3) if images else (IDX_LABELS_MAGIC, 1)
    try:
        arr = _read_idx(p, magic, rank)
    except (BadMagic, TruncatedFile, CountMismatch):
        return
    assert arr.dtype == np.uint8 and arr.ndim == rank


def test_dataset_length_mismatch():
    with pytest.raises(CountMismatch):
        LabeledDataset(np.zeros((3, 2)), np.zeros(2, dtype=np.int64))


@pytest.mark.parametrize("spec", [
    {"sigma": (0.5, 0.0)}, {"sigma": (-0.1, 0.02)}, {"n_per_class": 0}],
    ids=["sigma_zero", "sigma_negative", "no_examples"])
def test_toy_spec_rejects_a_degenerate_task(spec):
    with pytest.raises(ValueError) as err:
        ToySpec(**spec)
    assert err.type is ValueError


def test_augment_identity_at_zero_pad():
    x = np.random.default_rng(8).normal(size=(3, 1, 6, 6))
    out = augment_pad_crop(x, 0, np.random.default_rng(0))
    assert out is x


def test_augment_crops_are_shifts_of_padded_input():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(5, 2, 8, 8))
    pad = 3
    out = augment_pad_crop(x, pad, np.random.default_rng(1))
    assert out.shape == x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    for i in range(len(x)):
        found = any(
            np.array_equal(out[i], xp[i, :, oy:oy + 8, ox:ox + 8])
            for oy in range(2 * pad + 1) for ox in range(2 * pad + 1))
        assert found


def test_rademacher_properties():
    r = rademacher((100, 1000), seed=5)
    assert set(np.unique(r)) == {-1.0, 1.0}
    assert abs(r.mean()) < 0.02
    assert np.array_equal(r, rademacher((100, 1000), seed=5))


def test_render_digit_corpus_small(make_digits):
    imgs, labels = make_digits(40, seed=0)
    assert imgs.shape == (40, 28, 28) and imgs.dtype == np.uint8
    assert labels.shape == (40,) and labels.max() <= 9
    imgs2, labels2 = make_digits(40, seed=0)
    assert np.array_equal(imgs, imgs2) and np.array_equal(labels, labels2)
    assert imgs.max() > 200   # glyphs actually drawn
