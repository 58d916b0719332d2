import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slatlab.autodiff import (ShapeMismatch, Tape, UnknownSite, backward,
                              pass_counts)
from slatlab.models import (FORWARD_ROWS, ZOO_SITES, CheckpointError, Layer, Model,
                            ShapeTooSmall, build_linear, build_small_cnn, build_toy_mlp,
                            forward_logits, forward_with_latents, load_checkpoint,
                            load_into, loss_grads, save_checkpoint)


def test_linear_parameter_count_and_sites():
    m = build_linear(2, 2)
    assert len(m.layers) == 1
    assert sum(p.size for p in m.parameters().values()) == 6
    assert m.K == [0]


def test_linear_forward_at_zero_is_bias():
    m = build_linear(3, 4, seed=1)
    m.layers[0].arrays["b"][:] = [0.5, -1.0, 0.0, 2.0]
    z = forward_logits(m, np.zeros((1, 3)))
    assert np.array_equal(z[0], [0.5, -1.0, 0.0, 2.0])


def test_toy_mlp_sites_and_width():
    m = build_toy_mlp(16)
    assert m.K == [0, 1]
    assert m.layers[0].arrays["w"].shape == (2, 16)


def test_toy_mlp_degenerate_width_trains():
    from slatlab.training import TrainSpec, init_optimizer, standard_step
    m = build_toy_mlp(1, seed=0)
    spec = TrainSpec(method="standard", epochs=1, lr_max=0.1, weight_decay=0.0)
    state = init_optimizer(m)
    x = np.array([[1.0, 0.1], [-1.0, -0.1]])
    y = np.array([1, 0])
    losses = [standard_step(m, x, y, spec, state, lr=0.1) for _ in range(50)]
    assert losses[-1] < losses[0]


def test_small_cnn_shapes():
    m = build_small_cnn((1, 28, 28), 10)
    assert m.layers[-1].arrays["w"].shape == (32 * 7 * 7, 10)
    assert m.K == [0, 1, 2]
    z = forward_logits(m, np.zeros((2, 1, 28, 28)))
    assert z.shape == (2, 10)


def test_small_cnn_deep_site_variant():
    m = build_small_cnn((1, 28, 28), 10, sites=(0, 2))
    assert m.K == [0, 2]
    _, latents, _ = forward_with_latents(m, np.zeros((1, 1, 28, 28)))
    assert set(latents) == {0, 2}
    assert latents[2].shape == (1, 32, 7, 7)


@pytest.mark.parametrize("build,sites,positions", [
    (build_toy_mlp, (1,), {1: 2}),
    (build_toy_mlp, None, {0: 0, 1: 2}),
    (lambda sites: build_small_cnn((1, 8, 8), 3, sites=sites), (2, 0), {2: 6, 0: 0}),
    (lambda sites: build_small_cnn((1, 8, 8), 3, sites=sites), None,
     {0: 0, 1: 3, 2: 6})])
def test_builders_read_their_sites_from_the_zoo_table(build, sites, positions):
    m = build(sites=sites)
    assert m.site_positions == positions
    assert m.K == sorted(positions) == m.copy().K
    with pytest.raises(UnknownSite):
        build(sites=(3,))


def test_site_ids_follow_site_positions_and_cannot_be_assigned():
    m = Model([Layer("relu"), Layer("relu"), Layer("flatten")], {2: 1, 0: 0})
    assert m.K == [0, 2]
    m.site_positions.pop(2)
    assert m.K == [0]
    with pytest.raises(AttributeError):
        setattr(m, "K", [0, 2])


def test_small_cnn_rejects_tiny_input():
    with pytest.raises(ShapeTooSmall):
        build_small_cnn((1, 4, 4), 10)
    with pytest.raises(ShapeTooSmall):
        build_small_cnn((1, 10, 10), 10)


def test_forward_latents_clean_vs_zero_deltas():
    rng = np.random.default_rng(0)
    m = build_toy_mlp(8, seed=2)
    x = rng.normal(size=(4, 2))
    clean = forward_logits(m, x)
    zeros = {0: np.zeros((4, 2)), 1: np.zeros((4, 8))}
    z2, _, _ = forward_with_latents(m, x, zeros)
    assert np.array_equal(clean, z2.value)


def test_forward_latents_linear_offset():
    rng = np.random.default_rng(1)
    m = build_linear(3, 2, seed=4)
    x = rng.normal(size=(5, 3))
    v = rng.normal(size=(5, 3))
    z0 = forward_logits(m, x)
    z1, _, _ = forward_with_latents(m, x, {0: v})
    np.testing.assert_allclose(z1.value, z0 + v @ m.layers[0].arrays["w"],
                               atol=1e-12)


def test_forward_is_pure():
    rng = np.random.default_rng(2)
    m = build_small_cnn((1, 8, 8), 3, seed=5)
    x = rng.normal(size=(2, 1, 8, 8))
    a = forward_logits(m, x)
    b = forward_logits(m, x)
    assert np.array_equal(a, b)


# model builders whose tape-free logits must equal the taped forward's
LOGIT_MODELS = {
    "linear": (lambda: build_linear(5, 3, seed=1), (5,)),
    "toy_mlp_relu": (lambda: build_toy_mlp(6, "relu", seed=2), (2,)),
    "toy_mlp_softplus": (lambda: build_toy_mlp(6, "softplus", seed=2), (2,)),
    "small_cnn_relu": (lambda: build_small_cnn((1, 8, 8), 3, seed=6), (1, 8, 8)),
    "small_cnn_softplus": (lambda: build_small_cnn((1, 8, 8), 3, "softplus",
                                                   seed=6), (1, 8, 8)),
    "small_cnn_site_2": (lambda: build_small_cnn((1, 8, 8), 3, seed=6,
                                                 sites=(2,)), (1, 8, 8)),
}


@pytest.mark.parametrize("case", sorted(LOGIT_MODELS))
@pytest.mark.parametrize("bsz", [1, 7])
def test_forward_logits_builds_no_tape(case, bsz, monkeypatch):
    build, shape = LOGIT_MODELS[case]
    model = build()
    x = np.random.default_rng(bsz).normal(size=(bsz,) + shape)
    x_before = x.copy()
    want = forward_with_latents(model, x)[0].value

    def no_record(*args, **kwargs):
        raise AssertionError("forward_logits recorded an op")

    monkeypatch.setattr(Tape, "record", no_record)
    monkeypatch.setattr(Tape, "leaf", no_record)
    before = pass_counts()
    got = forward_logits(model, x)
    after = pass_counts()
    assert np.array_equal(got, want)
    assert np.array_equal(x, x_before)
    assert after == {"forward": before["forward"] + 1,
                     "backward": before["backward"]}


@pytest.mark.parametrize("build,shape", [
    (lambda: build_small_cnn(seed=3), (1, 28, 28)),
    (lambda: build_toy_mlp(16, seed=3), (2,))], ids=["small_cnn", "toy_mlp"])
def test_forward_logits_runs_fixed_row_slices_as_one_pass(build, shape):
    model = build()
    x = np.random.default_rng(3).uniform(size=(300,) + shape)
    before = pass_counts()["forward"]
    got = forward_logits(model, x)
    assert pass_counts()["forward"] == before + 1
    want = np.concatenate([forward_logits(model, x[i:i + FORWARD_ROWS])
                           for i in (0, 128, 256)])
    assert FORWARD_ROWS == 128 and got.shape == (300, model.n_classes)
    assert np.array_equal(got, want)


def test_forward_rejects_unknown_site_and_bad_shape():
    m = build_toy_mlp(4)
    with pytest.raises(UnknownSite):
        forward_with_latents(m, np.zeros((1, 2)), {7: np.zeros((1, 2))})
    with pytest.raises(ShapeMismatch):
        forward_with_latents(m, np.zeros((1, 3)))


def test_latent_gradients_all_sites_one_sweep():
    m = build_small_cnn((1, 8, 8), 3, seed=6)
    x = np.random.default_rng(3).normal(size=(2, 1, 8, 8))
    logits, _, tape = forward_with_latents(m, x)
    loss = tape.record("loss_softmax_xent", [logits], labels=np.array([0, 1]))
    backward(tape, loss)
    grads = {k: tape.grads[idx] for k, idx in tape.sites.items()}
    assert set(grads) == {0, 1, 2}
    assert grads[1].shape == (2, 16, 4, 4)
    assert grads[2].shape == (2, 32, 2, 2)


# model, input shape, and for each site: does it lie past the first
# parametric layer (so that the "params" sweep fills it in)?
PRUNE_CASES = {
    "small_cnn": (lambda: build_small_cnn((1, 8, 8), 3, seed=6), (4, 1, 8, 8),
                  {0: False, 1: True, 2: True}),
    "toy_mlp": (lambda: build_toy_mlp(6, seed=2), (5, 2), {0: False, 1: True}),
}


@pytest.mark.parametrize("case", sorted(PRUNE_CASES))
def test_pruned_sweeps_are_bit_identical(case):
    build, shape, past_first_layer = PRUNE_CASES[case]
    model = build()
    assert set(past_first_layer) == set(model.K)
    rng = np.random.default_rng(3)
    x = rng.normal(size=shape)
    y = np.arange(len(x)) % model.n_classes
    _, latents, _ = forward_with_latents(model, x)
    deltas = {k: 0.05 * rng.normal(size=h.shape) for k, h in latents.items()}
    full = loss_grads(model, x, y, deltas)[1]
    params = {node.idx for node in full.params.values()}
    sites = {full.sites[k] for k in model.K}
    late_sites = {full.sites[k] for k, late in past_first_layer.items() if late}
    named = {full.input.idx} | sites | params
    wanted = {"inputs": {full.input.idx} | sites, "params": params | late_sites}
    for wrt, want in wanted.items():
        tape = loss_grads(model, x, y, deltas, wrt=wrt)[1]
        assert named & set(tape.grads) == want, wrt
        for idx, g in tape.grads.items():
            assert np.array_equal(g, full.grads[idx]), (wrt, idx)


@pytest.mark.parametrize("case", sorted(PRUNE_CASES))
def test_a_swept_tape_retains_only_what_its_backward_reads(case):
    model = PRUNE_CASES[case][0]()
    rng = np.random.default_rng(8)
    x = rng.normal(size=PRUNE_CASES[case][1])
    y = np.arange(len(x)) % model.n_classes
    _, latents, _ = forward_with_latents(model, x)
    deltas = {k: 0.05 * rng.normal(size=h.shape) for k, h in latents.items()}
    tapes = {wrt: loss_grads(model, x, y, deltas, wrt=wrt)[1]
             for wrt in ("all", "inputs", "params")}
    for wrt, tape in tapes.items():
        assert all(node.meta is None for node in tape.nodes if node.op == "conv2d")
        kept = {node.idx for node in tape.nodes if node.op == "leaf"}
        assert set(tape.grads) <= kept | set(tape.sites.values()), wrt
        for idx, g in tape.grads.items():
            assert np.array_equal(g, tapes["all"].grads[idx]), (wrt, idx)


def _conv_act_pool(model):
    """The small CNN's own layers in the conv -> act -> pool block order."""
    conv1, pool1, act1, conv2, pool2, act2, flat, dense = model.layers
    assert (pool1.kind, pool2.kind) == ("maxpool2x2", "maxpool2x2")
    return Model([conv1, act1, pool1, conv2, act2, pool2, flat, dense],
                 model.site_positions, model.input_shape, model.n_classes)


def _blank_batch(seed):
    """Images with blank rows, a blank corner and one blank image, so that
    many pooling windows tie at 0 before and after the activation."""
    x = np.random.default_rng(seed).uniform(-0.5, 1.0, size=(6, 1, 12, 12))
    x[:, :, 2:5] = 0.0
    x[:, :, 8:, 6:] = 0.0
    x[3] = 0.0
    return x, np.arange(len(x)) % 4


@pytest.mark.parametrize("activation", ["relu", "softplus"])
@pytest.mark.parametrize("seed", [0, 1])
def test_pooling_before_the_activation_is_bit_identical(activation, seed):
    model = build_small_cnn((1, 12, 12), 4, activation, seed=seed)
    old = _conv_act_pool(model)
    x, y = _blank_batch(seed)
    assert forward_logits(model, x).tobytes() == forward_logits(old, x).tobytes()
    (loss, tape), (old_loss, old_tape) = (loss_grads(m, x, y) for m in (model, old))
    assert loss.value.tobytes() == old_loss.value.tobytes()
    named = {"input": (tape.input.idx, old_tape.input.idx)}
    named.update({f"site{k}": (tape.sites[k], old_tape.sites[k]) for k in model.K})
    named.update({n: (tape.params[n].idx, old_tape.params[n].idx)
                  for n in model.parameters()})
    assert len(named) == 1 + 3 + 6
    for name, (idx, old_idx) in named.items():
        assert tape.grads[idx].tobytes() == old_tape.grads[old_idx].tobytes(), name
    acts = [n.value.shape for n in tape.nodes if n.op == activation]
    assert acts == [(6, 16, 6, 6), (6, 32, 3, 3)]


def test_loss_grads_rejects_unknown_wrt():
    with pytest.raises(ValueError, match="wrt"):
        loss_grads(build_toy_mlp(4), np.zeros((1, 2)), [0], wrt="sites")


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    m = build_small_cnn((1, 8, 8), 3, seed=7)
    path = tmp_path / "model.ckpt"
    save_checkpoint(m, path)
    m2 = build_small_cnn((1, 8, 8), 3, seed=99)
    load_into(m2, load_checkpoint(path))
    x = rng.normal(size=(2, 1, 8, 8))
    a, b = forward_logits(m, x), forward_logits(m2, x)
    assert np.abs(a - b).max() <= 1e-15


def test_small_cnn_keeps_its_parameter_names_sites_and_checkpoints(tmp_path):
    model = build_small_cnn((1, 8, 8), 3, seed=99)
    assert list(model.parameters()) == ["layer0.w", "layer0.b", "layer3.w",
                                        "layer3.b", "layer7.w", "layer7.b"]
    assert ZOO_SITES["small_cnn"] == {0: 0, 1: 3, 2: 6}
    old = _conv_act_pool(build_small_cnn((1, 8, 8), 3, seed=7))
    path = tmp_path / "conv_act_pool.ckpt"
    save_checkpoint(old, path)
    load_into(model, load_checkpoint(path))
    x = np.random.default_rng(4).normal(size=(3, 1, 8, 8))
    assert forward_logits(model, x).tobytes() == forward_logits(old, x).tobytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("blob", [b"SLATCKPT", b"SLATCKPT\x01\x00"])
def test_checkpoint_short_header(tmp_path, blob):
    path = tmp_path / "short.ckpt"
    path.write_bytes(blob)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_truncation(tmp_path):
    m = build_linear(2, 2, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(m, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_name_mismatch(tmp_path):
    m = build_linear(2, 2, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(m, path)
    other = build_toy_mlp(4)
    with pytest.raises(CheckpointError):
        load_into(other, load_checkpoint(path))


def _checkpoint_bytes(tmp_path):
    path = tmp_path / "valid.ckpt"
    save_checkpoint(build_toy_mlp(3, seed=1), path)
    return path.read_bytes()


# A valid checkpoint cut short, with bytes overwritten, or with bytes
# inserted; arbitrary bytes cover the rest.
EDITS = st.lists(st.tuples(st.integers(0, 400), st.binary(min_size=1, max_size=9),
                           st.booleans()), max_size=4)


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cut=st.integers(0, 400), edits=EDITS, junk=st.binary(max_size=64),
       arbitrary=st.booleans())
def test_load_checkpoint_raises_only_checkpoint_error(tmp_path, cut, edits,
                                                      junk, arbitrary):
    blob = bytearray(junk if arbitrary else _checkpoint_bytes(tmp_path)[:cut])
    for at, raw, insert in edits:
        at = min(at, len(blob))
        blob[at:at if insert else at + len(raw)] = raw
    path = tmp_path / "fuzzed.ckpt"
    path.write_bytes(bytes(blob))
    try:
        state = load_checkpoint(path)
    except CheckpointError:
        return
    assert all(isinstance(a, np.ndarray) and a.dtype == np.float64
               for a in state.values())
