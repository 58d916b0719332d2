import zlib

import numpy as np
import pytest

from slatlab import autodiff
from slatlab.autodiff import (LabelOutOfRange, NonScalarLoss, ShapeMismatch,
                              Tape, backward, grad_check, pass_counts,
                              per_example_xent, reset_pass_counts)
from slatlab.models import build_small_cnn, forward_with_latents, loss_grads


def test_dense_identity():
    t = Tape()
    out = t.record("dense", [np.array([[1.0, 2.0]]), np.eye(2), np.zeros(2)])
    assert np.array_equal(out.value, [[1.0, 2.0]])


def test_relu_definition():
    t = Tape()
    out = t.record("relu", [np.array([-1.0, 3.0])])
    assert np.array_equal(out.value, [0.0, 3.0])


def test_conv2d_center_of_ones():
    # 3x3 all-ones kernel over 3x3 all-ones input, zero padding: center sums 9
    t = Tape()
    out = t.record("conv2d", [np.ones((1, 1, 3, 3)), np.ones((1, 1, 3, 3)),
                              np.zeros(1)])
    assert out.value[0, 0, 1, 1] == pytest.approx(9.0)
    assert out.value[0, 0, 0, 0] == pytest.approx(4.0)  # corner sees 2x2 patch


def test_xent_examples():
    t = Tape()
    zero = np.array([0])
    l0 = t.record("loss_softmax_xent", [np.array([[0.0, 0.0]])], labels=zero)
    assert float(l0.value) == pytest.approx(np.log(2.0), rel=1e-12)
    l1 = t.record("loss_softmax_xent", [np.array([[10.0, 0.0]])], labels=zero)
    assert float(l1.value) == pytest.approx(np.log1p(np.exp(-10.0)), rel=1e-9)
    l2 = t.record("loss_softmax_xent", [np.array([[0.0, 10.0]])], labels=zero)
    assert float(l2.value) == pytest.approx(10.0 + np.log1p(np.exp(-10.0)), rel=1e-9)


def test_xent_label_out_of_range():
    t = Tape()
    with pytest.raises(LabelOutOfRange):
        t.record("loss_softmax_xent", [np.zeros((1, 3))], labels=np.array([3]))
    with pytest.raises(LabelOutOfRange):
        t.record("loss_softmax_xent", [np.zeros((2, 3))],
                 labels=np.array([0, -1]), reduction="sum")


def test_backward_sum_gives_ones():
    t = Tape()
    x = t.leaf(np.array([1.0, -2.0, 3.0]))
    backward(t, t.record("sum_all", [x]))
    assert np.array_equal(t.grads[x.idx], np.ones(3))


def test_backward_linear_gradient():
    t = Tape()
    x = t.leaf(np.array([[5.0, 5.0]]))
    out = t.record("dense", [x, np.array([[2.0], [-1.0]]), np.zeros(1)])
    backward(t, t.record("sum_all", [out]))
    assert np.array_equal(t.grads[x.idx], [[2.0, -1.0]])


def test_nonscalar_loss_rejected():
    t = Tape()
    x = t.leaf(np.ones(3))
    with pytest.raises(NonScalarLoss):
        backward(t, x)


def test_seeded_sweep_gives_the_vector_jacobian_product():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(4, 3))
    g = rng.normal(size=(2, 3))
    t = Tape()
    x = t.leaf(rng.normal(size=(2, 4)))
    out = t.record("dense", [x, w, np.zeros(3)])
    backward(t, out, grad=g)
    assert np.array_equal(t.grads[x.idx], g @ w.T)


def test_seed_must_match_the_node_and_be_passed_by_keyword():
    t = Tape()
    x = t.leaf(np.ones((2, 3)))
    out = t.record("relu", [x])
    with pytest.raises(ShapeMismatch) as err:
        backward(t, out, grad=np.ones((3, 2)))
    assert err.value.op == "backward"
    with pytest.raises(ShapeMismatch):
        backward(t, t.record("sum_all", [out]), grad=np.ones(1))
    with pytest.raises(TypeError):
        backward(t, out, np.ones((2, 3)))


def test_shape_mismatch_reports_op():
    t = Tape()
    with pytest.raises(ShapeMismatch) as err:
        t.record("dense", [np.ones(3), np.eye(2), np.zeros(2)])
    assert err.value.op == "dense"
    with pytest.raises(ShapeMismatch):
        t.record("add", [np.ones(3), np.ones(4)])
    # every op takes a batch: an unbatched row is rejected
    with pytest.raises(ShapeMismatch):
        t.record("dense", [np.ones(2), np.eye(2), np.zeros(2)])
    with pytest.raises(ShapeMismatch):
        t.record("loss_softmax_xent", [np.zeros(3)], labels=np.array([0]))


# One input each op's forward rule rejects, with the exception it raises.
X4 = np.zeros((2, 1, 4, 4))
BAD_OP_INPUTS = {
    "unknown_kind": ("conv3d", [X4], {}, ValueError),
    "dense_bias": ("dense", [np.ones((1, 2)), np.eye(2), np.zeros(3)], {},
                   ShapeMismatch),
    "conv_rank": ("conv2d", [X4[0], np.zeros((1, 1, 3, 3)), np.zeros(1)], {},
                  ShapeMismatch),
    "conv_channels": ("conv2d", [X4, np.zeros((1, 2, 3, 3)), np.zeros(1)], {},
                      ShapeMismatch),
    "conv_even_kernel": ("conv2d", [X4, np.zeros((1, 1, 2, 2)), np.zeros(1)], {},
                         ShapeMismatch),
    "conv_oblong_kernel": ("conv2d", [X4, np.zeros((1, 1, 3, 1)), np.zeros(1)], {},
                           ShapeMismatch),
    "conv_bias": ("conv2d", [X4, np.zeros((1, 1, 3, 3)), np.zeros(2)], {},
                  ShapeMismatch),
    "maxpool_odd_h": ("maxpool2x2", [np.zeros((2, 1, 3, 4))], {}, ShapeMismatch),
    "maxpool_odd_w": ("maxpool2x2", [np.zeros((2, 1, 4, 3))], {}, ShapeMismatch),
    "flatten_rank": ("flatten", [np.zeros(3)], {}, ShapeMismatch),
    "loss_label_shape": ("loss_softmax_xent", [np.zeros((2, 3))],
                         {"labels": np.array([0, 1, 2])}, ShapeMismatch),
}


@pytest.mark.parametrize("case", sorted(BAD_OP_INPUTS))
def test_an_op_rejects_an_input_it_cannot_take(case):
    op, inputs, params, exc = BAD_OP_INPUTS[case]
    tape = Tape()
    with pytest.raises(exc) as err:
        tape.record(op, inputs, **params)
    assert err.type is exc
    if exc is ShapeMismatch:
        assert err.value.op == op


SMOOTH_POINTS = 10  # per-op sample for the unit suite; the acceptance gate runs 100


def _relu_safe(rng, shape):
    x = rng.normal(size=shape)
    x[np.abs(x) < 1e-3] += 0.1
    return x


def op_graph_builders():
    """(name, builder, point factory) covering every public op kind."""
    rng = np.random.default_rng(42)
    w1 = rng.normal(size=(4, 3)) * 0.7
    kw = rng.normal(size=(2, 1, 3, 3)) * 0.7
    dw = rng.normal(size=(8, 3)) * 0.7

    cases = []
    cases.append(("dense", lambda t, x: t.record(
        "dense", [x, w1, np.arange(3.0)]), lambda r: r.normal(size=(2, 4))))
    cases.append(("conv2d", lambda t, x: t.record(
        "conv2d", [x, kw, np.array([0.1, -0.2])]),
        lambda r: r.normal(size=(2, 1, 4, 4))))
    cases.append(("relu", lambda t, x: t.record("relu", [x]),
                  lambda r: _relu_safe(r, (3, 5))))
    cases.append(("softplus", lambda t, x: t.record("softplus", [x]),
                  lambda r: r.normal(size=(3, 5))))

    def pool_point(r):
        # distinct entries keep the argmax away from ties
        x = r.permutation(32).astype(float).reshape(1, 2, 4, 4)
        return x + r.uniform(0.1, 0.4, size=x.shape)
    cases.append(("maxpool2x2", lambda t, x: t.record("maxpool2x2", [x]),
                  pool_point))
    cases.append(("flatten", lambda t, x: t.record(
        "dense", [t.record("flatten", [x]), dw, np.zeros(3)]),
        lambda r: r.normal(size=(2, 2, 2, 2))))
    cases.append(("add", lambda t, x: t.record(
        "add", [x, t.leaf(np.full((3, 2), 0.5))]), lambda r: r.normal(size=(3, 2))))
    cases.append(("loss_softmax_xent", lambda t, x: t.record(
        "loss_softmax_xent", [x], labels=np.array([0, 2, 1]), reduction="mean"),
        lambda r: r.normal(size=(3, 3))))
    cases.append(("sum_all", lambda t, x: t.record("sum_all", [x]),
                  lambda r: r.normal(size=(3, 4))))
    return cases


def test_every_op_kind_has_a_vjp_and_an_oracle_case():
    assert set(autodiff._FORWARD) == set(autodiff._NUMERIC_VJPS)
    assert {c[0] for c in op_graph_builders()} == set(autodiff._FORWARD)


@pytest.mark.parametrize("name,builder,point", op_graph_builders(),
                         ids=[c[0] for c in op_graph_builders()])
def test_every_op_matches_finite_differences(name, builder, point):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(SMOOTH_POINTS):
        assert grad_check(builder, point(rng)) <= 1e-6


def test_free_latent_gradients_match_truncated():
    from slatlab.models import build_toy_mlp, forward_with_latents, truncated_forward
    rng = np.random.default_rng(7)
    model = build_toy_mlp(8, "softplus", seed=3)
    x = rng.normal(size=(5, 2))
    y = np.array([0, 1, 1, 0, 1])
    logits, latents, tape = forward_with_latents(model, x)
    loss = tape.record("loss_softmax_xent", [logits], labels=y, reduction="mean")
    backward(tape, loss)
    for k in model.K:
        leaf_logits, ttape = truncated_forward(model, k, latents[k])
        tloss = ttape.record("loss_softmax_xent", [leaf_logits], labels=y,
                             reduction="mean")
        backward(ttape, tloss)
        full = tape.grads[tape.sites[k]]
        trunc = ttape.grads[ttape.input.idx]
        assert np.abs(full - trunc).max() <= 1e-12 * max(1, np.abs(trunc).max())


def test_reverse_sweep_deterministic():
    rng = np.random.default_rng(5)
    t = Tape()
    x = t.leaf(rng.normal(size=(4, 3)))
    h = t.record("softplus", [t.record("dense", [x, rng.normal(size=(3, 6)),
                                                 rng.normal(size=6)])])
    z = t.record("dense", [h, rng.normal(size=(6, 2)), np.zeros(2)])
    loss = t.record("loss_softmax_xent", [z], labels=np.array([0, 1, 1, 0]))
    backward(t, loss)
    first = {i: g.copy() for i, g in t.grads.items()}
    backward(t, loss)
    for i, g in t.grads.items():
        assert np.array_equal(first[i], g)


def test_grad_check_linear_is_tight():
    w = np.array([[1.5], [-2.0]])

    def builder(t, x):
        return t.record("sum_all", [t.record("dense", [x, w, np.zeros(1)])])

    assert grad_check(builder, np.array([[0.3, -0.7]])) <= 1e-10


def test_pass_counters():
    from slatlab.models import build_linear, forward_with_latents
    reset_pass_counts()
    model = build_linear(3, 2, seed=0)
    x = np.zeros((2, 3))
    logits, _, tape = forward_with_latents(model, x)
    loss = tape.record("loss_softmax_xent", [logits], labels=np.array([0, 1]))
    backward(tape, loss)
    assert pass_counts() == {"forward": 1, "backward": 1}


def test_maxpool_ties_send_the_gradient_to_the_first_maximum():
    # One row of four 2x2 windows: all zeros after a relu; equal maxima at
    # (0,1) and (1,0); at (1,0) and (1,1); at (0,0) and (1,1).
    pre = np.array([[[[-1.0, -2.0, 1.0, 3.0, 1.0, 2.0, 4.0, 0.5],
                      [-0.5, 0.0, 3.0, 2.0, 5.0, 5.0, 1.0, 4.0]]]])
    t = Tape()
    h = t.record("relu", [pre])
    t.register_site(0, h)
    pooled = t.record("maxpool2x2", [h])
    assert np.array_equal(pooled.value, [[[[0.0, 3.0, 5.0, 4.0]]]])
    up = np.array([[[[10.0, 20.0, 30.0, -40.0]]]])
    backward(t, pooled, grad=up)
    assert np.array_equal(t.grads[h.idx],
                          [[[[10.0, 0.0, 0.0, 20.0, 0.0, 0.0, -40.0, 0.0],
                             [0.0, 0.0, 0.0, 0.0, 30.0, 0.0, 0.0, 0.0]]]])


def test_maxpool_passes_nan_through():
    x = np.zeros((1, 1, 2, 4))
    x[0, 0, 1, 2] = np.nan
    out = Tape().record("maxpool2x2", [x]).value
    assert out[0, 0, 0, 0] == 0.0 and np.isnan(out[0, 0, 0, 1])


def test_per_example_xent_matches_op():
    rng = np.random.default_rng(9)
    z = rng.normal(size=(6, 4)) * 3
    y = rng.integers(0, 4, size=6)
    t = Tape()
    loss = t.record("loss_softmax_xent", [z], labels=y, reduction="sum")
    assert float(loss.value) == pytest.approx(per_example_xent(z, y).sum(), rel=1e-12)


def _sliding_window_cols(x, kh):
    """The im2col matrix as a strided window view: the reference layout."""
    p = kh // 2
    bsz, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kh), axis=(2, 3))
    return win.transpose(0, 2, 3, 1, 4, 5).reshape(bsz * h * w, c * kh * kh)


@pytest.mark.parametrize("c,h,f", [(1, 28, 16), (16, 14, 32)])
@pytest.mark.parametrize("bsz", [1, 7, 64, 128])
def test_conv2d_columns_match_the_sliding_window_layout(c, h, f, bsz):
    rng = np.random.default_rng(bsz)
    x = rng.normal(size=(bsz, c, h, h))
    assert np.array_equal(autodiff._im2col(x, 3), _sliding_window_cols(x, 3))


# conv1 and conv2 of the 28x28 small CNN, and conv1 on a 12x12 image; the
# batches cover OpenBLAS's small-matrix kernel and its blocked kernel
@pytest.mark.parametrize("c,h,f", [(1, 28, 16), (16, 14, 32), (1, 12, 16)])
@pytest.mark.parametrize("bsz", [1, 7, 8, 9, 64, 128])
def test_conv2d_output_and_input_gradient_match_sliding_window_columns(c, h, f, bsz):
    rng = np.random.default_rng(bsz)
    x = rng.normal(size=(bsz, c, h, h))
    k = rng.normal(size=(f, c, 3, 3))
    b = rng.normal(size=f)
    g = rng.normal(size=(bsz, f, h, h))
    t = Tape()
    xn = t.leaf(x)
    out = t.record("conv2d", [xn, k, b])
    backward(t, out, grad=g)
    # relative to the largest entry: the references sum in another order,
    # so an entry near zero can differ from them by more than its own 1e-12
    def assert_close(got, want):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    want = _sliding_window_cols(x, 3) @ k.reshape(f, -1).T + b
    assert_close(out.value, want.reshape(bsz, h, h, f).transpose(0, 3, 1, 2))
    # the input gradient is g correlated with the flipped, transposed kernel
    flipped = k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
    want = _sliding_window_cols(g, 3) @ flipped.T
    assert_close(t.grads[xn.idx], want.reshape(bsz, h, h, c).transpose(0, 3, 1, 2))


@pytest.mark.parametrize("bsz", [1, 7, 64, 128])
def test_conv2d_kernel_gradients_match_sliding_window_columns(bsz):
    model = build_small_cnn((1, 28, 28), 10, seed=bsz)
    rng = np.random.default_rng(bsz)
    x = rng.normal(size=(bsz, 1, 28, 28))
    y = rng.integers(0, 10, size=bsz)
    tape = loss_grads(model, x, y, wrt="all")[1]
    # the reference: the same sweep with each conv output kept as a site,
    # its gradient contracted with columns in the sliding-window layout
    logits, _, ref = forward_with_latents(model, x)
    convs = [node for node in ref.nodes if node.op == "conv2d"]
    for j, node in enumerate(convs):
        ref.register_site(100 + j, node)
    backward(ref, ref.record("loss_softmax_xent", [logits], labels=y,
                             reduction="sum"))
    names = {node.idx: name for name, node in ref.params.items()}
    for node in convs:
        xi, ki, _ = node.inputs
        k = ref.nodes[ki].value
        g2 = ref.grads[node.idx].transpose(0, 2, 3, 1).reshape(-1, k.shape[0])
        cols = _sliding_window_cols(ref.nodes[xi].value, 3)
        want = (cols.T @ g2).T.reshape(k.shape)
        got = tape.grads[tape.params[names[ki]].idx]
        np.testing.assert_allclose(got, want, rtol=1e-12)
