"""Tape-based reverse-mode autodiff over float64 numpy arrays.

Forward values are computed eagerly onto a Tape. Named injection sites mark
latent representations; one backward sweep fills gradients for every node,
so site gradients come out of the same sweep that produces input and
parameter gradients.
"""

from __future__ import annotations

import numpy as np


class ShapeMismatch(Exception):
    def __init__(self, op, expected, got):
        super().__init__(f"{op}: expected {expected}, got {got}")
        self.op = op
        self.expected = expected
        self.got = got


class LabelOutOfRange(Exception):
    pass


class NonScalarLoss(Exception):
    pass


class UnknownSite(Exception):
    def __init__(self, site):
        super().__init__(f"no injection site registered with id {site}")
        self.site = site


class UnsupportedOps(Exception):
    pass


_pass_counts = {"forward": 0, "backward": 0}


def reset_pass_counts():
    _pass_counts["forward"] = 0
    _pass_counts["backward"] = 0


def pass_counts():
    return dict(_pass_counts)


def count_forward():
    """Called once per full forward construction of a model."""
    _pass_counts["forward"] += 1


def _as_f64(value):
    return np.asarray(value, dtype=np.float64)


def sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(z):
    s = np.exp(z - z.max(axis=-1, keepdims=True))
    return s / s.sum(axis=-1, keepdims=True)


def _minus_onehot(p, labels):
    """softmax(z) - onehot(labels), per row: the xent gradient in z."""
    out = p.copy()
    out[np.arange(p.shape[0]), np.asarray(labels)] -= 1.0
    return out


def per_example_xent(logits, labels):
    """Stable -log softmax(logits)[label] per row, without a tape."""
    z = np.atleast_2d(_as_f64(logits))
    y = np.atleast_1d(labels)
    m = z.max(axis=-1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=-1))
    return lse - z[np.arange(z.shape[0]), y]


class Node:
    __slots__ = ("idx", "op", "inputs", "value", "params", "meta")

    def __init__(self, idx, op, inputs, value, params=None, meta=None):
        self.idx = idx
        self.op = op
        self.inputs = inputs          # tuple of node indices
        self.value = value
        self.params = params or {}    # non-tensor op parameters (labels, reduction)
        self.meta = meta              # forward intermediates the backward reads
                                      # (None when it recomputes or needs none)

    def __repr__(self):
        return f"<Node {self.idx} {self.op} {self.value.shape}>"


class Tape:
    """One recorded forward pass: topologically ordered nodes + named sites."""

    def __init__(self):
        self.nodes = []
        self.sites = {}      # site id -> node idx
        self.grads = {}      # leaf or site node idx -> ndarray, filled by backward()
        self.skip = ()       # node idxs whose gradients backward() skips
        self.input = None    # set by model forward helpers
        self.params = {}     # param name -> Node, set by model forward helpers
        self.stem = None     # idx of the node feeding the first parametric op

    def leaf(self, value):
        node = Node(len(self.nodes), "leaf", (), _as_f64(value))
        self.nodes.append(node)
        return node

    def record(self, op, inputs, **params):
        """Append one op; the forward value is computed eagerly."""
        in_nodes = [x if isinstance(x, Node) else self.leaf(x) for x in inputs]
        fwd = _FORWARD.get(op)
        if fwd is None:
            raise ValueError(f"unknown op kind {op!r}")
        value, meta = fwd([n.value for n in in_nodes], params)
        node = Node(len(self.nodes), op, tuple(n.idx for n in in_nodes),
                    value, params, meta)
        self.nodes.append(node)
        return node

    def register_site(self, site_id, node):
        self.sites[int(site_id)] = node.idx


# ---------------------------------------------------------------------------
# forward implementations: values[i] aligns with node.inputs[i]

def _fwd_dense(values, params):
    x, w, b = values
    if w.ndim != 2 or x.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeMismatch("dense", f"x[B,{w.shape[0]}] @ {w.shape}", x.shape)
    if b.shape != (w.shape[1],):
        raise ShapeMismatch("dense", (w.shape[1],), b.shape)
    return x @ w + b, None


def _fwd_conv2d(values, params):
    x, k, b = values
    if x.ndim != 4 or k.ndim != 4 or x.shape[1] != k.shape[1]:
        raise ShapeMismatch("conv2d", "x[B,C,H,W], k[F,C,kh,kw]",
                            (x.shape, k.shape))
    f, c, kh, kw = k.shape
    if kh != kw or kh % 2 != 1:
        raise ShapeMismatch("conv2d", "odd square kernel", (kh, kw))
    if b.shape != (f,):
        raise ShapeMismatch("conv2d", (f,), b.shape)
    bsz, _, h, w = x.shape
    # filter-major (F, B*H*W), so the NCHW copy moves whole H*W planes; the
    # columns are not kept: the kernel gradient rebuilds them
    out = k.reshape(f, -1) @ _im2col(x, kh).T
    out += b[:, None]
    out = out.reshape(f, bsz, h, w).transpose(1, 0, 2, 3)
    return np.ascontiguousarray(out), None


def _im2col(x, kh):
    """The (B*H*W, C*kh*kh) column matrix of x[B,C,H,W] for a zero-padded
    kh x kh kernel, built from one zero-padded (C, B, H+2p, W+2p) copy of x
    by one slab copy per tap, each moving contiguous W-runs: it is the
    transposed flat view of a (C, kh, kh, B, H, W) buffer, F-contiguous, so
    cols.T is C-contiguous."""
    p = kh // 2
    bsz, c, h, w = x.shape
    xp = np.zeros((c, bsz, h + 2 * p, w + 2 * p))
    xp[:, :, p:p + h, p:p + w] = x.transpose(1, 0, 2, 3)
    buf = np.empty((c, kh, kh, bsz, h, w))
    for i in range(kh):
        for j in range(kh):
            buf[:, i, j] = xp[:, :, i:i + h, j:j + w]
    return buf.reshape(c * kh * kh, bsz * h * w).T


def _fwd_relu(values, params):
    return np.maximum(values[0], 0.0), None


def _fwd_softplus(values, params):
    return np.logaddexp(0.0, values[0]), None


def _fwd_maxpool(values, params):
    x = values[0]
    if x.ndim != 4 or x.shape[2] % 2 or x.shape[3] % 2:
        raise ShapeMismatch("maxpool2x2", "x[B,C,2m,2n]", x.shape)
    # np.maximum propagates NaN, so a NaN window gives a NaN output
    out = np.maximum(x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2])
    np.maximum(out, x[:, :, 1::2, 0::2], out=out)
    np.maximum(out, x[:, :, 1::2, 1::2], out=out)
    return out, None


def _fwd_flatten(values, params):
    x = values[0]
    if x.ndim < 2:
        raise ShapeMismatch("flatten", "rank >= 2", x.shape)
    return x.reshape(x.shape[0], -1), None


def _fwd_add(values, params):
    a, b = values
    if a.shape != b.shape:
        raise ShapeMismatch("add", a.shape, b.shape)
    return a + b, None


def _fwd_loss_xent(values, params):
    z = values[0]
    if z.ndim != 2:
        raise ShapeMismatch("loss_softmax_xent", "[B,C]", z.shape)
    y = np.asarray(params["labels"])
    if y.shape != (z.shape[0],):
        raise ShapeMismatch("loss_softmax_xent", (z.shape[0],), y.shape)
    if y.min() < 0 or y.max() >= z.shape[1]:
        raise LabelOutOfRange(f"labels outside [0,{z.shape[1]})")
    losses = per_example_xent(z, y)
    red = params.get("reduction", "mean")
    loss = losses.mean() if red == "mean" else losses.sum()
    return np.asarray(loss), {"p": softmax(z)}


def _fwd_sum_all(values, params):
    return np.asarray(values[0].sum()), None


_FORWARD = {
    "dense": _fwd_dense,
    "conv2d": _fwd_conv2d,
    "relu": _fwd_relu,
    "softplus": _fwd_softplus,
    "maxpool2x2": _fwd_maxpool,
    "flatten": _fwd_flatten,
    "add": _fwd_add,
    "loss_softmax_xent": _fwd_loss_xent,
    "sum_all": _fwd_sum_all,
}


# ---------------------------------------------------------------------------
# numeric VJPs: given upstream gradient g (ndarray), return per-input grads;
# dense and conv2d return None for an input in tape.skip

def _vjp_dense(tape, node, g):
    xi, wi, bi = node.inputs
    x, w = tape.nodes[xi].value, tape.nodes[wi].value
    skip = tape.skip
    return [None if xi in skip else g @ w.T,
            None if wi in skip else x.T @ g,
            None if bi in skip else g.sum(axis=0)]


def _vjp_conv2d(tape, node, g):
    xi, ki, bi = node.inputs
    x, k = tape.nodes[xi].value, tape.nodes[ki].value
    f, c, kh, kw = k.shape
    bsz, _, h, w = x.shape
    p = kh // 2
    gf = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(f, bsz * h * w)
    skip = tape.skip
    gk = None if ki in skip else (gf @ _im2col(x, kh)).reshape(f, c, kh, kw)
    gb = None if bi in skip else g.sum(axis=(0, 2, 3))
    if xi in skip:
        return [None, gk, gb]
    # scatter filter-major, tap by tap, so every slab add moves W-runs
    dcols = (k.reshape(f, -1).T @ gf).reshape(c, kh, kw, bsz, h, w)
    gxp = np.zeros((c, bsz, h + 2 * p, w + 2 * p))
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i:i + h, j:j + w] += dcols[:, i, j]
    gx = gxp[:, :, p:p + h, p:p + w].transpose(1, 0, 2, 3)
    return [np.ascontiguousarray(gx), gk, gb]


def _vjp_relu(tape, node, g):
    x = tape.nodes[node.inputs[0]].value
    return [g * (x > 0)]


def _vjp_softplus(tape, node, g):
    x = tape.nodes[node.inputs[0]].value
    return [g * sigmoid(x)]


_POOL_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))


def _vjp_maxpool(tape, node, g):
    """Each output gradient goes to the first maximum of its window, in
    _POOL_ORDER (argmax's tie rule); every other position gets +0.0."""
    x = tape.nodes[node.inputs[0]].value
    out = node.value
    gx = np.empty_like(x)
    # g's bits AND 0 or all-ones: np.where(first, g, 0.0) with no temporary
    g_bits = np.ascontiguousarray(g, dtype=np.float64).view(np.int64)
    gx_bits = gx.view(np.int64)
    keep = np.empty(out.shape, np.int64)
    free = np.ones(out.shape, bool)     # windows whose maximum is not yet placed
    first = np.empty(out.shape, bool)
    for i, j in _POOL_ORDER[:-1]:
        np.equal(x[:, :, i::2, j::2], out, out=first)
        first &= free
        free ^= first
        np.negative(first, out=keep, dtype=np.int64, casting="unsafe")
        np.bitwise_and(g_bits, keep, out=gx_bits[:, :, i::2, j::2])
    np.negative(free, out=keep, dtype=np.int64, casting="unsafe")
    np.bitwise_and(g_bits, keep, out=gx_bits[:, :, 1::2, 1::2])
    return [gx]


def _vjp_flatten(tape, node, g):
    return [g.reshape(tape.nodes[node.inputs[0]].value.shape)]


def _vjp_add(tape, node, g):
    return [g, g]


def _vjp_loss_xent(tape, node, g):
    gz = _minus_onehot(node.meta["p"], node.params["labels"])
    if node.params.get("reduction", "mean") == "mean":
        gz /= gz.shape[0]
    return [gz * g]


def _vjp_sum_all(tape, node, g):
    x = tape.nodes[node.inputs[0]].value
    return [np.broadcast_to(g, x.shape)]


_NUMERIC_VJPS = {
    "dense": _vjp_dense,
    "conv2d": _vjp_conv2d,
    "relu": _vjp_relu,
    "softplus": _vjp_softplus,
    "maxpool2x2": _vjp_maxpool,
    "flatten": _vjp_flatten,
    "add": _vjp_add,
    "loss_softmax_xent": _vjp_loss_xent,
    "sum_all": _vjp_sum_all,
}


def backward(tape, node, *, grad=None, skip=()):
    """One reverse sweep from `node`, seeded with `grad` = d(objective)/d(node).

    With no `grad`, `node` must be a scalar loss and the seed is 1. Fills
    tape.grads (node idx -> ndarray) with the gradients of leaf and site
    nodes and returns it; every other adjoint is dropped once it has been
    passed to its node's inputs. The dense and conv2d rules compute no
    gradient for a node idx in `skip`, so nothing flows into or through it;
    every other gradient gets the same contributions in the same order as a
    full sweep.
    """
    if grad is None:
        if node.value.shape != ():
            raise NonScalarLoss(f"loss has shape {node.value.shape}")
        grad = np.ones(())
    elif np.shape(grad) != node.value.shape:
        raise ShapeMismatch("backward", node.value.shape, np.shape(grad))
    _pass_counts["backward"] += 1
    tape.skip = skip

    adj = {node.idx: _as_f64(grad)}
    sites = set(tape.sites.values())

    for i in range(node.idx, -1, -1):
        if i not in adj:
            continue
        cur = tape.nodes[i]
        if cur.op == "leaf":
            continue
        # every contribution to adj[i] came from a later node, so it is whole
        g = adj[i] if i in sites else adj.pop(i)
        for inp, gi in zip(cur.inputs, _NUMERIC_VJPS[cur.op](tape, cur, g)):
            if gi is None:
                continue
            adj[inp] = adj[inp] + gi if inp in adj else gi

    tape.grads = adj
    return adj


GRAD_CHECK_STEP = 1e-5    # h, grad_check's central-difference step


def grad_check(builder, point):
    """Max relative error between tape gradients and central differences.

    `builder(tape, x_node) -> node` must describe a graph that is smooth at
    `point` (or whose kinks are further than ~10h away). The objective is
    the node's entries weighted 1, 2, 3, ... in flat order (a scalar node is
    its own objective).
    """
    point = _as_f64(point)
    tape = Tape()
    x = tape.leaf(point)
    out = builder(tape, x)
    w = np.arange(1.0, 1.0 + out.value.size).reshape(out.value.shape)
    backward(tape, out, grad=w)
    analytic = tape.grads[x.idx]

    h = GRAD_CHECK_STEP
    fd = np.zeros_like(point)
    flat = point.reshape(-1)
    for i in range(flat.size):
        for sgn in (+1.0, -1.0):
            bumped = flat.copy()
            bumped[i] += sgn * h
            t2 = Tape()
            out2 = builder(t2, t2.leaf(bumped.reshape(point.shape)))
            fd.reshape(-1)[i] += sgn * (out2.value * w).sum() / (2.0 * h)
    err = np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))
    return float(err.max())
