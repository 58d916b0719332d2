"""Output checks owned by the benchmark: a direct-loop reference forward for
the small CNN, a directional finite-difference test of the input gradient,
exact pass counts per training step, and strict JSON parsing.
"""

from __future__ import annotations

import json
import math

import numpy as np

from slatlab import attacks, autodiff, models, training


def _conv_loop(x, k, b):
    """Zero-padded stride-1 convolution, one kernel tap at a time."""
    f, c, kh, kw = k.shape
    p = kh // 2
    bsz, _, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    out = np.zeros((bsz, f, h, w))
    for fo in range(f):
        acc = np.full((bsz, h, w), b[fo])
        for ci in range(c):
            for i in range(kh):
                for j in range(kw):
                    acc += k[fo, ci, i, j] * xp[:, ci, i:i + h, j:j + w]
        out[:, fo] = acc
    return out


def _maxpool_loop(x):
    bsz, c, h, w = x.shape
    out = np.full((bsz, c, h // 2, w // 2), -np.inf)
    for i in range(2):
        for j in range(2):
            out = np.maximum(out, x[:, :, i::2, j::2])
    return out


def reference_logits(model, x):
    """Logits of a dense/conv2d/relu/softplus/maxpool/flatten stack by loops."""
    h = np.asarray(x, dtype=np.float64)
    for layer in model.layers:
        a = layer.arrays
        if layer.kind == "conv2d":
            h = _conv_loop(h, a["w"], a["b"])
        elif layer.kind == "dense":
            h = np.stack([(h * a["w"][:, j]).sum(axis=1) + a["b"][j]
                          for j in range(a["w"].shape[1])], axis=1)
        elif layer.kind == "relu":
            h = np.maximum(h, 0.0)
        elif layer.kind == "softplus":
            h = np.logaddexp(0.0, h)
        elif layer.kind == "maxpool2x2":
            h = _maxpool_loop(h)
        elif layer.kind == "flatten":
            h = h.reshape(len(h), -1)
        else:
            raise ValueError(f"no reference for layer kind {layer.kind!r}")
    return h


def logits_match(model, x, rtol=1e-9):
    got = models.forward_logits(model, x)
    want = reference_logits(model, x)
    err = float(np.abs(got - want).max() / max(1.0, np.abs(want).max()))
    return err <= rtol, f"max scaled error {err:.3g}"


def input_grad_fd(model, x, y, seed, h=1e-7, rtol=1e-5, directions=3):
    """<input_grad, v> against central differences of the summed loss along v.

    The point is jittered first: flat image background makes max-pool ties,
    where the loss has no derivative for a difference to approximate. A
    random direction can still cross a ReLU or max-pool kink within h, so a
    majority of the directions must agree.
    """
    def loss(z):
        logits = models.forward_logits(model, z)
        return float(autodiff.per_example_xent(logits, y).sum())

    rng = np.random.default_rng(seed)
    x = x + rng.normal(0.0, 0.05, size=x.shape)
    g = attacks.input_grad(model, x, y)
    errs = []
    for _ in range(directions):
        v = rng.standard_normal(x.shape)
        analytic = float((g * v).sum())
        fd = (loss(x + h * v) - loss(x - h * v)) / (2 * h)
        errs.append(abs(fd - analytic) / max(1.0, abs(analytic)))
    agree = sum(e <= rtol for e in errs)
    return 2 * agree > directions, "relative errors " + ", ".join(f"{e:.2g}" for e in errs)


def step_passes(step_fn, model, x, y, spec, clamp):
    """(forwards, backwards) one training step costs, from pass_counts."""
    state = training.init_optimizer(model)
    autodiff.reset_pass_counts()
    step_fn(model, x, y, spec, state, 0.0, clamp)
    counts = autodiff.pass_counts()
    return counts["forward"], counts["backward"]


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text):
    """Parse JSON that holds no NaN/Infinity and only finite numbers."""
    obj = json.loads(text, parse_constant=_reject_constant)

    def walk(o):
        if isinstance(o, dict):
            return all(walk(v) for v in o.values())
        if isinstance(o, list):
            return all(walk(v) for v in o)
        return not isinstance(o, float) or math.isfinite(o)

    if not walk(obj):
        raise ValueError("non-finite number")
    return obj
