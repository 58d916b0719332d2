"""Training loops: the two-pass latent-perturbation update and its
single-step/multi-step baselines, momentum SGD, the one-cycle linear
learning-rate schedule, and the gradient-reuse alignment regularizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics as metrics_mod
from .attacks import _clamp, deltas_from_tape, fgsm, latent_deltas, pgd, r_fgsm
from .autodiff import _GRAPH_VJPS, UnsupportedOps, backward, per_example_xent
from .data import augment_pad_crop
from .models import forward_logits, forward_with_latents, loss_grads

METHODS = ("standard", "fgsm_at", "fgsm_rs", "pgd_at", "slat",
           "slat_fast_ga", "fgsm_rs_latent")


class NonFiniteGradient(Exception):
    pass


@dataclass
class TrainSpec:
    method: str = "slat"
    epochs: int = 1
    batch: int = 128
    lr_max: float = 0.2
    momentum: float = 0.9
    weight_decay: float = 5e-4
    epsilon: float = 8 / 255
    # site -> step; None means epsilon at every site. {"ini": None}: not an
    # INI key, config.parse_config derives it (as it does seed, augment_pad).
    eta: dict | None = field(default=None, metadata={"ini": None})
    lambda_ga: float = 1.0
    seed: int = field(default=0, metadata={"ini": None})
    checkpoint_every: int = 0      # 0: once per epoch
    peak_fraction: float = 0.4
    augment_pad: int = field(default=0, metadata={"ini": None})

    def __post_init__(self):
        problems = self.problems()
        if problems:
            raise ValueError("; ".join(problems))

    def problems(self):
        """Every violated rule, each message naming its [train] INI key;
        config.parse_config reports these with the other sections' rules."""
        problems = []
        if self.method not in METHODS:
            problems.append(f"train.method: unknown method {self.method!r}")
        if self.epochs < 1 or self.batch < 1:
            problems.append("train.epochs and train.batch must be >= 1")
        if not (math.isfinite(self.lr_max) and self.lr_max > 0):
            problems.append("train.lr_max must be finite and > 0")
        for name in ("epsilon", "weight_decay", "lambda_ga"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                problems.append(f"train.{name} must be finite and >= 0")
        if not 0 <= self.momentum < 1:
            problems.append("train.momentum must be in [0, 1)")
        if self.checkpoint_every < 0:
            problems.append("train.checkpoint_every must be >= 0")
        if not 0 < self.peak_fraction < 1:
            problems.append("train.peak_fraction must be in (0, 1)")
        return problems

    def eta_for(self, model):
        if self.eta is not None:
            return {int(k): float(v) for k, v in self.eta.items()}
        return {k: self.epsilon for k in model.K}


@dataclass
class EvalSettings:
    """Measurement knobs: per-checkpoint records, the final robust
    accuracy, the loss landscape and the overfitting detector. The [eval]
    INI section."""
    epsilon: float | None = None   # None: the training epsilon
    attack_steps: int = field(default=20, metadata={"ini": "steps"})
    attack_restarts: int = field(default=1, metadata={"ini": "restarts"})
    alpha: float | None = None
    n_eval: int = 512
    align_n: int = 128
    seed: int = 9001
    landscape_n: int = 21
    co_window: int = 0             # 0: two epochs worth of steps


@dataclass
class OptimizerState:
    velocity: dict = field(default_factory=dict)   # param name -> ndarray


def init_optimizer(model):
    return OptimizerState({n: np.zeros_like(p) for n, p in model.parameters().items()})


def cyclic_lr(step, total_steps, lr_max, peak_fraction=0.4):
    """0 -> lr_max over the first peak_fraction of steps, back to 0 after."""
    if not 0 < peak_fraction < 1:
        raise ValueError("peak_fraction must lie in (0, 1)")
    peak = peak_fraction * total_steps
    if step <= peak:
        return lr_max * step / peak
    return lr_max * (total_steps - step) / (total_steps - peak)


def sgd_update(params, grads, state, lr, momentum, weight_decay):
    """v <- m*v + (g + wd*p); p <- p - lr*v, in place."""
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"non-finite gradient for {name}")
        if weight_decay:
            g = g + weight_decay * p
        v = state.velocity[name]
        v *= momentum
        v += g
        p -= lr * v


def _update(model, x_in, y, spec, state, lr, deltas=None):
    """One SGD step on the mean loss at x_in with latent deltas injected."""
    loss, tape = loss_grads(model, x_in, y, deltas, reduction="mean", wrt="params")
    grads = {name: tape.grads[node.idx] for name, node in tape.params.items()}
    sgd_update(model.parameters(), grads, state, lr, spec.momentum,
               spec.weight_decay)
    return float(loss.value)


def _slat_inputs(model, x, y, spec, clamp):
    """One clean sweep -> (x + delta_0, the other sites' deltas, clean input
    gradient)."""
    _, tape = loss_grads(model, x, y, wrt="inputs")
    deltas = deltas_from_tape(tape, model.K, spec.eta_for(model))
    x_in = _clamp(x + deltas.pop(0), clamp) if 0 in deltas else x
    return x_in, deltas, tape.grads[tape.input.idx]


def standard_step(model, x, y, spec, state, lr, clamp=None, step_seed=0):
    return _update(model, x, y, spec, state, lr)


def fgsm_at_step(model, x, y, spec, state, lr, clamp=None, step_seed=0):
    x_adv = fgsm(model, x, y, spec.epsilon, clamp)
    return _update(model, x_adv, y, spec, state, lr)


def fgsm_rs_step(model, x, y, spec, state, lr, clamp=None, step_seed=0):
    x_adv = r_fgsm(model, x, y, spec.epsilon, clamp=clamp, seed=step_seed)
    return _update(model, x_adv, y, spec, state, lr)


def pgd_at_step(model, x, y, spec, state, lr, clamp=None, step_seed=0):
    x_adv = pgd(model, x, y, spec.epsilon, steps=7, clamp=clamp, seed=step_seed)
    return _update(model, x_adv, y, spec, state, lr)


def slat_step(model, x, y, spec, state, lr, clamp=None, step_seed=0):
    """One update on the all-sites-perturbed loss: 2 forwards + 2 backwards."""
    x_in, deltas, _ = _slat_inputs(model, x, y, spec, clamp)
    return _update(model, x_in, y, spec, state, lr, deltas)


def fast_ga_loss(model, x, y, spec, clamp=None):
    """Perturbed loss plus lambda * (1 - cos(g_clean, g_adv)).

    g_clean is the input gradient from the delta-generation pass, treated as
    a constant; g_adv is the input gradient of the injected pass, built as
    tape nodes so the penalty differentiates through it. Returns the total
    loss node and its tape.
    """
    for layer in model.layers:
        if layer.kind not in _GRAPH_VJPS:
            raise UnsupportedOps(
                f"gradient-alignment training needs layers with a "
                f"double-backward rule, got layer kind {layer.kind!r}")
    x_in, latent_only, g_clean = _slat_inputs(model, x, y, spec, clamp)

    logits, _, tape = forward_with_latents(model, x_in, latent_only)
    adv_loss = tape.record("loss_softmax_xent", [logits], labels=np.asarray(y),
                           reduction="mean")
    adjoints = backward(tape, adv_loss, as_graph=True)
    g_adv = adjoints[tape.input.idx]

    # A row with a zero gradient norm takes metrics._row_cosines' convention
    # as a constant with no gradient: cosine 1 if both norms are 0, 0 if one
    # is. Its g_adv is masked to 0 and its norms offset to 1; every other row
    # is multiplied by 1 and offset by 0, which leaves its floats unchanged.
    gc_norm = np.linalg.norm(g_clean.reshape(len(x), -1), axis=1)
    zero_c = gc_norm == 0
    zero_a = (g_adv.value * g_adv.value).sum(axis=1) == 0
    degenerate = (zero_c | zero_a).astype(np.float64)
    g_adv = tape.record("mul", [g_adv, tape.leaf(np.ones_like(g_adv.value)
                                                 * (1.0 - degenerate)[:, None])])
    num = tape.record("rows_dot", [tape.leaf(g_clean), g_adv])
    ga_sq = tape.record("rows_dot", [g_adv, g_adv])
    ga_norm = tape.record("sqrt", [tape.record("add", [ga_sq, tape.leaf(degenerate)])])
    den = tape.record("mul", [tape.leaf(gc_norm + degenerate), ga_norm])
    cos = tape.record("add", [tape.record("div", [num, den]),
                              tape.leaf((zero_c & zero_a).astype(np.float64))])
    omega = tape.record("mean_all", [cos])
    penalty = tape.record("scale",
                          [tape.record("sub", [tape.leaf(1.0), omega])],
                          c=spec.lambda_ga)
    total = tape.record("add", [adv_loss, penalty])
    return total, tape


def slat_fast_ga_step(model, x, y, spec, state, lr, clamp=None, step_seed=0):
    """SGD on fast_ga_loss: its loss is graph-built, so it sweeps it itself."""
    total, tape = fast_ga_loss(model, x, y, spec, clamp)
    backward(tape, total)
    grads = {name: tape.grads[node.idx] for name, node in tape.params.items()}
    sgd_update(model.parameters(), grads, state, lr, spec.momentum,
               spec.weight_decay)
    return float(total.value)


def fgsm_rs_latent_step(model, x, y, spec, state, lr, clamp=None, step_seed=0):
    """Random-start input adversary combined with clean-derived latent deltas."""
    x_adv = r_fgsm(model, x, y, spec.epsilon, clamp=clamp, seed=step_seed)
    latent = latent_deltas(model, x, y, spec.eta_for(model),
                           K=[k for k in model.K if k != 0])
    return _update(model, x_adv, y, spec, state, lr, latent)


_STEP_FNS = {
    "standard": standard_step,
    "fgsm_at": fgsm_at_step,
    "fgsm_rs": fgsm_rs_step,
    "pgd_at": pgd_at_step,
    "slat": slat_step,
    "slat_fast_ga": slat_fast_ga_step,
    "fgsm_rs_latent": fgsm_rs_latent_step,
}


def evaluate_checkpoint(model, xs, ys, spec, ev, step, epoch, lr, clamp=None):
    """One MetricRecord: accuracy, attack robustness, and linearity probes.

    With S PGD steps and R restarts it costs S*R + R + 7 forward passes and
    S*R + 3 backward passes (n_eval <= 512, so clean accuracy is one batch).
    """
    eps = ev.epsilon if ev.epsilon is not None else spec.epsilon
    x_adv = pgd(model, xs, ys, eps, ev.alpha, ev.attack_steps, ev.attack_restarts,
                clamp, seed=ev.seed)
    z_adv = forward_logits(model, x_adv)
    return metrics_mod.MetricRecord(
        step=step,
        epoch=epoch,
        clean_acc=metrics_mod.accuracy(model, xs, ys),
        pgd_acc=metrics_mod._n_correct(z_adv, ys) / len(ys),
        adv_loss=float(per_example_xent(z_adv, ys).mean()),
        **metrics_mod.linearity_probes(model, xs[:ev.align_n], ys[:ev.align_n],
                                       eps, seed=ev.seed, clamp=clamp),
        lr=lr,
    )


def eval_subset(dataset, n, seed):
    """The first n of a seeded permutation: the examples a run evaluates on."""
    order = np.random.default_rng((seed, 7919)).permutation(len(dataset))
    return dataset.subset(order[:n])


def train(model, dataset, spec, sinks=(), eval_data=None, eval_settings=None):
    """Run the configured method; returns (model, records).

    Deterministic for a fixed spec.seed: shuffling, attack noise, and eval
    subsampling all derive from it. Emits one record every
    `spec.checkpoint_every` steps (plus a final one) through `sinks`, and
    raises NonFiniteGradient after flushing if an update blows up.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("dataset is empty")
    ev = eval_settings or EvalSettings()
    clamp = dataset.input_scale
    rng = np.random.default_rng(spec.seed)
    steps_per_epoch = math.ceil(n / spec.batch)
    total_steps = spec.epochs * steps_per_epoch
    every = spec.checkpoint_every or steps_per_epoch
    step_fn = _STEP_FNS[spec.method]

    held_out = eval_subset(eval_data if eval_data is not None else dataset,
                           ev.n_eval, spec.seed)
    exs, eys = held_out.xs, held_out.ys

    state = init_optimizer(model)
    records = []

    def emit(step):
        lr = cyclic_lr(step, total_steps, spec.lr_max, spec.peak_fraction)
        rec = evaluate_checkpoint(model, exs, eys, spec, ev, step,
                                  step / steps_per_epoch, lr, clamp)
        records.append(rec)
        for sink in sinks:
            sink(rec)

    step = 0
    for _ in range(spec.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, spec.batch):
            sel = order[lo:lo + spec.batch]
            xb, yb = dataset.xs[sel], dataset.ys[sel]
            if spec.augment_pad:
                xb = augment_pad_crop(xb, spec.augment_pad, rng)
            if step % every == 0:
                emit(step)
            lr = cyclic_lr(step, total_steps, spec.lr_max, spec.peak_fraction)
            loss = step_fn(model, xb, yb, spec, state, lr, clamp,
                           step_seed=(spec.seed, step))
            if not np.isfinite(loss):
                raise NonFiniteGradient(f"non-finite loss at step {step}")
            step += 1
    emit(total_steps)
    return model, records
