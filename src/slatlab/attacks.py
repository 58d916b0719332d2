"""Adversary generators: FGSM / FGSM-RS / PGD in input space, plus the
latent sign-gradient perturbation rule applied at every injection site of
a single backward sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# `backward` is not called here; bench/test_bench.py checks that the span
# tracer wraps this module's copy of it.
from .autodiff import UnknownSite, backward, per_example_xent  # noqa: F401
from .models import forward_logits, loss_grads

ATTACK_ROWS = 256      # a multiple of 16, as models.FORWARD_ROWS is


@dataclass
class AttackSpec:
    kind: str = "pgd"
    epsilon: float = 8 / 255
    alpha: float | None = None      # default: 1.25*eps (r_fgsm), 2*eps/10 (pgd)
    steps: int = 1
    restarts: int = 1
    clamp: tuple | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("fgsm", "r_fgsm", "pgd"):
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if self.steps < 1 or self.restarts < 1:
            raise ValueError("steps and restarts must be >= 1")
        if self.alpha is not None and not (math.isfinite(self.alpha)
                                           and self.alpha > 0):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")


def input_grad(model, x, y):
    """Per-example input gradients of the summed cross-entropy loss."""
    _, tape = loss_grads(model, x, y, wrt="inputs")
    return tape.grads[tape.input.idx]


def _clamp(x, clamp):
    return x if clamp is None else np.clip(x, clamp[0], clamp[1])


def fgsm(model, x, y, epsilon, clamp=None):
    """x + eps * sign(grad), optionally clipped to the valid input range."""
    x = np.asarray(x, dtype=np.float64)
    g = input_grad(model, x, y)
    return _clamp(x + epsilon * np.sign(g), clamp)


def _r_fgsm_point(x, delta, g, epsilon, alpha=None, clamp=None):
    """R+FGSM's adversary from its start x + delta and the input gradient g
    there: a sign step of alpha (default 1.25 * epsilon), clipped to the ball."""
    alpha = 1.25 * epsilon if alpha is None else alpha
    return _clamp(x + np.clip(delta + alpha * np.sign(g), -epsilon, epsilon), clamp)


def r_fgsm(model, x, y, epsilon, alpha=None, clamp=None, seed=0):
    """FGSM from a uniform random start, step alpha, clipped back to the ball."""
    x = np.asarray(x, dtype=np.float64)
    delta = epsilon * np.random.default_rng(seed).uniform(-1.0, 1.0, size=x.shape)
    return _r_fgsm_point(x, delta, input_grad(model, x + delta, y), epsilon,
                         alpha, clamp)


def pgd(model, x, y, epsilon, alpha=None, steps=7, restarts=1, clamp=None, seed=0):
    """Iterated sign steps with ball projection; worst loss over restarts.

    Restart inits scale with epsilon (delta = eps * U[-1,1]) so sweeps over
    nested balls reuse the same underlying noise; ties between restarts keep
    the lowest restart index.
    """
    x = np.asarray(x, dtype=np.float64)
    if alpha is None:
        alpha = 2 * epsilon / 10
    best_x = x.copy()
    best_loss = np.full(x.shape[0], -np.inf)
    for r in range(restarts):
        rng = np.random.default_rng((seed, r))
        delta = epsilon * rng.uniform(-1.0, 1.0, size=x.shape)
        for _ in range(steps):
            g = input_grad(model, _clamp(x + delta, clamp), y)
            delta = np.clip(delta + alpha * np.sign(g), -epsilon, epsilon)
        cand = _clamp(x + delta, clamp)
        losses = per_example_xent(forward_logits(model, cand), y)
        better = losses > best_loss
        best_x[better] = cand[better]
        best_loss[better] = losses[better]
    return best_x


def run_attack(model, x, y, spec: AttackSpec):
    """The spec's adversaries, in fixed ATTACK_ROWS-row slices seeded by spec.seed."""
    if spec.kind == "fgsm":
        attack, args = fgsm, (spec.epsilon, spec.clamp)
    elif spec.kind == "r_fgsm":
        attack, args = r_fgsm, (spec.epsilon, spec.alpha, spec.clamp, spec.seed)
    else:
        attack, args = pgd, (spec.epsilon, spec.alpha, spec.steps, spec.restarts,
                             spec.clamp, spec.seed)
    rows = range(0, max(len(x), 1), ATTACK_ROWS)
    return np.concatenate([attack(model, x[i:i + ATTACK_ROWS], y[i:i + ATTACK_ROWS],
                                  *args) for i in rows])


def deltas_from_tape(tape, eta):
    """eta_k * sign(site gradient) for every k in eta, from one swept tape."""
    out = {}
    for k, e in eta.items():
        if k not in tape.sites:
            raise UnknownSite(k)
        if not (math.isfinite(e) and e >= 0):
            raise ValueError(f"eta[{k}] must be finite and >= 0, got {e}")
        out[k] = float(e) * np.sign(tape.grads[tape.sites[k]])
    return out


def latent_deltas(model, x, y, eta):
    """Latent perturbations at the clean point for the sites in eta, one sweep."""
    if not eta:
        return {}
    _, tape = loss_grads(model, x, y, wrt="inputs")
    return deltas_from_tape(tape, eta)
