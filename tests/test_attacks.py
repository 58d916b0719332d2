import itertools

import numpy as np
import pytest

from slatlab.attacks import (ATTACK_ROWS, AttackSpec, deltas_from_tape, fgsm,
                             input_grad, latent_deltas, pgd, r_fgsm, run_attack)
from slatlab.autodiff import Tape, UnknownSite, backward, per_example_xent
from slatlab.data import ToySpec, gen_toy
from slatlab.models import build_linear, build_toy_mlp, forward_logits


def vertex_max_loss(model, x, y, eps):
    """Brute-force maximum loss over every corner of the eps-ball (d <= 10)."""
    d = x.shape[1]
    best = np.full(x.shape[0], -np.inf)
    for signs in itertools.product((-1.0, 1.0), repeat=d):
        cand = x + eps * np.asarray(signs)
        best = np.maximum(best, per_example_xent(forward_logits(model, cand), y))
    return best


def test_fgsm_zero_eps_is_identity():
    m = build_toy_mlp(4, seed=0)
    x = np.random.default_rng(0).normal(size=(3, 2))
    assert np.array_equal(fgsm(m, x, np.array([0, 1, 0]), 0.0), x)


def test_fgsm_linear_is_analytic_sign_step():
    rng = np.random.default_rng(1)
    m = build_linear(4, 2, seed=1)
    x = rng.normal(size=(6, 4))
    y = rng.integers(0, 2, size=6)
    g = input_grad(m, x, y)
    np.testing.assert_allclose(fgsm(m, x, y, 0.25), x + 0.25 * np.sign(g),
                               atol=0)


@pytest.mark.parametrize("d", [2, 5, 8])
def test_fgsm_attains_vertex_maximum_on_linear(d):
    rng = np.random.default_rng(d)
    m = build_linear(d, 2, seed=d)
    x = rng.normal(size=(4, d))
    y = rng.integers(0, 2, size=4)
    eps = 0.3
    adv = fgsm(m, x, y, eps)
    got = per_example_xent(forward_logits(m, adv), y)
    want = vertex_max_loss(m, x, y, eps)
    assert np.abs(got - want).max() <= 1e-9


def test_rfgsm_identity_at_zero_eps_and_determinism():
    m = build_toy_mlp(4, seed=2)
    x = np.random.default_rng(2).normal(size=(3, 2))
    y = np.array([1, 0, 1])
    assert np.array_equal(r_fgsm(m, x, y, 0.0, alpha=1e-9), x)
    a = r_fgsm(m, x, y, 0.1, seed=77)
    b = r_fgsm(m, x, y, 0.1, seed=77)
    assert np.array_equal(a, b)
    c = r_fgsm(m, x, y, 0.1, seed=78)
    assert not np.array_equal(a, c)


def test_attack_spec_defaults_and_validation():
    m = build_toy_mlp(4, seed=5)
    x = np.random.default_rng(5).normal(size=(6, 2))
    y = np.array([0, 1, 0, 1, 1, 0])
    eps = 8 / 255
    for kind, steps, alpha in (("r_fgsm", 1, 1.25 * eps), ("pgd", 7, 2 * eps / 10)):
        def attack(a):
            spec = AttackSpec(kind=kind, epsilon=eps, alpha=a, steps=steps, seed=3)
            return run_attack(m, x, y, spec)
        assert np.array_equal(attack(None), attack(alpha))
        assert not np.array_equal(attack(None), attack(alpha / 2))
    with pytest.raises(ValueError):
        AttackSpec(kind="pgd", epsilon=-1.0)
    with pytest.raises(ValueError):
        AttackSpec(kind="nope")
    with pytest.raises(ValueError):
        AttackSpec(kind="pgd", steps=0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_attack_steps_must_be_finite_and_non_negative(bad):
    with pytest.raises(ValueError, match="epsilon"):
        AttackSpec(kind="pgd", epsilon=bad)
    with pytest.raises(ValueError, match="alpha"):
        AttackSpec(kind="pgd", alpha=bad)
    tape = Tape()
    h = tape.leaf(np.ones(3))
    tape.register_site(0, h)
    backward(tape, tape.record("sum_all", [h]))
    with pytest.raises(ValueError, match="eta"):
        deltas_from_tape(tape, {0: bad})


@pytest.mark.parametrize("spec", [
    AttackSpec("fgsm", 0.2),
    AttackSpec("r_fgsm", 0.2, seed=4),
    AttackSpec("pgd", 0.2, steps=3, restarts=2, seed=4)], ids=lambda s: s.kind)
def test_run_attack_attacks_fixed_row_slices(spec):
    ds = gen_toy(ToySpec(n_per_class=300, seed=4))
    m = build_toy_mlp(8, seed=4)
    got = run_attack(m, ds.xs, ds.ys, spec)
    want = np.concatenate([run_attack(m, ds.xs[i:i + 256], ds.ys[i:i + 256], spec)
                           for i in (0, 256, 512)])
    assert ATTACK_ROWS == 256 and got.shape == ds.xs.shape
    assert np.array_equal(got, want)


def test_ball_containment_and_clamp():
    rng = np.random.default_rng(3)
    m = build_toy_mlp(8, seed=3)
    x = np.clip(rng.normal(0.5, 0.2, size=(20, 2)), 0, 1)
    y = rng.integers(0, 2, size=20)
    eps = 0.07
    for spec in (AttackSpec("fgsm", eps, clamp=(0, 1)),
                 AttackSpec("r_fgsm", eps, clamp=(0, 1), seed=5),
                 AttackSpec("pgd", eps, steps=5, restarts=2, clamp=(0, 1), seed=5)):
        adv = run_attack(m, x, y, spec)
        assert np.abs(adv - x).max() <= eps + 1e-12
        assert adv.min() >= 0.0 and adv.max() <= 1.0


def test_pgd_monotone_in_steps_on_linear():
    rng = np.random.default_rng(4)
    m = build_linear(3, 2, seed=4)
    x = rng.normal(size=(8, 3))
    y = rng.integers(0, 2, size=8)
    prev = None
    for steps in (1, 2, 4, 8):
        adv = pgd(m, x, y, 0.2, alpha=0.04, steps=steps, restarts=1, seed=9)
        losses = per_example_xent(forward_logits(m, adv), y).sum()
        if prev is not None:
            assert losses >= prev - 1e-9
        prev = losses


def test_pgd_meets_fgsm_on_linear():
    rng = np.random.default_rng(5)
    m = build_linear(5, 2, seed=5)
    x = rng.normal(size=(6, 5))
    y = rng.integers(0, 2, size=6)
    eps = 0.2
    l_fgsm = per_example_xent(forward_logits(m, fgsm(m, x, y, eps)), y)
    adv = pgd(m, x, y, eps, alpha=2 * eps / 10, steps=50, restarts=3, seed=1)
    l_pgd = per_example_xent(forward_logits(m, adv), y)
    assert (l_pgd >= l_fgsm - 1e-9).all()


def test_latent_deltas_definition_and_zero_eta():
    m = build_toy_mlp(8, seed=6)
    x = np.random.default_rng(6).normal(size=(4, 2))
    y = np.array([0, 1, 1, 0])
    zero = latent_deltas(m, x, y, eta={0: 0.0, 1: 0.0})
    assert all(np.all(d == 0) for d in zero.values())
    out = latent_deltas(m, x, y, eta={0: 0.1, 1: 0.1})
    assert set(out) == {0, 1}
    assert np.abs(out[0]).max() <= 0.1 and np.abs(out[1]).max() <= 0.1


def test_latent_delta_sign_convention():
    # grad [0.3, -0.2, 0] at eta 0.1 -> [0.1, -0.1, 0]; sign(0) stays 0
    g = np.array([0.3, -0.2, 0.0])
    tape = Tape()
    h = tape.leaf(np.ones((1, 3)))
    tape.register_site(0, h)
    gh = tape.record("dense", [h, g[:, None], np.zeros(1)])      # d(g.h)/dh = g
    backward(tape, tape.record("sum_all", [gh]))
    assert np.array_equal(deltas_from_tape(tape, {0: 0.1})[0], [[0.1, -0.1, 0.0]])


def test_latent_delta_at_input_site_equals_fgsm_perturbation():
    rng = np.random.default_rng(7)
    m = build_toy_mlp(8, seed=7)
    x = rng.normal(size=(5, 2))
    y = rng.integers(0, 2, size=5)
    eps = 0.13
    deltas = latent_deltas(m, x, y, eta={0: eps})
    adv = fgsm(m, x, y, eps)       # no clamp
    np.testing.assert_array_equal(x + deltas[0], adv)


def test_latent_deltas_unknown_site():
    m = build_linear(2, 2)
    with pytest.raises(UnknownSite):
        latent_deltas(m, np.zeros((1, 2)), np.array([0]), eta={3: 0.1})


def test_sign_dot_is_l1_norm():
    rng = np.random.default_rng(8)
    for _ in range(200):
        g = rng.normal(size=rng.integers(1, 40))
        g[rng.random(g.shape) < 0.2] = 0.0
        assert abs(np.dot(np.sign(g), g) - np.abs(g).sum()) <= 1e-12
