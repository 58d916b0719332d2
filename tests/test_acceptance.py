"""Acceptance gate: one test per criterion A1-A11, plus a check of the
paper's l1 mechanism on A5's runs, each printing a PASS/FAIL line (visible
under `pytest -s`). The image-scale criteria (A6, A10) share one pair of
training runs through a session fixture.
"""

import itertools
import json
import os
from contextlib import contextmanager

import numpy as np
import pytest

from slatlab.attacks import AttackSpec, fgsm, input_grad, latent_deltas, pgd
from slatlab.autodiff import backward, grad_check, per_example_xent
from slatlab.cli import run as cli_run
from slatlab.config import parse_config
from slatlab.data import (ToySpec, gen_toy, load_idx, write_idx_images,
                          write_idx_labels)
from slatlab.metrics import (accumulated_linearization_error,
                             boundary_nonrobust_ratio,
                             detect_catastrophic_overfitting,
                             linearity_probes, loss_landscape, robust_accuracy,
                             slice_linear_residual)
from slatlab.models import (build_linear, build_small_cnn, build_toy_mlp,
                            forward_logits, forward_with_latents,
                            load_checkpoint, load_into, save_checkpoint,
                            truncated_forward)
from slatlab.training import (EvalSettings, TrainSpec, cyclic_lr,
                              fgsm_at_step, init_optimizer, slat_step,
                              standard_step, train)

from test_autodiff import op_graph_builders


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"{name}: FAIL")
        raise
    print(f"{name}: PASS")


# --- A1 ---------------------------------------------------------------

def test_a1_gradient_oracle():
    with criterion("A1 gradient oracle (central differences, 100 points/op)"):
        for name, builder, point in op_graph_builders():
            rng = np.random.default_rng(hash(name) % 2 ** 32)
            worst = max(grad_check(builder, point(rng), h=1e-5)
                        for _ in range(100))
            assert worst <= 1e-6, f"{name}: max rel err {worst}"


# --- A2 ---------------------------------------------------------------

def test_a2_free_latent_gradients():
    with criterion("A2 free latent gradients == truncated-leaf gradients"):
        rng = np.random.default_rng(2)
        cases = [
            (build_toy_mlp(16, "softplus", seed=0), rng.normal(size=(6, 2)),
             rng.integers(0, 2, size=6)),
            (build_small_cnn((1, 8, 8), 3, seed=0),
             rng.normal(size=(3, 1, 8, 8)), rng.integers(0, 3, size=3)),
        ]
        for model, x, y in cases:
            logits, latents, tape = forward_with_latents(model, x)
            loss = tape.record("loss_softmax_xent", [logits], labels=y,
                               reduction="mean")
            backward(tape, loss)
            for k in model.K:
                tl, ttape = truncated_forward(model, k, latents[k])
                backward(ttape, ttape.record("loss_softmax_xent", [tl],
                                             labels=y, reduction="mean"))
                full = tape.grads[tape.sites[k]]
                trunc = ttape.grads[ttape.input.idx]
                scale = max(1.0, np.abs(trunc).max())
                assert np.abs(full - trunc).max() <= 1e-12 * scale


# --- A3 ---------------------------------------------------------------

def test_a3_sign_dot_identity():
    with criterion("A3 dot(sign(g), g) == l1 norm, 1000 gradients"):
        rng = np.random.default_rng(3)
        for i in range(1000):
            n = int(rng.integers(1, 60))
            g = rng.normal(size=n) * 10 ** rng.uniform(-6, 3)
            g[rng.random(n) < 0.15] = 0.0
            if i % 100 == 0:
                g[:] = 0.0
            assert abs(np.dot(np.sign(g), g) - np.abs(g).sum()) <= 1e-12


# --- A4 ---------------------------------------------------------------

def test_a4_accumulated_perturbation_scaling():
    with criterion("A4 first-order accumulation error scales ~4x when eta halves"):
        model = build_toy_mlp(16, "softplus", seed=4)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 2))
        y = rng.integers(0, 2, size=50)
        e_full = accumulated_linearization_error(model, x, y, eta=0.02)
        e_half = accumulated_linearization_error(model, x, y, eta=0.01)
        keep = e_half > 1e-11
        assert keep.sum() >= 40
        ratio = float(np.median(e_full[keep] / e_half[keep]))
        print(f"  [A4] median error ratio eta vs eta/2: {ratio:.3f}")
        assert 3.5 <= ratio <= 4.5


# --- A5 ---------------------------------------------------------------

A5_MU, A5_SIGMA = (0.25, 0.05), (0.15, 0.02)
A5_LIM = 3.0 * np.sqrt(np.asarray(A5_MU) ** 2 + np.asarray(A5_SIGMA) ** 2)


def _a5_train(method, seed):
    ds = gen_toy(ToySpec(A5_MU, A5_SIGMA, n_per_class=200, seed=seed))
    model = build_toy_mlp(256, "relu", seed=seed)
    spec = TrainSpec(method=method, epochs=300, batch=32, epsilon=0.1,
                     eta={0: 0.1, 1: 0.1}, lr_max=0.3, weight_decay=0.0,
                     seed=seed, checkpoint_every=10 ** 9)
    train(model, ds, spec,
          eval_settings=EvalSettings(attack_steps=2, n_eval=16, align_n=8))
    return model


@pytest.fixture(scope="session")
def a5_runs():
    out = {}
    for method in ("standard", "fgsm_at", "slat"):
        for seed in range(4):
            out[(method, seed)] = _a5_train(method, seed)
    return out


def test_a5_toy_boundary_and_robustness(a5_runs):
    with criterion("A5 toy feature selection: ratio ordering + robust-acc gap"):
        xlim = (-A5_LIM[0], A5_LIM[0])
        ylim = (-A5_LIM[1], A5_LIM[1])
        ratios = {key: boundary_nonrobust_ratio(model, xlim, ylim)
                  for key, model in a5_runs.items()}
        ordered = sum(
            ratios[("slat", s)] < ratios[("fgsm_at", s)] < ratios[("standard", s)]
            for s in range(4))
        print(f"  [A5] per-seed ratios slat/fgsm/standard: "
              + "; ".join(f"s{s}: {ratios[('slat', s)]:.4f}/"
                          f"{ratios[('fgsm_at', s)]:.4f}/"
                          f"{ratios[('standard', s)]:.1f}" for s in range(4)))
        attack = AttackSpec("pgd", epsilon=0.1, steps=20, restarts=1, seed=0)
        acc = {}
        for method in ("fgsm_at", "slat"):
            accs = []
            for s in range(4):
                test = gen_toy(ToySpec(A5_MU, A5_SIGMA, 500, seed=s + 10_000))
                accs.append(robust_accuracy(a5_runs[(method, s)], test, attack))
            acc[method] = float(np.mean(accs))
        gap = acc["slat"] - acc["fgsm_at"]
        print(f"  [A5] PGD-20 robust acc (mean of seeds 0-3): "
              f"slat={acc['slat']:.3f} fgsm_at={acc['fgsm_at']:.3f} "
              f"gap={gap * 100:.1f} points")
        assert ordered >= 3, f"ratio ordering held on {ordered}/4 seeds"
        assert gap >= 0.05, (
            f"SLAT beats FGSM AT by {gap * 100:.1f} points, below the "
            f"5-point bar")


def test_a5_slat_shrinks_the_hidden_gradient_l1(a5_runs):
    # The abstract's mechanism: SLAT implicitly regularizes the l1 norm of the
    # latent gradients. Site 1 is the hidden layer.
    with criterion("A5 mechanism: SLAT's site-1 l1 gradient norm below FGSM AT's"):
        l1 = {}
        for method in ("fgsm_at", "slat"):
            for s in range(4):
                test = gen_toy(ToySpec(A5_MU, A5_SIGMA, 500, seed=s + 10_000))
                probes = linearity_probes(a5_runs[(method, s)], test.xs, test.ys,
                                          epsilon=0.1)
                l1[(method, s)] = probes["l1_grad_norms"][1]
        below = sum(l1[("slat", s)] < l1[("fgsm_at", s)] for s in range(4))
        print("  [A5] site-1 mean l1 gradient norm slat/fgsm: "
              + "; ".join(f"s{s}: {l1[('slat', s)]:.3f}/{l1[('fgsm_at', s)]:.2f}"
                          for s in range(4)))
        assert below >= 3, f"SLAT below FGSM AT on {below}/4 seeds"


# --- A6 / A10 ---------------------------------------------------------

A6_EPS = 0.3
A6_EPOCHS = 15
A6_ETA = {0: A6_EPS, 1: 8 / 255, 2: 8 / 255}


@pytest.fixture(scope="session")
def a6_runs(digit_corpus):
    train_ds = load_idx(digit_corpus["train_images"],
                        digit_corpus["train_labels"]).subset(np.arange(10_000))
    test_ds = load_idx(digit_corpus["test_images"], digit_corpus["test_labels"])
    ev = EvalSettings(attack_steps=20, n_eval=192, align_n=96)
    out = {"test": test_ds, "steps_per_epoch": 79,
           "source": digit_corpus["source"]}
    for method, eta in (("fgsm_at", None), ("slat", A6_ETA)):
        model = build_small_cnn((1, 28, 28), 10, seed=0)
        spec = TrainSpec(method=method, epochs=A6_EPOCHS, batch=128,
                         epsilon=A6_EPS, eta=eta, lr_max=0.05, seed=0,
                         checkpoint_every=79)
        _, records = train(model, train_ds, spec, eval_data=test_ds,
                           eval_settings=ev)
        out[method] = {"model": model, "records": records}
    return out


def _final_pgd_acc(entry, test_ds):
    attack = AttackSpec("pgd", epsilon=A6_EPS, steps=20, restarts=1,
                        clamp=(0.0, 1.0), seed=7)
    sub = test_ds.subset(np.arange(512))
    return robust_accuracy(entry["model"], sub, attack)


@pytest.mark.slow
def test_a6_catastrophic_overfitting_contrast(a6_runs):
    with criterion("A6 FGSM-AT collapses on the image task while SLAT holds"):
        window = 2 * a6_runs["steps_per_epoch"]
        fgsm_recs = a6_runs["fgsm_at"]["records"]
        slat_recs = a6_runs["slat"]["records"]
        co_fgsm = detect_catastrophic_overfitting(fgsm_recs, window)
        co_slat = detect_catastrophic_overfitting(slat_recs, window)
        acc_fgsm = _final_pgd_acc(a6_runs["fgsm_at"], a6_runs["test"])
        acc_slat = _final_pgd_acc(a6_runs["slat"], a6_runs["test"])
        align = {}
        if co_fgsm is not None:
            for name, recs in (("fgsm_at", fgsm_recs), ("slat", slat_recs)):
                at = [r for r in recs if r.step >= co_fgsm]
                align[name] = at[0].grad_align if at else recs[-1].grad_align
        print(f"  [A6] corpus={a6_runs['source']} collapse step: "
              f"fgsm={co_fgsm} slat={co_slat}; final PGD-20: "
              f"fgsm={acc_fgsm:.3f} slat={acc_slat:.3f}; "
              f"alignment at collapse: {align}")
        assert co_fgsm is not None, "FGSM AT never collapsed"
        assert co_slat is None, f"SLAT collapsed at step {co_slat}"
        assert acc_fgsm < 0.10
        assert acc_slat >= acc_fgsm + 0.20
        assert align["fgsm_at"] < 0.5
        assert align["slat"] > 0.7


@pytest.mark.slow
def test_a10_landscape_linearity_ordering(a6_runs):
    with criterion("A10 landscape origin exact + linear-slice residual ordering"):
        test_ds = a6_runs["test"]
        x = test_ds.xs[:64]
        y = test_ds.ys[:64]
        residual = {}
        for method in ("fgsm_at", "slat"):
            model = a6_runs[method]["model"]
            grid = loss_landscape(model, x, y, epsilon=A6_EPS, n=21, seed=3)
            clean = float(per_example_xent(forward_logits(model, x), y).mean())
            assert grid.values[0, 0] == clean, "origin not bit-exact"
            residual[method] = slice_linear_residual(grid)
        print(f"  [A10] adversarial-slice line-fit residual: "
              f"slat={residual['slat']:.4f} fgsm_at={residual['fgsm_at']:.4f}")
        assert residual["slat"] < 0.2
        assert residual["fgsm_at"] > residual["slat"]


# --- A7 ---------------------------------------------------------------

def test_a7_attack_optimality_oracle():
    with criterion("A7 FGSM attains the vertex maximum on linear models"):
        rng = np.random.default_rng(7)
        for d in (2, 4, 7, 10):
            model = build_linear(d, 2, seed=d)
            x = rng.normal(size=(5, d))
            y = rng.integers(0, 2, size=5)
            eps = 0.25
            adv = fgsm(model, x, y, eps)
            got = per_example_xent(forward_logits(model, adv), y)
            best = np.full(5, -np.inf)
            for signs in itertools.product((-1.0, 1.0), repeat=d):
                cand = x + eps * np.asarray(signs)
                best = np.maximum(
                    best, per_example_xent(forward_logits(model, cand), y))
            assert np.abs(got - best).max() <= 1e-9
            adv_pgd = pgd(model, x, y, eps, alpha=eps / 5, steps=20,
                          restarts=2, seed=1)
            got_pgd = per_example_xent(forward_logits(model, adv_pgd), y)
            assert (got_pgd >= got - 1e-9).all()


# --- A8 ---------------------------------------------------------------

def test_a8_dual_norm_vertex_enumeration():
    with criterion("A8 vertex max of |<grad, delta>| == eta * l1 norm"):
        model = build_toy_mlp(8, "softplus", seed=8)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 2))
        y = np.array([1])
        logits, _, tape = forward_with_latents(model, x)
        backward(tape, tape.record("loss_softmax_xent", [logits], labels=y,
                                   reduction="sum"))
        for k, eta in ((0, 0.1), (1, 0.37)):
            g = tape.grads[tape.sites[k]].ravel()
            best = max(abs(np.dot(g, eta * np.asarray(s)))
                       for s in itertools.product((-1.0, 1.0), repeat=g.size))
            assert abs(best - eta * np.abs(g).sum()) <= 1e-12


# --- A9 ---------------------------------------------------------------

def test_a9_reductions():
    with criterion("A9 SLAT(K={0})==FGSM-AT, eta=0==standard, exact lr endpoints"):
        ds = gen_toy(ToySpec(n_per_class=32, seed=9))
        x, y = ds.xs[:32], ds.ys[:32]
        spec = TrainSpec(method="slat", epsilon=0.1, eta={0: 0.1}, lr_max=0.1)
        m1 = build_toy_mlp(8, seed=9, sites=(0,))
        m2 = build_toy_mlp(8, seed=9)
        s1, s2 = init_optimizer(m1), init_optimizer(m2)
        for _ in range(5):
            slat_step(m1, x, y, spec, s1, lr=0.05, clamp=(-4.0, 4.0))
            fgsm_at_step(m2, x, y, spec, s2, lr=0.05, clamp=(-4.0, 4.0))
        for p1, p2 in zip(m1.parameters().values(), m2.parameters().values()):
            assert np.abs(p1 - p2).max() <= 1e-12

        spec0 = TrainSpec(method="slat", epsilon=0.1, eta={0: 0.0, 1: 0.0},
                          lr_max=0.1)
        m3 = build_toy_mlp(8, seed=10)
        m4 = build_toy_mlp(8, seed=10)
        s3, s4 = init_optimizer(m3), init_optimizer(m4)
        for _ in range(5):
            slat_step(m3, x, y, spec0, s3, lr=0.05)
            standard_step(m4, x, y, spec0, s4, lr=0.05)
        for p3, p4 in zip(m3.parameters().values(), m4.parameters().values()):
            assert np.abs(p3 - p4).max() <= 1e-12

        assert cyclic_lr(0, 300, 0.2, 0.4) == 0.0
        assert cyclic_lr(300, 300, 0.2, 0.4) == 0.0
        assert cyclic_lr(120, 300, 0.2, 0.4) == 0.2


# --- A11 --------------------------------------------------------------

def test_a11_determinism_and_formats(tmp_path):
    with criterion("A11 deterministic runs, IDX round trip, checkpoint round trip"):
        cfg_text = """
[run]
seed = 11
[data]
kind = toy
n_per_class = 24
test_n_per_class = 24
[train]
method = slat
epochs = 2
batch = 16
lr_max = 0.1
[eval]
steps = 3
n_eval = 24
align_n = 8
landscape_n = 3
"""
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(cfg_text)
        blobs, summaries = [], []
        for i in range(2):
            cfg = parse_config(str(cfg_path),
                               {"output.dir": str(tmp_path / f"out{i}")})
            assert cli_run(cfg) == 0
            blobs.append((tmp_path / f"out{i}" / "metrics.csv").read_bytes())
            s = json.loads((tmp_path / f"out{i}" / "summary.json").read_text())
            s.pop("wall_clock_sec")
            summaries.append(s)
        assert blobs[0] == blobs[1]
        assert summaries[0] == summaries[1]

        rng = np.random.default_rng(11)
        imgs = rng.integers(0, 256, size=(4, 6, 6)).astype(np.uint8)
        labels = np.array([0, 3, 9, 1], dtype=np.uint8)
        write_idx_images(imgs, tmp_path / "img.idx")
        write_idx_labels(labels, tmp_path / "lab.idx")
        ds = load_idx(tmp_path / "img.idx", tmp_path / "lab.idx")
        assert np.array_equal((ds.xs[:, 0] * 255).round().astype(np.uint8), imgs)
        assert np.array_equal(ds.ys, labels)

        model = build_small_cnn((1, 8, 8), 3, seed=11)
        save_checkpoint(model, tmp_path / "m.ckpt")
        clone = build_small_cnn((1, 8, 8), 3, seed=99)
        load_into(clone, load_checkpoint(tmp_path / "m.ckpt"))
        x = rng.normal(size=(2, 1, 8, 8))
        assert np.abs(forward_logits(model, x)
                      - forward_logits(clone, x)).max() <= 1e-15
