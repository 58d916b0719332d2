import numpy as np
import pytest

from slatlab import training as training_mod
from slatlab.attacks import fgsm, input_grad, pgd, r_fgsm
from slatlab.autodiff import (UnsupportedOps, backward, pass_counts,
                              per_example_xent, reset_pass_counts)
from slatlab.data import ToySpec, gen_toy
from slatlab.metrics import (MetricRecord, _row_cosines, accuracy,
                             read_metrics_csv, write_metrics_csv)
from slatlab.models import (build_linear, build_small_cnn, build_toy_mlp,
                            forward_logits, loss_grads)
from slatlab.training import (METHODS, EvalSettings, NonFiniteGradient,
                              TrainSpec, cyclic_lr, evaluate_checkpoint,
                              fast_ga_loss, fgsm_at_step, init_optimizer,
                              sgd_update, slat_fast_ga_step, slat_step,
                              standard_step, train)

TINY_EVAL = EvalSettings(attack_steps=3, n_eval=32, align_n=16)


def toy_batch(seed=0, n=16):
    rng = np.random.default_rng(seed)
    ds = gen_toy(ToySpec(n_per_class=n // 2, seed=seed))
    order = rng.permutation(n)
    return ds.xs[order], ds.ys[order]


def test_cyclic_lr_endpoints_exact():
    total, peak_frac = 300, 12 / 30
    assert cyclic_lr(0, total, 0.2, peak_frac) == 0.0
    assert cyclic_lr(total, total, 0.2, peak_frac) == 0.0
    assert cyclic_lr(peak_frac * total, total, 0.2, peak_frac) == 0.2
    assert cyclic_lr(peak_frac * total / 2, total, 0.2, peak_frac) == \
        pytest.approx(0.1, abs=1e-15)


def test_cyclic_lr_validates_peak():
    with pytest.raises(ValueError):
        cyclic_lr(0, 10, 0.1, peak_fraction=1.0)


def test_sgd_hand_computed_steps():
    p = {"w": np.array([1.0])}
    state = init_optimizer_like(p)
    sgd_update(p, {"w": np.array([1.0])}, state, lr=0.1, momentum=0.9,
               weight_decay=0.0)
    assert p["w"][0] == pytest.approx(0.9)
    sgd_update(p, {"w": np.array([1.0])}, state, lr=0.1, momentum=0.9,
               weight_decay=0.0)
    assert state.velocity["w"][0] == pytest.approx(1.9)
    assert p["w"][0] == pytest.approx(0.71)


def init_optimizer_like(params):
    from slatlab.training import OptimizerState
    return OptimizerState({k: np.zeros_like(v) for k, v in params.items()})


def test_sgd_zero_grad_and_zero_lr():
    p = {"w": np.array([2.0])}
    state = init_optimizer_like(p)
    state.velocity["w"][:] = 0.4
    sgd_update(p, {"w": np.array([0.0])}, state, lr=0.0, momentum=0.5,
               weight_decay=0.0)
    assert p["w"][0] == 2.0
    assert state.velocity["w"][0] == pytest.approx(0.2)   # velocity decays


def test_sgd_weight_decay_enters_before_momentum():
    p = {"w": np.array([10.0])}
    state = init_optimizer_like(p)
    sgd_update(p, {"w": np.array([0.0])}, state, lr=1.0, momentum=0.0,
               weight_decay=5e-4)
    assert p["w"][0] == pytest.approx(10.0 - 5e-4 * 10.0)


def test_sgd_aborts_on_nonfinite():
    p = {"w": np.array([1.0])}
    with pytest.raises(NonFiniteGradient):
        sgd_update(p, {"w": np.array([np.nan])}, init_optimizer_like(p),
                   0.1, 0.9, 0.0)


def test_slat_reduces_to_fgsm_at_input_site():
    x, y = toy_batch(seed=1)
    spec = TrainSpec(method="slat", epsilon=0.1, eta={0: 0.1}, lr_max=0.1,
                     weight_decay=5e-4)
    for clamp in (None, (-3.0, 3.0)):
        m1 = build_toy_mlp(8, seed=5, sites=(0,))
        m2 = build_toy_mlp(8, seed=5)
        s1, s2 = init_optimizer(m1), init_optimizer(m2)
        for step in range(3):
            slat_step(m1, x, y, spec, s1, lr=0.05, clamp=clamp)
            fgsm_at_step(m2, x, y, spec, s2, lr=0.05, clamp=clamp)
        for (n1, p1), (n2, p2) in zip(m1.parameters().items(),
                                      m2.parameters().items()):
            assert np.abs(p1 - p2).max() <= 1e-12


def test_slat_with_zero_eta_is_standard_training():
    x, y = toy_batch(seed=2)
    spec = TrainSpec(method="slat", epsilon=0.1, eta={0: 0.0, 1: 0.0},
                     lr_max=0.1)
    m1 = build_toy_mlp(8, seed=6)
    m2 = build_toy_mlp(8, seed=6)
    s1, s2 = init_optimizer(m1), init_optimizer(m2)
    for _ in range(3):
        slat_step(m1, x, y, spec, s1, lr=0.05)
        standard_step(m2, x, y, spec, s2, lr=0.05)
    for p1, p2 in zip(m1.parameters().values(), m2.parameters().values()):
        assert np.abs(p1 - p2).max() <= 1e-12


# (forwards, backwards) per step. PGD-AT: 7 attack sweeps, one forward to
# pick the worst restart, one update sweep. slat_fast_ga: the clean sweep,
# then one forward swept twice (graph mode, then numeric).
STEP_PASSES = {"standard": (1, 1), "fgsm_at": (2, 2), "fgsm_rs": (2, 2),
               "pgd_at": (9, 8), "slat": (2, 2), "slat_fast_ga": (2, 3),
               "fgsm_rs_latent": (3, 3)}


@pytest.mark.parametrize("method", METHODS)
def test_step_pass_counts(method):
    x, y = toy_batch(seed=3)
    m = build_toy_mlp(8, "softplus", seed=7)
    spec = TrainSpec(method=method, epsilon=0.1)
    step = getattr(training_mod, f"{method}_step")
    state = init_optimizer(m)
    reset_pass_counts()
    step(m, x, y, spec, state, lr=0.01)
    forwards, backwards = STEP_PASSES[method]
    assert pass_counts() == {"forward": forwards, "backward": backwards}


# (forwards, backwards) per checkpoint with S PGD steps and R restarts: the
# attack's S*R sweeps and R restart-selection forwards, then one clean
# accuracy forward, one adversarial forward, and the linearity probes' three
# sweeps and two logit forwards.
@pytest.mark.parametrize("steps,restarts", [(20, 1), (3, 2)])
def test_checkpoint_pass_counts(steps, restarts):
    x, y = toy_batch(seed=3, n=32)
    m = build_toy_mlp(8, "softplus", seed=7)
    ev = EvalSettings(attack_steps=steps, attack_restarts=restarts, align_n=16)
    reset_pass_counts()
    evaluate_checkpoint(m, x, y, TrainSpec(epsilon=0.1), ev, 0, 0.0, 0.0)
    sr = steps * restarts
    assert pass_counts() == {"forward": sr + restarts + 7, "backward": sr + 3}


def _separate_probes_record(model, xs, ys, spec, ev, step, epoch, lr, clamp):
    """A checkpoint record with every probe on its own sweeps: two input
    gradients for the alignment, a third clean sweep for the site norms,
    FGSM and R+FGSM logits, and separate accuracy and xent forwards."""
    eps = ev.epsilon if ev.epsilon is not None else spec.epsilon
    x_adv = pgd(model, xs, ys, eps, ev.alpha, ev.attack_steps,
                ev.attack_restarts, clamp, seed=ev.seed)
    xa, ya = xs[:ev.align_n], ys[:ev.align_n]
    gamma = eps * np.random.default_rng(ev.seed).uniform(-1.0, 1.0, size=xa.shape)
    align = _row_cosines(input_grad(model, xa, ya), input_grad(model, xa + gamma, ya))
    _, tape = loss_grads(model, xa, ya, wrt="inputs")
    l1 = {k: float(np.abs(tape.grads[tape.sites[k]]).reshape(len(xa), -1)
                   .sum(axis=1).mean()) for k in model.K}
    za = forward_logits(model, fgsm(model, xa, ya, eps, clamp))
    zb = forward_logits(model, r_fgsm(model, xa, ya, eps, None, clamp, ev.seed))
    return MetricRecord(
        step=step, epoch=epoch,
        clean_acc=accuracy(model, xs, ys),
        pgd_acc=accuracy(model, x_adv, ys),
        adv_loss=float(per_example_xent(forward_logits(model, x_adv), ys).mean()),
        grad_align=float(align.mean()), l1_grad_norms=l1,
        logits_l2=float(np.linalg.norm(za - zb, axis=1).mean()), lr=lr)


def _toy_case():
    ds = gen_toy(ToySpec(n_per_class=300, seed=4))
    # 600 examples: clean accuracy takes two batches of 512
    return build_toy_mlp(16, "softplus", seed=4), ds.xs, ds.ys, None, 0.1


def _cnn_case():
    rng = np.random.default_rng(5)
    xs = rng.uniform(0.0, 1.0, size=(12, 1, 8, 8))
    ys = rng.integers(0, 3, size=12)
    return build_small_cnn((1, 8, 8), 3, seed=5), xs, ys, (0.0, 1.0), 0.2


@pytest.mark.parametrize("case", [_toy_case, _cnn_case])
def test_checkpoint_record_equals_separate_probes(case):
    m, xs, ys, clamp, eps = case()
    spec = TrainSpec(epsilon=eps)
    for ev in (EvalSettings(attack_steps=3, align_n=8, seed=11),
               EvalSettings(epsilon=eps / 2, attack_steps=2, attack_restarts=2,
                            alpha=eps / 4, align_n=5, seed=12)):
        got = evaluate_checkpoint(m, xs, ys, spec, ev, 3, 0.5, 0.01, clamp)
        want = _separate_probes_record(m, xs, ys, spec, ev, 3, 0.5, 0.01, clamp)
        assert got == want


def test_slat_perturbed_loss_dominates_clean_on_frozen_linear():
    rng = np.random.default_rng(4)
    m = build_linear(2, 2, seed=8)
    x = rng.normal(size=(32, 2))
    y = rng.integers(0, 2, size=32)
    from slatlab.attacks import latent_deltas
    deltas = latent_deltas(m, x, y, eta={0: 0.2})
    clean = per_example_xent(forward_logits(m, x), y).mean()
    pert = per_example_xent(forward_logits(m, x + deltas[0]), y).mean()
    assert pert >= clean


def test_fast_ga_linear_model_has_no_penalty():
    rng = np.random.default_rng(5)
    m = build_linear(3, 2, seed=9)
    x = rng.normal(size=(8, 3))
    y = rng.integers(0, 2, size=8)
    spec = TrainSpec(method="slat_fast_ga", epsilon=0.05, lambda_ga=10.0)
    total, tape = fast_ga_loss(m, x, y, spec)
    x_adv = x + 0.05 * np.sign(
        __import__("slatlab.attacks", fromlist=["input_grad"]).input_grad(m, x, y))
    assert float(total.value) == pytest.approx(
        per_example_xent(forward_logits(m, x_adv), y).mean(), abs=1e-9)


def test_fast_ga_lambda_zero_matches_slat_loss():
    x, y = toy_batch(seed=6)
    m = build_toy_mlp(8, "softplus", seed=10)
    spec = TrainSpec(method="slat_fast_ga", epsilon=0.1, lambda_ga=0.0)
    total, _ = fast_ga_loss(m, x, y, spec)
    m2 = m.copy()
    spec2 = TrainSpec(method="slat", epsilon=0.1)
    s2 = init_optimizer(m2)
    loss = slat_step(m2, x, y, spec2, s2, lr=0.0)
    assert float(total.value) == pytest.approx(loss, abs=1e-12)


ZERO_CLEAN_ROWS = {20.0: 0, 25.0: 0, 30.0: 0, 50.0: 1, 60.0: 3}


@pytest.mark.parametrize("scale", sorted(ZERO_CLEAN_ROWS))
def test_fast_ga_gradients_finite_for_tiny_gradient_norms(scale):
    # Saturated output weights shrink the input-gradient norms of confident
    # examples (to ~1e-90 at 25); the cosine's denominator, the product of two
    # such norms, underflows to 0 when squared, so the div VJP must not square
    # it. From 50 some clean gradient norms are 0 themselves: those rows take
    # metrics._row_cosines' zero-norm convention as constants.
    ds = gen_toy(ToySpec(n_per_class=8, seed=0))
    m = build_toy_mlp(8, "softplus", seed=0)
    w, s = m.layers[2].arrays["w"], np.sign(m.layers[0].arrays["w"][0])
    w[:, 0], w[:, 1] = -scale * s, scale * s
    spec = TrainSpec(method="slat_fast_ga", epsilon=0.1)
    x_in, deltas, g_clean = training_mod._slat_inputs(m, ds.xs, ds.ys, spec, None)
    assert (np.linalg.norm(g_clean, axis=1) == 0).sum() == ZERO_CLEAN_ROWS[scale]
    adv_loss, adv = loss_grads(m, x_in, ds.ys, deltas, reduction="mean")
    cosines = _row_cosines(g_clean, adv.grads[adv.input.idx])
    total, tape = fast_ga_loss(m, ds.xs, ds.ys, spec)
    assert float(total.value) == pytest.approx(
        float(adv_loss.value) + spec.lambda_ga * (1 - cosines.mean()), rel=1e-12)
    backward(tape, total)
    for node in tape.params.values():
        assert np.all(np.isfinite(tape.grads[node.idx]))


def test_fast_ga_rejects_relu_models():
    m = build_toy_mlp(8, "relu", seed=11)
    x, y = toy_batch(seed=7)
    spec = TrainSpec(method="slat_fast_ga", epsilon=0.1)
    with pytest.raises(UnsupportedOps):
        fast_ga_loss(m, x, y, spec)


def test_fast_ga_step_trains():
    ds = gen_toy(ToySpec(n_per_class=64, seed=8))
    m = build_toy_mlp(8, "softplus", seed=12)
    spec = TrainSpec(method="slat_fast_ga", epsilon=0.1, lambda_ga=0.5,
                     epochs=3, batch=32, lr_max=0.2, weight_decay=0.0)
    model, records = train(m, ds, spec, eval_settings=TINY_EVAL)
    assert records[-1].clean_acc > records[0].clean_acc


def test_train_emits_untrained_record_and_final_record():
    ds = gen_toy(ToySpec(n_per_class=32, seed=9))
    m = build_toy_mlp(4, seed=13)
    spec = TrainSpec(method="standard", epochs=2, batch=16, lr_max=0.1,
                     checkpoint_every=2)
    _, records = train(m, ds, spec, eval_settings=TINY_EVAL)
    steps = [r.step for r in records]
    assert steps[0] == 0
    assert steps[-1] == 8        # 2 epochs * 4 steps
    assert steps == sorted(steps)


def test_train_deterministic_metrics_bytes(tmp_path):
    ds = gen_toy(ToySpec(n_per_class=32, seed=10))
    outs = []
    for run_i in range(2):
        m = build_toy_mlp(8, seed=14)
        spec = TrainSpec(method="slat", epochs=2, batch=16, epsilon=0.1,
                         lr_max=0.1, seed=42, checkpoint_every=3)
        _, records = train(m, ds, spec, eval_settings=TINY_EVAL)
        path = tmp_path / f"m{run_i}.csv"
        write_metrics_csv(records, path)
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_aborts_and_flushes_on_nonfinite(tmp_path):
    ds = gen_toy(ToySpec(n_per_class=32, seed=11))
    m = build_toy_mlp(4, seed=15)
    m.layers[0].arrays["w"][:] *= 1e200    # forward overflows immediately
    spec = TrainSpec(method="standard", epochs=1, batch=16, lr_max=0.1,
                     checkpoint_every=1)
    seen = []
    with pytest.raises(NonFiniteGradient):
        train(m, ds, spec, sinks=(seen.append,), eval_settings=TINY_EVAL)
    assert len(seen) >= 1     # the step-0 record got out before the abort


def test_methods_coincide_at_zero_epsilon():
    ds = gen_toy(ToySpec(n_per_class=32, seed=12))
    finals = {}
    for method in ("standard", "fgsm_at", "fgsm_rs", "pgd_at", "slat"):
        m = build_toy_mlp(8, seed=16)
        spec = TrainSpec(method=method, epochs=1, batch=16, epsilon=0.0,
                         eta={0: 0.0, 1: 0.0} if method == "slat" else None,
                         lr_max=0.1, seed=3, checkpoint_every=10 ** 6)
        model, _ = train(m, ds, spec, eval_settings=TINY_EVAL)
        finals[method] = np.concatenate(
            [p.ravel() for p in model.parameters().values()])
    base = finals["standard"]
    for method, flat in finals.items():
        assert np.abs(flat - base).max() <= 1e-12, method
