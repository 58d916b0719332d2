import itertools

import numpy as np
import pytest

from slatlab.attacks import AttackSpec, latent_deltas
from slatlab.autodiff import UnknownSite, per_example_xent
from slatlab.data import (DEFAULT_TOY_MU, DEFAULT_TOY_SIGMA, LabeledDataset,
                          ToySpec, gen_toy)
from slatlab.metrics import (DegenerateBoundary, LandscapeGrid, MetricRecord,
                             accuracy, accumulated_linearization_error,
                             boundary_nonrobust_ratio,
                             detect_catastrophic_overfitting,
                             linear_approx_error, linearity_probes,
                             loss_landscape, probe_limits, read_metrics_csv,
                             robust_accuracy, save_landscape_csv,
                             slice_linear_residual, write_metrics_csv)
from slatlab.models import (Layer, Model, build_linear, build_small_cnn,
                            build_toy_mlp, forward_logits)


def linear_margin_model(wx, wy):
    """2-d binary model with logit difference wx*x + wy*y."""
    w = np.array([[0.0, wx], [0.0, wy]])
    return Model([Layer("dense", w=w, b=np.zeros(2))], sites={0: 0},
                 input_shape=(2,), n_classes=2)


def test_accuracy_counts_ties_as_wrong():
    m = linear_margin_model(0.0, 0.0)   # all logits identical
    xs = np.random.default_rng(0).normal(size=(10, 2))
    assert accuracy(m, xs, np.zeros(10, dtype=int)) == 0.0


def test_grad_alignment_linear_is_one():
    m = build_linear(4, 2, seed=0)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(16, 4))
    y = rng.integers(0, 2, size=16)
    assert linearity_probes(m, x, y, epsilon=0.3, seed=2)["grad_align"] == \
        pytest.approx(1.0, abs=1e-9)


def test_grad_alignment_zero_radius_is_one():
    m = build_toy_mlp(8, seed=1)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(8, 2))
    y = rng.integers(0, 2, size=8)
    assert linearity_probes(m, x, y, epsilon=0.0, seed=0)["grad_align"] == \
        pytest.approx(1.0, abs=1e-12)


def test_grad_alignment_bounded():
    m = build_toy_mlp(16, "softplus", seed=3)
    rng = np.random.default_rng(3)
    for seed in range(5):
        x = rng.normal(size=(12, 2))
        y = rng.integers(0, 2, size=12)
        c = linearity_probes(m, x, y, epsilon=0.5, seed=seed)["grad_align"]
        assert -1.0 <= c <= 1.0


def test_feature_grad_l1_zero_output_layer():
    m = build_toy_mlp(8, seed=4)
    m.layers[-1].arrays["w"][:] = 0.0
    m.layers[-1].arrays["b"][:] = 0.0
    x = np.random.default_rng(4).normal(size=(6, 2))
    norms = linearity_probes(m, x, np.zeros(6, dtype=int), 0.1)["l1_grad_norms"]
    assert all(v == 0.0 for v in norms.values())


def test_feature_grad_l1_matches_sign_dot():
    from slatlab.autodiff import backward
    from slatlab.models import forward_with_latents
    m = build_toy_mlp(8, "softplus", seed=5)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 2))
    y = rng.integers(0, 2, size=4)
    norms = linearity_probes(m, x, y, 0.1)["l1_grad_norms"]
    logits, _, tape = forward_with_latents(m, x)
    loss = tape.record("loss_softmax_xent", [logits], labels=y, reduction="sum")
    backward(tape, loss)
    for k, v in norms.items():
        g = tape.grads[tape.sites[k]]
        per_ex = (np.sign(g) * g).reshape(len(x), -1).sum(axis=1)
        assert v == pytest.approx(per_ex.mean(), abs=1e-12)


def test_linear_approx_error_on_linear_model():
    # the logits are exactly linear, so the remainder reduces to the loss's
    # own curvature: zero at eps=0, quadratic in the perturbation size
    m = build_linear(3, 2, seed=6)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(1, 3))
    y = np.array([1])
    eps = 0.05 * rng.normal(size=(1, 3))
    assert linear_approx_error(m, x, y, 0, np.zeros((1, 3))) == 0.0
    r1 = linear_approx_error(m, x, y, 0, eps)
    r2 = linear_approx_error(m, x, y, 0, eps / 2)
    assert r1 / r2 == pytest.approx(4.0, rel=0.15)


def test_accumulated_linearization_exact_for_linear_model():
    m = build_linear(3, 2, seed=6)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, 3))
    y = rng.integers(0, 2, size=4)
    errs = accumulated_linearization_error(m, x, y, eta=0.5)
    assert errs.max() <= 1e-12


def test_linear_approx_error_quadratic_scaling():
    m = build_toy_mlp(16, "softplus", seed=7)
    rng = np.random.default_rng(7)
    ratios = []
    for _ in range(20):
        x = rng.normal(size=(1, 2))
        y = np.array([rng.integers(0, 2)])
        u = rng.normal(size=(1, 2))
        u /= np.abs(u).max()
        r1 = linear_approx_error(m, x, y, 0, 0.02 * u)
        r2 = linear_approx_error(m, x, y, 0, 0.01 * u)
        if r2 > 1e-11:
            ratios.append(r1 / r2)
    assert 3.5 <= np.median(ratios) <= 4.5


def test_accumulated_linearization_error_prop1_scaling():
    m = build_toy_mlp(16, "softplus", seed=8)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(24, 2))
    y = rng.integers(0, 2, size=24)
    e1 = accumulated_linearization_error(m, x, y, eta=0.02)
    e2 = accumulated_linearization_error(m, x, y, eta=0.01)
    keep = e2 > 1e-11
    ratios = e1[keep] / e2[keep]
    assert 3.5 <= np.median(ratios) <= 4.5


def test_accumulated_linearization_error_takes_any_set_of_sites():
    m = build_toy_mlp(8, "softplus", seed=8)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(6, 2))
    y = rng.integers(0, 2, size=6)
    assert np.array_equal(accumulated_linearization_error(m, x, y, eta={0: 0.02}),
                          accumulated_linearization_error(m, x, y,
                                                          eta={0: 0.02, 1: 0.0}))
    errs = accumulated_linearization_error(m, x, y, eta={1: 0.02})
    assert errs.shape == (6,) and np.isfinite(errs).all()


def test_linear_approx_error_rejects_an_unknown_site():
    m = build_toy_mlp(8, "softplus", seed=8)
    with pytest.raises(UnknownSite):
        linear_approx_error(m, np.zeros((1, 2)), np.array([0]), 5, np.zeros((1, 2)))


def test_loss_landscape_needs_two_coefficients():
    with pytest.raises(ValueError, match="n must be >= 2"):
        loss_landscape(build_toy_mlp(4), np.zeros((2, 2)), np.array([0, 1]),
                       epsilon=0.1, n=1)


def test_loss_landscape_origin_bit_exact():
    m = build_toy_mlp(8, seed=9)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(6, 2))
    y = rng.integers(0, 2, size=6)
    grid = loss_landscape(m, x, y, epsilon=0.1, n=5, seed=0)
    assert grid.values[0, 0] == per_example_xent(forward_logits(m, x), y).mean()
    assert grid.values.shape == (5, 5)
    assert grid.coeffs[0] == 0.0 and grid.coeffs[-1] == pytest.approx(0.1)


def test_loss_landscape_monotone_along_adversarial_axis_for_linear():
    m = build_linear(2, 2, seed=10)
    rng = np.random.default_rng(10)
    x = rng.normal(size=(4, 2))
    y = rng.integers(0, 2, size=4)
    grid = loss_landscape(m, x, y, epsilon=0.3, n=9, seed=1)
    along_a = grid.values[:, 0]
    assert np.all(np.diff(along_a) >= -1e-12)


def test_slice_linear_residual_flags_linearity():
    a = np.linspace(0, 1, 11)
    flat = LandscapeGrid(np.tile(2 * a[:, None] + 1, (1, 11)), a)
    assert slice_linear_residual(flat) <= 1e-12
    bumpy = LandscapeGrid(np.tile(np.sin(6 * a)[:, None], (1, 11)), a)
    assert slice_linear_residual(bumpy) > 0.2


def test_logits_l2_distance_zero_eps():
    m = build_toy_mlp(8, seed=11)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(5, 2))
    y = rng.integers(0, 2, size=5)
    assert linearity_probes(m, x, y, epsilon=0.0, seed=0)["logits_l2"] == \
        pytest.approx(0.0, abs=1e-9)


def test_logits_l2_distance_linear_direct():
    from slatlab.attacks import fgsm, r_fgsm
    m = build_linear(3, 2, seed=12)
    rng = np.random.default_rng(12)
    x = rng.normal(size=(6, 3))
    y = rng.integers(0, 2, size=6)
    eps = 0.2
    got = linearity_probes(m, x, y, eps, seed=3)["logits_l2"]
    w = m.layers[0].arrays["w"]
    da = fgsm(m, x, y, eps) - x
    db = r_fgsm(m, x, y, eps, 1.25 * eps, seed=3) - x
    want = np.linalg.norm((da - db) @ w, axis=1).mean()
    assert got == pytest.approx(want, rel=1e-12)


def _rec(step, pgd, clean):
    return MetricRecord(step=step, epoch=0.0, clean_acc=clean, pgd_acc=pgd,
                        adv_loss=0.0, grad_align=0.0, l1_grad_norms={0: 0.0},
                        logits_l2=0.0, lr=0.0)


def test_detect_co_none_on_flat_stream():
    recs = [_rec(s, 0.45, 0.9) for s in range(0, 500, 50)]
    assert detect_catastrophic_overfitting(recs, window=100) is None


def test_detect_co_finds_drop_step():
    recs = [_rec(0, 0.40, 0.90), _rec(50, 0.45, 0.91),
            _rec(100, 0.02, 0.92), _rec(150, 0.01, 0.93)]
    assert detect_catastrophic_overfitting(recs, window=60) == 100


def test_detect_co_ignores_joint_collapse():
    # clean accuracy falling with robustness is divergence, not overfitting
    recs = [_rec(0, 0.40, 0.90), _rec(50, 0.02, 0.30)]
    assert detect_catastrophic_overfitting(recs, window=60) is None


def test_detect_co_respects_window():
    recs = [_rec(0, 0.40, 0.90), _rec(500, 0.02, 0.90)]
    assert detect_catastrophic_overfitting(recs, window=100) is None


DEFAULT_BOX = probe_limits(DEFAULT_TOY_MU, DEFAULT_TOY_SIGMA)


def test_boundary_ratio_vertical_horizontal_tilted():
    assert boundary_nonrobust_ratio(linear_margin_model(1.0, 0.0), *DEFAULT_BOX) == \
        pytest.approx(0.0, abs=1e-9)
    assert boundary_nonrobust_ratio(linear_margin_model(0.0, 1.0), *DEFAULT_BOX) == 1e6
    got = boundary_nonrobust_ratio(linear_margin_model(1.0, 0.5), *DEFAULT_BOX)
    assert got == pytest.approx(0.5, rel=1e-3)


def test_boundary_ratio_degenerate():
    m = linear_margin_model(0.0, 0.0)
    m.layers[0].arrays["b"][:] = [0.0, 1.0]    # constant positive margin
    with pytest.raises(DegenerateBoundary):
        boundary_nonrobust_ratio(m, *DEFAULT_BOX)


@pytest.mark.parametrize("mu,sigma", [(DEFAULT_TOY_MU, DEFAULT_TOY_SIGMA),
                                      ((0.25, 0.05), (0.15, 0.02))],
                         ids=["default", "a5"])
def test_probe_limits_is_three_sigma_of_the_mixture_per_axis(mu, sigma):
    (x0, x1), (y0, y1) = probe_limits(mu, sigma)
    assert (x0, y0) == (-x1, -y1)
    assert x1 == 3.0 * np.sqrt(mu[0] ** 2 + sigma[0] ** 2)
    assert y1 == 3.0 * np.sqrt(mu[1] ** 2 + sigma[1] ** 2)


def test_boundary_ratio_reads_only_the_box_it_is_given():
    # the boundary 2x + y = 0.25 crosses both boxes, with normal ratio 1/2
    m = linear_margin_model(2.0, 1.0)
    m.layers[0].arrays["b"][:] = [0.25, 0.0]
    for box in (((-1.0, 1.0), (-1.0, 1.0)), ((-4.0, 4.0), (-0.5, 0.5))):
        assert boundary_nonrobust_ratio(m, *box) == pytest.approx(0.5, rel=1e-3)
    # a box the boundary misses has no crossing to fit
    with pytest.raises(DegenerateBoundary):
        boundary_nonrobust_ratio(m, (2.0, 3.0), (2.0, 3.0))


def test_second_order_bound_chain():
    # |<eps, grad>|^2 <= ||eps||_2^2 ||grad||_1^2 at random softplus points
    from slatlab.attacks import input_grad
    m = build_toy_mlp(16, "softplus", seed=13)
    rng = np.random.default_rng(13)
    for _ in range(50):
        x = rng.normal(size=(1, 2))
        y = np.array([rng.integers(0, 2)])
        g = input_grad(m, x, y).ravel()
        eps = 0.1 * rng.normal(size=2)
        lhs = np.dot(eps, g) ** 2
        assert lhs <= (eps @ eps) * np.abs(g).sum() ** 2 + 1e-15


def test_dual_norm_vertex_enumeration():
    rng = np.random.default_rng(14)
    for d in (3, 6):
        g = rng.normal(size=d)
        eta = 0.37
        best = max(abs(np.dot(g, eta * np.asarray(s)))
                   for s in itertools.product((-1.0, 1.0), repeat=d))
        assert abs(best - eta * np.abs(g).sum()) <= 1e-12


def test_robust_accuracy_eps_zero_equals_clean():
    m = build_toy_mlp(8, seed=15)
    ds = gen_toy(ToySpec(n_per_class=60, seed=15))
    spec = AttackSpec("pgd", epsilon=0.0, alpha=1e-9, steps=2, restarts=1, seed=0)
    assert robust_accuracy(m, ds, spec) == accuracy(m, ds.xs, ds.ys)


def test_robust_accuracy_monotone_in_eps_linear():
    m = build_linear(2, 2, seed=16)
    ds = gen_toy(ToySpec(n_per_class=100, seed=16))
    prev = 1.1
    for eps in (0.0, 0.05, 0.1, 0.2):
        spec = AttackSpec("fgsm", epsilon=eps)
        acc = robust_accuracy(m, ds, spec)
        assert acc <= prev + 1e-12
        prev = acc


def test_robust_accuracy_is_an_exact_count_ratio():
    # every input predicts class 1; none right in the first attack slice of
    # 256 and 15 right in the last 22, where (15/22)*22 is not 15 in floats
    m = linear_margin_model(1.0, 0.0)
    xs = np.ones((278, 2))
    ys = np.zeros(278, dtype=np.int64)
    ys[256:271] = 1
    ds = LabeledDataset(xs, ys)
    spec = AttackSpec("pgd", epsilon=0.0, steps=1, seed=0)
    assert robust_accuracy(m, ds, spec) == 15 / 278


def test_metrics_csv_round_trip(tmp_path):
    recs = [MetricRecord(step=s, epoch=s / 7.0, clean_acc=0.5 + 0.01 * s,
                         pgd_acc=0.25, adv_loss=1.234567890123,
                         grad_align=-0.5, l1_grad_norms={0: 0.1 * s, 2: s / 3.0},
                         logits_l2=2.5, lr=0.01)
            for s in range(5)]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(recs, path)
    header = path.read_text().splitlines()[0]
    assert header == ("step,epoch,clean_acc,pgd_acc,adv_loss,grad_align,"
                      "l1_grad_k0,l1_grad_k2,logits_l2,lr")
    back = read_metrics_csv(path)
    assert back == recs
    write_metrics_csv(recs, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_landscape_csv(tmp_path):
    grid = LandscapeGrid(np.arange(9.0).reshape(3, 3), np.linspace(0, 1, 3))
    save_landscape_csv(grid, tmp_path / "ls.csv")
    lines = (tmp_path / "ls.csv").read_text().splitlines()
    assert lines[0].startswith("a\\b,")
    assert len(lines) == 4
