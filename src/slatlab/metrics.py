"""Quantitative lenses on trained models: local linearity, feature-gradient
norms, robustness, loss landscapes, gradient-masking probes, collapse
detection, and the toy decision-boundary orientation estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attacks import _clamp, _r_fgsm_point, input_grad, latent_deltas, run_attack
from .autodiff import backward, per_example_xent
from .data import rademacher
from .models import forward_logits, forward_with_latents, loss_grads, site_steps


class DegenerateBoundary(Exception):
    pass


@dataclass
class MetricRecord:
    step: int
    epoch: float
    clean_acc: float
    pgd_acc: float
    adv_loss: float
    grad_align: float
    l1_grad_norms: dict = field(default_factory=dict)   # site id -> float
    logits_l2: float = 0.0
    lr: float = 0.0


@dataclass
class LandscapeGrid:
    values: np.ndarray      # [n, n]; rows follow the adversarial axis
    coeffs: np.ndarray      # the coefficients of both axes


def _n_correct(z, y):
    """Strict-argmax count: a tie on the top logit counts as incorrect."""
    rows = np.arange(len(y))
    zy = z[rows, y]
    z = z.copy()
    z[rows, y] = -np.inf
    return int((zy > z.max(axis=1)).sum())


def accuracy(model, xs, ys):
    """Strict-argmax accuracy: a tie on the top logit counts as incorrect."""
    return _n_correct(forward_logits(model, xs), ys) / len(xs)


def robust_accuracy(model, dataset, attack_spec):
    """Accuracy against the worst adversary over the attack's restarts."""
    return accuracy(model, run_attack(model, dataset.xs, dataset.ys, attack_spec),
                    dataset.ys)


def _row_cosines(g1, g2):
    a = g1.reshape(len(g1), -1)
    b = g2.reshape(len(g2), -1)
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    out = np.empty(len(a))
    both_zero = (na == 0) & (nb == 0)
    one_zero = ((na == 0) | (nb == 0)) & ~both_zero
    ok = ~(both_zero | one_zero)
    out[both_zero] = 1.0
    out[one_zero] = 0.0
    out[ok] = (a[ok] * b[ok]).sum(axis=1) / (na[ok] * nb[ok])
    return out


def linearity_probes(model, x, y, epsilon, seed=0, clamp=None):
    """The local-linearity probes at clean inputs, keyed like MetricRecord:

    - grad_align: mean cosine between the input gradients at x and at a
      random neighbour in the epsilon ball (GradAlign);
    - l1_grad_norms: per-site mean l1 norm of the latent gradients;
    - logits_l2: mean l2 distance between the logits of the FGSM and R+FGSM
      adversaries.

    One clean sweep gives the first gradient, the FGSM point and every site
    gradient. The random neighbour is R+FGSM's start, so its sweep gives the
    second gradient and the R+FGSM point.
    """
    x = np.asarray(x, dtype=np.float64)
    _, tape = loss_grads(model, x, y, wrt="inputs")
    g = tape.grads[tape.input.idx]
    l1 = {}
    for k in model.K:
        gk = tape.grads[tape.sites[k]]
        l1[k] = float(np.abs(gk).reshape(len(gk), -1).sum(axis=1).mean())
    del tape    # the later sweeps need none of its intermediates
    gamma = epsilon * np.random.default_rng(seed).uniform(-1.0, 1.0, size=x.shape)
    g_near = input_grad(model, x + gamma, y)
    za = forward_logits(model, _clamp(x + epsilon * np.sign(g), clamp))
    zb = forward_logits(model, _r_fgsm_point(x, gamma, g_near, epsilon, clamp=clamp))
    return {"grad_align": float(_row_cosines(g, g_near).mean()),
            "l1_grad_norms": l1,
            "logits_l2": float(np.linalg.norm(za - zb, axis=1).mean())}


def linear_approx_error(model, x, y, site, eps_vec):
    """|L(h+eps) - L(h) - <grad_h L, eps>| via two forwards and one backward."""
    eps_vec = np.asarray(eps_vec, dtype=np.float64)
    # the injected forward comes first: it raises UnknownSite for a bad site
    logits_p, _, _ = forward_with_latents(model, x, {site: eps_vec})
    loss_p = per_example_xent(logits_p.value, y).sum()
    loss, tape = loss_grads(model, x, y, wrt="inputs")
    g = tape.grads[tape.sites[site]]
    return float(abs(loss_p - loss.value - (g * eps_vec).sum()))


def accumulated_linearization_error(model, x, y, eta):
    """Per-example gap between injected logits and the first-order prediction.

    The linear term sums J_k(x) delta_k across the sites in eta, with each
    Jacobian row realized exactly by one backward sweep seeded at a logit.
    """
    x = np.asarray(x, dtype=np.float64)
    deltas = latent_deltas(model, x, y, site_steps(eta, model.K))

    logits, _, tape = forward_with_latents(model, x)
    jd = np.zeros_like(logits.value)
    for c in range(jd.shape[1]):
        e = np.zeros_like(logits.value)
        e[:, c] = 1.0
        backward(tape, logits, grad=e)
        for k, d in deltas.items():
            jd[:, c] += (tape.grads[tape.sites[k]] * d).reshape(len(x), -1).sum(axis=1)

    logits_inj, _, _ = forward_with_latents(model, x, deltas)
    gap = logits_inj.value - (logits.value + jd)
    return np.linalg.norm(gap.reshape(len(x), -1), axis=1)


def loss_landscape(model, x, y, epsilon, n=21, seed=0):
    """Mean loss over x + a*sign(grad) + b*rademacher for a,b in [0, eps]."""
    if n < 2:
        raise ValueError("n must be >= 2")
    x = np.asarray(x, dtype=np.float64)
    d = np.sign(input_grad(model, x, y))
    r = rademacher(x.shape, seed)
    coeffs = np.linspace(0.0, epsilon, n)
    values = np.empty((n, n))
    for i, a in enumerate(coeffs):
        for j, b in enumerate(coeffs):
            xp = x if (i == 0 and j == 0) else x + a * d + b * r
            values[i, j] = per_example_xent(forward_logits(model, xp), y).mean()
    return LandscapeGrid(values, coeffs)


def save_landscape_csv(grid, path):
    with open(path, "w") as fh:
        fh.write("a\\b," + ",".join(repr(float(b)) for b in grid.coeffs) + "\n")
        for a, row in zip(grid.coeffs, grid.values):
            fh.write(repr(float(a)) + "," +
                     ",".join(repr(float(v)) for v in row) + "\n")


def slice_linear_residual(grid):
    """Relative residual of a line fit along the adversarial-direction slice.

    RMS residual of the least-squares line over the b=0 slice, normalized by
    the slice's value range; near zero when the loss is locally linear along
    the adversarial direction.
    """
    s = grid.values[:, 0]
    a = grid.coeffs
    coef = np.polyfit(a, s, 1)
    resid = s - np.polyval(coef, a)
    span = s.max() - s.min()
    return float(np.sqrt((resid ** 2).mean()) / max(span, 1e-12))


CO_DROP, CO_CLEAN_TOL = 0.3, 0.05


def detect_catastrophic_overfitting(records, window):
    """Earliest step where robust accuracy falls by > CO_DROP within `window`
    steps while clean accuracy falls by <= CO_CLEAN_TOL; None when no such
    collapse exists."""
    recs = sorted(records, key=lambda r: r.step)
    for j in range(len(recs)):
        for i in range(j):
            if recs[j].step - recs[i].step > window:
                continue
            if (recs[i].pgd_acc - recs[j].pgd_acc > CO_DROP
                    and recs[i].clean_acc - recs[j].clean_acc <= CO_CLEAN_TOL):
                return recs[j].step
    return None


PROBE_N, RATIO_CAP = 401, 1e6     # probe grid points per axis; the ratio's cap


def probe_limits(mu, sigma):
    """(xlim, ylim) of the toy probe box: +-3 sqrt(mu^2 + sigma^2) per axis."""
    lim = 3.0 * np.sqrt(np.asarray(mu) ** 2 + np.asarray(sigma) ** 2)
    return (-lim[0], lim[0]), (-lim[1], lim[1])


def boundary_nonrobust_ratio(model, xlim, ylim):
    """Reliance of a 2-d binary classifier on the y (non-robust) feature.

    Probes logit-difference zero crossings on a PROBE_N x PROBE_N grid over
    the box xlim x ylim, fits the crossing cloud with total least squares,
    and returns |normal_y/normal_x| of the fitted boundary, capped at
    RATIO_CAP.
    """
    gx = np.linspace(xlim[0], xlim[1], PROBE_N)
    gy = np.linspace(ylim[0], ylim[1], PROBE_N)
    pts = np.stack(np.meshgrid(gx, gy, indexing="ij"), axis=-1).reshape(-1, 2)
    # z1 - z0, [x idx, y idx]
    m = np.diff(forward_logits(model, pts)).reshape(PROBE_N, PROBE_N)
    if not np.all(np.isfinite(m)):
        raise DegenerateBoundary("non-finite logit difference on probe grid")

    # the crossings in scan order: vertical scans (fixed x, vary y) by (i, j),
    # horizontal scans (fixed y, vary x) by (j, i), then exact zeros
    sgn = np.sign(m)
    i, j = np.nonzero(sgn[:, :-1] * sgn[:, 1:] < 0)
    t = m[i, j] / (m[i, j] - m[i, j + 1])
    vert = np.stack([gx[i], gy[j] + t * (gy[j + 1] - gy[j])], axis=1)
    j, i = np.nonzero((sgn[:-1] * sgn[1:] < 0).T)
    t = m[i, j] / (m[i, j] - m[i + 1, j])
    horiz = np.stack([gx[i] + t * (gx[i + 1] - gx[i]), gy[j]], axis=1)
    i, j = np.nonzero(m == 0.0)
    pts = np.concatenate([vert, horiz, np.stack([gx[i], gy[j]], axis=1)])
    if not len(pts):
        raise DegenerateBoundary("no logit-difference sign change on probe grid")

    pts = pts - pts.mean(axis=0)
    _, _, vt = np.linalg.svd(pts, full_matrices=False)
    dx, dy = vt[0]              # dominant boundary direction
    if abs(dy) * RATIO_CAP <= abs(dx):
        return RATIO_CAP
    return float(abs(dx) / abs(dy))


CSV_FIXED_LEAD = ["step", "epoch", "clean_acc", "pgd_acc", "adv_loss", "grad_align"]
CSV_FIXED_TAIL = ["logits_l2", "lr"]


def metrics_csv_header(site_ids):
    return ",".join(CSV_FIXED_LEAD + [f"l1_grad_k{k}" for k in sorted(site_ids)]
                    + CSV_FIXED_TAIL)


def format_record(rec):
    cols = [str(rec.step), repr(float(rec.epoch)), repr(float(rec.clean_acc)),
            repr(float(rec.pgd_acc)), repr(float(rec.adv_loss)),
            repr(float(rec.grad_align))]
    cols += [repr(float(rec.l1_grad_norms[k])) for k in sorted(rec.l1_grad_norms)]
    cols += [repr(float(rec.logits_l2)), repr(float(rec.lr))]
    return ",".join(cols)


class MetricCsvWriter:
    """Streaming sink: header on first record, one flushed line per record."""

    def __init__(self, path):
        self.path = path
        self._fh = None

    def __call__(self, rec):
        if self._fh is None:
            self._fh = open(self.path, "w")
            self._fh.write(metrics_csv_header(rec.l1_grad_norms.keys()) + "\n")
        self._fh.write(format_record(rec) + "\n")
        self._fh.flush()

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def write_metrics_csv(records, path):
    w = MetricCsvWriter(path)
    for rec in records:
        w(rec)
    w.close()


class BadMetricsCsv(Exception):
    """A metrics.csv whose header lacks a column, or whose row has another
    cell count than the header, a cell that is not a number, or, past step 0,
    an epoch that gives no steps per epoch (step / epoch) >= 1."""


def read_metrics_csv(path):
    lineno = 1
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            site_ids = [int(c[len("l1_grad_k"):]) for c in header
                        if c.startswith("l1_grad_k")]
            out = []
            for lineno, line in enumerate(fh, start=2):
                parts = line.strip().split(",")
                if len(parts) != len(header):
                    raise BadMetricsCsv(f"{path}, line {lineno}: {len(parts)} "
                                        f"cells, the header has {len(header)}")
                vals = dict(zip(header, parts))
                rec = MetricRecord(
                    step=int(vals["step"]),
                    l1_grad_norms={k: float(vals[f"l1_grad_k{k}"]) for k in site_ids},
                    **{c: float(vals[c]) for c in CSV_FIXED_LEAD[1:] + CSV_FIXED_TAIL})
                if rec.step > 0 and not (rec.epoch > 0
                                         and 1 <= rec.step / rec.epoch < np.inf):
                    raise BadMetricsCsv(f"{path}, line {lineno}: epoch {rec.epoch!r} at "
                                        f"step {rec.step} gives no steps_per_epoch >= 1")
                out.append(rec)
    except KeyError as exc:
        raise BadMetricsCsv(f"{path}: no {exc} column") from None
    except ValueError as exc:
        raise BadMetricsCsv(f"{path}, line {lineno}: {exc}") from None
    return out
