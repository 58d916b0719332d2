"""Quantitative lenses on trained models: local linearity, feature-gradient
norms, robustness, loss landscapes, gradient-masking probes, collapse
detection, and the toy decision-boundary orientation estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attacks import _clamp, input_grad, latent_deltas, r_fgsm, run_attack
from .autodiff import backward, per_example_xent
from .data import DEFAULT_TOY_MU, DEFAULT_TOY_SIGMA, rademacher
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
    a_values: np.ndarray    # adversarial-direction coefficients
    b_values: np.ndarray    # Rademacher-direction coefficients


def _n_correct(z, y):
    """Strict-argmax count: a tie on the top logit counts as incorrect."""
    rows = np.arange(len(y))
    zy = z[rows, y]
    z = z.copy()
    z[rows, y] = -np.inf
    return int((zy > z.max(axis=1)).sum())


def accuracy(model, xs, ys, batch=512):
    """Strict-argmax accuracy: a tie on the top logit counts as incorrect."""
    correct = sum(_n_correct(forward_logits(model, xs[i:i + batch]), ys[i:i + batch])
                  for i in range(0, len(xs), batch))
    return correct / len(xs)


def robust_accuracy(model, dataset, attack_spec, batch=256):
    """Accuracy against the worst adversary over the attack's restarts."""
    correct = 0
    for i in range(0, len(dataset), batch):
        xb, yb = dataset.xs[i:i + batch], dataset.ys[i:i + batch]
        x_adv = run_attack(model, xb, yb, attack_spec)
        correct += _n_correct(forward_logits(model, x_adv), yb)
    return correct / len(dataset)


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
    gradient.
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
    zb = forward_logits(model, r_fgsm(model, x, y, epsilon, clamp=clamp, seed=seed))
    return {"grad_align": float(_row_cosines(g, g_near).mean()),
            "l1_grad_norms": l1,
            "logits_l2": float(np.linalg.norm(za - zb, axis=1).mean())}


def linear_approx_error(model, x, y, site, eps_vec):
    """|L(h+eps) - L(h) - <grad_h L, eps>| via two forwards and one backward."""
    loss, tape = loss_grads(model, x, y, wrt="inputs")
    g = tape.grads[tape.sites[site]]
    eps_vec = np.asarray(eps_vec, dtype=np.float64)
    logits_p, _, _ = forward_with_latents(model, x, {site: eps_vec})
    loss_p = per_example_xent(logits_p.value, y).sum()
    return float(abs(loss_p - loss.value - (g * eps_vec).sum()))


def accumulated_linearization_error(model, x, y, eta):
    """Per-example gap between injected logits and the first-order prediction.

    The linear term sums J_k(x) delta_k across sites, with each Jacobian
    realized exactly by one backward sweep per logit component.
    """
    x = np.asarray(x, dtype=np.float64)
    deltas = latent_deltas(model, x, y, site_steps(eta, model.K))

    logits, _, tape = forward_with_latents(model, x)
    n_classes = logits.value.shape[1]
    jd = np.zeros_like(logits.value)
    for c in range(n_classes):
        e_c = np.zeros((n_classes, 1))
        e_c[c, 0] = 1.0
        col = tape.record("dense", [logits, e_c, np.zeros(1)])
        backward(tape, tape.record("sum_all", [col]))
        for k in model.K:
            g = tape.grads[tape.sites[k]]
            jd[:, c] += (g * deltas[k]).reshape(len(x), -1).sum(axis=1)

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
    return LandscapeGrid(values, coeffs.copy(), coeffs.copy())


def save_landscape_csv(grid, path):
    with open(path, "w") as fh:
        fh.write("a\\b," + ",".join(repr(float(b)) for b in grid.b_values) + "\n")
        for a, row in zip(grid.a_values, grid.values):
            fh.write(repr(float(a)) + "," +
                     ",".join(repr(float(v)) for v in row) + "\n")


def slice_linear_residual(grid):
    """Relative residual of a line fit along the adversarial-direction slice.

    RMS residual of the least-squares line over the b=0 slice, normalized by
    the slice's value range; near zero when the loss is locally linear along
    the adversarial direction.
    """
    s = grid.values[:, 0]
    a = grid.a_values
    coef = np.polyfit(a, s, 1)
    resid = s - np.polyval(coef, a)
    span = s.max() - s.min()
    return float(np.sqrt((resid ** 2).mean()) / max(span, 1e-12))


def detect_catastrophic_overfitting(records, window, drop=0.3, clean_tol=0.05):
    """Earliest step where robust accuracy falls by > `drop` within `window`
    steps while clean accuracy stays put; None when no such collapse exists."""
    recs = sorted(records, key=lambda r: r.step)
    for j in range(len(recs)):
        for i in range(j):
            if recs[j].step - recs[i].step > window:
                continue
            if (recs[i].pgd_acc - recs[j].pgd_acc > drop
                    and recs[i].clean_acc - recs[j].clean_acc <= clean_tol):
                return recs[j].step
    return None


def _default_probe_limits():
    mu = np.asarray(DEFAULT_TOY_MU)
    sig = np.asarray(DEFAULT_TOY_SIGMA)
    lim = 3.0 * np.sqrt(mu ** 2 + sig ** 2)
    return (-lim[0], lim[0]), (-lim[1], lim[1])


def boundary_nonrobust_ratio(model, xlim=None, ylim=None, n=401, cap=1e6):
    """Reliance of a 2-d binary classifier on the y (non-robust) feature.

    Probes logit-difference zero crossings on an n x n grid, fits the
    crossing cloud with total least squares, and returns |normal_y/normal_x|
    of the fitted boundary, capped at `cap`.
    """
    if xlim is None or ylim is None:
        dx, dy = _default_probe_limits()
        xlim = xlim or dx
        ylim = ylim or dy
    gx = np.linspace(xlim[0], xlim[1], n)
    gy = np.linspace(ylim[0], ylim[1], n)
    pts = np.stack(np.meshgrid(gx, gy, indexing="ij"), axis=-1).reshape(-1, 2)
    margin = np.empty(len(pts))
    for i in range(0, len(pts), 8192):
        z = forward_logits(model, pts[i:i + 8192])
        margin[i:i + 8192] = z[:, 1] - z[:, 0]
    m = margin.reshape(n, n)   # [x index, y index]
    if not np.all(np.isfinite(m)):
        raise DegenerateBoundary("non-finite logit difference on probe grid")

    crossings = []
    sgn = np.sign(m)
    for i in range(n):          # vertical scans: fixed x, vary y
        flips = np.nonzero((sgn[i, :-1] * sgn[i, 1:]) < 0)[0]
        for j in flips:
            t = m[i, j] / (m[i, j] - m[i, j + 1])
            crossings.append((gx[i], gy[j] + t * (gy[j + 1] - gy[j])))
    for j in range(n):          # horizontal scans: fixed y, vary x
        flips = np.nonzero((sgn[:-1, j] * sgn[1:, j]) < 0)[0]
        for i in flips:
            t = m[i, j] / (m[i, j] - m[i + 1, j])
            crossings.append((gx[i] + t * (gx[i + 1] - gx[i]), gy[j]))
    exact = np.argwhere(m == 0.0)
    for i, j in exact:
        crossings.append((gx[i], gy[j]))
    if not crossings:
        raise DegenerateBoundary("no logit-difference sign change on probe grid")

    pts = np.asarray(crossings)
    pts = pts - pts.mean(axis=0)
    _, _, vt = np.linalg.svd(pts, full_matrices=False)
    dx, dy = vt[0]              # dominant boundary direction
    if abs(dy) * cap <= abs(dx):
        return float(cap)
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
    cell count than the header or a cell that is not a number."""


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
                out.append(MetricRecord(
                    step=int(vals["step"]),
                    l1_grad_norms={k: float(vals[f"l1_grad_k{k}"]) for k in site_ids},
                    **{c: float(vals[c]) for c in CSV_FIXED_LEAD[1:] + CSV_FIXED_TAIL}))
    except KeyError as exc:
        raise BadMetricsCsv(f"{path}: no {exc} column") from None
    except ValueError as exc:
        raise BadMetricsCsv(f"{path}, line {lineno}: {exc}") from None
    return out
