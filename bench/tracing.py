"""In-memory span tracing of slatlab's public functions, from outside `src/`.

`Tracer.install()` replaces every public function of the traced modules with
a recording wrapper at every place a caller can reach it: the defining
module's global, each `from .x import f` copy in another slatlab module, and
module-level dispatch tables such as `training._STEP_FNS`. `Tape.record` is
wrapped on the class. `uninstall()` restores the originals. A binding that
is missed loses its spans silently, so `unwrapped_bindings()` lists any left.
"""

from __future__ import annotations

import functools
import statistics
import time
import types
from dataclasses import dataclass

import numpy as np

MODULES = ("autodiff", "models", "attacks", "training", "metrics", "data",
           "config", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "exc", "info")

    def __init__(self, name, parent):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent      # index into the same span list, -1 for a root
        self.exc = None           # exception type name, if the call raised
        self.info = None          # per-call facts, see Tracer._annotate


class _ReadTracking(dict):
    """Gradient dict that notes which node indices a caller reads."""

    __slots__ = ("read",)

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                and obj.__module__ == mod.__name__):
            yield name, obj


def _cache_bytes(tape):
    total = 0
    for node in tape.nodes:
        if node.meta:
            total += sum(v.nbytes for v in node.meta.values()
                         if isinstance(v, np.ndarray))
    return total


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []
        self._stack = []
        self._patches = []          # (owner, key, original); owner is a module, class or dict
        self._originals = {}        # id -> every public function wrapped
        self._pending = {}          # parent span index -> [(grads, param idxs, span)]

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, tracer._stack[-1] if tracer._stack else -1)
            idx = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.exc = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                tracer._settle(idx)
            return tracer._annotate(span, args, kwargs, result)

        wrapper.__traced__ = fn
        return wrapper

    def _annotate(self, span, args, kwargs, result):
        """Attach per-call facts to a span; may hand back a stand-in result."""
        if span.name == "autodiff.backward":
            tape = args[0]
            if kwargs.get("as_graph", args[2] if len(args) > 2 else False):
                return result
            pidx = {n.idx for n in tape.params.values()}
            span.info = {"param_grad_bytes": sum(result[i].nbytes for i in pidx
                                                 if i in result),
                         "param_grads_read": False}
            tape.grads = _ReadTracking(result)
            self._pending.setdefault(span.parent, []).append((tape.grads, pidx, span))
            return tape.grads
        if span.name == "models.forward_with_latents":
            span.info = {"cache_bytes": _cache_bytes(result[2])}
        return result

    def _settle(self, idx):
        """At the end of a caller's span, note which sweeps fed it parameter
        gradients; the others computed them for nothing."""
        for grads, pidx, span in self._pending.pop(idx, ()):
            span.info["param_grads_read"] = bool(pidx & grads.read)

    def finish(self):
        """Settle sweeps called from outside any traced span; returns the spans."""
        for idx in list(self._pending):
            self._settle(idx)
        return self.spans

    # -- installation ------------------------------------------------------

    def install(self):
        mods = {m: getattr(self.package, m) for m in MODULES}
        wrappers = {}           # id(original function) -> wrapper
        for short, mod in mods.items():
            for name, fn in _public_functions(mod):
                wrappers[id(fn)] = self._wrap(f"{short}.{name}", fn)
                self._originals[id(fn)] = fn
        for mod in mods.values():
            for key, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, key, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in wrappers:
                            self._patch(obj, k, wrappers[id(v)])
        tape_cls = mods["autodiff"].Tape
        self._patch(tape_cls, "record", self._wrap("autodiff.record", tape_cls.record))
        return self

    def _patch(self, owner, key, new):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._patches.append((owner, key, vars(owner)[key]))
            setattr(owner, key, new)

    def uninstall(self):
        for owner, key, old in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._patches.clear()
        self._originals.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def unwrapped_bindings(self):
        """Bindings that still reach a public slatlab function unwrapped."""
        missed = []
        for short in MODULES:
            mod = getattr(self.package, short)
            for key, obj in vars(mod).items():
                if id(obj) in self._originals:
                    missed.append(f"{short}.{key}")
                elif isinstance(obj, dict):
                    missed += [f"{short}.{key}[{k!r}]" for k, v in obj.items()
                               if id(v) in self._originals]
        if not hasattr(self.package.autodiff.Tape.record, "__traced__"):
            missed.append("autodiff.Tape.record")
        return missed


@dataclass
class Totals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def summarize(spans):
    """Per span name: call count, inclusive time and self time (seconds).

    Self time is a span's duration minus the durations of its direct
    children, which a single thread always nests inside it.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out = {}
    for s, c in zip(spans, child):
        t = out.setdefault(s.name, Totals())
        t.calls += 1
        t.total_s += s.end - s.start
        t.self_s += s.end - s.start - c
    return out


# --- per-layer metrics --------------------------------------------------------

OPS = ("conv2d_1", "conv2d_2", "maxpool_1", "maxpool_2", "relu_1", "dense", "xent")
STEP_METHODS = ("standard", "fgsm_at", "slat")
ATTACKS = ("input_grad", "pgd", "fgsm", "r_fgsm", "deltas_from_tape")
METRIC_FNS = ("accuracy", "robust_accuracy", "grad_alignment", "feature_grad_l1",
              "logits_l2_distance", "loss_landscape", "boundary_nonrobust_ratio")
TOTAL_MS = ("models.load_checkpoint", "models.save_checkpoint",
            "training.sgd_update", "data.load_idx", "data.gen_toy",
            "config.parse_config", "config.build_datasets", "cli.run")
PASS_SPANS = ("autodiff.count_forward", "autodiff.backward")


def _units():
    u = {}
    for op in OPS:
        u[f"autodiff.op.{op}.fwd_ms"] = u[f"autodiff.op.{op}.bwd_ms"] = "ms"
    u.update({"autodiff.record.calls": "count", "autodiff.record.us_per_call": "us",
              "autodiff.backward.calls": "count", "autodiff.backward.self_ms": "ms",
              "autodiff.backward.param_grad_mb": "MB",
              "models.forward_with_latents.calls": "count",
              "models.forward_with_latents.self_ms": "ms",
              "models.forward_logits.calls": "count", "models.forward_logits.ms": "ms",
              "models.forward_logits.tape_mb": "MB"})
    for name in ATTACKS:
        u[f"attacks.{name}.calls"] = "count"
        u[f"attacks.{name}.ms"] = "ms"
    for m in STEP_METHODS:
        u[f"training.step.{m}.ms_p50"] = u[f"training.step.{m}.ms_p90"] = "ms"
        u[f"training.step.{m}.passes"] = "count"
    u["training.evaluate_checkpoint.calls"] = "count"
    u["training.evaluate_checkpoint.ms_p50"] = "ms"
    for name in METRIC_FNS:
        u[f"metrics.{name}.ms"] = "ms"
    for name in TOTAL_MS:
        u[f"{name}.ms"] = "ms"
    u["trace.overhead_frac"] = "frac"
    return u


LAYER_UNITS = _units()


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _span_metrics(span_lists):
    """Named per-layer metrics over the spans of one or more traced runs."""
    tot = {}
    for spans in span_lists:
        for name, t in summarize(spans).items():
            acc = tot.setdefault(name, Totals())
            acc.calls += t.calls
            acc.total_s += t.total_s
            acc.self_s += t.self_s

    def t(name):
        return tot.get(name, Totals())

    m = {}
    rec = t("autodiff.record")
    m["autodiff.record.calls"] = rec.calls
    m["autodiff.record.us_per_call"] = 1e6 * rec.total_s / rec.calls if rec.calls else 0.0
    bw = t("autodiff.backward")
    m["autodiff.backward.calls"] = bw.calls
    m["autodiff.backward.self_ms"] = 1e3 * bw.self_s
    wasted = tape = 0
    step_durs = {m_: [] for m_ in STEP_METHODS}
    step_passes = {m_: [] for m_ in STEP_METHODS}
    evals = []
    step_names = {f"training.{m_}_step": m_ for m_ in STEP_METHODS}
    for spans in span_lists:
        passes = {}
        for i, s in enumerate(spans):
            if s.name == "autodiff.backward":
                if s.info and not s.info["param_grads_read"]:
                    wasted += s.info["param_grad_bytes"]
            elif (s.name == "models.forward_with_latents" and s.parent >= 0
                  and spans[s.parent].name == "models.forward_logits"):
                tape += s.info["cache_bytes"]
            elif s.name in step_names:
                step_durs[step_names[s.name]].append(s.end - s.start)
                passes.setdefault(i, 0)
            elif s.name == "training.evaluate_checkpoint":
                evals.append(s.end - s.start)
            if s.name in PASS_SPANS:
                p = s.parent
                while p >= 0 and spans[p].name not in step_names:
                    p = spans[p].parent
                if p >= 0:
                    passes[p] = passes.get(p, 0) + 1
        for i, n in passes.items():
            step_passes[step_names[spans[i].name]].append(n)
    m["autodiff.backward.param_grad_mb"] = wasted / 1e6
    fwl = t("models.forward_with_latents")
    m["models.forward_with_latents.calls"] = fwl.calls
    m["models.forward_with_latents.self_ms"] = 1e3 * fwl.self_s
    fl = t("models.forward_logits")
    m["models.forward_logits.calls"] = fl.calls
    m["models.forward_logits.ms"] = 1e3 * fl.total_s
    m["models.forward_logits.tape_mb"] = tape / 1e6
    for name in ATTACKS:
        a = t(f"attacks.{name}")
        m[f"attacks.{name}.calls"] = a.calls
        m[f"attacks.{name}.ms"] = 1e3 * a.total_s
    for method in STEP_METHODS:
        durs = step_durs[method]
        m[f"training.step.{method}.ms_p50"] = 1e3 * _percentile(durs, 50)
        m[f"training.step.{method}.ms_p90"] = 1e3 * _percentile(durs, 90)
        m[f"training.step.{method}.passes"] = _percentile(step_passes[method], 50)
    m["training.evaluate_checkpoint.calls"] = len(evals)
    m["training.evaluate_checkpoint.ms_p50"] = 1e3 * _percentile(evals, 50)
    for name in METRIC_FNS:
        m[f"metrics.{name}.ms"] = 1e3 * t(f"metrics.{name}").total_s
    for name in TOTAL_MS:
        m[f"{name}.ms"] = 1e3 * t(name).total_s
    return m


def layer_metrics(setup_spans, rep_spans):
    """Per-layer metrics of one set-up plus one body repetition, median over
    the traced repetitions."""
    per_rep = [_span_metrics([setup_spans, spans]) for spans in rep_spans]
    return {k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]}
