"""slatlab benchmark: one workload per process, numpy and the stdlib only.

    python3 bench/run.py --workload cnn_train --seed 1 --seconds 20 --trace 0

With `--trace 0` it prints the end-to-end metrics (`setup_s`, `run_s`,
`examples_per_s`, `clean_acc`, `pgd_acc`, `peak_rss_mb`, `ok_frac`); with
`--trace 1` it adds a traced pass and prints the per-layer metrics instead.
`setup_s` and `run_s` are wall times scaled to the machine's speed at the
time, measured by a fixed calibration load (see `Calibration`). The last
line of standard output is the result object; the line before it holds
the environment block, the determinism digests, the pass counts and every
failure. Files are written only to a scratch directory
`bench/.run-<pid>-*`, inside the checkout. It is removed before exit, on
SIGTERM too; a tree left by a killed run is removed by the next run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

BODY_MIN_REPS = 2
SETUP_MIN_BLOCKS = 2
# Set-ups are timed in blocks, one before each body repetition, so their
# median spans the whole run: a shared host can switch between a fast and a
# 1.5x slower state every few seconds. A cheap set-up repeats until its
# block lasts this long, and counts as the block's mean.
SETUP_BLOCK_SECONDS = 1.0
# The host also drifts over minutes: a fixed numpy loop went from 91 to
# 147 ms within 90 s, in CPU time as in wall time. So `setup_s` and `run_s`
# are reported in reference seconds: the clock pauses every PAUSE_EVERY_S to
# time a fixed calibration load, and each timed call is scaled by
# CALIBRATION_S / (the load's mean time from just before the call to just
# after it). The mean, not the median, because the call's wall time is the
# integral of the machine's slowness over it. A change to the program moves
# them; a drift of the machine moves the load as well and cancels. The wall
# times go to the detail line.
CALIBRATION_S = 0.030      # `Calibration.once` at rest on a 2-vCPU KVM Xeon (AVX-512)
CALIBRATION_CALLS = 3
PAUSE_EVERY_S = 0.5
OP_REPEATS = 5
E2E_UNITS = {"setup_s": "s", "run_s": "s", "examples_per_s": "1/s", "clean_acc": "frac",
             "pgd_acc": "frac", "peak_rss_mb": "MB"}


def _threads_env():
    # One BLAS thread: every workload runs in one process on one core, which
    # keeps timings steady on a shared 2-core machine.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _git_commit():
    """HEAD of the repository, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    pkg = os.path.join(SRC, "slatlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": os.environ.get("OPENBLAS_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_slatlab_lines": src_lines,
    }


def op_times(seed):
    """Forward and backward ms of single ops on one-op tapes at A6 shapes."""
    import numpy as np
    from slatlab import autodiff

    rng = np.random.default_rng((seed, 3))

    def r(*shape):
        return rng.standard_normal(shape)

    labels = rng.integers(0, 10, size=128)
    cases = {
        "conv2d_1": ("conv2d", [r(128, 1, 28, 28), r(16, 1, 3, 3), r(16)], {}),
        "relu_1": ("relu", [r(128, 16, 28, 28)], {}),
        "maxpool_1": ("maxpool2x2", [r(128, 16, 28, 28)], {}),
        "conv2d_2": ("conv2d", [r(128, 16, 14, 14), r(32, 16, 3, 3), r(32)], {}),
        "maxpool_2": ("maxpool2x2", [r(128, 32, 14, 14)], {}),
        "dense": ("dense", [r(128, 1568), r(1568, 10), r(10)], {}),
        "xent": ("loss_softmax_xent", [r(128, 10)], {"labels": labels}),
    }
    out = {}
    for name, (op, inputs, params) in cases.items():
        def record():
            tape = autodiff.Tape()
            t0 = time.perf_counter()
            node = tape.record(op, inputs, **params)
            return time.perf_counter() - t0, tape, node

        def sweep():
            _, tape, node = record()
            # a scalar loss over the op's output; its own VJP is a broadcast
            loss = node if node.value.shape == () else tape.record("sum_all", [node])
            t0 = time.perf_counter()
            autodiff.backward(tape, loss)
            return time.perf_counter() - t0

        record()
        out[f"autodiff.op.{name}.fwd_ms"] = 1e3 * statistics.median(
            record()[0] for _ in range(OP_REPEATS))
        out[f"autodiff.op.{name}.bwd_ms"] = 1e3 * statistics.median(
            sweep() for _ in range(OP_REPEATS))
    return out


class Calibration:
    """A fixed load in the proportions the workloads spend time on: a BLAS
    product at the size of an im2col conv, a windowed copy and reduction over
    an activation-sized array, and a loop of small-array numpy calls. Its
    large arrays are allocated once, so a pause inside a body does not raise
    the run's peak memory."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.cols = rng.standard_normal((64 * 196, 144))
        self.kernel = rng.standard_normal((144, 32))
        self.product = np.empty((64 * 196, 32))
        self.images = rng.standard_normal((8, 16, 28, 28))
        self.windows = np.empty((8, 16, 26, 26, 3, 3))
        self.pooled = np.empty((8, 16, 26, 26))
        self.small = rng.standard_normal((32, 64))
        self.weights = 0.1 * rng.standard_normal((64, 64))

    def once(self):
        import numpy as np
        from numpy.lib.stride_tricks import sliding_window_view
        np.matmul(self.cols, self.kernel, out=self.product)
        np.copyto(self.windows, sliding_window_view(self.images, (3, 3), axis=(2, 3)))
        np.maximum(self.windows, 0.0, out=self.windows)
        np.max(self.windows, axis=(-2, -1), out=self.pooled).sum()
        t = self.small
        for _ in range(300):
            t = np.tanh(t @ self.weights + self.small)
            t = t - t.mean(axis=0)

    def seconds(self):
        """Median wall seconds of CALIBRATION_CALLS calls of `once`."""
        times = []
        for _ in range(CALIBRATION_CALLS):
            t0 = time.perf_counter()
            self.once()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


class Clock:
    """Times calls in wall seconds and in reference seconds.

    While a call runs, SIGALRM stops the clock every PAUSE_EVERY_S to time
    the calibration load; the pauses are not counted. The load is also timed
    after each call, so a short call is scaled by the timings on either side
    of it. With `pauses=False` (the traced run, whose spans must not hold
    the pauses) only that last timing is made. `close` restores the
    SIGALRM handler it replaced.
    """

    def __init__(self):
        self.load = Calibration()
        self.load.seconds()                 # page faults and first calls
        self.load_times = [self.load.seconds()]
        self._running = False
        self._previous = signal.signal(signal.SIGALRM, self._pause)

    def close(self):
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn, *args, pauses=True):
        """Returns (fn's result, wall seconds, reference seconds)."""
        first = len(self.load_times) - 1
        self.wall = 0.0
        self._running, self._pauses = True, pauses
        self._resume()
        try:
            result = fn(*args)
        finally:
            # a SIGALRM still pending finds the clock stopped and returns
            self._running = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._stop()
        speed = statistics.mean(self.load_times[first:])
        return result, self.wall, self.wall * CALIBRATION_S / speed

    def _resume(self):
        if self._pauses:
            signal.setitimer(signal.ITIMER_REAL, PAUSE_EVERY_S)
        self._start = time.perf_counter()

    def _stop(self):
        self.wall += time.perf_counter() - self._start
        self.load_times.append(self.load.seconds())

    def _pause(self, signum, frame):
        if self._running:
            self._stop()
            self._resume()


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def remove_stale_workdirs():
    """Remove scratch trees of earlier runs whose process has ended."""
    for name in os.listdir(BENCH_DIR):
        if not name.startswith(".run-"):
            continue
        pid = name.split("-")[1]
        if not (pid.isdigit() and _alive(int(pid))):
            shutil.rmtree(os.path.join(BENCH_DIR, name), ignore_errors=True)


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_block(workload, inputs, workdir):
    """Set up and warm up until the block lasts SETUP_BLOCK_SECONDS; returns
    the last state and the number of set-ups."""
    count, t0 = 0, time.perf_counter()
    while not count or time.perf_counter() - t0 < SETUP_BLOCK_SECONDS:
        state = workload.setup(inputs, workdir)
        workload.warmup(state)
        count += 1
    return state, count


def _body_rep(workload, state, ledger, clock, pauses=True):
    """One timed body repetition: (wall seconds, reference seconds, outcome,
    pass counts)."""
    from slatlab import autodiff

    autodiff.reset_pass_counts()
    outcome, wall, ref = clock.time(workload.body, state, ledger, pauses=pauses)
    passes = autodiff.pass_counts()
    workload.seal(state, outcome, ledger)
    return wall, ref, outcome, passes


def _same(ledger, what, values):
    first = values[0]
    return ledger.check(what, all(v == first for v in values[1:]),
                        f"{len(set(map(repr, values)))} distinct values")


def run_workload(name, seed, seconds, trace, sizes=None):
    """Run one workload; returns (result dict, detail dict)."""
    import slatlab
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name](sizes)
    ledger = workloads.Ledger()
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment()}
    remove_stale_workdirs()
    clock = Clock()
    workdir = tempfile.mkdtemp(prefix=f".run-{os.getpid()}-", dir=BENCH_DIR)
    try:
        inputs = workload.inputs(seed)
        setup_wall, run_wall, setup_times, run_times = [], [], [], []
        outcomes, passes = [], []

        def setup_block():
            (state, count), wall, ref = clock.time(_setup_block, workload, inputs, workdir)
            setup_wall.append(wall / count)
            setup_times.append(ref / count)
            return state

        # body repetitions, each after a set-up block: BODY_MIN_REPS, then more
        # while they fit in `seconds`
        while (len(run_wall) < BODY_MIN_REPS
               or sum(run_wall) + statistics.median(run_wall) <= seconds):
            state = setup_block()
            t, ref, o, p = _body_rep(workload, state, ledger, clock)
            run_wall.append(t)
            run_times.append(ref)
            outcomes.append(o)
            passes.append(p)
        while len(setup_wall) < SETUP_MIN_BLOCKS:
            state = setup_block()
        digests = [o.digests for o in outcomes]
        _same(ledger, "digests repeat across repetitions", digests)
        _same(ledger, "pass counts repeat across repetitions", passes)
        detail.update(digests=digests[0], pass_counts=passes[0],
                      setup_s_samples=setup_times, run_s_samples=run_times,
                      setup_wall_s_samples=setup_wall, run_wall_s_samples=run_wall,
                      calibration_s_samples=clock.load_times)

        layer = None
        if trace:
            layer = op_times(seed)
            tracer = tracing.Tracer(slatlab)
            with tracer:
                missed = tracer.unwrapped_bindings()
                ledger.check("every public binding is traced", not missed, str(missed))
                workload.warmup(workload.setup(inputs, workdir))
                setup_spans = tracer.finish()
                rep_spans, traced_times, traced_outcomes, traced_passes = [], [], [], []
                for _ in run_times:
                    tracer.spans = []
                    _, t, o, p = _body_rep(workload, state, ledger, clock, pauses=False)
                    rep_spans.append(tracer.finish())
                    traced_times.append(t)
                    traced_outcomes.append(o)
                    traced_passes.append(p)
            _same(ledger, "traced digests equal untraced ones",
                  [digests[0]] + [o.digests for o in traced_outcomes])
            _same(ledger, "traced pass counts equal untraced ones",
                  [passes[0]] + traced_passes)
            layer.update(tracing.layer_metrics(setup_spans, rep_spans))
            layer["trace.overhead_frac"] = (statistics.median(traced_times)
                                            / statistics.median(run_times) - 1.0)
            detail["traced_run_s_samples"] = traced_times

        final = outcomes[-1]
        workload.verify(state, final, ledger)
        for what, acc in (("clean accuracy", final.clean_acc),
                          ("PGD accuracy", final.pgd_acc)):
            ledger.check(f"{what} lies in [0, 1]",
                         acc is not None and 0.0 <= acc <= 1.0, f"got {acc}")
        run_s = statistics.median(run_times)
        values = {"setup_s": statistics.median(setup_times), "run_s": run_s,
                  "examples_per_s": final.examples / run_s,
                  "clean_acc": final.clean_acc or 0.0, "pgd_acc": final.pgd_acc or 0.0,
                  "peak_rss_mb": _rss_mb()}
        e2e = {k: (v, E2E_UNITS[k]) for k, v in values.items()}
    except Exception as exc:    # report the failure in the result, not a traceback
        ledger.failures.append(f"workload aborted: {type(exc).__name__}: {exc}")
        ledger.attempted += 1
        e2e = {k: (0.0, u) for k, u in E2E_UNITS.items()}
        layer = dict.fromkeys(tracing.LAYER_UNITS, 0.0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        clock.close()

    attempted = max(ledger.attempted, 1)
    e2e["ok_frac"] = (1.0 - ledger.failed / attempted, "frac")
    detail["failed_frac"] = ledger.failed / attempted
    detail["failures"] = ledger.failures
    chosen = ({k: (v, tracing.LAYER_UNITS[k]) for k, v in layer.items()}
              if trace else e2e)
    result = {
        "correct": ledger.failed == 0,
        "attempted": attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in chosen.items()},
    }
    return result, detail


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "slatlab")):
        print(f"bench: no slatlab sources under {SRC}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exit, so the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _threads_env()
    sys.dont_write_bytecode = True
    sys.path[:0] = [SRC, BENCH_DIR]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result, detail = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
