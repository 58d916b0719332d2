"""Tests of the benchmark itself, at smoke sizes so they run in seconds."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import tracing
import workloads

import slatlab

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

SMOKE = {
    "cnn_train": workloads.CnnSizes(pre_n=64, pre_batch=32, ft_n=64, test_n=32, batch=32,
                                    ckpt_eval_n=2, ckpt_align_n=2,
                                    final_clean_n=32, final_pgd_n=4),
    "cnn_eval": workloads.CnnSizes(pre_n=64, pre_batch=32, test_n=32, eval_n=4,
                                   landscape_n=3),
    "toy_train": workloads.ToySizes(epochs=20, n_per_class=64, test_n_per_class=64),
}


def _smoke(name, trace):
    return run.run_workload(name, seed=0, seconds=0.0, trace=trace, sizes=SMOKE[name])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.LAYER_UNITS


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result, detail = _smoke(name, trace)
    assert result["failed"] == 0, detail["failures"]
    assert result["correct"] and result["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}


def _offset_logits(monkeypatch):
    real = slatlab.models.forward_logits
    monkeypatch.setattr(slatlab.models, "forward_logits",
                        lambda model, x: real(model, x) + 1e-3)


def _failing_cli(monkeypatch):
    monkeypatch.setattr(slatlab.cli, "run", lambda cfg, ckpt=None, eval_only=False: 1)


@pytest.mark.parametrize("name, corrupt", [("toy_train", _offset_logits),
                                           ("cnn_eval", _failing_cli)])
def test_a_corrupted_result_is_counted_as_failed(name, corrupt, monkeypatch):
    corrupt(monkeypatch)
    result, detail = _smoke(name, trace=False)
    assert result["failed"] > 0 and detail["failed_frac"] > 0
    assert not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def _tree(root):
    skip = {".git", ".pytest_cache", "__pycache__"}
    out = {}
    for d, dirs, files in os.walk(root):
        dirs[:] = [x for x in dirs if x not in skip]
        for f in files:
            p = os.path.join(d, f)
            out[p] = os.stat(p).st_mtime_ns
    return out


def test_a_run_writes_nothing_under_the_repository():
    before = _tree(run.ROOT)
    _smoke("cnn_eval", trace=True)
    assert _tree(run.ROOT) == before


def _workdirs(pid):
    return [n for n in os.listdir(run.BENCH_DIR) if n.startswith(f".run-{pid}-")]


def test_a_terminated_run_removes_its_scratch_directory():
    proc = subprocess.Popen(
        [sys.executable, "bench/run.py", "--workload", "toy_train", "--seed", "0",
         "--seconds", "60", "--trace", "0"],
        cwd=run.ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not _workdirs(proc.pid):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        proc.terminate()
        assert proc.wait(timeout=60) != 0
    finally:
        proc.kill()
        proc.wait()
    assert _workdirs(proc.pid) == []


def test_the_scratch_directory_of_a_killed_run_is_removed_by_the_next():
    ended = subprocess.Popen([sys.executable, "-c", "pass"])
    ended.wait()
    stale = os.path.join(run.BENCH_DIR, f".run-{ended.pid}-killed")
    os.makedirs(os.path.join(stale, "out"))
    try:
        run.remove_stale_workdirs()
        assert not os.path.exists(stale)
    finally:
        shutil.rmtree(stale, ignore_errors=True)


def test_the_clock_pauses_for_the_calibration_load_and_stops_cleanly():
    previous = run.signal.getsignal(run.signal.SIGALRM)
    clock = run.Clock()
    before = len(clock.load_times)

    def three_pauses():
        t0 = time.perf_counter()
        while len(clock.load_times) < before + 3:
            assert time.perf_counter() - t0 < 30
        return time.perf_counter() - t0

    elapsed, wall, ref = clock.time(three_pauses)
    # three pauses inside the call and one timing after it
    assert len(clock.load_times) == before + 4
    assert 0.99 * 3 * run.PAUSE_EVERY_S <= wall < elapsed
    os.kill(os.getpid(), run.signal.SIGALRM)    # a late alarm is ignored
    assert len(clock.load_times) == before + 4
    assert ref > 0
    clock.close()
    assert run.signal.getsignal(run.signal.SIGALRM) == previous


def test_tracer_reaches_every_binding_and_restores_them():
    backward = slatlab.autodiff.backward
    tracer = tracing.Tracer(slatlab)
    with tracer:
        assert tracer.unwrapped_bindings() == []
        assert slatlab.training.backward is not backward
        assert slatlab.attacks.backward is slatlab.metrics.backward
    assert slatlab.training.backward is backward
    assert slatlab.training._STEP_FNS["slat"] is slatlab.training.slat_step
    assert not hasattr(slatlab.autodiff.Tape.record, "__traced__")


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".run-*"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "toy_train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
