import ctypes
import importlib
import os
import platform
import subprocess
import sys
import types

import pytest

import slatlab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(slatlab.__file__)))
MB256 = 256 << 20

FAULT_PROBE = """
import resource
import numpy as np
from slatlab import attacks, models
model = models.build_small_cnn(seed=0)
rng = np.random.default_rng(0)
x = rng.random((64, 1, 28, 28))
y = rng.integers(0, 10, 64)
def rounds(n):
    for _ in range(n):
        attacks.input_grad(model, x, y)
        models.forward_logits(model, x)
rounds(2)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
rounds(10)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _allocator_env_cleared(monkeypatch):
    for key in list(os.environ):
        if key == "GLIBC_TUNABLES" or key.startswith("MALLOC_"):
            monkeypatch.delenv(key)


def _fake_libc(first_result):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return first_result if len(calls) == 1 else 1

    return types.SimpleNamespace(mallopt=mallopt), calls


@pytest.mark.parametrize("first_result, want", [
    (1, [(-3, MB256), (-1, MB256)]),
    (0, [(-3, MB256)]),
])
def test_mmap_threshold_first_and_trim_only_after_it_succeeds(monkeypatch, first_result,
                                                              want):
    _allocator_env_cleared(monkeypatch)
    libc, calls = _fake_libc(first_result)
    slatlab._keep_freed_heap(libc)
    assert calls == want


@pytest.mark.parametrize("key", ["GLIBC_TUNABLES", "MALLOC_ARENA_MAX",
                                 "MALLOC_MMAP_THRESHOLD_"])
def test_an_allocator_set_in_the_environment_wins(monkeypatch, key):
    _allocator_env_cleared(monkeypatch)
    monkeypatch.setenv(key, "glibc.malloc.arena_max=2" if key == "GLIBC_TUNABLES" else "2")
    libc, calls = _fake_libc(1)
    slatlab._keep_freed_heap(libc)
    assert calls == []


@pytest.mark.parametrize("libc", ["oserror", "no_mallopt"])
def test_import_succeeds_without_glibc_mallopt(monkeypatch, libc):
    _allocator_env_cleared(monkeypatch)
    opened = []

    def cdll(name):
        opened.append(name)
        if libc == "oserror":
            raise OSError("no C library")
        return types.SimpleNamespace()

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    importlib.reload(slatlab)
    assert opened == [None]
    assert slatlab.models is sys.modules["slatlab.models"]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator only")
def test_conv_sweeps_take_no_fresh_pages_once_warm():
    """Ten rounds of a small-CNN input gradient and forward pass reuse the
    heap: at the default glibc thresholds they took ~55k minor faults."""
    env = {k: v for k, v in os.environ.items()
           if k != "GLIBC_TUNABLES" and not k.startswith("MALLOC_")}
    env.update(PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.strip()) < 1_000
