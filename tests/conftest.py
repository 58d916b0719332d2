import importlib.util
import os

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from slatlab import data as data_mod

MNIST_NAMES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


@pytest.fixture(autouse=True)
def _run_in_tmp_path(tmp_path, monkeypatch):
    """Run every test from its own tmp_path, so that a CLI default output
    directory (out/, sweep_out/) never lands in the checkout."""
    monkeypatch.chdir(tmp_path)


@pytest.hookimpl(trylast=True)
def pytest_configure(config):
    """Keep Hypothesis's storage in a pytest temporary directory, not in
    .hypothesis/ where pytest was started. Hypothesis writes its constants
    cache during collection and its unicode tables when a test first draws
    text, even with database=None. trylast: pytest's tmp_path factory is set
    up by then."""
    set_hypothesis_home_dir(config._tmp_path_factory.mktemp("hypothesis"))


@pytest.fixture(scope="session")
def make_digits():
    """`make_digits(n, seed)` from bench/corpus.py, the repository's one
    synthetic digit corpus: seeded, numpy only. It is loaded by file path
    under a name of its own, because bench/test_bench.py imports its modules
    as top-level `corpus` and `workloads`."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "corpus.py")
    spec = importlib.util.spec_from_file_location("slatlab_bench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_digits


@pytest.fixture(scope="session")
def digit_corpus(tmp_path_factory, make_digits):
    """IDX paths for the image experiments: real MNIST when SLATLAB_MNIST_DIR
    points at the ubyte files, otherwise the synthetic digit corpus rendered
    once per session into a pytest temporary directory."""
    mnist_dir = os.environ.get("SLATLAB_MNIST_DIR")
    if mnist_dir:
        paths = {k: os.path.join(mnist_dir, v) for k, v in MNIST_NAMES.items()}
        if all(os.path.exists(p) for p in paths.values()):
            return {"source": "mnist", **paths}
    tr_x, tr_y = make_digits(10_000, seed=100)
    te_x, te_y = make_digits(2_000, seed=200)
    out = tmp_path_factory.mktemp("digits")
    paths = {k: str(out / f"{k}.idx") for k in MNIST_NAMES}
    data_mod.write_idx_images(tr_x, paths["train_images"])
    data_mod.write_idx_labels(tr_y, paths["train_labels"])
    data_mod.write_idx_images(te_x, paths["test_images"])
    data_mod.write_idx_labels(te_y, paths["test_labels"])
    return {"source": "rendered", **paths}
