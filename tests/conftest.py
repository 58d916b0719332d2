import os

import pytest

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


@pytest.fixture(scope="session")
def digit_corpus(tmp_path_factory):
    """IDX paths for the image experiments: real MNIST when SLATLAB_MNIST_DIR
    points at the ubyte files, otherwise a digit corpus rendered once per
    session into a pytest temporary directory."""
    mnist_dir = os.environ.get("SLATLAB_MNIST_DIR")
    if mnist_dir:
        paths = {k: os.path.join(mnist_dir, v) for k, v in MNIST_NAMES.items()}
        if all(os.path.exists(p) for p in paths.values()):
            return {"source": "mnist", **paths}
    tr_x, tr_y = data_mod.render_digit_corpus(10_000, seed=100)
    te_x, te_y = data_mod.render_digit_corpus(2_000, seed=200)
    out = tmp_path_factory.mktemp("digits")
    paths = {k: str(out / f"{k}.idx") for k in MNIST_NAMES}
    data_mod.write_idx_images(tr_x, paths["train_images"])
    data_mod.write_idx_labels(tr_y, paths["train_labels"])
    data_mod.write_idx_images(te_x, paths["test_images"])
    data_mod.write_idx_labels(te_y, paths["test_labels"])
    return {"source": "rendered", **paths}
