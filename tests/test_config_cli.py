import csv
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slatlab import data, metrics, training
from slatlab.autodiff import pass_counts
from slatlab.cli import main, run
from slatlab.config import (_SCHEMA, ParseError, ValidationError, build_datasets,
                            build_model, parse_config, parse_number)
from slatlab.data import write_idx_images, write_idx_labels
from slatlab.metrics import read_metrics_csv
from slatlab.models import (build_small_cnn, build_toy_mlp, load_checkpoint, load_into,
                            save_checkpoint)
from slatlab.training import EvalSettings, TrainSpec

FAST_TOY = """
[run]
seed = 5
[data]
kind = toy
n_per_class = 24
test_n_per_class = 24
[train]
method = slat
epochs = 2
batch = 16
lr_max = 0.1
[eval]
steps = 3
n_eval = 24
align_n = 8
landscape_n = 3
"""


def write_cfg(tmp_path, text=FAST_TOY, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# Every accepted section.key, with one text value and what it parses to.
ONE_VALUE_PER_KEY = {
    "run.seed": (" 7 ", 7),
    "model.zoo": (" linear ", "linear"),
    "model.hidden": ("3", 3),
    "model.activation": ("softplus", "softplus"),
    "model.classes": ("3", 3),
    "model.in_shape": ("1x28x28", (1, 28, 28)),
    "model.k": ("1", (1,)),
    "model.eta": ("0:1/8,1:0.5", {0: 0.125, 1: 0.5}),
    "data.kind": ("toy ", "toy"),
    "data.n_per_class": ("5", 5),
    "data.test_n_per_class": ("6", 6),
    "data.mu": ("1/2,0.25", (0.5, 0.25)),
    "data.sigma": ("0.5,1/4", (0.5, 0.25)),
    "data.train_images": (" a.idx", "a.idx"),
    "data.train_labels": ("b.idx", "b.idx"),
    "data.test_images": ("c.idx", "c.idx"),
    "data.test_labels": ("d.idx", "d.idx"),
    "data.limit": ("9", 9),
    "data.augment_pad": ("2", 2),
    "train.method": ("fgsm_at", "fgsm_at"),
    "train.epochs": ("4", 4),
    "train.batch": ("8", 8),
    "train.lr_max": ("1/4", 0.25),
    "train.momentum": ("0.5", 0.5),
    "train.weight_decay": ("0", 0.0),
    "train.epsilon": ("8/255", 8 / 255),
    "train.checkpoint_every": ("3", 3),
    "train.lambda_ga": ("2", 2.0),
    "train.peak_fraction": ("0.5", 0.5),
    "eval.epsilon": ("0.2", 0.2),
    "eval.alpha": ("0.01", 0.01),
    "eval.steps": ("5", 5),
    "eval.restarts": ("2", 2),
    "eval.n_eval": ("10", 10),
    "eval.align_n": ("4", 4),
    "eval.seed": ("11", 11),
    "eval.landscape_n": ("3", 3),
    "eval.co_window": ("6", 6),
    "output.dir": ("runs ", "runs"),
    "output.save_checkpoint": ("no", False),
    "output.save_landscape": ("OFF", False),
}
FIELD_NAMES = {"eval.steps": "attack_steps", "eval.restarts": "attack_restarts"}
# An image task. parse_config checks only that the IDX paths are set and
# opens none of them, so this file stands in for all four.
IDX_TASK = {"data.kind": "idx", **{f"data.{split}_{part}": __file__
                                   for split in ("train", "test")
                                   for part in ("images", "labels")}}
# Keys whose ONE_VALUE_PER_KEY value is valid only with other settings.
CONTEXT = {"data.augment_pad": IDX_TASK, "data.limit": IDX_TASK}


def test_schema_keys_and_their_fields():
    accepted = {f"{section}.{key}" for section, keys in _SCHEMA.items()
                for key in keys}
    assert accepted == set(ONE_VALUE_PER_KEY) and len(accepted) == 41
    for dotted, (text, want) in ONE_VALUE_PER_KEY.items():
        cfg = parse_config(None, {**CONTEXT.get(dotted, {}), dotted: text})
        section, key = dotted.split(".")
        owner = cfg if section == "run" else getattr(cfg, section)
        assert getattr(owner, FIELD_NAMES.get(dotted, key)) == want, dotted
    for derived in ("train.seed", "train.eta", "train.augment_pad"):
        with pytest.raises(ValidationError, match=f"unknown key {derived}"):
            parse_config(None, {derived: "1"})


def test_parse_config_resolves_derived_values():
    cfg = parse_config(None, {"run.seed": "4", "data.augment_pad": "2",
                              "train.epsilon": "0.3", **IDX_TASK})
    assert (cfg.train.seed, cfg.train.augment_pad) == (4, 2)
    assert cfg.eval.epsilon == 0.3 and cfg.train.eta == {0: 0.3, 1: 0.3, 2: 0.3}
    cfg = parse_config(None, {"eval.epsilon": "0.05"})
    assert (cfg.eval.epsilon, cfg.train.epsilon) == (0.05, pytest.approx(0.1))


# Numbers and separators as the parsers split them, so that most examples
# get past the first parse; arbitrary text covers the rest.
ATOMS = st.sampled_from(["0", "1", "-1", "0.5", "nan", "inf", "1e999", "x", ""])
SEPARATORS = st.sampled_from(["/", ":", ",", "x", " "])
VALUES = st.one_of(
    st.builds(lambda *parts: "".join(parts), ATOMS, SEPARATORS, ATOMS),
    st.lists(st.one_of(ATOMS, SEPARATORS), max_size=7).map("".join),
    st.text())


@settings(max_examples=500, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(sorted(ONE_VALUE_PER_KEY)), value=VALUES)
def test_parse_config_raises_only_its_own_errors(key, value):
    try:
        parse_config(None, {key: value})
    except (ParseError, ValidationError):
        pass


def test_parse_number_fractions():
    assert parse_number("8/255") == pytest.approx(8 / 255)
    assert parse_number("0.25") == 0.25


def test_minimal_toy_defaults():
    cfg = parse_config(None, {"data.kind": "toy"})
    assert cfg.train.epsilon == pytest.approx(0.1)
    assert cfg.model.eta == pytest.approx(0.1)
    assert cfg.model.zoo == "toy_mlp"


def test_idx_defaults_use_image_radius(tmp_path):
    imgs = np.zeros((8, 28, 28), dtype=np.uint8)
    labels = np.arange(8, dtype=np.uint8) % 10
    for stem in ("train", "test"):
        write_idx_images(imgs, tmp_path / f"{stem}_images.idx")
        write_idx_labels(labels, tmp_path / f"{stem}_labels.idx")
    ov = {"data.kind": "idx"}
    for stem in ("train", "test"):
        ov[f"data.{stem}_images"] = str(tmp_path / f"{stem}_images.idx")
        ov[f"data.{stem}_labels"] = str(tmp_path / f"{stem}_labels.idx")
    cfg = parse_config(None, ov)
    assert cfg.train.epsilon == pytest.approx(8 / 255)
    assert cfg.model.zoo == "small_cnn"
    train_ds, test_ds = build_datasets(cfg)
    assert train_ds.xs.shape == (8, 1, 28, 28)
    model = build_model(cfg)
    assert model.K == [0, 1, 2]
    assert cfg.train.eta == {0: pytest.approx(8 / 255), 1: pytest.approx(8 / 255),
                             2: pytest.approx(8 / 255)}


def test_unknown_key_named_in_error(tmp_path):
    path = write_cfg(tmp_path, FAST_TOY + "\n[train]\nwat = 1\n")
    # configparser rejects the duplicate section first; use override instead
    with pytest.raises(ValidationError) as err:
        parse_config(None, {"train.wat": "1"})
    assert "train.wat" in str(err.value)
    with pytest.raises(ValidationError) as err:
        parse_config(None, {"nosuch.key": "1"})
    assert "nosuch" in str(err.value)


def test_validation_reports_all_problems():
    with pytest.raises(ValidationError) as err:
        parse_config(None, {"train.method": "bogus", "model.activation": "tanh"})
    text = str(err.value)
    assert "train.method" in text and "model.activation" in text
    bad = {"eval.n_eval": "0", "eval.align_n": "0", "train.epsilon": "nan",
           "eval.epsilon": "inf", "train.lr_max": "nan", "model.eta": "-0.1"}
    bad_too = {"train.epsilon": "1/0", "model.eta": "0:1/0", "data.sigma": "0,0",
               "data.n_per_class": "0", "model.hidden": "0", "eval.landscape_n": "1"}
    for overrides in [bad, bad_too] + [{k: v} for d in (bad, bad_too)
                                       for k, v in d.items()]:
        with pytest.raises(ValidationError) as err:
            parse_config(None, overrides)
        assert all(key in str(err.value) for key in overrides)


@pytest.mark.parametrize("field,value", [
    ("method", "bogus"), ("epochs", 0), ("batch", 0), ("lr_max", 0.0),
    ("lr_max", float("inf")), ("epsilon", float("nan")), ("momentum", 1.5),
    ("momentum", -0.1), ("weight_decay", -1.0), ("lambda_ga", -1.0),
    ("checkpoint_every", -1), ("peak_fraction", 2.0), ("peak_fraction", 0.0)])
def test_train_rules_have_one_owner(field, value):
    with pytest.raises(ValueError, match=f"train.{field}"):
        TrainSpec(**{field: value})
    with pytest.raises(ValidationError) as err:
        parse_config(None, {f"train.{field}": str(value)})
    assert [p for p in err.value.problems if f"train.{field}" in p]


@pytest.mark.parametrize("field,key,value", [
    ("attack_steps", "steps", 0), ("attack_restarts", "restarts", 0),
    ("n_eval", "n_eval", 0), ("align_n", "align_n", 0),
    ("landscape_n", "landscape_n", 1), ("alpha", "alpha", -1.0),
    ("alpha", "alpha", float("nan")), ("epsilon", "epsilon", -0.1),
    ("epsilon", "epsilon", float("inf")), ("co_window", "co_window", -1),
    ("seed", "seed", -1)])
def test_eval_rules_have_one_owner(field, key, value):
    with pytest.raises(ValueError, match=f"eval.{key}"):
        EvalSettings(**{field: value})
    with pytest.raises(ValidationError) as err:
        parse_config(None, {f"eval.{key}": str(value)})
    assert [p for p in err.value.problems if f"eval.{key}" in p]


def test_image_only_counts_must_be_nonnegative():
    with pytest.raises(ValidationError) as err:
        parse_config(None, {**IDX_TASK, "data.augment_pad": "-1", "data.limit": "-1"})
    assert "data.augment_pad" in str(err.value) and "data.limit" in str(err.value)


def test_seed_flag_overrides_file(tmp_path):
    path = write_cfg(tmp_path)
    cfg = parse_config(path)
    assert cfg.seed == 5
    cfg = parse_config(path, {"run.seed": "7"})
    assert cfg.seed == 7 and cfg.train.seed == 7


def test_dotted_override_beats_file(tmp_path):
    path = write_cfg(tmp_path)
    cfg = parse_config(path, {"train.epsilon": "0.25"})
    assert cfg.train.epsilon == 0.25


def test_parse_error_on_bad_syntax(tmp_path):
    path = tmp_path / "broken.ini"
    path.write_text("[train\nepochs = 1\n")
    with pytest.raises(ParseError):
        parse_config(str(path))
    with pytest.raises(ParseError):
        parse_config(str(tmp_path / "missing.ini"))


def test_idx_missing_file_is_validation_error():
    with pytest.raises(ValidationError) as err:
        parse_config(None, {"data.kind": "idx"})
    assert "train_images" in str(err.value)


def test_k_subset_validation():
    with pytest.raises(ValidationError) as err:
        parse_config(None, {"model.zoo": "toy_mlp", "model.k": "0,1,2"})
    assert "model.k" in str(err.value)
    with pytest.raises(ValidationError) as err:
        parse_config(None, {"model.zoo": "toy_mlp", "model.eta": "0:0.1"})
    assert "model.eta" in str(err.value) and "missing [1]" in str(err.value)
    cfg = parse_config(None, {"model.zoo": "toy_mlp", "model.k": "1",
                              "model.eta": "1:0.2"})
    assert cfg.train.eta == {1: 0.2}


@pytest.mark.parametrize("overrides,positions", [
    ({"model.zoo": "toy_mlp", "model.k": "1"}, {1: 2}),
    ({"model.zoo": "toy_mlp", "model.k": "0"}, {0: 0}),
    ({"model.zoo": "toy_mlp"}, {0: 0, 1: 2}),
    ({**IDX_TASK, "model.in_shape": "1x8x8", "model.k": "0,2"}, {0: 0, 2: 6}),
    ({**IDX_TASK, "model.in_shape": "1x8x8"}, {0: 0, 1: 3, 2: 6})])
def test_build_model_builds_the_sites_of_model_k(overrides, positions):
    cfg = parse_config(None, overrides)
    assert build_model(cfg).site_positions == positions
    assert set(cfg.train.eta) == set(positions)


def test_run_writes_artifacts(tmp_path):
    path = write_cfg(tmp_path)
    cfg = parse_config(path, {"output.dir": str(tmp_path / "out")})
    assert run(cfg) == 0
    out = tmp_path / "out"
    assert (out / "metrics.csv").exists()
    assert (out / "final.ckpt").exists()
    assert (out / "landscape_slat.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert 0.0 <= summary["clean_acc"] <= 1.0
    assert 0.0 <= summary["robust_acc"] <= 1.0
    assert "boundary_ratio" in summary
    assert summary["aborted"] is None
    records = read_metrics_csv(out / "metrics.csv")
    assert records[0].step == 0


def test_final_record_and_summary_agree_on_robust_accuracy(tmp_path):
    # the default n_eval of 512 takes two attack slices in both places
    cfg = "[run]\nseed = 5\n[data]\nkind = toy\n[train]\nmethod = slat\n"
    out = tmp_path / "out"
    assert main(["train", "--config", write_cfg(tmp_path, cfg), "--out", str(out),
                 "--eval.epsilon=0.5", "--eval.steps=3",
                 "--output.save_landscape=false"]) == 0
    assert EvalSettings().n_eval == 512
    summary = json.loads((out / "summary.json").read_text())
    assert read_metrics_csv(out / "metrics.csv")[-1].pgd_acc == summary["robust_acc"]


def test_train_makes_no_pass_after_its_last_record(tmp_path, monkeypatch):
    # summary.json takes both accuracies from the last checkpoint record;
    # after it, only the toy boundary probe runs the model
    calls = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            before = pass_counts()
            out = fn(*args, **kwargs)
            calls.append((fn.__name__, before, pass_counts(), out))
            return out
        return wrapped

    monkeypatch.setattr(training, "evaluate_checkpoint",
                        spy(training.evaluate_checkpoint))
    monkeypatch.setattr(metrics, "boundary_nonrobust_ratio",
                        spy(metrics.boundary_nonrobust_ratio))
    cfg = "[run]\nseed = 5\n[data]\nkind = toy\n[train]\nmethod = slat\n"
    out = tmp_path / "out"
    assert main(["train", "--config", write_cfg(tmp_path, cfg), "--out", str(out),
                 "--eval.steps=3", "--output.save_landscape=false"]) == 0
    *_, (last, _, after_record, rec), (probe, before, after, _) = calls
    assert (last, probe) == ("evaluate_checkpoint", "boundary_nonrobust_ratio")
    assert before == after_record and pass_counts() == after
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["clean_acc"], summary["robust_acc"]) == (rec.clean_acc, rec.pgd_acc)


def test_run_deterministic_outputs(tmp_path):
    path = write_cfg(tmp_path)
    blobs, summaries = [], []
    for i in range(2):
        cfg = parse_config(path, {"output.dir": str(tmp_path / f"out{i}")})
        assert run(cfg) == 0
        blobs.append((tmp_path / f"out{i}" / "metrics.csv").read_bytes())
        s = json.loads((tmp_path / f"out{i}" / "summary.json").read_text())
        s.pop("wall_clock_sec")
        summaries.append(s)
    assert blobs[0] == blobs[1]
    assert summaries[0] == summaries[1]


def test_eval_only_reproduces_summary(tmp_path):
    path = write_cfg(tmp_path)
    out = str(tmp_path / "out")
    cfg = parse_config(path, {"output.dir": out})
    assert run(cfg) == 0
    first = json.loads((tmp_path / "out" / "summary.json").read_text())
    # another batch does not change what the records say
    cfg2 = parse_config(path, {"output.dir": out, "train.batch": "5"})
    assert run(cfg2, ckpt=os.path.join(out, "final.ckpt"), eval_only=True) == 0
    second = json.loads((tmp_path / "out" / "summary.json").read_text())
    for key in ("clean_acc", "robust_acc", "co_step", "steps_per_epoch"):
        assert first[key] == second[key]
    assert second["steps_per_epoch"] == 3     # 48 training examples, batch 16


def test_eval_without_records_reports_no_steps_per_epoch(tmp_path):
    path = write_cfg(tmp_path)
    ckpt = tmp_path / "init.ckpt"
    save_checkpoint(build_model(parse_config(path)), ckpt)
    assert main(["eval", "--config", path, "--out", str(tmp_path / "out"),
                 "--ckpt", str(ckpt)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["steps_per_epoch"] is None and summary["co_step"] is None


def test_eval_takes_steps_per_epoch_from_the_records_not_the_batch(tmp_path):
    # records of a run at 3 steps per epoch whose robust accuracy falls by 0.8
    # in 5 steps: a collapse within the default window of 2 epochs (6 steps).
    # Batch 48 would take 1 step per epoch over the 48 training examples.
    out = tmp_path / "out"
    out.mkdir()
    metrics.write_metrics_csv(
        [metrics.MetricRecord(step, step / 3, 0.9, pgd, 1.0, 0.5)
         for step, pgd in ((0, 0.9), (5, 0.1))], out / "metrics.csv")
    path = write_cfg(tmp_path)
    ckpt = tmp_path / "init.ckpt"
    save_checkpoint(build_model(parse_config(path)), ckpt)
    assert main(["eval", "--config", path, "--out", str(out), "--ckpt", str(ckpt),
                 "--train.batch=48"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["steps_per_epoch"], summary["co_step"]) == (3, 5)


def test_cli_train_and_exit_codes(tmp_path, capsys):
    path = write_cfg(tmp_path)
    out = str(tmp_path / "cli_out")
    assert main(["train", "--config", path, "--out", out, "--seed", "9"]) == 0
    summary = json.loads((tmp_path / "cli_out" / "summary.json").read_text())
    assert summary["seed"] == 9
    capsys.readouterr()
    assert main(["train", "--config", path, "--train.method=bogus"]) == 1
    assert main(["train", "--config", path, "--out", str(tmp_path / "eta_out"),
                 "--model.eta=0:0.1"]) == 1
    assert main(["train", "--config", path, "--out", str(tmp_path / "div_out"),
                 "--train.epsilon=1/0"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all(e.startswith("config error:") for e in err)
    assert "model.eta" in err[1] and "missing [1]" in err[1]
    assert "train.epsilon" in err[2] and "division by zero" in err[2]
    assert not (tmp_path / "eta_out").exists() and not (tmp_path / "div_out").exists()
    assert main(["eval", "--config", path, "--out", out,
                 "--ckpt", os.path.join(out, "final.ckpt")]) == 0


@pytest.mark.parametrize("argv", [
    ["train", "--bogus-flag"], ["eval"], ["train", "--eval-only"],
    ["sweep", "--param", "train.epsilon"], ["train", "--seed", "x"], []])
def test_cli_usage_error_is_one_line(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error: slatlab")


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--help"])
    assert exc.value.code == 0
    assert "--ckpt" in capsys.readouterr().out


def _with_cell(lines, row, col, text):
    cells = lines[row].split(",")
    cells[col] = text
    return lines[:row] + [",".join(cells)] + lines[row + 1:]


@pytest.mark.parametrize("edit,message", [
    (lambda lines: lines[:2] + ["3,0.5,0.9"] + lines[2:],
     "line 3: 3 cells, the header has 10"),
    (lambda lines: [ln.replace(",pgd_acc,", ",pgd,") for ln in lines],
     "no 'pgd_acc' column"),
    (lambda lines: _with_cell(lines, 2, 2, "abc"),
     "line 3: could not convert string to float: 'abc'"),
    (lambda lines: _with_cell(lines, 2, 1, "0.0"),
     "line 3: epoch 0.0 at step 3 gives no steps_per_epoch >= 1"),
    (lambda lines: _with_cell(lines, 2, 1, "nan"),
     "line 3: epoch nan at step 3 gives no steps_per_epoch >= 1"),
    (lambda lines: _with_cell(lines, 2, 1, "5e-324"),
     "line 3: epoch 5e-324 at step 3 gives no steps_per_epoch >= 1"),
    (lambda lines: _with_cell(lines, 2, 1, "4.0"),
     "line 3: epoch 4.0 at step 3 gives no steps_per_epoch >= 1")],
    ids=["partial row", "missing column", "non-numeric cell", "zero epoch",
         "nan epoch", "subnormal epoch", "epoch past its step"])
def test_eval_reports_a_bad_metrics_csv_in_one_line(tmp_path, capsys, edit, message):
    path = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["train", "--config", path, "--out", str(out)]) == 0
    csv = out / "metrics.csv"
    lines = edit(csv.read_text().splitlines())
    csv.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["eval", "--config", path, "--out", str(out),
                 "--ckpt", str(out / "final.ckpt")])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 1 and err[0].startswith("input error:")
    assert str(csv) in err[0] and err[0].endswith(message)


@pytest.mark.parametrize("override", [
    "--data.augment_pad=1", "--data.mu=1,2,3", "--data.mu=1", "--data.mu=nan,0",
    "--data.sigma=1,2,3", "--data.sigma=1", "--train.momentum=nan",
    "--train.momentum=1", "--train.momentum=-0.5", "--train.momentum=inf",
    "--train.weight_decay=nan", "--train.weight_decay=inf",
    "--train.weight_decay=-1e-4", "--train.lambda_ga=-1", "--train.lambda_ga=nan",
    "--train.checkpoint_every=-2", "--eval.co_window=-5", "--eval.alpha=-0.1",
    "--eval.alpha=nan", "--run.seed=-1", "--eval.seed=-1", "--data.limit=10"])
def test_cli_rejects_a_bad_value_in_one_line(tmp_path, capsys, override):
    out = tmp_path / "out"
    code = main(["train", "--config", write_cfg(tmp_path), "--out", str(out), override])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 1 and err[0].startswith("config error:")
    assert override[2:override.index("=")] in err[0]
    assert not out.exists()


def test_a_site_given_twice_in_eta_is_a_config_error_on_the_flag_and_in_a_sweep(
        tmp_path, capsys):
    value = "0:0.1,0:0.2,1:0.3"
    out = tmp_path / "out"
    assert main(["train", "--config", write_cfg(tmp_path), "--out", str(out),
                 f"--model.eta={value}"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: model.eta: bad value {value!r} (site 0 given twice)"]
    assert not out.exists()
    assert main(["sweep", "--config", write_cfg(tmp_path), "--out", str(out),
                 "--train.epochs=1", "--param", "model.eta",
                 "--values", f"0:0.1,1:0.1;{value}"]) == 1
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[:2] for row in rows[1:]] == [["0:0.1,1:0.1", "0"], [value, "1"]]


@pytest.mark.parametrize("value, pair", [
    ("0:0.1,1", "1"), ("0:0.1:2,1:0.1", "0:0.1:2"), ("a:0.1,1:0.1", "a:0.1")])
def test_a_malformed_eta_pair_is_named_in_one_config_error(tmp_path, capsys, value, pair):
    out = tmp_path / "out"
    assert main(["train", "--config", write_cfg(tmp_path), "--out", str(out),
                 f"--model.eta={value}"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: model.eta: bad value {value!r} "
        f"(each pair is site:step with an integer site; got {pair!r})"]
    assert not out.exists()


def test_a_negative_seed_is_a_config_error_on_the_flag_and_in_a_sweep(
        tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["train", "--config", write_cfg(tmp_path), "--out", str(out),
                 "--seed", "-1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and "run.seed" in err[0]
    assert not out.exists()
    assert main(["sweep", "--config", write_cfg(tmp_path), "--out", "sweep_out",
                 "--train.epochs=1", "--param", "run.seed", "--values", "2,-1"]) == 1
    lines = (tmp_path / "sweep_out" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("2,0,") and lines[2].startswith("-1,1,")


@pytest.mark.parametrize("overrides,kinds", [
    (["--model.activation=relu"], "relu"),
    (["--model.zoo=small_cnn", "--model.in_shape=1x8x8",
      "--model.activation=softplus"], "conv2d, flatten, maxpool2x2")])
def test_cli_rejects_fast_ga_on_a_non_smooth_model_in_one_line(
        tmp_path, capsys, overrides, kinds):
    out = tmp_path / "out"
    code = main(["train", "--config", write_cfg(tmp_path), "--out", str(out),
                 "--train.method=slat_fast_ga", *overrides])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 1 and err[0].startswith("config error:")
    assert "train.method" in err[0] and err[0].endswith(f"got {kinds}")
    assert not out.exists()


def test_fast_ga_sweep_keeps_the_smooth_row(tmp_path):
    code = main(["sweep", "--config", write_cfg(tmp_path), "--out", "sweep_out",
                 "--train.method=slat_fast_ga", "--train.epochs=1",
                 "--param", "model.activation", "--values", "softplus,relu"])
    assert code == 1
    lines = (tmp_path / "sweep_out" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("softplus,0,")
    assert lines[2].startswith("relu,1,")


def _garbage_checkpoint(tmp_path):
    path = tmp_path / "garbage.ckpt"
    path.write_bytes(b"garbage!")
    return ["eval", "--ckpt", str(path)]


def _missing_checkpoint(tmp_path):
    return ["eval", "--ckpt", str(tmp_path / "missing.ckpt")]


def _short_labels_file(tmp_path):
    write_idx_images(np.zeros((2, 8, 8), dtype=np.uint8), tmp_path / "i.idx")
    (tmp_path / "l.idx").write_bytes(b"\x00\x00\x08\x01")
    idx = {f"data.{split}_{part}": str(tmp_path / f"{part[0]}.idx")
           for split in ("train", "test") for part in ("images", "labels")}
    return ["train", "--data.kind=idx", "--model.in_shape=1x8x8",
            *(f"--{key}={value}" for key, value in idx.items())]


def _checkpoint_of_another_width(tmp_path):
    path = tmp_path / "wide.ckpt"
    save_checkpoint(build_toy_mlp(16), path)
    return ["eval", "--ckpt", str(path), "--model.hidden=8"]


@pytest.mark.parametrize("bad_input,prefix", [
    (_garbage_checkpoint, "input error: bad magic"),
    (_missing_checkpoint, "I/O error: [Errno 2]"),
    (_short_labels_file, "input error:"),
    (_checkpoint_of_another_width, "input error: layer0.w: shape (2, 16) != (2, 8)")])
def test_cli_reports_bad_input_in_one_line(tmp_path, capsys, bad_input, prefix):
    out = tmp_path / "out"
    code = main([*bad_input(tmp_path), "--config", write_cfg(tmp_path),
                 "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 1 and err[0].startswith(prefix)
    assert not out.exists()


def _eight_digit_images(tmp_path):
    """Overrides for an IDX task of eight 8x8 images, labels running 0-9."""
    images, labels = tmp_path / "i.idx", tmp_path / "l.idx"
    write_idx_images(np.zeros((8, 8, 8), dtype=np.uint8), images)
    write_idx_labels(np.array([0, 1, 2, 3, 4, 7, 8, 9]), labels)
    return ["--data.kind=idx", *(f"--data.{split}_{part}={path}"
                                 for split in ("train", "test")
                                 for part, path in (("images", images),
                                                    ("labels", labels)))]


@pytest.mark.parametrize("overrides,prefix,named", [
    (["--model.in_shape=1x6x6"], "config error:", "model.in_shape"),
    (["--model.in_shape=1x10x10"], "config error:", "model.in_shape"),
    (["--model.in_shape=1x8x8", "--model.classes=1"], "config error:",
     "model.classes"),
    ([], "input error:", "(1, 28, 28)"),
    (["--model.zoo=toy_mlp"], "input error:", "toy_mlp"),
    (["--model.in_shape=1x8x8", "--model.classes=3"], "input error:", "3 classes")],
    ids=["in_shape_6x6", "in_shape_10x10", "one_class", "default_28x28",
         "toy_mlp", "three_classes"])
def test_cli_reports_a_model_that_does_not_fit_its_data_in_one_line(
        tmp_path, capsys, overrides, prefix, named):
    out = tmp_path / "out"
    code = main(["train", "--config", write_cfg(tmp_path), "--out", str(out),
                 *_eight_digit_images(tmp_path), *overrides])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 1 and err[0].startswith(prefix)
    assert named in err[0]
    assert not out.exists()


@pytest.mark.parametrize("in_shape", ["0", "2,2"])
def test_cli_reports_a_bad_linear_width_in_one_line(tmp_path, capsys, in_shape):
    out = tmp_path / "out"
    code = main(["train", "--config", write_cfg(tmp_path), "--out", str(out),
                 "--model.zoo=linear", f"--model.in_shape={in_shape}"])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 1 and err[0].startswith("config error:")
    assert "model.in_shape" in err[0]
    assert not out.exists()


def _idx_task(tmp_path, n_train, n_test):
    """Overrides for an 8x8 IDX task of n_train and n_test random images."""
    rng = np.random.default_rng(0)
    args = ["--data.kind=idx", "--model.in_shape=1x8x8"]
    for split, n in (("train", n_train), ("test", n_test)):
        images, labels = tmp_path / f"{split}_i.idx", tmp_path / f"{split}_l.idx"
        write_idx_images(rng.integers(0, 256, size=(n, 8, 8)), images)
        write_idx_labels(rng.integers(0, 10, size=n), labels)
        args += [f"--data.{split}_images={images}", f"--data.{split}_labels={labels}"]
    return args


@pytest.mark.parametrize("verb,n_train,n_test", [
    ("train", 0, 4), ("train", 4, 0), ("eval", 4, 0)])
def test_cli_reports_an_empty_idx_set_in_one_line(tmp_path, capsys, verb,
                                                   n_train, n_test):
    ckpt = tmp_path / "init.ckpt"
    save_checkpoint(build_small_cnn((1, 8, 8), 10), ckpt)
    out = tmp_path / "out"
    code = main([verb, "--config", write_cfg(tmp_path), "--out", str(out),
                 "--ckpt", str(ckpt), *_idx_task(tmp_path, n_train, n_test)])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 1 and err[0].startswith("input error:")
    assert "no examples" in err[0]
    assert not out.exists()


def _spoil_the_training_pair(tmp_path, task, spoil):
    """task's overrides with its training pair corrupt, empty or absent."""
    if spoil == "absent":
        return [*task, *(f"--data.train_{part}={tmp_path / 'absent' / part}"
                         for part in ("images", "labels"))]
    if spoil == "corrupt":
        (tmp_path / "bad.idx").write_bytes(b"\x00\x00\x08\x01")
        return [*task, f"--data.train_labels={tmp_path / 'bad.idx'}"]
    (tmp_path / "empty").mkdir()
    return [*task, *_idx_task(tmp_path / "empty", 0, 1)[2:4]]


@pytest.mark.parametrize("spoil", ["corrupt", "empty", "absent"])
def test_eval_verbs_read_only_the_test_pair(tmp_path, capsys, monkeypatch, spoil):
    ckpt = tmp_path / "init.ckpt"
    save_checkpoint(build_small_cnn((1, 8, 8), 10, seed=3), ckpt)
    task = _idx_task(tmp_path, 4, 4)
    spoiled = _spoil_the_training_pair(tmp_path, task, spoil)
    opened = []
    load_idx = data.load_idx
    monkeypatch.setattr(data, "load_idx",
                        lambda images, labels: opened.append({images, labels})
                        or load_idx(images, labels))
    outputs = []
    for args in (task, spoiled):
        files = {}
        for verb in ("eval", "landscape"):
            out = tmp_path / f"{verb}_{len(outputs)}"
            opened.clear()
            assert main([verb, "--config", write_cfg(tmp_path), "--out", str(out),
                         "--ckpt", str(ckpt), *args]) == 0
            assert opened == [{str(tmp_path / "test_i.idx"), str(tmp_path / "test_l.idx")}]
            files.update({(verb, p.name): p.read_bytes() for p in out.iterdir()})
        summary = json.loads(files.pop(("eval", "summary.json")))
        summary.pop("wall_clock_sec")
        outputs.append((summary, files))
    assert outputs[0] == outputs[1]
    assert set(outputs[0][1]) == {("eval", "landscape_slat.csv"),
                                  ("landscape", "landscape_slat.csv")}
    capsys.readouterr()
    out = tmp_path / "train_out"
    assert main(["train", "--config", write_cfg(tmp_path), "--out", str(out),
                 *spoiled]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "I/O error:" if spoil == "absent" else "input error:")
    assert not out.exists()


@pytest.mark.parametrize("verb,key", [
    ("train", "train_images"), ("train", "train_labels"), ("train", "test_images"),
    ("train", "test_labels"), ("eval", "test_images"), ("eval", "test_labels"),
    ("landscape", "test_images"), ("landscape", "test_labels")])
def test_a_missing_idx_file_is_one_io_error_line(tmp_path, capsys, verb, key):
    ckpt = tmp_path / "init.ckpt"
    save_checkpoint(build_small_cnn((1, 8, 8), 10), ckpt)
    missing, out = tmp_path / "missing.idx", tmp_path / "out"
    code = main([verb, "--config", write_cfg(tmp_path), "--out", str(out),
                 "--ckpt", str(ckpt), *_idx_task(tmp_path, 4, 4),
                 f"--data.{key}={missing}"])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 1 and err[0].startswith("I/O error:")
    assert str(missing) in err[0]
    assert not out.exists()


def test_sweep_keeps_its_rows_past_a_bad_input_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    task = _idx_task(tmp_path, 4, 4)
    os.replace(tmp_path / "train_l.idx", tmp_path / "good.idx")
    (tmp_path / "bad.idx").write_bytes(b"\x00\x00\x08\x01")
    code = main(["sweep", "--config", write_cfg(tmp_path), "--out", "sweep_out",
                 *task, "--param", "data.train_labels",
                 "--values", "good.idx,bad.idx,absent.idx"])
    assert code == 1
    lines = (tmp_path / "sweep_out" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4
    assert lines[1].startswith("good.idx,0,")
    assert lines[2].startswith("bad.idx,1,")
    assert lines[3].startswith("absent.idx,1,")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert err[0].startswith("data.train_labels=bad.idx: input error:")
    assert err[1].startswith("data.train_labels=absent.idx: I/O error:")
    assert "absent.idx" in err[1][len("data.train_labels=absent.idx:"):]


def _no_constants(name):
    raise ValueError(f"not strict JSON: {name}")


def test_diverged_toy_run_reports_a_degenerate_boundary(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["train", "--config", write_cfg(tmp_path), "--out", str(out),
                 "--data.n_per_class=16", "--model.hidden=4", "--train.epochs=1",
                 "--train.lr_max=1e300"])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert err == ["degenerate decision boundary: "
                   "non-finite logit difference on probe grid"]
    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=_no_constants)
    assert summary["boundary_ratio"] is None and summary["aborted"] is None


@pytest.mark.parametrize("task", ["toy", "idx"])
def test_an_aborted_run_says_why_in_one_line(tmp_path, capsys, task):
    out = tmp_path / "out"
    extra = (["--data.n_per_class=16", "--data.test_n_per_class=16", "--model.hidden=4"]
             if task == "toy" else _idx_task(tmp_path, 16, 8))
    code = main(["train", "--config", write_cfg(tmp_path), "--out", str(out), *extra,
                 "--train.epochs=4", "--train.lr_max=1e300"])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert err == ["aborted: non-finite gradient for layer0.w"]
    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=_no_constants)
    assert summary["aborted"] == "non-finite gradient for layer0.w"
    if task == "toy":
        assert summary["boundary_ratio"] is None
    else:
        assert "boundary_ratio" not in summary
    assert sorted(p.name for p in out.iterdir()) == ["final.ckpt", "metrics.csv",
                                                      "summary.json"]


@pytest.mark.parametrize("mu,sigma", [(data.DEFAULT_TOY_MU, data.DEFAULT_TOY_SIGMA),
                                      ((3.0, 0.05), (0.5, 0.3))],
                         ids=["default", "other"])
def test_the_boundary_probe_scans_the_run_s_own_data_box(tmp_path, mu, sigma):
    path = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["train", "--config", path, "--out", str(out), "--train.method=standard",
                 f"--data.mu={mu[0]!r},{mu[1]!r}",
                 f"--data.sigma={sigma[0]!r},{sigma[1]!r}"]) == 0
    model = load_into(build_model(parse_config(path)),
                      load_checkpoint(out / "final.ckpt"))
    own = metrics.boundary_nonrobust_ratio(model, *metrics.probe_limits(mu, sigma))
    default = metrics.boundary_nonrobust_ratio(
        model, *metrics.probe_limits(data.DEFAULT_TOY_MU, data.DEFAULT_TOY_SIGMA))
    summary = json.loads((out / "summary.json").read_text())
    assert summary["boundary_ratio"] == own
    assert (own == default) == (mu == data.DEFAULT_TOY_MU)


def test_a_linear_toy_run_reports_its_boundary(tmp_path):
    out = tmp_path / "out"
    assert main(["train", "--config", write_cfg(tmp_path), "--out", str(out),
                 "--model.zoo=linear", "--model.in_shape=2"]) == 0
    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=_no_constants)
    assert np.isfinite(summary["boundary_ratio"]) and summary["aborted"] is None


def _metrics_csv_of_an_image_run(tmp_path, name, *overrides):
    out = tmp_path / name
    assert main(["train", "--config", write_cfg(tmp_path), "--out", str(out),
                 *_idx_task(tmp_path, 40, 8), "--data.limit=20", "--train.batch=16",
                 "--output.save_landscape=false", *overrides]) == 0
    summary = json.loads((out / "summary.json").read_text())
    return summary["steps_per_epoch"], (out / "metrics.csv").read_bytes()


def test_an_image_run_cuts_to_data_limit_and_augments_reproducibly(tmp_path):
    first = _metrics_csv_of_an_image_run(tmp_path, "a", "--data.augment_pad=2")
    again = _metrics_csv_of_an_image_run(tmp_path, "b", "--data.augment_pad=2")
    plain = _metrics_csv_of_an_image_run(tmp_path, "c", "--data.augment_pad=0")
    assert first[0] == plain[0] == 2     # 20 of the 40 examples, batch 16
    assert first == again
    assert first[1] != plain[1]


def test_cli_dotted_override(tmp_path):
    path = write_cfg(tmp_path)
    out = str(tmp_path / "ov_out")
    assert main(["train", "--config", path, "--out", out,
                 "--train.method=standard", "--eval.landscape_n=2"]) == 0
    assert (tmp_path / "ov_out" / "landscape_standard.csv").exists()


def test_sweep_merges_rows(tmp_path):
    path = write_cfg(tmp_path)
    out = str(tmp_path / "sweep_out")
    code = main(["sweep", "--config", path, "--out", out,
                 "--param", "train.epsilon", "--values", "0.05,0.1"])
    assert code == 0
    lines = (tmp_path / "sweep_out" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "train.epsilon,exit_code,clean_acc,robust_acc,co_step"
    assert len(lines) == 3
    assert lines[1].startswith("0.05,0")


def test_sweep_empty_values_is_config_error(tmp_path, capsys):
    path = write_cfg(tmp_path)
    for values in ("", "0.1,", ",0.1"):
        assert main(["sweep", "--config", path, "--param", "train.epsilon",
                     "--values", values]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
    assert not (tmp_path / "sweep_out").exists()


@pytest.mark.parametrize("param", ["train.wat", "seed", "output.dir"])
def test_sweep_rejects_a_param_it_cannot_set(tmp_path, capsys, param):
    out = tmp_path / "sweep_out"
    code = main(["sweep", "--config", write_cfg(tmp_path), "--out", str(out),
                 "--param", param, "--values", "1,2"])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and err == [
        f"config error: sweep over {param}: not a config key it can set"]
    assert not out.exists()


@pytest.mark.parametrize("values,first,second", [
    ("0.05,0.1,0.05", "0.05", "0.05"), ("1/20,1_20", "1/20", "1_20")],
    ids=["repeated value", "sanitised collision"])
def test_sweep_rejects_values_that_share_a_directory(tmp_path, capsys, values,
                                                     first, second):
    out = tmp_path / "sweep_out"
    code = main(["sweep", "--config", write_cfg(tmp_path), "--out", str(out),
                 "--param", "train.epsilon", "--values", values])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 1 and err[0].startswith("config error:")
    assert f"values {first!r} and {second!r} both write" in err[0]
    assert not out.exists()


def test_sweep_continues_past_failures(tmp_path, capsys):
    path = write_cfg(tmp_path)
    out = str(tmp_path / "sweep_fail")
    code = main(["sweep", "--config", path, "--out", out,
                 "--param", "train.method", "--values", "bogus,standard"])
    assert code == 1
    lines = (tmp_path / "sweep_fail" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("bogus,1")
    assert lines[2].startswith("standard,0")
    assert capsys.readouterr().err.splitlines() == [
        "train.method=bogus: config error: train.method: unknown method 'bogus'"]


def test_sweep_carries_per_site_eta(tmp_path):
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--config", write_cfg(tmp_path), "--out", str(out),
                 "--param", "model.eta", "--values", "0:0.1,1:0.05;0:0.2,1:0.1"]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["model.eta", "exit_code"]
    assert [row[:2] for row in rows[1:]] == [["0:0.1,1:0.05", "0"], ["0:0.2,1:0.1", "0"]]


def _run_files(out):
    """{file name: bytes} of a run directory, summary.json without its wall clock."""
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    summary = json.loads(files.pop("summary.json"))
    summary.pop("wall_clock_sec")
    return summary, files


def test_each_sweep_run_equals_a_standalone_train(tmp_path):
    path = write_cfg(tmp_path)
    assert main(["sweep", "--config", path, "--out", "sweep_out",
                 "--param", "train.epsilon", "--values", "0.05,1/8"]) == 0
    for value, name in (("0.05", "0.05"), ("1/8", "1_8")):
        alone = tmp_path / f"alone_{name}"
        assert main(["train", "--config", path, "--out", str(alone),
                     f"--train.epsilon={value}"]) == 0
        swept = _run_files(tmp_path / "sweep_out" / f"train.epsilon_{name}")
        assert swept == _run_files(alone)
        assert set(swept[1]) == {"metrics.csv", "final.ckpt", "landscape_slat.csv"}


def test_toy_demo_runs_every_method_past_a_bad_input_file(tmp_path, capsys):
    task = _idx_task(tmp_path, 4, 4)
    (tmp_path / "test_l.idx").write_bytes(b"\x00\x00\x08\x01")
    out = tmp_path / "demo"
    code = main(["toy-demo", "--config", write_cfg(tmp_path), "--out", str(out), *task])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 3
    for line, method in zip(err, ("standard", "fgsm_at", "slat")):
        assert line.startswith(f"train.method={method}: input error: ")
    nulls = dict.fromkeys(("clean_acc", "robust_acc", "boundary_ratio", "co_step"))
    assert json.loads((out / "summary.json").read_text()) == {
        "standard": nulls, "fgsm_at": nulls, "slat": nulls}


def test_toy_demo(tmp_path):
    out = str(tmp_path / "demo")
    code = main(["toy-demo", "--out", out, "--seed", "1",
                 "--data.n_per_class=24", "--data.test_n_per_class=24",
                 "--train.epochs=2", "--train.batch=16", "--eval.steps=3",
                 "--eval.n_eval=24", "--eval.align_n=8", "--eval.landscape_n=2"])
    assert code == 0
    merged = json.loads((tmp_path / "demo" / "summary.json").read_text())
    assert set(merged) == {"standard", "fgsm_at", "slat"}
    for block in merged.values():
        assert "boundary_ratio" in block and "robust_acc" in block


def test_cli_landscape_verb(tmp_path):
    path = write_cfg(tmp_path)
    out = str(tmp_path / "ls_out")
    assert main(["train", "--config", path, "--out", out]) == 0
    assert main(["landscape", "--config", path, "--out", out,
                 "--ckpt", os.path.join(out, "final.ckpt")]) == 0
    assert (tmp_path / "ls_out" / "landscape_slat.csv").exists()


def test_landscape_verb_evaluates_the_examples_eval_does(tmp_path):
    path = write_cfg(tmp_path)
    out, ev_out, ls_out = (tmp_path / d for d in ("out", "ev_out", "ls_out"))
    assert main(["train", "--config", path, "--out", str(out)]) == 0
    ckpt = str(out / "final.ckpt")
    for verb, where in (("eval", ev_out), ("landscape", ls_out)):
        assert main([verb, "--config", path, "--out", str(where), "--ckpt", ckpt]) == 0
    assert ((ls_out / "landscape_slat.csv").read_bytes()
            == (ev_out / "landscape_slat.csv").read_bytes())
