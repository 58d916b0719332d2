"""Experiment driver. Verbs: train, eval, sweep, landscape, toy-demo.

Every run writes metrics.csv, final.ckpt, landscape_<method>.csv and
summary.json into its output directory; exit codes are 0 (success, or --help),
1 (usage or config error, corrupt, empty or unreadable input file, data the
model cannot take, or a toy run whose decision boundary is degenerate),
2 (aborted on a non-finite gradient).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import metrics as metrics_mod
from . import models as models_mod
from . import training
from .attacks import AttackSpec
from .config import (ParseError, ValidationError, build_datasets, build_model,
                     parse_config)
from .data import BadMagic, CountMismatch, EmptyDataset, TruncatedFile

_OVERRIDE_RE = re.compile(r"^--([a-z_]+\.[a-z_]+)=(.*)$")


class DataMismatch(Exception):
    """A dataset whose input shape or labels the configured model cannot take."""


# A corrupt, empty or unreadable input file, or data that does not fit the
# model: exit code 1, never a traceback.
INPUT_ERRORS = (models_mod.CheckpointError, BadMagic, TruncatedFile,
                CountMismatch, EmptyDataset, DataMismatch,
                metrics_mod.BadMetricsCsv, OSError)


class UsageError(Exception):
    """A command line that argparse rejects: exit code 1, never its usage text."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def run(cfg, ckpt=None, eval_only=False):
    """Train (unless eval_only) and summarize one experiment. Returns exit code.

    A diverged run is reported by its exit code, summary.json and at most
    one stderr line, so numpy's floating-point warnings are off inside it.
    """
    with np.errstate(all="ignore"):
        return _run(cfg, ckpt, eval_only)


def _load(cfg, ckpt=None):
    """(train set, test set, model), each set checked against the model, with
    the checkpoint's parameters loaded if one is given."""
    train_ds, test_ds = build_datasets(cfg)
    model = build_model(cfg)
    for name, ds in (("training", train_ds), ("test", test_ds)):
        if ds.xs.shape[1:] != model.input_shape:
            raise DataMismatch(f"{name} examples have shape {ds.xs.shape[1:]}, the "
                               f"{cfg.model.zoo} model takes {model.input_shape}")
        if ds.ys.min() < 0 or ds.ys.max() >= model.n_classes:
            raise DataMismatch(f"{name} labels span {ds.ys.min()}..{ds.ys.max()}, "
                               f"the model has {model.n_classes} classes")
    if ckpt:
        models_mod.load_into(model, models_mod.load_checkpoint(ckpt))
    return train_ds, test_ds, model


def _run(cfg, ckpt, eval_only):
    t0 = time.perf_counter()
    train_ds, test_ds, model = _load(cfg, ckpt)
    out = cfg.output.dir
    os.makedirs(out, exist_ok=True)

    steps_per_epoch = math.ceil(len(train_ds) / cfg.train.batch)
    records = []
    aborted = None
    if not eval_only:
        writer = metrics_mod.MetricCsvWriter(os.path.join(out, "metrics.csv"))
        try:
            training.train(model, train_ds, cfg.train,
                           sinks=(writer, records.append),
                           eval_data=test_ds, eval_settings=cfg.eval)
        except training.NonFiniteGradient as exc:
            aborted = str(exc)
        finally:
            writer.close()
    elif os.path.exists(os.path.join(out, "metrics.csv")):
        records = metrics_mod.read_metrics_csv(os.path.join(out, "metrics.csv"))

    ev = cfg.eval
    attack = AttackSpec(kind="pgd", epsilon=ev.epsilon, alpha=ev.alpha,
                        steps=ev.attack_steps, restarts=ev.attack_restarts,
                        clamp=test_ds.input_scale, seed=ev.seed)
    eval_subset = training.eval_subset(test_ds, ev.n_eval, cfg.seed)

    summary = {
        "method": cfg.train.method,
        "seed": cfg.seed,
        "epochs": cfg.train.epochs,
        "steps_per_epoch": steps_per_epoch,
        "clean_acc": metrics_mod.accuracy(model, eval_subset.xs, eval_subset.ys),
        "robust_acc": metrics_mod.robust_accuracy(model, eval_subset, attack),
        "attack": {"kind": "pgd", "epsilon": ev.epsilon, "steps": ev.attack_steps,
                   "restarts": ev.attack_restarts},
        "aborted": aborted,
    }
    window = ev.co_window or 2 * steps_per_epoch
    summary["co_step"] = metrics_mod.detect_catastrophic_overfitting(
        records, window) if records else None
    degenerate = None
    if model.input_shape == (2,) and model.n_classes == 2:
        try:
            summary["boundary_ratio"] = metrics_mod.boundary_nonrobust_ratio(model)
        except metrics_mod.DegenerateBoundary as exc:
            summary["boundary_ratio"] = None
            degenerate = str(exc)

    if cfg.output.save_landscape and aborted is None:
        _save_landscape(cfg, model, eval_subset)
    if cfg.output.save_checkpoint and not eval_only:
        models_mod.save_checkpoint(model, os.path.join(out, "final.ckpt"))

    summary["wall_clock_sec"] = time.perf_counter() - t0
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    if degenerate:
        print(f"degenerate decision boundary: {degenerate}", file=sys.stderr)
    return 2 if aborted else 1 if degenerate else 0


def _save_landscape(cfg, model, eval_subset):
    """Loss landscape over the first 64 examples of the eval subset, as
    landscape_<method>.csv."""
    sample = eval_subset.subset(np.arange(min(64, len(eval_subset))))
    grid = metrics_mod.loss_landscape(model, sample.xs, sample.ys, cfg.eval.epsilon,
                                      n=cfg.eval.landscape_n, seed=cfg.eval.seed)
    path = os.path.join(cfg.output.dir, f"landscape_{cfg.train.method}.csv")
    metrics_mod.save_landscape_csv(grid, path)
    return path


def sweep(config_path, overrides, param, values, out_root):
    """One run per value of a dotted config parameter; merged sweep.csv."""
    if not values or not all(v.strip() for v in values):
        raise ValidationError([f"sweep over {param}: empty value in {values!r}"])
    env = os.environ.get("SLATLAB_THREADS")
    try:
        workers = max(1, int(env) if env else min(len(values), os.cpu_count() or 1))
    except ValueError:
        raise ValidationError([f"SLATLAB_THREADS: not an integer: {env!r}"]) from None
    dirs = [os.path.join(out_root, f"{param}_{re.sub(r'[^A-Za-z0-9_.-]', '_', v)}")
            for v in values]
    for i, d in enumerate(dirs):
        if d in dirs[:i]:
            raise ValidationError([f"sweep over {param}: values "
                                   f"{values[dirs.index(d)]!r} and {values[i]!r} "
                                   f"both write {d}"])
    os.makedirs(out_root, exist_ok=True)

    def one(value, out_dir):
        ov = dict(overrides)
        ov[param] = value
        ov["output.dir"] = out_dir
        try:
            cfg = parse_config(config_path, ov)
            code = run(cfg)
            with open(os.path.join(ov["output.dir"], "summary.json")) as fh:
                summary = json.load(fh)
            return value, code, summary
        except (ParseError, ValidationError, *INPUT_ERRORS) as exc:
            return value, 1, {"error": str(exc)}

    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(one, values, dirs))

    with open(os.path.join(out_root, "sweep.csv"), "w") as fh:
        fh.write(f"{param},exit_code,clean_acc,robust_acc,co_step\n")
        for value, code, summary in results:
            fh.write(",".join([
                value, str(code),
                repr(summary.get("clean_acc", float("nan"))),
                repr(summary.get("robust_acc", float("nan"))),
                str(summary.get("co_step")),
            ]) + "\n")
    worst = max((code for _, code, _ in results), default=0)
    return worst


def toy_demo(config_path, overrides):
    """Paired standard / FGSM-AT / SLAT runs on the toy task."""
    base = parse_config(config_path, overrides)
    out_root = base.output.dir
    os.makedirs(out_root, exist_ok=True)
    merged = {}
    code = 0
    for method in ("standard", "fgsm_at", "slat"):
        ov = dict(overrides)
        ov["train.method"] = method
        ov["output.dir"] = os.path.join(out_root, method)
        cfg = parse_config(config_path, ov)
        code = max(code, run(cfg))
        with open(os.path.join(ov["output.dir"], "summary.json")) as fh:
            s = json.load(fh)
        merged[method] = {k: s.get(k) for k in
                          ("clean_acc", "robust_acc", "boundary_ratio", "co_step")}
    with open(os.path.join(out_root, "summary.json"), "w") as fh:
        json.dump(merged, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(merged, indent=2, sort_keys=True))
    return code


def _split_overrides(argv):
    rest, overrides = [], {}
    for tok in argv:
        m = _OVERRIDE_RE.match(tok)
        if m:
            overrides[m.group(1)] = m.group(2)
        else:
            rest.append(tok)
    return rest, overrides


def _build_parser():
    p = _Parser(prog="slatlab", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp):
        sp.add_argument("--config", default=None, help="INI experiment config")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None, help="output directory")

    sp = sub.add_parser("train", help="train a model and write artifacts")
    common(sp)
    sp.add_argument("--ckpt", default=None, help="warm-start checkpoint")
    sp = sub.add_parser("eval", help="summarize a saved checkpoint")
    common(sp)
    sp.add_argument("--ckpt", required=True)
    sp = sub.add_parser("sweep", help="run the config once per parameter value")
    common(sp)
    sp.add_argument("--param", required=True, help="dotted key, e.g. train.epsilon")
    sp.add_argument("--values", required=True,
                    help="comma-separated values, fractions like 8/255 allowed")
    sp = sub.add_parser("landscape", help="loss-landscape grid for a checkpoint")
    common(sp)
    sp.add_argument("--ckpt", required=True)
    sp = sub.add_parser("toy-demo", help="standard vs FGSM-AT vs SLAT on the toy task")
    common(sp)
    return p


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    rest, overrides = _split_overrides(argv)
    try:
        args = _build_parser().parse_args(rest)
        if args.seed is not None:
            overrides["run.seed"] = str(args.seed)
        if args.out is not None:
            overrides["output.dir"] = args.out
        if args.verb == "sweep":
            return sweep(args.config, overrides, args.param,
                         args.values.split(","),
                         overrides.get("output.dir", "sweep_out"))
        if args.verb == "toy-demo":
            return toy_demo(args.config, overrides)

        cfg = parse_config(args.config, overrides)
        if args.verb == "train":
            return run(cfg, ckpt=args.ckpt)
        if args.verb == "eval":
            return run(cfg, ckpt=args.ckpt, eval_only=True)
        if args.verb == "landscape":
            _, test_ds, model = _load(cfg, args.ckpt)
            os.makedirs(cfg.output.dir, exist_ok=True)
            subset = training.eval_subset(test_ds, cfg.eval.n_eval, cfg.seed)
            print(_save_landscape(cfg, model, subset))
            return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except INPUT_ERRORS as exc:
        kind = "I/O" if isinstance(exc, OSError) else "input"
        print(f"{kind} error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
