"""Experiment configuration: flat INI sections, dotted CLI overrides,
validation with every violation reported, and dataset/model construction.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import data as data_mod
from . import models as models_mod
from .training import METHODS, EvalSettings, TrainSpec


class ParseError(Exception):
    pass


class ValidationError(Exception):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


ALLOWED_KEYS = {
    "run": {"seed"},
    "model": {"zoo", "hidden", "activation", "classes", "in_shape", "k", "eta"},
    "data": {"kind", "n_per_class", "test_n_per_class", "mu", "sigma",
             "train_images", "train_labels", "test_images", "test_labels",
             "limit", "augment_pad"},
    "train": {"method", "epochs", "batch", "lr_max", "momentum",
              "weight_decay", "epsilon", "checkpoint_every", "lambda_ga",
              "peak_fraction"},
    "eval": {"epsilon", "alpha", "steps", "restarts", "n_eval", "align_n",
             "landscape_n", "co_window", "seed"},
    "output": {"dir", "save_checkpoint", "save_landscape"},
}

_ZOO_SITES = {"linear": (0,), "toy_mlp": (0, 1), "small_cnn": (0, 1, 2)}


def parse_number(text):
    """Float literal or a/b fraction, so radii read like the usual 8/255."""
    text = str(text).strip()
    if "/" in text:
        a, b = text.split("/", 1)
        return float(a) / float(b)
    return float(text)


def _parse_bool(text):
    t = str(text).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_eta(text):
    """Uniform step ('0.1') or per-site pairs ('0:0.1,1:0.05')."""
    text = str(text).strip()
    if ":" not in text:
        return parse_number(text)
    out = {}
    for part in text.split(","):
        k, v = part.split(":")
        out[int(k)] = parse_number(v)
    return out


@dataclass
class ModelCfg:
    zoo: str = "toy_mlp"
    hidden: int = 16
    activation: str = "relu"
    classes: int = 2
    in_shape: tuple = (2,)
    k: tuple | None = None       # None: the zoo model's full site set
    eta: float | dict | None = None


@dataclass
class DataCfg:
    kind: str = "toy"
    n_per_class: int = 500
    test_n_per_class: int = 500
    mu: tuple = data_mod.DEFAULT_TOY_MU
    sigma: tuple = data_mod.DEFAULT_TOY_SIGMA
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    limit: int = 0               # keep only the first N training examples
    augment_pad: int = 0


@dataclass
class EvalCfg:
    epsilon: float | None = None
    alpha: float | None = None
    steps: int = 20
    restarts: int = 1
    n_eval: int = 512
    align_n: int = 128
    landscape_n: int = 21
    co_window: int = 0           # 0: two epochs worth of steps
    seed: int = 9001


@dataclass
class OutputCfg:
    dir: str = "out"
    save_checkpoint: bool = True
    save_landscape: bool = True


@dataclass
class ExperimentConfig:
    seed: int = 0
    model: ModelCfg = field(default_factory=ModelCfg)
    data: DataCfg = field(default_factory=DataCfg)
    train: TrainSpec = field(default_factory=TrainSpec)
    eval: EvalCfg = field(default_factory=EvalCfg)
    output: OutputCfg = field(default_factory=OutputCfg)


_SETTERS = {
    ("run", "seed"): lambda c, v: setattr(c, "seed", int(v)),
    ("model", "zoo"): lambda c, v: setattr(c.model, "zoo", v.strip()),
    ("model", "hidden"): lambda c, v: setattr(c.model, "hidden", int(v)),
    ("model", "activation"): lambda c, v: setattr(c.model, "activation", v.strip()),
    ("model", "classes"): lambda c, v: setattr(c.model, "classes", int(v)),
    ("model", "in_shape"): lambda c, v: setattr(
        c.model, "in_shape", tuple(int(t) for t in v.replace("x", ",").split(","))),
    ("model", "k"): lambda c, v: setattr(
        c.model, "k", tuple(int(t) for t in v.split(","))),
    ("model", "eta"): lambda c, v: setattr(c.model, "eta", _parse_eta(v)),
    ("data", "kind"): lambda c, v: setattr(c.data, "kind", v.strip()),
    ("data", "n_per_class"): lambda c, v: setattr(c.data, "n_per_class", int(v)),
    ("data", "test_n_per_class"): lambda c, v: setattr(
        c.data, "test_n_per_class", int(v)),
    ("data", "mu"): lambda c, v: setattr(
        c.data, "mu", tuple(parse_number(t) for t in v.split(","))),
    ("data", "sigma"): lambda c, v: setattr(
        c.data, "sigma", tuple(parse_number(t) for t in v.split(","))),
    ("data", "train_images"): lambda c, v: setattr(c.data, "train_images", v.strip()),
    ("data", "train_labels"): lambda c, v: setattr(c.data, "train_labels", v.strip()),
    ("data", "test_images"): lambda c, v: setattr(c.data, "test_images", v.strip()),
    ("data", "test_labels"): lambda c, v: setattr(c.data, "test_labels", v.strip()),
    ("data", "limit"): lambda c, v: setattr(c.data, "limit", int(v)),
    ("data", "augment_pad"): lambda c, v: setattr(c.data, "augment_pad", int(v)),
    ("train", "method"): lambda c, v: setattr(c.train, "method", v.strip()),
    ("train", "epochs"): lambda c, v: setattr(c.train, "epochs", int(v)),
    ("train", "batch"): lambda c, v: setattr(c.train, "batch", int(v)),
    ("train", "lr_max"): lambda c, v: setattr(c.train, "lr_max", parse_number(v)),
    ("train", "momentum"): lambda c, v: setattr(c.train, "momentum", parse_number(v)),
    ("train", "weight_decay"): lambda c, v: setattr(
        c.train, "weight_decay", parse_number(v)),
    ("train", "epsilon"): lambda c, v: setattr(c.train, "epsilon", parse_number(v)),
    ("train", "checkpoint_every"): lambda c, v: setattr(
        c.train, "checkpoint_every", int(v)),
    ("train", "lambda_ga"): lambda c, v: setattr(
        c.train, "lambda_ga", parse_number(v)),
    ("train", "peak_fraction"): lambda c, v: setattr(
        c.train, "peak_fraction", parse_number(v)),
    ("eval", "epsilon"): lambda c, v: setattr(c.eval, "epsilon", parse_number(v)),
    ("eval", "alpha"): lambda c, v: setattr(c.eval, "alpha", parse_number(v)),
    ("eval", "steps"): lambda c, v: setattr(c.eval, "steps", int(v)),
    ("eval", "restarts"): lambda c, v: setattr(c.eval, "restarts", int(v)),
    ("eval", "n_eval"): lambda c, v: setattr(c.eval, "n_eval", int(v)),
    ("eval", "align_n"): lambda c, v: setattr(c.eval, "align_n", int(v)),
    ("eval", "landscape_n"): lambda c, v: setattr(c.eval, "landscape_n", int(v)),
    ("eval", "co_window"): lambda c, v: setattr(c.eval, "co_window", int(v)),
    ("eval", "seed"): lambda c, v: setattr(c.eval, "seed", int(v)),
    ("output", "dir"): lambda c, v: setattr(c.output, "dir", v.strip()),
    ("output", "save_checkpoint"): lambda c, v: setattr(
        c.output, "save_checkpoint", _parse_bool(v)),
    ("output", "save_landscape"): lambda c, v: setattr(
        c.output, "save_landscape", _parse_bool(v)),
}


def _apply(cfg, section, key, value, problems, explicit):
    if section not in ALLOWED_KEYS:
        problems.append(f"unknown section [{section}]")
        return
    if key not in ALLOWED_KEYS[section]:
        problems.append(f"unknown key {section}.{key}")
        return
    try:
        _SETTERS[(section, key)](cfg, value)
        explicit.add((section, key))
    except (ValueError, KeyError) as exc:
        problems.append(f"{section}.{key}: bad value {value!r} ({exc})")


def parse_config(path=None, overrides=None):
    """Config file plus dotted overrides -> validated ExperimentConfig.

    Overrides ({'train.epsilon': '0.1'}) are applied after the file values.
    Raises ParseError on unreadable syntax and ValidationError listing every
    violated constraint at once.
    """
    cfg = ExperimentConfig()
    problems = []
    explicit = set()

    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ParseError(str(exc)) from exc
        for section in parser.sections():
            for key, value in parser.items(section):
                _apply(cfg, section, key, value, problems, explicit)

    for dotted, value in (overrides or {}).items():
        if "." not in dotted:
            problems.append(f"override {dotted!r} is not section.key")
            continue
        section, key = dotted.split(".", 1)
        _apply(cfg, section, key, value, problems, explicit)

    _fill_defaults(cfg, explicit)
    problems += _validate(cfg)
    if problems:
        raise ValidationError(problems)
    cfg.train.seed = cfg.seed
    eta = cfg.model.eta
    cfg.train.eta = (dict(eta) if isinstance(eta, dict)
                     else {k: eta for k in _sites(cfg)})
    return cfg


def _sites(cfg):
    return cfg.model.k if cfg.model.k is not None else _ZOO_SITES[cfg.model.zoo]


def _fill_defaults(cfg, explicit):
    """Radius defaults depend on the task: 0.1 on the toy task, 8/255 on images."""
    toy = cfg.data.kind == "toy"
    if ("train", "epsilon") not in explicit:
        cfg.train.epsilon = 0.1 if toy else 8 / 255
    if ("model", "eta") not in explicit and cfg.model.eta is None:
        cfg.model.eta = cfg.train.epsilon
    if toy and ("model", "zoo") not in explicit:
        cfg.model.zoo = "toy_mlp"
    if not toy and ("model", "zoo") not in explicit:
        cfg.model.zoo = "small_cnn"
    if not toy and ("model", "in_shape") not in explicit:
        cfg.model.in_shape = (1, 28, 28)
    if not toy and ("model", "classes") not in explicit:
        cfg.model.classes = 10


def _finite_nonneg(value):
    return math.isfinite(value) and value >= 0


def _validate(cfg):
    problems = []
    eta = cfg.model.eta
    etas = eta.values() if isinstance(eta, dict) else [eta]
    if not all(_finite_nonneg(v) for v in etas):
        problems.append("model.eta (default: train.epsilon) must be finite and >= 0")
    if cfg.model.zoo not in _ZOO_SITES:
        problems.append(f"model.zoo: unknown zoo {cfg.model.zoo!r}")
    else:
        avail = set(_ZOO_SITES[cfg.model.zoo])
        if cfg.model.k is not None and not set(cfg.model.k) <= avail:
            problems.append(
                f"model.k: sites {sorted(set(cfg.model.k) - avail)} not available "
                f"for {cfg.model.zoo} (has {sorted(avail)})")
        elif isinstance(eta, dict) and set(eta) != set(_sites(cfg)):
            sites = set(_sites(cfg))
            problems.append(
                f"model.eta: per-site steps must cover exactly the sites "
                f"{sorted(sites)}; missing {sorted(sites - set(eta))}, "
                f"unknown {sorted(set(eta) - sites)}")
    if cfg.model.activation not in ("relu", "softplus"):
        problems.append(f"model.activation: {cfg.model.activation!r}")
    if cfg.data.kind not in ("toy", "idx"):
        problems.append(f"data.kind: {cfg.data.kind!r}")
    if cfg.data.kind == "idx":
        for key in ("train_images", "train_labels", "test_images", "test_labels"):
            p = getattr(cfg.data, key)
            if not p:
                problems.append(f"data.{key}: required for idx datasets")
            elif not os.path.exists(p):
                problems.append(f"data.{key}: no such file {p!r}")
    if cfg.train.method not in METHODS:
        problems.append(f"train.method: {cfg.train.method!r}")
    if cfg.train.epochs < 1 or cfg.train.batch < 1:
        problems.append("train.epochs and train.batch must be >= 1")
    if not (math.isfinite(cfg.train.lr_max) and cfg.train.lr_max > 0):
        problems.append("train.lr_max must be finite and > 0")
    if not _finite_nonneg(cfg.train.epsilon):
        problems.append("train.epsilon must be finite and >= 0")
    if cfg.eval.epsilon is not None and not _finite_nonneg(cfg.eval.epsilon):
        problems.append("eval.epsilon must be finite and >= 0")
    if not 0 < cfg.train.peak_fraction < 1:
        problems.append("train.peak_fraction must be in (0, 1)")
    if cfg.eval.steps < 1 or cfg.eval.restarts < 1:
        problems.append("eval.steps and eval.restarts must be >= 1")
    if cfg.eval.n_eval < 1 or cfg.eval.align_n < 1:
        problems.append("eval.n_eval and eval.align_n must be >= 1")
    return problems


def build_model(cfg):
    m = cfg.model
    if m.zoo == "linear":
        model = models_mod.build_linear(m.in_shape[0], m.classes, seed=cfg.seed)
    elif m.zoo == "toy_mlp":
        model = models_mod.build_toy_mlp(m.hidden, m.activation, seed=cfg.seed)
    else:
        sites = m.k if m.k is not None else (0, 1, 2)
        model = models_mod.build_small_cnn(m.in_shape, m.classes, m.activation,
                                           seed=cfg.seed, sites=sites)
    if m.k is not None and m.zoo != "small_cnn":
        model.site_positions = {k: model.site_positions[k] for k in m.k}
        model.K = sorted(model.site_positions)
    return model


def build_datasets(cfg):
    """Returns (train dataset, held-out test dataset)."""
    d = cfg.data
    if d.kind == "toy":
        train = data_mod.gen_toy(data_mod.ToySpec(d.mu, d.sigma, d.n_per_class,
                                                  seed=cfg.seed))
        test = data_mod.gen_toy(data_mod.ToySpec(d.mu, d.sigma, d.test_n_per_class,
                                                 seed=cfg.seed + 10_000))
        return train, test
    train = data_mod.load_idx(d.train_images, d.train_labels)
    test = data_mod.load_idx(d.test_images, d.test_labels)
    if d.limit:
        train = train.subset(np.arange(min(d.limit, len(train))))
    return train, test


def eval_settings(cfg):
    e = cfg.eval
    return EvalSettings(epsilon=e.epsilon, attack_steps=e.steps,
                        attack_restarts=e.restarts, alpha=e.alpha,
                        n_eval=e.n_eval, align_n=e.align_n, seed=e.seed)
