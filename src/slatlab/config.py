"""Experiment configuration: flat INI sections, dotted CLI overrides,
validation with every violation reported, and dataset/model construction.
"""

from __future__ import annotations

import configparser
import math
import typing
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from . import data as data_mod
from . import models as models_mod
from .training import EvalSettings, TrainSpec, fast_ga_problem


class ParseError(Exception):
    pass


class ValidationError(Exception):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


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
        site, sep, step = part.partition(":")
        try:
            site = int(site) if sep and ":" not in step else None
        except ValueError:
            site = None
        if site is None:
            raise ValueError("each pair is site:step with an integer site; "
                             f"got {part.strip()!r}")
        if site in out:
            raise ValueError(f"site {site} given twice")
        out[site] = parse_number(step)
    return out


def _parse_ints(text):
    return tuple(int(t) for t in str(text).split(","))


def _parse_shape(text):
    """'1,28,28' or '1x28x28'."""
    return _parse_ints(str(text).replace("x", ","))


def _parse_numbers(text):
    return tuple(parse_number(t) for t in str(text).split(","))


@dataclass
class ModelCfg:
    zoo: str = "toy_mlp"
    hidden: int = 16
    activation: str = "relu"
    classes: int = 2
    in_shape: tuple = field(default=(2,), metadata={"parse": _parse_shape})
    # None: the zoo model's full site set
    k: tuple | None = field(default=None, metadata={"parse": _parse_ints})
    eta: float | dict | None = field(default=None, metadata={"parse": _parse_eta})


@dataclass
class DataCfg:
    kind: str = "toy"
    n_per_class: int = 500
    test_n_per_class: int = 500
    mu: tuple = field(default=data_mod.DEFAULT_TOY_MU,
                      metadata={"parse": _parse_numbers})
    sigma: tuple = field(default=data_mod.DEFAULT_TOY_SIGMA,
                         metadata={"parse": _parse_numbers})
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    limit: int = 0               # keep only the first N training examples
    augment_pad: int = 0


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
    eval: EvalSettings = field(default_factory=EvalSettings)
    output: OutputCfg = field(default_factory=OutputCfg)


_PARSERS = {int: int, float: parse_number, str: str.strip, bool: _parse_bool}


def _keys(cls):
    """INI key -> (field name, parser) for the scalar fields of a dataclass.

    A key is named after its field unless the field's metadata gives an
    "ini" name (None: not a key). Its parser is the metadata's "parse" or
    the one for the field's type, with `| None` dropped.
    """
    hints = typing.get_type_hints(cls)
    keys = {}
    for f in fields(cls):
        key = f.metadata.get("ini", f.name)
        if key is None or is_dataclass(f.default_factory):
            continue
        base = [t for t in typing.get_args(hints[f.name]) or (hints[f.name],)
                if t is not type(None)]
        keys[key] = (f.name, f.metadata.get("parse") or _PARSERS[base[0]])
    return keys


# section -> INI key -> (field name, parser); [run] holds ExperimentConfig's
# own scalar fields, every other section one dataclass field of it.
_SCHEMA = {"run": _keys(ExperimentConfig),
           **{f.name: _keys(f.default_factory) for f in fields(ExperimentConfig)
              if is_dataclass(f.default_factory)}}


def _apply(cfg, section, key, value, problems, explicit):
    if section not in _SCHEMA:
        problems.append(f"unknown section [{section}]")
        return
    if key not in _SCHEMA[section]:
        problems.append(f"unknown key {section}.{key}")
        return
    name, parse = _SCHEMA[section][key]
    try:
        parsed = parse(value)
    except (ValueError, ZeroDivisionError) as exc:
        problems.append(f"{section}.{key}: bad value {value!r} ({exc})")
        return
    setattr(cfg if section == "run" else getattr(cfg, section), name, parsed)
    explicit.add((section, key))


def parse_config(path=None, overrides=None):
    """Config file plus dotted overrides -> validated ExperimentConfig.

    Overrides ({'train.epsilon': '0.1'}) are applied after the file values.
    Raises ParseError on unreadable syntax and ValidationError listing every
    violated constraint at once. The derived values are resolved here and
    nowhere else: `train.seed` (run.seed), `train.augment_pad`
    (data.augment_pad), `train.eta` (model.eta as a site -> step dict) and
    `eval.epsilon` (train.epsilon unless set).
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
    cfg.train.augment_pad = cfg.data.augment_pad
    cfg.train.eta = models_mod.site_steps(
        cfg.model.eta, models_mod.zoo_sites(cfg.model.zoo, cfg.model.k))
    if cfg.eval.epsilon is None:
        cfg.eval.epsilon = cfg.train.epsilon
    return cfg


def _fill_defaults(cfg, explicit):
    """Radius defaults depend on the task: 0.1 on the toy task, 8/255 on images."""
    toy = cfg.data.kind == "toy"
    if ("train", "epsilon") not in explicit:
        cfg.train.epsilon = 0.1 if toy else 8 / 255
    if cfg.model.eta is None:
        cfg.model.eta = cfg.train.epsilon
    if not toy and ("model", "zoo") not in explicit:
        cfg.model.zoo = "small_cnn"
    if not toy and ("model", "in_shape") not in explicit:
        cfg.model.in_shape = (1, 28, 28)
    if not toy and ("model", "classes") not in explicit:
        cfg.model.classes = 10


def _validate(cfg):
    problems = []
    if cfg.seed < 0:
        problems.append("run.seed must be >= 0")
    eta = cfg.model.eta
    etas = eta.values() if isinstance(eta, dict) else [eta]
    if not all(math.isfinite(v) and v >= 0 for v in etas):
        problems.append("model.eta (default: train.epsilon) must be finite and >= 0")
    if cfg.model.zoo not in models_mod.ZOO_SITES:
        problems.append(f"model.zoo: unknown zoo {cfg.model.zoo!r}")
    else:
        avail = set(models_mod.ZOO_SITES[cfg.model.zoo])
        sites = avail if cfg.model.k is None else set(cfg.model.k)
        if not sites <= avail:
            problems.append(
                f"model.k: sites {sorted(sites - avail)} not available "
                f"for {cfg.model.zoo} (has {sorted(avail)})")
        elif isinstance(eta, dict) and set(eta) != sites:
            problems.append(
                f"model.eta: per-site steps must cover exactly the sites "
                f"{sorted(sites)}; missing {sorted(sites - set(eta))}, "
                f"unknown {sorted(set(eta) - sites)}")
    if cfg.model.hidden < 1:
        problems.append("model.hidden must be >= 1")
    if cfg.model.classes < 2:
        problems.append("model.classes must be >= 2")
    if cfg.model.zoo == "small_cnn" and (
            why := models_mod.small_cnn_shape_problem(cfg.model.in_shape)):
        problems.append(f"model.in_shape: {why}")
    if cfg.model.zoo == "linear" and not (len(cfg.model.in_shape) == 1
                                          and cfg.model.in_shape[0] >= 1):
        problems.append(f"model.in_shape: linear needs one width >= 1, "
                        f"got {cfg.model.in_shape}")
    if cfg.model.activation not in ("relu", "softplus"):
        problems.append(f"model.activation: {cfg.model.activation!r}")
    if cfg.data.kind not in ("toy", "idx"):
        problems.append(f"data.kind: {cfg.data.kind!r}")
    if cfg.data.kind == "toy":
        if cfg.data.n_per_class < 1 or cfg.data.test_n_per_class < 1:
            problems.append("data.n_per_class and data.test_n_per_class must be >= 1")
        if len(cfg.data.mu) != 2 or not all(map(math.isfinite, cfg.data.mu)):
            problems.append("data.mu must be 2 finite numbers")
        if len(cfg.data.sigma) != 2 or not all(
                math.isfinite(s) and s > 0 for s in cfg.data.sigma):
            problems.append("data.sigma must be 2 finite numbers > 0")
        if cfg.data.augment_pad:
            problems.append("data.augment_pad must be 0 on the toy task "
                            "(it pads images)")
        if cfg.data.limit:
            problems.append("data.limit must be 0 on the toy task (it cuts IDX sets)")
    if cfg.data.augment_pad < 0 or cfg.data.limit < 0:
        problems.append("data.augment_pad and data.limit must be >= 0")
    if cfg.data.kind == "idx":
        for key in ("train_images", "train_labels", "test_images", "test_labels"):
            p = getattr(cfg.data, key)
            if not p:
                problems.append(f"data.{key}: required for idx datasets")
    problems += cfg.train.problems() + cfg.eval.problems()
    if not problems and cfg.train.method == "slat_fast_ga" and (
            why := fast_ga_problem(build_model(cfg))):
        problems.append(f"train.method: {why}")
    return problems


def build_model(cfg):
    m = cfg.model
    if m.zoo == "linear":
        return models_mod.build_linear(m.in_shape[0], m.classes, seed=cfg.seed)
    if m.zoo == "toy_mlp":
        return models_mod.build_toy_mlp(m.hidden, m.activation, seed=cfg.seed,
                                        sites=m.k)
    return models_mod.build_small_cnn(m.in_shape, m.classes, m.activation,
                                      seed=cfg.seed, sites=m.k)


def build_dataset(cfg, split):
    """The "train" or held-out "test" dataset of the configured task."""
    d = cfg.data
    if d.kind == "toy":
        n, seed = ((d.n_per_class, cfg.seed) if split == "train"
                   else (d.test_n_per_class, cfg.seed + 10_000))
        return data_mod.gen_toy(data_mod.ToySpec(d.mu, d.sigma, n, seed=seed))
    ds = data_mod.load_idx(getattr(d, f"{split}_images"), getattr(d, f"{split}_labels"))
    if split == "train" and d.limit:
        ds = ds.subset(np.arange(min(d.limit, len(ds))))
    return ds


def build_datasets(cfg):
    """Returns (train dataset, held-out test dataset)."""
    return build_dataset(cfg, "train"), build_dataset(cfg, "test")
