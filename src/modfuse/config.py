"""Flat key-value run configuration.

Grammar: one ``key = value`` pair per line; ``#`` starts a comment; blank
lines are ignored. Keys are dotted lowercase identifiers. Values are
integers, floats, booleans (``true``/``false``), bare strings, or
comma-separated lists. Errors carry the line number and field name.

A run is described by the modality list plus three blocks: ``bench.*``
(synthetic data), ``model.*`` (architecture), ``train.*`` (optimization).
``to_text`` emits a canonical sorted form whose SHA-256 is the config
digest stored in checkpoints.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

from modfuse.bench import BenchModality, BenchSpec
from modfuse.fusion import STRATEGIES
from modfuse.model import FusionModel, ModelDims
from modfuse.training import TrainConfig


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")


def parse_kv_text(text: str,
                  source: str = "<config>") -> dict[str, tuple[str, int]]:
    """Raw key -> (value string, line number), with line-numbered
    diagnostics."""
    out: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', "
                              f"got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"{source}:{lineno}: bad key {key!r}")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key '{key}' "
                              f"(first set on line {out[key][1]})")
        out[key] = (value, lineno)
    return out


def _convert(key: str, value: str, kind: type, where: str):
    try:
        if kind is bool:
            low = value.lower()
            if low not in ("true", "false"):
                raise ValueError
            return low == "true"
        if kind is int:
            return int(value)
        if kind is float:
            return float(value)
        return value
    except ValueError:
        raise ConfigError(f"{where}: field '{key}' expects "
                          f"{kind.__name__}, got {value!r}") from None


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


_BENCH_FIELDS = {"alphabet": int, "noise": float, "train_size": int,
                 "test_size": int, "seed": int}
_MODEL_FIELDS = {"d": int, "layers": int, "heads": int, "tokens": int,
                 "rank": int, "head_width": int, "head_layers": int,
                 "seed": int, "strategy": str, "train_classifier": bool,
                 "modalities": str}
_TRAIN_FIELDS = {"lr": float, "beta1": float, "beta2": float, "epochs": int,
                 "batch_size": int, "seed": int, "tau": float, "mode": str,
                 "early_exit": bool, "exit_on_rise": bool,
                 "eval_batch": int}
_RUN_FIELDS = {"name": str, "outdir": str}


@dataclass
class RunConfig:
    spec: BenchSpec
    dims: ModelDims
    train: TrainConfig
    major: str
    strategy: str = "SelfGated"
    model_seed: int = 0
    train_classifier: bool = False
    model_modalities: tuple = ()
    name: str = "run"
    outdir: str = ""

    def __post_init__(self):
        # Empty means "attach every benchmark modality"; normalize so the
        # field always holds the effective tuple and configs compare equal
        # after a to_text/parse round trip.
        if not self.model_modalities:
            self.model_modalities = tuple(m.name
                                          for m in self.spec.modalities)

    def validate(self) -> None:
        names = [m.name for m in self.spec.modalities]
        if self.major not in names:
            raise ConfigError(f"major modality '{self.major}' is not in "
                              f"modalities {names}")
        if len(set(self.model_modalities)) != len(self.model_modalities):
            raise ConfigError("model.modalities has duplicate names")
        for n in self.model_modalities:
            if n not in names:
                raise ConfigError(f"model.modalities entry '{n}' is not in "
                                  f"modalities {names}")
        if self.major not in self.model_modalities:
            raise ConfigError(f"major modality '{self.major}' must be one "
                              f"of model.modalities "
                              f"{list(self.model_modalities)}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown fusion strategy '{self.strategy}'; "
                              f"choose from {', '.join(STRATEGIES)}")
        for name, low in (("d", 1), ("layers", 1), ("heads", 1),
                          ("tokens", 1), ("head_width", 0),
                          ("head_layers", 0)):
            value = getattr(self.dims, name)
            if value < low:
                raise ConfigError(f"model.{name} must be at least {low}, "
                                  f"got {value}")
        if self.model_seed < 0:
            raise ConfigError(f"model.seed must be non-negative, got "
                              f"{self.model_seed}")
        if not 1 <= self.dims.rank < self.dims.d:
            raise ConfigError(f"model.rank must be at least 1 and below "
                              f"model.d ({self.dims.d}), got "
                              f"{self.dims.rank}")
        if self.dims.d % self.dims.heads:
            raise ConfigError("model.d must be divisible by model.heads")
        if self.dims.resolved_head_width() % self.dims.heads:
            raise ConfigError("head width must be divisible by model.heads")
        try:
            self.train.validate()
        except ValueError as e:
            raise ConfigError(str(e)) from None

    def to_text(self) -> str:
        """Canonical sorted key-value form; parsing it reproduces self."""
        pairs: dict[str, str] = {}
        pairs["modalities"] = ",".join(m.name for m in self.spec.modalities)
        pairs["major"] = self.major
        for m in self.spec.modalities:
            pairs[f"modality.{m.name}.feat_dim"] = str(m.feat_dim)
            pairs[f"modality.{m.name}.seq_len"] = str(m.seq_len)
        for name in _BENCH_FIELDS:
            pairs[f"bench.{name}"] = _format(getattr(self.spec, name))
        for name, kind in _MODEL_FIELDS.items():
            if name == "strategy":
                pairs["model.strategy"] = self.strategy
            elif name == "seed":
                pairs["model.seed"] = str(self.model_seed)
            elif name == "train_classifier":
                pairs["model.train_classifier"] = _format(self.train_classifier)
            elif name == "modalities":
                pairs["model.modalities"] = ",".join(self.model_modalities)
            else:
                pairs[f"model.{name}"] = _format(getattr(self.dims, name))
        for name in _TRAIN_FIELDS:
            pairs[f"train.{name}"] = _format(getattr(self.train, name))
        pairs["run.name"] = self.name
        pairs["run.outdir"] = self.outdir
        lines = [f"{k} = {pairs[k]}" for k in sorted(pairs)]
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse and validate a full run configuration."""
    entries = parse_kv_text(text, source)
    raw = {key: value for key, (value, _) in entries.items()}

    def at(key: str) -> str:
        return f"{source}:{entries[key][1]}"

    if "modalities" not in raw:
        raise ConfigError("field 'modalities' is required")
    names = [n.strip() for n in raw.pop("modalities").split(",") if n.strip()]
    if not names:
        raise ConfigError("field 'modalities' must list at least one name")
    if len(set(names)) != len(names):
        raise ConfigError("field 'modalities' has duplicate names")
    major = raw.pop("major", names[0])

    mods = []
    for n in names:
        fd_key, sl_key = f"modality.{n}.feat_dim", f"modality.{n}.seq_len"
        if fd_key not in raw:
            raise ConfigError(f"field '{fd_key}' is required")
        feat_dim = _convert(fd_key, raw.pop(fd_key), int, at(fd_key))
        seq_len = (_convert(sl_key, raw.pop(sl_key), int, at(sl_key))
                   if sl_key in raw else 8)
        mods.append(BenchModality(n, feat_dim, seq_len))

    bench_kw, model_kw, train_kw, run_kw = {}, {}, {}, {}
    strategy, model_seed, train_classifier = "SelfGated", 0, False
    model_mods: tuple = ()
    for key, value in raw.items():
        block, _, name = key.partition(".")
        if block == "bench" and name in _BENCH_FIELDS:
            bench_kw[name] = _convert(key, value, _BENCH_FIELDS[name], at(key))
        elif block == "model" and name in _MODEL_FIELDS:
            converted = _convert(key, value, _MODEL_FIELDS[name], at(key))
            if name == "strategy":
                strategy = converted
            elif name == "seed":
                model_seed = converted
            elif name == "train_classifier":
                train_classifier = converted
            elif name == "modalities":
                model_mods = tuple(n.strip() for n in converted.split(",")
                                   if n.strip())
            else:
                model_kw[name] = converted
        elif block == "train" and name in _TRAIN_FIELDS:
            train_kw[name] = _convert(key, value, _TRAIN_FIELDS[name], at(key))
        elif block == "run" and name in _RUN_FIELDS:
            run_kw[name] = _convert(key, value, _RUN_FIELDS[name], at(key))
        elif key.startswith("modality."):
            raise ConfigError(f"{at(key)}: field '{key}' refers to a "
                              f"modality not in 'modalities'")
        else:
            raise ConfigError(f"{at(key)}: unknown key '{key}'")

    try:
        spec = BenchSpec(modalities=tuple(mods), **bench_kw)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    config = RunConfig(spec=spec, dims=ModelDims(**model_kw),
                       train=TrainConfig(**train_kw), major=major,
                       strategy=strategy, model_seed=model_seed,
                       train_classifier=train_classifier,
                       model_modalities=model_mods, **run_kw)
    config.validate()
    return config


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    return parse_config(text, source=path)


def build_model(config: RunConfig):
    """Construct the model a config describes."""
    by_name = {m.name: m for m in config.spec.modalities}
    return FusionModel(config.dims,
                       [by_name[n] for n in config.model_modalities],
                       config.major, config.strategy, config.spec.vocab,
                       config.spec.classes, config.model_seed,
                       train_classifier=config.train_classifier)
