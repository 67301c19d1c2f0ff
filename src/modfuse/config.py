"""Flat key-value run configuration.

Grammar: one ``key = value`` pair per line; ``#`` starts a comment; blank
lines are ignored. Keys are dotted lowercase identifiers. Values are
integers, floats, booleans (``true``/``false``), bare strings, or
comma-separated lists. Errors carry the line number and field name.

A run is described by the modality list plus three blocks: ``bench.*``
(synthetic data), ``model.*`` (architecture), ``train.*`` (optimization),
and ``run.*``. ``KEYS`` lists every block key with its field and type, read
from the dataclass fields of ``BenchSpec`` (all but ``modalities``),
``ModelDims`` and ``TrainConfig``, plus the six kept on ``RunConfig``
itself; a new field there is a new key. ``to_text`` emits a canonical
sorted form whose SHA-256 is the config digest stored in checkpoints.

Each of those dataclasses is frozen and checks its own ranges when built;
``RunConfig`` adds the rules across blocks (``major``,
``model.modalities``, the strategy, ``model.seed``). ``parse_config``
reports any of them as a ``ConfigError``, and fills in the one default
that depends on another key: an absent ``model.modalities`` attaches
every benchmark modality.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, fields
from typing import get_type_hints

from modfuse.bench import BenchModality, BenchSpec
from modfuse.fusion import STRATEGIES
from modfuse.model import RESERVED_NAMES, FusionModel, ModelDims
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
    if kind is tuple:
        names = tuple(n.strip() for n in value.split(",") if n.strip())
        if not names:
            raise ConfigError(f"{where}: field '{key}' must list at least "
                              f"one name")
        if len(set(names)) != len(names):
            raise ConfigError(f"{where}: field '{key}' has duplicate names")
        for name in names:
            if name in RESERVED_NAMES:
                raise ConfigError(f"{where}: field '{key}' names '{name}', "
                                  f"which is reserved; "
                                  f"{', '.join(RESERVED_NAMES)} name other "
                                  f"parts of the model")
        return names
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
    if isinstance(value, tuple):
        return ",".join(value)
    return str(value)


@dataclass(frozen=True)
class RunConfig:
    spec: BenchSpec
    dims: ModelDims
    train: TrainConfig
    major: str
    model_modalities: tuple
    strategy: str = "SelfGated"
    model_seed: int = 0
    train_classifier: bool = False
    name: str = "run"
    outdir: str = ""

    def __post_init__(self):
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
        if self.model_seed < 0:
            raise ConfigError(f"model.seed must be non-negative, got "
                              f"{self.model_seed}")

    def to_text(self) -> str:
        """Canonical sorted key-value form; parsing it reproduces self."""
        pairs: dict[str, str] = {}
        pairs["modalities"] = ",".join(m.name for m in self.spec.modalities)
        pairs["major"] = self.major
        for m in self.spec.modalities:
            pairs[f"modality.{m.name}.feat_dim"] = str(m.feat_dim)
            pairs[f"modality.{m.name}.seq_len"] = str(m.seq_len)
        for key, (block, name, _) in KEYS.items():
            holder = self if block is None else getattr(self, block)
            pairs[key] = _format(getattr(holder, name))
        lines = [f"{k} = {pairs[k]}" for k in sorted(pairs)]
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()


def _field_keys(prefix: str, block: str, cls, skip: tuple = ()) -> dict:
    hints = get_type_hints(cls)
    return {f"{prefix}.{f.name}": (block, f.name, hints[f.name])
            for f in fields(cls) if f.name not in skip}


_RUN_HINTS = get_type_hints(RunConfig)
# every key outside ``modalities``, ``major`` and ``modality.<m>.*``: the
# RunConfig field holding its block (None: RunConfig itself), its field
# name there and the field's type
KEYS: dict[str, tuple[str | None, str, type]] = {
    **_field_keys("bench", "spec", BenchSpec, skip=("modalities",)),
    **_field_keys("model", "dims", ModelDims),
    **_field_keys("train", "train", TrainConfig),
    **{key: (None, name, _RUN_HINTS[name]) for key, name in (
        ("model.strategy", "strategy"), ("model.seed", "model_seed"),
        ("model.train_classifier", "train_classifier"),
        ("model.modalities", "model_modalities"),
        ("run.name", "name"), ("run.outdir", "outdir"))},
}


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse a full run configuration; every range is checked as its
    dataclass is built."""
    entries = parse_kv_text(text, source)
    raw = {key: value for key, (value, _) in entries.items()}

    def at(key: str) -> str:
        return f"{source}:{entries[key][1]}"

    if "modalities" not in raw:
        raise ConfigError("field 'modalities' is required")
    names = _convert("modalities", raw.pop("modalities"), tuple,
                     at("modalities"))
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

    kwargs: dict[str | None, dict] = {block: {} for block, _, _ in
                                      KEYS.values()}
    for key, value in raw.items():
        if key in KEYS:
            block, name, kind = KEYS[key]
            kwargs[block][name] = _convert(key, value, kind, at(key))
        elif key.startswith("modality."):
            raise ConfigError(f"{at(key)}: field '{key}' refers to a "
                              f"modality not in 'modalities'")
        else:
            raise ConfigError(f"{at(key)}: unknown key '{key}'")

    # an absent model.modalities attaches every benchmark modality
    kwargs[None].setdefault("model_modalities", names)
    try:
        return RunConfig(spec=BenchSpec(modalities=tuple(mods),
                                        **kwargs["spec"]),
                         dims=ModelDims(**kwargs["dims"]),
                         train=TrainConfig(**kwargs["train"]), major=major,
                         **kwargs[None])
    except ValueError as e:
        raise ConfigError(str(e)) from None


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
