"""Flat key-value run configuration.

Grammar: one ``key = value`` pair per line; ``#`` starts a comment; blank
lines are ignored. Keys are dotted lowercase identifiers. Values are
integers, floats, booleans (``true``/``false``), bare strings, or
comma-separated lists. Errors carry the source, line and key.

A run is described by the modality list plus three blocks: ``bench.*``
(synthetic data), ``model.*`` (architecture), ``train.*`` (optimization),
and ``run.*``. ``KEYS`` lists every block key with its field and type, read
from the dataclass fields of ``BenchSpec`` (all but ``modalities``),
``ModelDims`` and ``TrainConfig``, plus the six kept on ``RunConfig``
itself; a new field there is a new key. ``to_text`` emits a canonical
sorted form whose SHA-256 is the config digest stored in checkpoints.

Each of those dataclasses is frozen and checks its own ranges when built;
``RunConfig`` adds the rules across blocks (``model.check_modalities`` on
both name lists, ``fusion.check_strategy``, ``model.seed``). Each rule
raises a ``ConfigError`` naming its keys, and ``parse_config`` prefixes
``source:line`` of the first of them that the text sets. An absent
``model.modalities`` attaches every benchmark modality.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, fields
from typing import get_type_hints

from modfuse.bench import BenchModality, BenchSpec
from modfuse.errors import ConfigError, at_least
from modfuse.fusion import check_strategy
from modfuse.model import FusionModel, ModelDims, check_modalities
from modfuse.training import TrainConfig

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


def _convert(key: str, value: str, kind: type):
    if kind is tuple:
        return tuple(n.strip() for n in value.split(",") if n.strip())
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
        raise ConfigError(f"field '{key}' expects {kind.__name__}, "
                          f"got {value!r}", key) from None


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
        # the model's rules on names hold for the benchmark's list too,
        # since an absent model.modalities attaches all of it
        check_modalities(self.spec.names, self.major, "modalities")
        check_modalities(self.model_modalities, self.major,
                         "model.modalities")
        for n in self.model_modalities:
            if n not in self.spec.names:
                raise ConfigError(f"model.modalities entry '{n}' is not in "
                                  f"modalities {self.spec.names}",
                                  "model.modalities")
        check_strategy(self.strategy)
        at_least("model.seed", self.model_seed, 0)

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
    dataclass is built, and every error is prefixed with ``source:line``."""
    entries = parse_kv_text(text, source)
    try:
        return _build({key: value for key, (value, _) in entries.items()})
    except ConfigError as e:
        line = next((entries[k][1] for k in e.keys if k in entries), None)
        where = source if line is None else f"{source}:{line}"
        raise ConfigError(f"{where}: {e}") from None


def _build(raw: dict[str, str]) -> RunConfig:
    if "modalities" not in raw:
        raise ConfigError("field 'modalities' is required")
    names = _convert("modalities", raw.pop("modalities"), tuple)
    major = raw.pop("major", names[0] if names else "")
    # before the list's own modality.<m>.* keys are read
    check_modalities(names, major, "modalities")

    mods = []
    for n in names:
        fd_key, sl_key = f"modality.{n}.feat_dim", f"modality.{n}.seq_len"
        if fd_key not in raw:
            raise ConfigError(f"field '{fd_key}' is required")
        feat_dim = _convert(fd_key, raw.pop(fd_key), int)
        seq_len = (_convert(sl_key, raw.pop(sl_key), int)
                   if sl_key in raw else 8)
        mods.append(BenchModality(n, feat_dim, seq_len))

    kwargs: dict[str | None, dict] = {block: {} for block, _, _ in
                                      KEYS.values()}
    for key, value in raw.items():
        if key in KEYS:
            block, name, kind = KEYS[key]
            kwargs[block][name] = _convert(key, value, kind)
        elif key.startswith("modality."):
            raise ConfigError(f"field '{key}' refers to a modality not in "
                              f"'modalities'", key)
        else:
            raise ConfigError(f"unknown key '{key}'", key)

    # an absent model.modalities attaches every benchmark modality
    kwargs[None].setdefault("model_modalities", names)
    return RunConfig(spec=BenchSpec(modalities=tuple(mods), **kwargs["spec"]),
                     dims=ModelDims(**kwargs["dims"]),
                     train=TrainConfig(**kwargs["train"]), major=major,
                     **kwargs[None])


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
