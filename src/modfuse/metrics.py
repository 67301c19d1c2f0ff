"""JSONL training metrics.

One record per epoch, schema-versioned, with canonical key order and no
timestamps, so a rerun of the same config writes byte-identical files.
The record is also the one schema a run is read through: ``summarize``
checks the fields in ``FIELDS`` by kind and returns the final record
with each modality's exit epoch added.
"""

from __future__ import annotations

import json

from modfuse.bench import QUESTION_LEN
from modfuse.errors import read_text
from modfuse.fusion import token_budget
from modfuse.model import FusionModel
from modfuse.reasoner import reasoner_flops
from modfuse.training import TrainReport, census_summary

SCHEMA_VERSION = 1


def run_records(model: FusionModel, report: TrainReport) -> list[dict]:
    """One metrics record per trained epoch."""
    census = census_summary(model)
    budget = token_budget(model.strategy, len(model.order), model.dims.tokens)
    # analytic per-example cost of the frozen reasoning stage
    flops = reasoner_flops(len(model.order), model.dims.tokens,
                           QUESTION_LEN, model.strategy, model.dims.d)
    return [{
        "schema": SCHEMA_VERSION,
        "epoch": e.epoch,
        "mode": report.mode,
        "loss": round(e.loss, 8),
        "accuracy": {k: round(v, 6) for k, v in e.accuracy.items()},
        "grad_mag": {m: round(v, 10) for m, v in e.grad_mag.items()},
        "indicator": {m: (None if v is None else round(v, 10))
                      for m, v in e.indicator.items()},
        "active": list(e.active),
        "census": census,
        "token_budget": budget,
        "flops": flops,
    } for e in report.epochs]


def dumps_record(record: dict) -> str:
    return json.dumps(record, sort_keys=True,
                      separators=(",", ":"))


def write_jsonl(path: str, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(dumps_record(record) + "\n")


def read_jsonl(path: str) -> list[dict]:
    records = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}:{lineno}: {e.msg} at column "
                             f"{e.colno}") from None
        if not isinstance(record, dict):
            raise ValueError(f"{path}:{lineno}: expected a JSON object, "
                             f"got {type(record).__name__}")
        records.append(record)
    return records


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return _is_int(v) or isinstance(v, float)


_KINDS = {
    "an integer": _is_int,
    "a number": _is_number,
    "a string": lambda v: isinstance(v, str),
    "a list of names": lambda v: (isinstance(v, list)
                                  and all(isinstance(x, str) for x in v)),
    "a dict of numbers": lambda v: (isinstance(v, dict)
                                    and all(map(_is_number, v.values()))),
}

# The fields a run is read through (summarize, the report table), by
# dotted path: the kind of value each holds, and whether it may be
# absent. A path is found before its value's kind is checked, and
# accuracy.overall comes before accuracy, so a record whose accuracy is
# no dict lacks accuracy.overall.
FIELDS = (("epoch", "an integer", True),
          ("mode", "a string", True),
          ("loss", "a number", True),
          ("accuracy.overall", "a number", True),
          ("accuracy", "a dict of numbers", True),
          ("active", "a list of names", True),
          ("grad_mag", "a dict of numbers", False),
          ("census.trainable", "an integer", True),
          ("census.total", "an integer", True),
          ("token_budget", "an integer", True),
          ("flops", "an integer", True))


def _check_record(i: int, rec: dict) -> None:
    for key, kind, required in FIELDS:
        node = rec
        for part in key.split("."):
            if not isinstance(node, dict) or part not in node:
                if not required:
                    break
                raise ValueError(f"record {i} has no '{key}'")
            node = node[part]
        else:
            if not _KINDS[kind](node):
                raise ValueError(f"record {i}: '{key}' must be {kind}, "
                                 f"got {json.dumps(node)}")


def summarize(records: list[dict]) -> dict:
    """A run's final record, plus ``exits``: the epoch at which each
    modality with a gradient magnitude first left the active set."""
    if not records:
        raise ValueError("no records to summarize")
    for i, rec in enumerate(records, start=1):
        _check_record(i, rec)
    exits = {}
    for rec in records:
        for m in rec.get("grad_mag", {}):
            if m not in rec["active"] and m not in exits:
                exits[m] = rec["epoch"]
    return {**records[-1], "exits": exits}
