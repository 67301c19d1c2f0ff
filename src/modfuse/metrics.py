"""JSONL training metrics.

One record per epoch, schema-versioned, with canonical key order and no
timestamps, so a rerun of the same config writes byte-identical files.
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


def summarize(records: list[dict]) -> dict:
    """Final-epoch snapshot of one run's record stream."""
    if not records:
        raise ValueError("no records to summarize")
    for i, rec in enumerate(records, start=1):
        for key in ("epoch", "mode", "loss", "accuracy.overall", "active",
                    "census.trainable", "census.total", "token_budget",
                    "flops"):
            node = rec
            for part in key.split("."):
                if not isinstance(node, dict) or part not in node:
                    raise ValueError(f"record {i} has no '{key}'")
                node = node[part]
    last = records[-1]
    exits = {}
    for rec in records:
        for m in rec.get("grad_mag", {}):
            if m not in rec["active"] and m not in exits:
                exits[m] = rec["epoch"]
    return {
        "epochs": last["epoch"],
        "mode": last["mode"],
        "loss": last["loss"],
        "accuracy": last["accuracy"],
        "active": last["active"],
        "exits": exits,
        "token_budget": last["token_budget"],
        "flops": last["flops"],
        "trainable": last["census"]["trainable"],
        "total": last["census"]["total"],
    }
