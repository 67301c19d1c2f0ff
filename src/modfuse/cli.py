"""Command line interface.

    modfuse train <config> [--out DIR]
    modfuse eval <checkpoint> [--modalities a,b] [--reference C] [--force]
    modfuse ablate <config> --axis fusion|rank|tokens|mode [--out DIR]
    modfuse gradcheck [--sample N]
    modfuse report <metrics.jsonl> [...]

Invalid configs and unreadable checkpoints exit nonzero with a
diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from modfuse.checkpoint import CheckpointError
from modfuse.config import ConfigError, load_config
from modfuse.runner import (ABLATE_AXES, METRICS_NAME, resolve_outdir,
                            run_ablate, run_eval, run_gradcheck, run_train)


def _accuracy_line(acc: dict) -> str:
    parts = [f"overall {acc['overall']:.3f}"]
    parts += [f"{k} {v:.3f}" for k, v in acc.items() if k != "overall"]
    return "  ".join(parts)


def cmd_train(args) -> int:
    config = load_config(args.config)
    outdir = resolve_outdir(config, args.out)
    result = run_train(config, outdir, log=print)
    print("final: " + _accuracy_line(result["summary"]["accuracy"]))
    exits = result["summary"]["exits"]
    if exits:
        joined = ", ".join(f"{m} at epoch {e}" for m, e in exits.items())
        print(f"early exits: {joined}")
    return 0


def cmd_eval(args) -> int:
    modalities = None
    if args.modalities is not None:
        modalities = [m.strip() for m in args.modalities.split(",")
                      if m.strip()]
        if not modalities:
            raise ValueError(f"--modalities names no modality: "
                             f"{args.modalities!r}")
    result = run_eval(args.checkpoint, modalities=modalities,
                      reference=args.reference, force=args.force, log=print)
    print(f"visible modalities: {', '.join(result['visible'])} "
          f"({result['examples']} examples)")
    print(_accuracy_line(result["accuracy"]))
    if "easy" in result:
        print(f"easy ({result['easy_count']}): "
              + _accuracy_line(result["easy"]))
        print(f"hard ({result['hard_count']}): "
              + _accuracy_line(result["hard"]))
    return 0


def _print_table(rows: list[dict]) -> None:
    if not rows:
        return
    header = f"{'variant':<20} {'overall':>8} {'unimodal':>9} {'equal':>7} " \
             f"{'count':>7} {'trainable':>10} {'budget':>7} {'flops':>10}"
    print(header)
    print("-" * len(header))
    for row in rows:
        # "-": the run's test split holds no question of that template
        acc = {k: f"{v:.3f}" for k, v in row["accuracy"].items()}
        print(f"{row['label']:<20} {acc['overall']:>8} "
              f"{acc.get('unimodal', '-'):>9} {acc.get('equal', '-'):>7} "
              f"{acc.get('count', '-'):>7} {row['census']['trainable']:>10} "
              f"{row['token_budget']:>7} {row['flops']:>10}")


def cmd_ablate(args) -> int:
    config = load_config(args.config)
    outdir = resolve_outdir(config, args.out)
    print(f"ablation over '{args.axis}' into {outdir}")
    rows = run_ablate(config, args.axis, outdir, log=print)
    _print_table(rows)
    return 0


def cmd_gradcheck(args) -> int:
    report = run_gradcheck(sample=args.sample)
    print(report.summary())
    return 0 if report.passed else 1


def cmd_report(args) -> int:
    from modfuse.metrics import read_jsonl, summarize

    rows = []
    for path in args.metrics:
        records = read_jsonl(path)
        name = os.path.basename(path)
        # every run writes metrics.jsonl; its directory names the run
        label = (os.path.basename(os.path.dirname(os.path.abspath(path)))
                 if name == METRICS_NAME else os.path.splitext(name)[0])
        try:
            summary = summarize(records)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
        rows.append({"label": label, **summary})
    _print_table(rows)
    for row in rows:
        if row["exits"]:
            joined = ", ".join(f"{m} at epoch {e}"
                               for m, e in row["exits"].items())
            print(f"{row['label']}: early exits {joined}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modfuse",
        description="Train and probe small multimodal fusion models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on its benchmark")
    p.add_argument("checkpoint")
    p.add_argument("--modalities", default=None,
                   help="comma-separated visible modalities; others are "
                        "zeroed out")
    p.add_argument("--reference", default=None,
                   help="also report accuracy split by whether this "
                        "checkpoint answers correctly (easy) or not (hard)")
    p.add_argument("--force", action="store_true",
                   help="load despite digest or shape mismatches")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="train every variant along one axis")
    p.add_argument("config")
    p.add_argument("--axis", required=True, choices=ABLATE_AXES)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of a small model")
    p.add_argument("--sample", type=int, default=None,
                   help="check a random subset of this many elements per "
                        "tensor instead of every element")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("report", help="summarize metrics files")
    p.add_argument("metrics", nargs="+")
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, CheckpointError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
