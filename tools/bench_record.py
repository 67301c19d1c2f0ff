"""Record paired perfbench runs of two checkouts in one BENCH_<n>.json.

    python3 tools/bench_record.py --parent DIR --change DIR --out BENCH_n.json

``DIR`` is the root of a checkout (say, a clone of the parent commit and
the working tree of a change). Each checkout is benchmarked with its own,
unchanged ``perfbench/run.py`` and ``BENCHMARK.json``:

- every workload of BENCHMARK.json, ten pairs (the claim rule's
  minimum) of untraced runs (``--trace 0``, ``run_seconds`` long). Pair ``i`` runs
  both sides at workload seed ``i``; the parent goes first in even pairs
  and the change in odd ones;
- one traced ``train-seq`` run per side at seed 0 (``--trace 1``): its
  per-layer metrics, and perfbench's details beside them (sample counts,
  the ops it counted, the boundaries it found ``missing``);
- the wall time of the benchmark-scale acceptance test, once per side.

The record holds each side's environment line, every run's end-to-end
metrics, and per workload and metric each side's median and quartiles,
the change's wins over its pairs, whether a gain clears the claim rule
(wins in at least nine tenths of the pairs, medians apart by more than the
parent's interquartile range) and whether the change's median stays
within the metric's regression bound; and per workload each side's
failed and attempted operations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ACCEPTANCE_TEST = ("tests/test_acceptance.py::"
                   "test_multimodal_model_beats_single_modality_bounds")
TRACED_WORKLOAD = "train-seq"
SIDES = ("parent", "change")
PAIRS = 10


def perfbench(root: str, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One perfbench run in ``root``: its environment and result lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          check=True)
    lines = proc.stdout.splitlines()
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines
               if line.startswith("environment "))
    return {"environment": env, "result": json.loads(lines[-1])}


def acceptance_seconds(root: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p",
                           "no:cacheprovider", ACCEPTANCE_TEST], cwd=root,
                          env=env, capture_output=True, text=True)
    return {"seconds": time.perf_counter() - start,
            "passed": proc.returncode == 0}


def quartiles(values: list[float]) -> list[float]:
    """[first quartile, median, third quartile]."""
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and end-to-end metric, both sides' quartiles and the
    change's standing against the parent.

    ``runs`` holds one entry per run, each side running every pair:
    workload, pair, side, failed and attempted operations, and metrics
    (name -> value); ``metrics`` is BENCHMARK.json's ``end_to_end`` list.
    Each workload also gets both sides' failed and attempted operations,
    summed over its runs.
    """
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        side = {s: sorted((r for r in runs if r["workload"] == workload
                           and r["side"] == s), key=lambda r: r["pair"])
                for s in SIDES}
        table = {}
        for m in metrics:
            name, sign = m["name"], 1 if m["better"] == "higher" else -1
            values = {s: [r["metrics"][name] for r in side[s]]
                      for s in SIDES}
            q = {s: quartiles(values[s]) for s in SIDES}
            parent_med, change_med = q["parent"][1], q["change"][1]
            wins = sum(sign * (c - p) > 0
                       for p, c in zip(values["parent"], values["change"]))
            pairs = len(values["parent"])
            worse = -sign * (change_med - parent_med)
            table[name] = {
                "parent_quartiles": q["parent"],
                "change_quartiles": q["change"],
                "change_over_parent": change_med / parent_med,
                "change_wins": wins,
                "pairs": pairs,
                "gain_claimable": (wins * 10 >= 9 * pairs and
                                   sign * (change_med - parent_med)
                                   > q["parent"][2] - q["parent"][0]),
                "within_bound": worse <= m["bound"] * abs(parent_med),
            }
        table["failed_of_attempted"] = {
            s: [sum(r["failed"] for r in side[s]),
                sum(r["attempted"] for r in side[s])] for s in SIDES}
        out[workload] = table
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json"),
              encoding="utf-8") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]

    environment: dict = {}
    runs = []
    for w in spec["workloads"]:
        for pair in range(PAIRS):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                run = perfbench(roots[side], w["name"], pair, seconds, 0)
                environment.setdefault(side, run["environment"])
                result = run["result"]
                runs.append({
                    "workload": w["name"], "pair": pair,
                    "side": side, "first": side == order[0],
                    "correct": result["correct"],
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": {k: v["value"]
                                for k, v in result["metrics"].items()}})
                print(f"{w['name']} pair {pair} {side}: "
                      f"{runs[-1]['metrics']}", flush=True)

    traced = {}
    for side in SIDES:
        run = perfbench(roots[side], TRACED_WORKLOAD, 0, seconds, 1)
        stem = f"{TRACED_WORKLOAD}-seed0-trace1.json"
        with open(os.path.join(roots[side], ".perfbench-out", stem),
                  encoding="utf-8") as f:
            details = json.load(f)["details"]
        traced[side] = {"metrics": {k: v["value"] for k, v in
                                    run["result"]["metrics"].items()},
                        "details": details}
        print(f"traced {side}: {traced[side]['metrics']}", flush=True)

    acceptance = {side: acceptance_seconds(roots[side]) for side in SIDES}
    print(f"acceptance: {acceptance}", flush=True)

    record = {"environment": environment,
              "run_seconds": seconds,
              "pairs": PAIRS,
              "summary": summarize(runs, spec["end_to_end"]),
              "traced": {"workload": TRACED_WORKLOAD, "seed": 0, **traced},
              "acceptance_test": {"test": ACCEPTANCE_TEST, **acceptance},
              "runs": runs}
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
