"""Outside-in benchmark of modfuse training and evaluation throughput.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-exit --seed 0 --seconds 25 --trace 0

The program is imported from ``src/`` of that checkout; a run exits with
code 2, printing no result, when it is not there. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` every end-to-end metric of
BENCHMARK.json, with ``--trace 1`` every per-layer metric from a traced run.
Earlier lines give the environment record and a readable table. A summary
(and, when traced, every span) is written under ``.perfbench-out/``.
See perfbench/README.md for the workloads and how to read the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile

BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OUT_DIR = ".perfbench-out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit(root: str) -> str:
    """HEAD of a git checkout, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]),
                      encoding="utf-8") as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: str, seed: int) -> dict:
    import numpy as np
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
    except (TypeError, KeyError):  # older numpy: no dict mode
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(root),
        "seed": seed,
    }


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "modfuse", "__init__.py")):
        print(f"perfbench: no modfuse sources under {src}; run from the "
              f"root of a modfuse checkout", file=sys.stderr)
        return 2
    # single-threaded BLAS, pinned before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, src)

    import modfuse
    if not os.path.abspath(modfuse.__file__).startswith(src + os.sep):
        print(f"perfbench: imported modfuse from {modfuse.__file__}, not "
              f"from {src}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload '{args.workload}'; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = load_spec(root)
    env = environment(root, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    ckpt_dir = tempfile.mkdtemp(prefix="ckpt-", dir=OUT_DIR)
    recorder = tracing.Recorder() if args.trace else None
    tally = workloads.Tally()
    try:
        samples = workloads.run(args.workload, args.seed, args.seconds,
                                recorder, tally, ckpt_dir)
    finally:
        shutil.rmtree(ckpt_dir, ignore_errors=True)

    extra = {}
    if recorder:
        values, extra = tracing.layer_metrics(
            recorder, "runner.run_eval" if args.workload == "eval"
            else tracing.STEP)
        values["trace.overhead_pct"] = workloads.trace_overhead_pct(samples)
        listed = spec["per_layer"]
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values, extra = workloads.end_to_end(args.workload, samples, rss_mb)
        listed = spec["end_to_end"]
    # metric names and units come from BENCHMARK.json
    names = [m["name"] for m in listed]
    if set(names) != set(values):
        raise ValueError(f"computed metrics {sorted(values)} do not match "
                         f"BENCHMARK.json {sorted(names)}")
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, stem + ".json"), "w",
              encoding="utf-8") as f:
        json.dump({"workload": args.workload, "seconds": args.seconds,
                   "environment": env, "errors": tally.errors,
                   "details": extra, "result": result,
                   "samples": {"setup_s": samples.setup_s,
                               "examples_per_s": samples.eps,
                               "reference_setup_s": samples.ref_setup_s,
                               "reference_examples_per_s": samples.ref_eps}},
                  f, indent=1)
    if recorder:
        recorder.write(os.path.join(OUT_DIR, stem + "-spans.jsonl"))

    print("environment " + json.dumps(env, sort_keys=True))
    for err in tally.errors:
        print(f"failure: {err}")
    for key, val in extra.items():
        print(f"{'trace ' if recorder else ''}{key}: {val}")
    for m in listed:
        print(f"{m['name']:34s} {values[m['name']]:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
