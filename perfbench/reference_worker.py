"""Run timed ops of the frozen reference copy of modfuse, one per request.

``workloads.ReferenceWorker`` starts this script as a child process and
takes turns with it: it writes one JSON request per line on stdin and waits
for the one-line JSON reply on stdout. The script exits when stdin closes.
It imports ``modfuse`` from ``perfbench/reference/``, never from ``src/``.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_SRC = os.path.join(HERE, "reference")


def handle(request: dict, workloads, checkpoint, runner) -> dict:
    op = request["op"]
    gc.collect()
    if op == "fit":
        t = workloads.train_one(request["workload"], request["seed"])
        return {"setup_s": t.setup_s, "fit_s": t.fit_s,
                "examples": t.examples}
    if op == "checkpoint":
        t = workloads.train_one(request["workload"], request["seed"])
        t0 = time.perf_counter()
        checkpoint.save_checkpoint(request["path"], t.model.registry, t.cfg)
        save_s = time.perf_counter() - t0
        return {"setup_s": t.setup_s + t.fit_s + save_s}
    if op == "run_eval":
        t0 = time.perf_counter()
        out = runner.run_eval(request["path"])
        return {"seconds": time.perf_counter() - t0,
                "examples": out["examples"]}
    raise ValueError(f"unknown op {op!r}")


def main() -> int:
    # replies go to the real stdout; anything the program prints goes to
    # stderr so it cannot break the protocol
    replies = sys.stdout
    sys.stdout = sys.stderr
    sys.path.insert(0, REFERENCE_SRC)
    import modfuse
    if not os.path.abspath(modfuse.__file__).startswith(REFERENCE_SRC):
        raise ImportError(f"reference worker imported {modfuse.__file__}")
    import workloads
    from modfuse import checkpoint, runner

    for line in sys.stdin:
        try:
            reply = handle(json.loads(line), workloads, checkpoint, runner)
        except Exception as e:  # reported to the caller, which counts it
            reply = {"error": f"{type(e).__name__}: {e}"}
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
