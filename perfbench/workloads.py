"""The workloads, driven through modfuse's public API, with output checks.

Every workload uses the acceptance-test model (video 16x8 major, audio 24x6,
depth 48x4, SelfGated, d=32, 2 layers, 4 heads, 4 tokens, rank 8, trainable
classifier, batch 32, lr 3e-3). A run with workload seed ``s`` trains
``SUBSEEDS`` models at seeds ``SUBSEEDS*s + j``: one model's loss and
accuracy swing by about 12% from seed to seed at this size, and their mean
over four seeds by about 4%, which keeps the quality metrics steady.
Each model seed is fed to ``bench.seed``, ``model.seed`` and ``train.seed``.

A workload's throughput is that of its own op: training examples per
second of ``fit`` on the train workloads, test examples per second of
``run_eval`` on ``eval``. A failed check fails the operation it checks;
``Tally`` counts operations attempted and failed (fit epochs and run_eval
calls).

The shared host's speed drifts by 15-40% over minutes, and every timing
drifts with it. So each timed op is paired with the same op run by
``reference/modfuse``, a frozen copy of the program as it was when this
benchmark was written, in a child process that takes turns with this one
(``ReferenceWorker``); the order within a pair alternates. The end-to-end
timings are the program's timing over the reference's in each pair,
median over the run, times the reference's timing on the sizing host
(``REFERENCE``): what the program would measure on that host. The raw
timings of both are reported beside them. Traced runs have no reference.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from modfuse import bench, checkpoint, config, metrics, runner, training

SUBSEEDS = 4

WORKLOADS = {
    # the acceptance regime: M=3 taped passes per minibatch, each using 1/M
    # of its qformer gradients
    "train-seq": dict(mode="sequential", early_exit=False, epochs=2,
                      train_size=256, test_size=256),
    # epochs 1-2 are the acceptance regime (M=3 taped passes per minibatch);
    # all modalities exit at epoch 2, so later steps are fusion-only steps
    "train-exit": dict(mode="sequential", early_exit=True, epochs=4,
                       train_size=192, test_size=256),
    # control: one pass per minibatch, every gradient used
    "train-joint": dict(mode="joint", early_exit=False, epochs=2,
                        train_size=256, test_size=256),
    # repeated run_eval on checkpoints that set-up trains in the acceptance
    # regime: sequential, no exit
    "eval": dict(mode="sequential", early_exit=False, epochs=2,
                 train_size=256, test_size=512),
}

# the reference copy's median timings on the sizing host (see README.md)
REFERENCE = {
    "train-seq": {"setup_s": 0.051, "examples_per_s": 280.0},
    "train-exit": {"setup_s": 0.046, "examples_per_s": 385.0},
    "train-joint": {"setup_s": 0.053, "examples_per_s": 690.0},
    "eval": {"setup_s": 1.89, "examples_per_s": 2320.0},
}


def config_text(workload: str, seed: int) -> str:
    w = WORKLOADS[workload]
    return f"""\
modalities = video, audio, depth
major = video
modality.video.feat_dim = 16
modality.video.seq_len = 8
modality.audio.feat_dim = 24
modality.audio.seq_len = 6
modality.depth.feat_dim = 48
modality.depth.seq_len = 4
bench.train_size = {w['train_size']}
bench.test_size = {w['test_size']}
bench.seed = {seed}
model.d = 32
model.layers = 2
model.heads = 4
model.tokens = 4
model.rank = 8
model.strategy = SelfGated
model.train_classifier = true
model.seed = {seed}
train.mode = {w['mode']}
train.early_exit = {'true' if w['early_exit'] else 'false'}
train.tau = 0.9
train.epochs = {w['epochs']}
train.batch_size = 32
train.lr = 0.003
train.seed = {seed}
run.name = perfbench-{workload}
"""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, ops: int, error: str | None) -> bool:
        self.attempted += ops
        if error:
            self.failed += ops
            self.errors.append(error)
        return error is None


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def records_digest(model, report) -> str:
    lines = [metrics.dumps_record(r)
             for r in metrics.run_records(model, report)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@dataclass
class Trained:
    """One model seed: config, data, trained model and what fit reported."""
    seed: int
    cfg: object
    test: object
    model: object
    report: object
    setup_s: float
    fit_s: float
    examples: int

    @property
    def loss(self) -> float:
        return self.report.epochs[-1].loss

    @property
    def accuracy(self) -> float:
        return self.report.final_accuracy["overall"]


def train_one(workload: str, seed: int) -> Trained:
    """parse_config, gen_dataset and build_model (set-up), then fit."""
    t0 = time.perf_counter()
    cfg = config.parse_config(config_text(workload, seed),
                              source=f"<{workload}>")
    train, test = bench.gen_dataset(cfg.spec)
    model = config.build_model(cfg)
    t1 = time.perf_counter()
    report = training.fit(model, train, test, cfg.train)
    t2 = time.perf_counter()
    return Trained(seed, cfg, test, model, report, t1 - t0, t2 - t1,
                   len(train) * cfg.train.epochs)


def check_fit(t: Trained) -> str | None:
    losses = [e.loss for e in t.report.epochs]
    if len(losses) != t.cfg.train.epochs or not all(map(math.isfinite,
                                                        losses)):
        return f"seed {t.seed}: epoch losses {losses} not all finite"
    if t.cfg.train.early_exit:
        recorded = {m: h.values for m, h in t.report.history.items()}
        replayed = training.replay_exits(recorded, t.cfg.train.tau,
                                         t.cfg.train.exit_on_rise)
        if replayed != t.report.exit_epochs():
            return (f"seed {t.seed}: exits {t.report.exit_epochs()} differ "
                    f"from replay {replayed}")
    return None


def timed_eval(path: str, expected: dict) -> tuple[float, str | None]:
    """One run_eval call; its accuracy must equal ``expected``."""
    t0 = time.perf_counter()
    out = runner.run_eval(path)
    dt = time.perf_counter() - t0
    if out["accuracy"] != expected:
        return dt, f"run_eval accuracy {out['accuracy']} != {expected}"
    return dt, None


class ReferenceWorker:
    """The frozen reference copy, run op by op in a child process.

    Requests and replies are JSON lines; see reference_worker.py. The
    caller waits for each reply, so the two processes never run at once.
    """

    def __init__(self):
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference_worker.py")
        self.proc = subprocess.Popen([sys.executable, script],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def call(self, **request) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference worker exited with code "
                               f"{self.proc.wait()}")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(f"reference worker: {reply['error']}")
        return reply

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _paired(i: int, reference, program, request: dict):
    """Run ``program()`` and the reference's ``request``, the reference
    first on odd ``i``; the reference's reply is None without a worker."""
    if reference is None:
        return program(), None
    if i % 2:
        ref = reference.call(**request)
        return program(), ref
    out = program()
    return out, reference.call(**request)


@dataclass
class Samples:
    """Raw measurements of one run; medians and means are taken at the end."""
    setup_s: list[float] = field(default_factory=list)
    # examples per second of each timed op (a fit, or a run_eval call)
    eps: list[float] = field(default_factory=list)
    # per model seed, from the first fit at that seed
    loss: dict[int, float] = field(default_factory=dict)
    accuracy: dict[int, float] = field(default_factory=dict)
    traced: list[bool] = field(default_factory=list)
    # the reference's timings, paired index by index with the above
    ref_setup_s: list[float] = field(default_factory=list)
    ref_eps: list[float] = field(default_factory=list)


def _run_loop(seconds: float, min_ops: int, tracer, body) -> None:
    """Call ``body(i, traced)`` until ``seconds`` pass and ``min_ops`` ran.

    With a tracer, ops alternate untraced and traced, and the pattern
    flips on each pass over the SUBSEEDS model seeds, so every seed is
    timed both ways and slow drifts in machine speed hit both sides.
    Garbage from one op (tapes hold reference cycles) is collected before
    the next, so an op neither pays for nor inherits its predecessor's
    heap.
    """
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        gc.collect()
        traced = tracer is not None and (i + i // SUBSEEDS) % 2 == 1
        if traced:
            tracer.install()
        try:
            body(i, traced)
        finally:
            if traced:
                tracer.uninstall()
        i += 1


def run_train(workload: str, seed: int, seconds: float, tracer, tally: Tally,
              out_dir: str, reference) -> Samples:
    """Each op: set up, fit, save a checkpoint, run_eval it, check; the
    reference sets up and fits at the same seed.

    Op 0 warms both processes up; its checks and quality count, its times
    do not.
    """
    s = Samples()
    digests: dict[int, str] = {}
    seeds = [SUBSEEDS * seed + j for j in range(SUBSEEDS)]
    epochs = WORKLOADS[workload]["epochs"]
    # every seed once for the quality metrics, plus one repeat; traced runs
    # time every seed both ways
    min_ops = 2 * SUBSEEDS if tracer else SUBSEEDS + 1

    def body(i: int, traced: bool) -> None:
        sub = seeds[i % SUBSEEDS]
        try:
            t, ref = _paired(i, reference, lambda: train_one(workload, sub),
                             dict(op="fit", workload=workload, seed=sub))
        except Exception as e:  # an op failure, counted and reported
            tally.record(epochs, _error(e))
            return
        error = check_fit(t)
        digest = records_digest(t.model, t.report)
        if digests.setdefault(sub, digest) != digest:
            error = error or f"seed {sub}: run_records digest changed"
        if not tally.record(epochs, error):
            return
        s.loss.setdefault(sub, t.loss)
        s.accuracy.setdefault(sub, t.accuracy)
        if i > 0:
            s.setup_s.append(t.setup_s)
            s.eps.append(t.examples / t.fit_s)
            s.traced.append(traced)
            if ref:
                s.ref_setup_s.append(ref["setup_s"])
                s.ref_eps.append(ref["examples"] / ref["fit_s"])
        path = os.path.join(out_dir, f"{sub}.ckpt")
        try:
            checkpoint.save_checkpoint(path, t.model.registry, t.cfg)
            _, error = timed_eval(path, t.report.final_accuracy)
        except Exception as e:
            error = _error(e)
        tally.record(1, error)

    _run_loop(seconds, min_ops, tracer, body)
    return s


def check_batch_invariance(t: Trained, sample: int = 256) -> str | None:
    """Predictions at batch 256 equal those at batch 32 on a test sample."""
    part = t.test.slice(np.arange(min(sample, len(t.test))))
    big = training.predict_dataset(t.model, part, 256)
    small = training.predict_dataset(t.model, part, 32)
    if not np.array_equal(big, small):
        return (f"seed {t.seed}: {int((big != small).sum())} predictions "
                f"differ between batch 256 and batch 32")
    return None


def run_eval_workload(workload: str, seed: int, seconds: float, tracer,
                      tally: Tally, out_dir: str, reference) -> Samples:
    """Set-up trains and saves one checkpoint per model seed, and the
    reference one of its own; each op is one run_eval call on the next
    checkpoint, paired with the reference's call on its own."""
    s = Samples()
    ckpts: list[tuple[str, str, dict]] = []
    epochs = WORKLOADS[workload]["epochs"]

    def set_up(sub: int, path: str):
        t = train_one(workload, sub)
        t0 = time.perf_counter()
        checkpoint.save_checkpoint(path, t.model.registry, t.cfg)
        return t, t.setup_s + t.fit_s + time.perf_counter() - t0

    if tracer:
        tracer.install()
    try:
        for j in range(SUBSEEDS):
            sub = SUBSEEDS * seed + j
            path = os.path.join(out_dir, f"{sub}.ckpt")
            ref_path = os.path.join(out_dir, f"{sub}-reference.ckpt")
            try:
                (t, setup_s), ref = _paired(
                    j, reference, lambda: set_up(sub, path),
                    dict(op="checkpoint", workload=workload, seed=sub,
                         path=ref_path))
                expected = training.evaluate(t.model, t.test)
                error = check_fit(t) or check_batch_invariance(t)
            except Exception as e:
                tally.record(epochs, _error(e))
                continue
            if not tally.record(epochs, error):
                continue
            s.setup_s.append(setup_s)
            if ref:
                s.ref_setup_s.append(ref["setup_s"])
            s.loss[sub] = t.loss
            s.accuracy[sub] = expected["overall"]
            ckpts.append((path, ref_path, expected))
    finally:
        if tracer:
            tracer.uninstall()
    if not ckpts:
        return s

    def body(i: int, traced: bool) -> None:
        path, ref_path, expected = ckpts[i % len(ckpts)]
        try:
            (dt, error), ref = _paired(i, reference,
                                       lambda: timed_eval(path, expected),
                                       dict(op="run_eval", path=ref_path))
        except Exception as e:
            dt, error = 0.0, _error(e)
        if tally.record(1, error):
            s.eps.append(WORKLOADS[workload]["test_size"] / dt)
            s.traced.append(traced)
            if ref:
                s.ref_eps.append(ref["examples"] / ref["seconds"])

    _run_loop(seconds, 2 * SUBSEEDS if tracer else SUBSEEDS, tracer, body)
    return s


def run(workload: str, seed: int, seconds: float, tracer, tally: Tally,
        out_dir: str) -> Samples:
    """Run a workload; untraced runs pair every timed op with the
    reference."""
    fn = run_eval_workload if workload == "eval" else run_train
    with (ReferenceWorker() if tracer is None
          else contextlib.nullcontext()) as reference:
        return fn(workload, seed, seconds, tracer, tally, out_dir,
                  reference)


def end_to_end(workload: str, s: Samples,
               peak_rss_mb: float) -> tuple[dict[str, float], dict]:
    """The end-to-end metrics, with timings scaled to the sizing host, and
    the raw timings of the program and the reference."""
    def median(v):
        return statistics.median(v) if v else 0.0

    def mean(d):
        return statistics.fmean(d.values()) if d else 0.0

    # > 1 when the program is slower than the reference
    setup_ratio = median([p / r for p, r in zip(s.setup_s, s.ref_setup_s)])
    speed_ratio = median([p / r for p, r in zip(s.eps, s.ref_eps)])
    ref = REFERENCE[workload]
    values = {
        "setup_s": setup_ratio * ref["setup_s"],
        "examples_per_s": speed_ratio * ref["examples_per_s"],
        "train_loss": mean(s.loss),
        "test_accuracy": mean(s.accuracy),
        "peak_rss_mb": peak_rss_mb,
    }
    raw = {
        "pairs (setup, ops)": (len(s.ref_setup_s), len(s.ref_eps)),
        "setup_s program / reference": setup_ratio,
        "examples_per_s program / reference": speed_ratio,
        "measured setup_s program, reference":
            (median(s.setup_s), median(s.ref_setup_s)),
        "measured examples_per_s program, reference":
            (median(s.eps), median(s.ref_eps)),
    }
    return values, raw


def trace_overhead_pct(s: Samples) -> float:
    """Throughput lost to tracing: traced ops against untraced ops."""
    on = [v for v, t in zip(s.eps, s.traced) if t]
    off = [v for v, t in zip(s.eps, s.traced) if not t]
    if not on or not off:
        return 0.0
    return (1.0 - statistics.median(on) / statistics.median(off)) * 100.0
