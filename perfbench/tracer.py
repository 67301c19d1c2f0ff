"""Span and count recorder that wraps modfuse's layer boundaries from outside.

The recorder patches module attributes where the program looks them up
(``modfuse.model.qformer_forward``, ``modfuse.runner.gen_dataset``, ...),
records one span per call (name, start, end, parent, attributes), keeps
every span in memory and writes them out once at the end of a run. A
boundary the program no longer has is listed in ``missing`` and skipped.

One training step runs from the start of ``FusionModel.loss`` to the end
of the ``Adam.step`` that follows it, so the step survives a refactor that
merges the step functions. Calls to the public tensor ops are counted, not
spanned, and only while a step is open.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

STEP = "training.step"


@dataclass(slots=True)
class Span:
    name: str
    start: int
    end: int
    parent: int
    step: int
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


def _resolve(path: str):
    """Module or class named by a dotted path, or None if it is gone."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.ops: Counter = Counter()
        self.op_names: list[str] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._step = -1
        self._model = None
        self._patches: list[tuple[object, str, object]] = []

    # span bookkeeping

    def begin(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent,
                               self._step, attrs))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        if span.end:
            return
        span.end = time.perf_counter_ns()
        if idx not in self._stack:
            return
        # an exception may have skipped the end of inner spans
        while self._stack[-1] != idx:
            inner = self.spans[self._stack.pop()]
            inner.end = inner.end or span.end
        self._stack.pop()

    def _open_step(self, model) -> None:
        if self._step >= 0:
            self.spans[self._step].attrs["completed"] = False
            self.end(self._step)
        self._model = model
        self._step = self.begin(STEP, updated=[], completed=True)
        self.spans[self._step].step = self._step

    def _close_step(self, updated: set[str]) -> None:
        if self._step < 0:
            return
        self.spans[self._step].attrs["updated"] = sorted(updated)
        self.end(self._step)
        self._step = -1

    # patching

    def _patch(self, owner_path: str, attr: str, make) -> None:
        owner = _resolve(owner_path)
        orig = getattr(owner, attr, None) if owner is not None else None
        if orig is None:
            self.missing.append(f"{owner_path}.{attr}")
            return
        setattr(owner, attr, make(orig))
        self._patches.append((owner, attr, orig))

    def _spanned(self, name: str, before=None, after=None):
        """Wrapper factory: one span per call, attrs from the call."""
        rec = self

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = rec.begin(name, **(before(*args, **kwargs)
                                         if before else {}))
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec.end(idx)
                if after:
                    rec.spans[idx].attrs.update(after(out, *args, **kwargs))
                return out
            return wrapper
        return make

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("recorder is already installed")
        self.missing = []
        # listed before any patch replaces a function of modfuse.tensor
        self.op_names = tensor_ops()
        rec = self
        span = self._spanned

        def loss(fn):
            def wrapper(model, *args, **kwargs):
                rec._open_step(model)
                idx = rec.begin("model.loss")
                try:
                    return fn(model, *args, **kwargs)
                finally:
                    rec.end(idx)
            return wrapper

        def backward(fn):
            def wrapper(loss_t, leaves=None, *args, **kwargs):
                leaves = None if leaves is None else list(leaves)
                scalars = sum(t.size for t in leaves) if leaves else 0
                idx = rec.begin("tensor.backward", scalars=scalars)
                try:
                    return fn(loss_t, leaves, *args, **kwargs)
                finally:
                    rec.end(idx)
            return wrapper

        def adam_step(fn):
            def wrapper(opt, named_params, *args, **kwargs):
                params = list(named_params)
                tags = set()
                if rec._model is not None:
                    entries = rec._model.registry.entries
                    tags = {entries[n].tag for n, _ in params if n in entries}
                idx = rec.begin("tensor.adam", tensors=len(params),
                                scalars=sum(p.size for _, p in params))
                try:
                    return fn(opt, params, *args, **kwargs)
                finally:
                    rec.end(idx)
                    rec._close_step(tags)
            return wrapper

        def counted(name):
            def make(fn):
                def wrapper(*args, **kwargs):
                    if rec._step >= 0:
                        rec.ops[name] += 1
                    return fn(*args, **kwargs)
                return wrapper
            return make

        def feats_modality(backbone, adapter, feats, *a, **k):
            return {"modality": getattr(feats, "modality", None)}

        def taped(out, *a, **k):
            return {"taped": bool(getattr(out, "requires_grad", False))}

        def both_splits(out, *a, **k):
            n = sum(len(split) for split in out)
            return {"generated": n, "used": n}

        def test_split_only(out, *a, **k):
            return {"generated": sum(len(split) for split in out),
                    "used": len(out[1])}

        def file_bytes(out, path, *a, **k):
            return {"bytes": os.path.getsize(path)}

        self._patch("modfuse.training", "fit", span("training.fit"))
        self._patch("modfuse.training", "evaluate", span("training.evaluate"))
        self._patch("modfuse.training", "fusion_only_step",
                    span("training.fusion_only_step"))
        self._patch("modfuse.model.FusionModel", "loss", loss)
        self._patch("modfuse.model.FusionModel", "forward",
                    span("model.forward"))
        self._patch("modfuse.model", "qformer_forward",
                    span("backbone.qformer", feats_modality, taped))
        self._patch("modfuse.model", "fuse_variant", span("fusion.fuse"))
        self._patch("modfuse.model", "predict", span(
            "reasoner.predict",
            lambda head, x, *a, **k: {"seq_len": int(x.shape[1])}))
        self._patch("modfuse.tensor", "backward", backward)
        self._patch("modfuse.tensor.Adam", "step", adam_step)
        self._patch("modfuse.bench", "gen_dataset",
                    span("bench.gen_dataset", after=both_splits))
        self._patch("modfuse.runner", "gen_dataset",
                    span("bench.gen_dataset", after=test_split_only))
        self._patch("modfuse.config", "build_model", span("model.build"))
        self._patch("modfuse.checkpoint", "save_checkpoint",
                    span("checkpoint.save", after=file_bytes))
        self._patch("modfuse.runner", "load_checkpoint",
                    span("checkpoint.load"))
        self._patch("modfuse.runner", "run_eval", span("runner.run_eval"))
        if not self.op_names:
            self.missing.append("modfuse.tensor public ops")
        for name in self.op_names:
            self._patch("modfuse.tensor", name, counted(name))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []
        if self._step >= 0:  # an exception cut the step short
            self.spans[self._step].attrs["completed"] = False
            self._close_step(set())
        self._stack = []

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({"name": s.name, "start_ns": s.start,
                                    "end_ns": s.end, "parent": s.parent,
                                    **s.attrs}) + "\n")


def tensor_ops() -> list[str]:
    """Public functions of modfuse.tensor annotated to return a Tensor."""
    import modfuse.tensor as T
    return sorted(name for name, fn in vars(T).items()
                  if callable(fn) and not name.startswith("_")
                  and getattr(fn, "__module__", "") == T.__name__
                  and getattr(fn, "__annotations__", {}).get("return")
                  in ("Tensor", "T.Tensor"))


# per-layer metrics

def percentile_tail(values: list[float]) -> tuple[float, int]:
    """The highest of p99/p95/p90/p75/p50 with >= 10 samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) >= 1000:
            return statistics.quantiles(values, n=100)[p - 1], p
    return (max(values), 100) if values else (0.0, 0)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _self_ms(spans: list[Span], children: dict[int, list[int]],
             i: int) -> float:
    """Span duration minus the part of it that child spans cover."""
    s = spans[i]
    covered, cursor = 0, s.start
    for c in sorted(children.get(i, ()), key=lambda c: spans[c].start):
        lo, hi = max(spans[c].start, cursor), min(spans[c].end, s.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (s.end - s.start - covered) / 1e6


def layer_metrics(rec: Recorder, scope: str) -> tuple[dict, dict]:
    """Per-layer metrics over all recorded spans, and their sample counts.

    Latencies of qformer, fusion, predict and forward-self are taken over
    spans under ``scope`` (a training step, or a run_eval call).
    """
    spans = rec.spans
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s.parent, []).append(i)

    def under(i: int, name: str) -> bool:
        p = spans[i].parent
        while p >= 0:
            if spans[p].name == name:
                return True
            p = spans[p].parent
        return False

    def named(name: str, in_scope: bool = False) -> list[int]:
        return [i for i, s in enumerate(spans) if s.name == name
                and s.end and (not in_scope or under(i, scope))]

    steps = [i for i in named(STEP) if spans[i].attrs["completed"]]
    in_step = set(steps)
    n_steps = max(len(steps), 1)
    fits = named("training.fit")
    n_fits = max(len(fits), 1)

    q_step = [i for i in named("backbone.qformer") if spans[i].step in in_step]
    taped = [i for i in q_step if spans[i].attrs.get("taped")]
    useful = [i for i in taped if spans[i].attrs.get("modality")
              in spans[spans[i].step].attrs["updated"]]
    adam = [i for i in named("tensor.adam") if spans[i].step in in_step]
    back = [i for i in named("tensor.backward") if spans[i].step in in_step]
    grad_scalars = sum(spans[i].attrs["scalars"] for i in back)
    gens = named("bench.gen_dataset")
    generated = sum(spans[i].attrs.get("generated", 0) for i in gens)
    step_ms = [spans[i].ms for i in steps]
    tail, tail_p = percentile_tail(step_ms)
    fit_ms = sum(spans[i].ms for i in fits)
    # training's own code: fit, step and fusion_only_step minus their children
    training_self = sum(_self_ms(spans, children, i) for i in
                        fits + steps + named("training.fusion_only_step"))
    ops_total = sum(rec.ops.values())

    def p50(name: str, in_scope: bool = False) -> float:
        return _median([spans[i].ms for i in named(name, in_scope)])

    m = {
        "backbone.qformer_ms.p50": p50("backbone.qformer", True),
        "backbone.qformer_calls_per_step": len(q_step) / n_steps,
        "backbone.taped_useful_ratio":
            len(useful) / len(taped) if taped else 0.0,
        "tensor.backward_ms.p50": p50("tensor.backward"),
        "tensor.adam_ms.p50": p50("tensor.adam"),
        "tensor.adam_tensors_per_step":
            sum(spans[i].attrs["tensors"] for i in adam) / n_steps,
        "tensor.grad_useful_ratio":
            sum(spans[i].attrs["scalars"] for i in adam) / grad_scalars
            if grad_scalars else 0.0,
        "tensor.ops_per_step": ops_total / n_steps,
        "tensor.ops_per_step.matmul": rec.ops["matmul"] / n_steps,
        "tensor.ops_per_step.reshape": rec.ops["reshape"] / n_steps,
        "tensor.ops_per_step.transpose": rec.ops["transpose"] / n_steps,
        "reasoner.predict_ms.p50": p50("reasoner.predict", True),
        "reasoner.seq_len": _median([spans[i].attrs["seq_len"]
                                     for i in named("reasoner.predict")]),
        "fusion.fuse_ms.p50": p50("fusion.fuse", True),
        "model.forward_self_ms.p50": _median(
            [_self_ms(spans, children, i)
             for i in named("model.forward", True)]),
        "training.step_ms.p50": _median(step_ms),
        "training.step_ms.tail": tail,
        "training.steps": len(steps) / n_fits,
        "training.fusion_only_steps":
            len(named("training.fusion_only_step")) / n_fits,
        "training.evaluate_s": p50("training.evaluate") / 1e3,
        "training.self_share": training_self / fit_ms if fit_ms else 0.0,
        "bench.gen_dataset_s": p50("bench.gen_dataset") / 1e3,
        "bench.gen_useful_ratio":
            sum(spans[i].attrs.get("used", 0) for i in gens) / generated
            if generated else 0.0,
        "checkpoint.save_ms": p50("checkpoint.save"),
        "checkpoint.load_ms": p50("checkpoint.load"),
        "checkpoint.bytes": _median([spans[i].attrs["bytes"]
                                     for i in named("checkpoint.save")]),
        "model.build_ms": p50("model.build"),
    }
    samples = {"steps": len(steps), "fits": len(fits),
               "qformer_in_scope": len(named("backbone.qformer", True)),
               "step_ms_tail_percentile": tail_p,
               "ops_counted": rec.op_names, "missing": rec.missing}
    return m, samples
