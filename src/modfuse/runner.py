"""Run orchestration: training runs, evaluation, ablation grids.

``run_train`` is the one training pipeline: it writes ``model.ckpt`` and
``metrics.jsonl`` into its output directory, and ``run_ablate`` runs it
once per variant, into ``<out>/<label>``.

A run writes to its --out directory, or else to ``runs/<run name>``.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from modfuse import tensor as T
from modfuse.bench import (TEST_STREAM, TRAIN_STREAM, BenchModality,
                           BenchSpec, accuracy_by_template, gen_dataset,
                           gen_split, split_easy_hard)
from modfuse.checkpoint import (load_checkpoint, model_from_checkpoint,
                                save_checkpoint)
from modfuse.config import KEYS, ConfigError, RunConfig, build_model
from modfuse.fusion import STRATEGIES
from modfuse.metrics import run_records, summarize, write_jsonl
from modfuse.model import FusionModel, ModelDims
from modfuse.training import MODES, fit, predict_dataset

CHECKPOINT_NAME = "model.ckpt"
METRICS_NAME = "metrics.jsonl"

# axis -> the config key it varies, its grid, the variant label's prefix
_GRIDS = {"fusion": ("model.strategy", STRATEGIES, ""),
          "rank": ("model.rank", (2, 4, 8), "rank"),
          "tokens": ("model.tokens", (2, 4, 8), "tokens"),
          "mode": ("train.mode", MODES, "")}
ABLATE_AXES = tuple(_GRIDS)


def resolve_outdir(config: RunConfig, cli_out: str | None = None) -> str:
    return cli_out or os.path.join("runs", config.name)


def run_train(config: RunConfig, outdir: str, log=None) -> dict:
    """Train per config; write the checkpoint and metrics into outdir."""
    os.makedirs(outdir, exist_ok=True)
    model = build_model(config)
    train, test = gen_dataset(config.spec)
    if log:
        log(f"training '{config.name}': {len(train)} train / {len(test)} "
            f"test examples, strategy {config.strategy}, "
            f"mode {config.train.mode}")
    report = fit(model, train, test, config.train)
    if log:
        for e in report.epochs:
            active = ",".join(e.active) if e.active else "none"
            log(f"  epoch {e.epoch}: loss {e.loss:.4f} "
                f"acc {e.accuracy['overall']:.3f} active [{active}]")
    ckpt_path = os.path.join(outdir, CHECKPOINT_NAME)
    save_checkpoint(ckpt_path, model.registry, config)
    metrics_path = os.path.join(outdir, METRICS_NAME)
    records = run_records(model, report)
    write_jsonl(metrics_path, records)
    if log:
        log(f"wrote {ckpt_path} and {metrics_path}")
    return {"summary": summarize(records), "checkpoint": ckpt_path,
            "metrics": metrics_path, "report": report, "model": model}


def run_eval(ckpt_path: str, modalities: list[str] | None = None,
             reference: str | None = None, force: bool = False,
             log=None) -> dict:
    """Evaluate a checkpoint on its own benchmark's test split. With a
    ``reference`` checkpoint, also split the accuracy into the examples
    that the reference answers correctly (easy) and the rest (hard)."""
    ckpt = load_checkpoint(ckpt_path, force=force)
    model, config, warnings = model_from_checkpoint(ckpt, force=force)
    if log:
        for w in warnings:
            log(f"warning: {w}")
    test = gen_split(config.spec, config.spec.test_size, TEST_STREAM)
    visible = None
    if modalities is not None:
        unknown = [m for m in modalities if m not in model.order]
        if unknown:
            raise ValueError(f"unknown modalities {unknown}; "
                             f"model has {model.order}")
        visible = set(modalities)
    preds = predict_dataset(model, test, visible=visible)
    out = {"accuracy": accuracy_by_template(preds, test),
           "visible": (list(model.order) if visible is None
                       else sorted(visible)),
           "examples": len(test)}
    if reference is not None:
        ref_model, ref_config, _ = model_from_checkpoint(
            load_checkpoint(reference, force=force), force=force)
        if ref_config.spec != config.spec:
            raise ValueError("reference checkpoint was trained on a "
                             "different benchmark")
        ref_preds = predict_dataset(ref_model, test)
        easy_idx, hard_idx = split_easy_hard(ref_preds, test)
        out["easy"] = accuracy_by_template(preds[easy_idx],
                                           test.slice(easy_idx))
        out["hard"] = accuracy_by_template(preds[hard_idx],
                                           test.slice(hard_idx))
        out["easy_count"] = int(easy_idx.size)
        out["hard_count"] = int(hard_idx.size)
    return out


def _variant_configs(config: RunConfig, axis: str):
    """The ablation grid along one axis, as (label, config) pairs. A
    variant that breaks a config rule is named in the error."""
    if axis not in _GRIDS:
        raise ValueError(f"unknown ablation axis '{axis}'; choose from "
                         f"{', '.join(ABLATE_AXES)}")
    key, grid, prefix = _GRIDS[axis]
    block, name, _ = KEYS[key]
    for value in grid:
        label = f"{prefix}{value}"
        changed = {name: value}
        try:
            if block is not None:
                changed = {block: dataclasses.replace(getattr(config, block),
                                                      **changed)}
            variant = dataclasses.replace(config, **changed)
        except ConfigError as e:
            raise ConfigError(f"ablation variant '{label}': {e}",
                              *e.keys) from None
        yield label, variant


def run_ablate(config: RunConfig, axis: str, outdir: str, log=None) -> list:
    """Train every variant along one axis with ``run_train`` into
    ``<outdir>/<label>``; one row per variant, its summary and label.
    The whole grid is built, and so checked, before the first fit."""
    variants = list(_variant_configs(config, axis))
    rows = []
    for label, variant in variants:
        result = run_train(variant, os.path.join(outdir, label))
        row = {"label": label, **result["summary"]}
        rows.append(row)
        if log:
            log(f"  {label}: acc {row['accuracy']['overall']:.3f} "
                f"trainable {row['census']['trainable']} "
                f"budget {row['token_budget']}")
    return rows


def run_gradcheck(sample: int | None = None) -> T.GradCheckReport:
    """Finite-difference check of the whole model at 64-bit precision: a
    two-modality SelfGated model (d=16, 2 heads, 2 tokens, rank 2) on a
    batch of 2, every seed 0."""
    spec = BenchSpec(modalities=(BenchModality("video", 6, 3),
                                 BenchModality("audio", 5, 3)))
    batch = gen_split(spec, 2, TRAIN_STREAM)
    dims = ModelDims(d=16, layers=2, heads=2, tokens=2, rank=2)
    model = FusionModel(dims, spec.modalities, "video", "SelfGated",
                        spec.vocab, spec.classes, 0, dtype=np.float64)

    def f():
        # the query transformers widen the float32 features to float64
        return model.loss(batch.features, batch.questions, batch.answers)

    params = dict(model.registry.named(trainable_only=True))
    # Down projections are zero at init, which silences the gradient of
    # every up projection (their input is exactly zero); a small seeded
    # perturbation puts real signal on both halves of each adapter pair.
    rng = np.random.default_rng(0)
    for name, t in params.items():
        if name.endswith(".down"):
            t.data[...] = rng.normal(0.0, 0.02, size=t.data.shape)
    # Step and floor are tuned for 64-bit central differences on this
    # model: 3e-6 sits at the truncation/roundoff crossover, and below
    # the 1e-5 floor a gradient is compared absolutely, where the
    # difference quotient itself only carries ~1e-10 of precision.
    return T.grad_check(f, params, h=3e-6, floor=1e-5, sample=sample)
