"""Run orchestration: training runs, evaluation, ablation grids.

Output locations resolve in this order: an explicit --out flag, the
``run.outdir`` config key, ``$MODFUSE_OUT_ROOT/<run name>``, and finally
``./runs/<run name>``.
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
from modfuse.config import RunConfig, build_model
from modfuse.fusion import STRATEGIES
from modfuse.metrics import run_records, summarize, write_jsonl
from modfuse.model import FusionModel, ModelDims
from modfuse.training import fit, predict_dataset

OUT_ROOT_ENV = "MODFUSE_OUT_ROOT"
CHECKPOINT_NAME = "model.ckpt"
METRICS_NAME = "metrics.jsonl"

ABLATE_AXES = ("fusion", "rank", "tokens", "mode")
_RANK_GRID = (2, 4, 8)
_TOKEN_GRID = (2, 4, 8)
_MODE_GRID = ("sequential", "joint")


def resolve_outdir(config: RunConfig, cli_out: str | None = None,
                   env: dict | None = None) -> str:
    env = os.environ if env is None else env
    if cli_out:
        return cli_out
    if config.outdir:
        return config.outdir
    root = env.get(OUT_ROOT_ENV, "")
    if root:
        return os.path.join(root, config.name)
    return os.path.join("runs", config.name)


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
             easy_hard: bool = False, reference: str | None = None,
             force: bool = False, log=None) -> dict:
    """Evaluate a checkpoint on its own benchmark's test split."""
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
    preds = predict_dataset(model, test, config.train.eval_batch,
                            visible=visible)
    out = {"accuracy": accuracy_by_template(preds, test),
           "visible": (list(model.order) if visible is None
                       else sorted(visible)),
           "examples": len(test)}
    if easy_hard:
        if not reference:
            raise ValueError("easy/hard split needs --reference, a "
                             "checkpoint whose predictions define the split")
        ref_model, ref_config, _ = model_from_checkpoint(
            load_checkpoint(reference, force=force), force=force)
        if ref_config.spec != config.spec:
            raise ValueError("reference checkpoint was trained on a "
                             "different benchmark")
        ref_preds = predict_dataset(ref_model, test,
                                    ref_config.train.eval_batch)
        easy_idx, hard_idx = split_easy_hard(ref_preds, test)
        out["easy"] = accuracy_by_template(preds[easy_idx],
                                           test.slice(easy_idx))
        out["hard"] = accuracy_by_template(preds[hard_idx],
                                           test.slice(hard_idx))
        out["easy_count"] = int(easy_idx.size)
        out["hard_count"] = int(hard_idx.size)
    return out


def _variant_configs(config: RunConfig, axis: str):
    """The ablation grid along one axis, as (label, config) pairs."""
    if axis == "fusion":
        for strategy in STRATEGIES:
            yield strategy, dataclasses.replace(config, strategy=strategy)
    elif axis == "rank":
        for rank in _RANK_GRID:
            dims = dataclasses.replace(config.dims, rank=rank)
            yield f"rank{rank}", dataclasses.replace(config, dims=dims)
    elif axis == "tokens":
        for tokens in _TOKEN_GRID:
            dims = dataclasses.replace(config.dims, tokens=tokens)
            yield f"tokens{tokens}", dataclasses.replace(config, dims=dims)
    elif axis == "mode":
        for mode in _MODE_GRID:
            train = dataclasses.replace(config.train, mode=mode)
            yield mode, dataclasses.replace(config, train=train)
    else:
        raise ValueError(f"unknown ablation axis '{axis}'; choose from "
                         f"{', '.join(ABLATE_AXES)}")


def run_ablate(config: RunConfig, axis: str, outdir: str, log=None) -> list:
    """Train every variant along one axis; one summary row per variant.
    The whole grid is built, and so checked, before the first fit."""
    variants = list(_variant_configs(config, axis))
    os.makedirs(outdir, exist_ok=True)
    rows = []
    for label, variant in variants:
        model = build_model(variant)
        train, test = gen_dataset(variant.spec)
        report = fit(model, train, test, variant.train)
        records = run_records(model, report)
        write_jsonl(os.path.join(outdir, f"{label}.metrics.jsonl"), records)
        row = {"label": label, **summarize(records)}
        rows.append(row)
        if log:
            log(f"  {label}: acc {row['accuracy']['overall']:.3f} "
                f"trainable {row['trainable']} budget {row['token_budget']}")
    return rows


def run_gradcheck(d: int = 16, heads: int = 2, tokens: int = 2, rank: int = 2,
                  batch: int = 2, seed: int = 0,
                  sample: int | None = None) -> T.GradCheckReport:
    """Finite-difference check of the whole model at 64-bit precision."""
    spec = BenchSpec(modalities=(BenchModality("video", 6, 3),
                                 BenchModality("audio", 5, 3)), seed=seed)
    batch_data = gen_split(spec, batch, TRAIN_STREAM)
    dims = ModelDims(d=d, layers=2, heads=heads, tokens=tokens, rank=rank)
    model = FusionModel(dims, spec.modalities, "video", "SelfGated",
                        spec.vocab, spec.classes, seed, dtype=np.float64)
    features = {m: f.astype(np.float64) for m, f in
                batch_data.features.items()}

    def f():
        return model.loss(features, batch_data.questions, batch_data.answers)

    params = dict(model.registry.named(trainable_only=True))
    # Down projections are zero at init, which silences the gradient of
    # every up projection (their input is exactly zero); a small seeded
    # perturbation puts real signal on both halves of each adapter pair.
    rng = np.random.default_rng(seed)
    for name, t in params.items():
        if name.endswith(".down"):
            t.data[...] = rng.normal(0.0, 0.02, size=t.data.shape)
    # Step and floor are tuned for 64-bit central differences on this
    # model: 3e-6 sits at the truncation/roundoff crossover, and below
    # the 1e-5 floor a gradient is compared absolutely, where the
    # difference quotient itself only carries ~1e-10 of precision.
    return T.grad_check(f, params, h=3e-6, floor=1e-5, sample=sample,
                        seed=seed)
