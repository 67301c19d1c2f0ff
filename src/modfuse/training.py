"""Modality-sequential training with gradient-driven early exit.

Every update goes through one masked step, :func:`train_step`, which is
given the set of tags to update. In sequential mode every minibatch
triggers one step per active modality, updating that modality's adapter
plus the fusion parameters; only that modality's query transformer is
put on the tape, the others run forward-only. Per-modality mean gradient
magnitudes are averaged over each epoch; once a modality's latest
average falls to or below tau times the mean of its history, that
modality stops receiving updates (its tokens keep feeding fusion). Once
every modality has exited, each minibatch takes one fusion-only step.

A modality's forward-only tokens depend only on the frozen backbone,
its adapter and the example, so they are computed once per adapter
state. Within a minibatch, the steps share one cache of them, and a
step drops the entries of the modalities it updated. When a modality
exits, its tokens for every train and test example are computed once,
in ``model.EVAL_BATCH`` chunks, and feed every later step and
evaluation, so an exited modality's query transformer never runs again:
early exit saves compute, not just optimizer steps. This relies on the
tokens of an example not depending on the rest of its batch, which a
test pins.
Joint mode is the conventional alternative: one step per minibatch, all
trainable tensors of active modalities and fusion updated together.

``TrainConfig`` is frozen and checks its ranges when built, so ``fit``
takes it as given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from modfuse import tensor as T
from modfuse.adapters import ParamRegistry, count_trainable, total_scalars
from modfuse.bench import Dataset, accuracy_by_template
from modfuse.errors import ConfigError, at_least
from modfuse.model import EVAL_BATCH, FusionModel

MODES = ("sequential", "joint")


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 3e-3
    epochs: int = 8
    batch_size: int = 32
    seed: int = 0
    tau: float = 0.9
    mode: str = "sequential"
    early_exit: bool = False
    exit_on_rise: bool = False     # alternative inequality direction

    def __post_init__(self):
        # with lr <= 0 no step descends, and a NaN lr fails only inside fit
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"train.lr must be finite and positive, "
                              f"got {self.lr}", "train.lr")
        if self.mode not in MODES:
            raise ConfigError(f"train.mode must be one of "
                              f"{', '.join(MODES)}, got '{self.mode}'",
                              "train.mode")
        # a NaN tau makes every exit indicator NaN, an infinite one makes
        # every indicator 0
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ConfigError(f"train.tau must be finite and positive, "
                              f"got {self.tau}", "train.tau")
        at_least("train.seed", self.seed, 0)
        at_least("train.batch_size", self.batch_size, 1)
        at_least("train.epochs", self.epochs, 1)
        if self.early_exit and self.epochs < 2:
            raise ConfigError(f"train.early_exit needs at least 2 epochs of "
                              f"history, got train.epochs = {self.epochs}",
                              "train.early_exit", "train.epochs")


@dataclass
class GradHistory:
    values: list[float] = field(default_factory=list)
    exit_epoch: int | None = None

    @property
    def active(self) -> bool:
        return self.exit_epoch is None


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    accuracy: dict[str, float]
    grad_mag: dict[str, float]
    indicator: dict[str, float | None]
    active: list[str]


@dataclass
class TrainReport:
    mode: str
    epochs: list[EpochRecord] = field(default_factory=list)
    history: dict[str, GradHistory] = field(default_factory=dict)
    update_steps: dict[str, int] = field(default_factory=dict)
    final_accuracy: dict[str, float] = field(default_factory=dict)

    def exit_epochs(self) -> dict[str, int | None]:
        return {m: h.exit_epoch for m, h in self.history.items()}


def grad_magnitude(registry: ParamRegistry, modality: str) -> float:
    """Mean |gradient| over every scalar of the modality's tensors."""
    entries = registry.named(tags={modality})
    if not entries:
        raise ValueError(f"no tensors tagged '{modality}'")
    total = 0.0
    count = 0
    for name, t in entries:
        if t.grad is None:
            raise ValueError(f"'{name}' has no gradient; run backward first")
        total += float(np.abs(t.grad).sum())
        count += t.grad.size
    return total / count


def early_exit_indicator(values: list[float], tau: float) -> float:
    """Latest epoch average over tau times the mean of the prior history."""
    if len(values) < 2:
        raise ValueError("indicator needs at least one prior epoch")
    prior = float(np.mean(values[:-1]))
    if prior == 0.0:
        return 0.0
    return values[-1] / (tau * prior)


def should_exit(values: list[float], tau: float,
                exit_on_rise: bool = False) -> bool:
    if exit_on_rise:
        return values[-1] > tau * float(np.mean(values[:-1]))
    return early_exit_indicator(values, tau) <= 1.0


def replay_exits(recorded: dict[str, list[float]], tau: float,
                 exit_on_rise: bool = False) -> dict[str, int | None]:
    """Re-run the exit rule over recorded per-epoch gradient averages.

    Epochs are 1-based; the earliest possible exit is epoch 2. Used to
    verify that a live run's recorded exits match the rule exactly.
    """
    out: dict[str, int | None] = {}
    for m, values in recorded.items():
        out[m] = None
        for j in range(2, len(values) + 1):
            if should_exit(values[:j], tau, exit_on_rise):
                out[m] = j
                break
    return out


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    idx = rng.permutation(n)
    for lo in range(0, n, batch_size):
        yield idx[lo:lo + batch_size]


def train_step(model: FusionModel, opt: T.Adam, batch: Dataset,
               tags: set[str], cache: dict[str, np.ndarray] | None = None
               ) -> tuple[float, dict[str, float]]:
    """One masked update of exactly the trainable tensors tagged in ``tags``.

    ``tags`` holds modality names and "fusion" (the fusion module, the
    prefixes and a trainable classifier); it must select at least one
    trainable tensor. Only the query transformers of the modalities in
    ``tags`` go on the tape, so backward reaches no other adapter.

    ``cache`` holds this batch's forward-only tokens per modality (see
    ``FusionModel.modality_tokens``); the entries of the updated
    modalities are dropped, since their adapters moved.

    Returns (loss, mean gradient magnitude of each modality in ``tags``).
    """
    unknown = set(tags) - set(model.order) - {"fusion"}
    if unknown:
        raise ValueError(f"tags {sorted(unknown)} not in this model")
    params = model.registry.named(tags, trainable_only=True)
    if not params:
        raise ValueError(f"tags {sorted(tags)} select no trainable tensor")
    loss = model.loss(batch.features, batch.questions, batch.answers,
                      taped=tags, cache=cache)
    T.backward(loss, leaves=[t for _, t in params])
    gmags = {m: grad_magnitude(model.registry, m)
             for m in model.order if m in tags}
    opt.step(params)
    if cache is not None:
        for m in gmags:
            cache.pop(m, None)
    return float(loss.data), gmags


def evaluate(model: FusionModel, data: Dataset,
             tokens: dict[str, np.ndarray] | None = None) -> dict[str, float]:
    """Exact-match accuracy, overall and per template. ``tokens`` maps a
    modality to its forward-only tokens for every example of ``data``, so
    its query transformer does not run again."""
    preds = model.predict_classes(data.features, data.questions, tokens)
    return accuracy_by_template(preds, data)


def masked_features(features: dict[str, np.ndarray],
                    visible: set[str]) -> dict[str, np.ndarray]:
    """Zero the features of every modality not in ``visible``."""
    return {m: (f if m in visible else np.zeros_like(f))
            for m, f in features.items()}


def predict_dataset(model: FusionModel, data: Dataset,
                    batch_size: int = EVAL_BATCH,
                    visible: set[str] | None = None) -> np.ndarray:
    """Predicted classes (see ``FusionModel.predict_classes``; query
    transformers run ``batch_size`` rows at a time); with ``visible``, the
    features of every other modality are zeroed first."""
    features = data.features
    if visible is not None:
        features = masked_features(features, visible)
    return model.predict_classes(features, data.questions,
                                 batch_size=batch_size)


def train_epoch(model: FusionModel, opt: T.Adam, train: Dataset,
                config: TrainConfig, history: dict[str, GradHistory],
                epoch: int, update_steps: dict[str, int],
                frozen: dict[str, np.ndarray] | None = None
                ) -> tuple[float, dict]:
    """One pass over the data; appends epoch gradient averages to history.

    ``frozen`` maps an exited modality to its forward-only tokens for
    every example of ``train``. Each minibatch keeps one cache of
    forward-only tokens, seeded with its rows of those, and shared by the
    minibatch's steps.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, 1000 + epoch]))
    losses = []
    sums = {m: 0.0 for m in model.order}
    counts = {m: 0 for m in model.order}
    for idx in _batches(len(train), config.batch_size, rng):
        batch = train.slice(idx)
        cache = {m: a[idx] for m, a in (frozen or {}).items()}
        active = [m for m in model.order if history[m].active]
        if config.mode == "joint":
            step_tags = [set(active) | {"fusion"}]
        elif active:
            step_tags = [{m, "fusion"} for m in active]
        else:
            step_tags = [{"fusion"}]
        for tags in step_tags:
            loss, gmags = train_step(model, opt, batch, tags, cache)
            losses.append(loss)
            for m, g in gmags.items():
                sums[m] += g
                counts[m] += 1
                update_steps[m] = update_steps.get(m, 0) + 1
    averages = {}
    for m in model.order:
        if counts[m]:
            value = sums[m] / counts[m]
            history[m].values.append(value)
            averages[m] = value
    return float(np.mean(losses)), averages


def fit(model: FusionModel, train: Dataset, test: Dataset,
        config: TrainConfig) -> TrainReport:
    """Full training run; early-exit checks fire at each epoch end."""
    opt = T.Adam(lr=config.lr)
    history = {m: GradHistory() for m in model.order}
    report = TrainReport(mode=config.mode)
    report.history = history
    # per-example tokens of the exited modalities, whose adapters never
    # move again: computed once, then reused by every step and evaluation
    train_tokens: dict[str, np.ndarray] = {}
    test_tokens: dict[str, np.ndarray] = {}
    for epoch in range(1, config.epochs + 1):
        loss, averages = train_epoch(model, opt, train, config, history,
                                     epoch, report.update_steps, train_tokens)
        indicators: dict[str, float | None] = {}
        for m in model.order:
            h = history[m]
            indicators[m] = None
            if h.active and len(h.values) >= 2:
                indicators[m] = early_exit_indicator(h.values, config.tau)
                if config.early_exit and should_exit(
                        h.values, config.tau, config.exit_on_rise):
                    h.exit_epoch = epoch
                    if epoch < config.epochs:
                        train_tokens[m] = model.forward_only_tokens(
                            m, train.features[m], EVAL_BATCH)
                    test_tokens[m] = model.forward_only_tokens(
                        m, test.features[m], EVAL_BATCH)
        accuracy = evaluate(model, test, test_tokens)
        report.epochs.append(EpochRecord(
            epoch=epoch, loss=loss, accuracy=accuracy,
            grad_mag=dict(averages), indicator=indicators,
            active=[m for m in model.order if history[m].active]))
    report.final_accuracy = report.epochs[-1].accuracy if report.epochs else {}
    return report


def census_summary(model: FusionModel) -> dict[str, int]:
    out = {"trainable": count_trainable(model.registry)}
    out["total"] = total_scalars(model.registry)
    for m in model.order:
        out[m] = count_trainable(model.registry, m)
    out["fusion"] = count_trainable(model.registry, "fusion")
    return out
