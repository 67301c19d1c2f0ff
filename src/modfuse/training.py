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
Joint mode is the conventional alternative: one step per minibatch, all
trainable tensors of active modalities, fusion and prefixes updated
together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from modfuse import tensor as T
from modfuse.adapters import ParamRegistry, count_trainable
from modfuse.bench import Dataset, accuracy_by_template
from modfuse.model import FusionModel

MODES = ("sequential", "joint")


@dataclass
class TrainConfig:
    lr: float = 3e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epochs: int = 8
    batch_size: int = 32
    seed: int = 0
    tau: float = 0.9
    mode: str = "sequential"
    early_exit: bool = False
    exit_on_rise: bool = False     # alternative inequality direction
    shuffle_modalities: bool = False
    warm_start: bool = False
    eval_batch: int = 256

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown training mode '{self.mode}'")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.early_exit and self.epochs < 2:
            raise ValueError("early exit needs at least 2 epochs of history")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch size and epochs must be positive")


@dataclass
class GradHistory:
    values: list[float] = field(default_factory=list)
    active: bool = True
    exit_epoch: int | None = None


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


def masked_params(model: FusionModel, tags: set[str]):
    return [(name, t) for name, t in model.registry.named(trainable_only=True)
            if model.registry[name].tag in tags]


def train_step(model: FusionModel, opt: T.Adam, batch: Dataset,
               tags: set[str]) -> tuple[float, dict[str, float]]:
    """One masked update of exactly the trainable tensors tagged in ``tags``.

    ``tags`` holds modality names, "fusion" and "shared". Only the query
    transformers of the modalities in ``tags`` (and the prefixes if
    "shared" is in it) go on the tape, so backward reaches the updated
    tensors and nothing else. With no tensor to update, the loss is
    computed without a tape and nothing moves.

    Returns (loss, mean gradient magnitude of each modality in ``tags``).
    """
    unknown = set(tags) - set(model.order) - {"fusion", "shared"}
    if unknown:
        raise ValueError(f"tags {sorted(unknown)} not in this model")
    params = masked_params(model, tags)
    args = (batch.features, batch.questions, batch.answers)
    if not params:
        with T.no_grad():
            return float(model.loss(*args).data), {}
    loss = model.loss(*args, taped=tags)
    T.backward(loss, leaves=[t for _, t in params])
    gmags = {m: grad_magnitude(model.registry, m)
             for m in model.order if m in tags}
    opt.step(params)
    return float(loss.data), gmags


def evaluate(model: FusionModel, data: Dataset,
             batch_size: int = 256) -> dict[str, float]:
    """Exact-match accuracy, overall and per template."""
    preds = predict_dataset(model, data, batch_size)
    return accuracy_by_template(preds, data)


def predict_dataset(model: FusionModel, data: Dataset,
                    batch_size: int = 256) -> np.ndarray:
    preds = np.empty(len(data), dtype=np.int64)
    for lo in range(0, len(data), batch_size):
        part = data.slice(np.arange(lo, min(lo + batch_size, len(data))))
        preds[lo:lo + len(part)] = model.predict_classes(
            part.features, part.questions)
    return preds


def train_epoch(model: FusionModel, opt: T.Adam, train: Dataset,
                config: TrainConfig, history: dict[str, GradHistory],
                epoch: int, update_steps: dict[str, int]) -> tuple[float, dict]:
    """One pass over the data; appends epoch gradient averages to history."""
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, 1000 + epoch]))
    losses = []
    sums = {m: 0.0 for m in model.order}
    counts = {m: 0 for m in model.order}
    for idx in _batches(len(train), config.batch_size, rng):
        batch = train.slice(idx)
        active = [m for m in model.order if history[m].active]
        if config.shuffle_modalities:
            active = [str(m) for m in rng.permutation(active)]
        if config.mode == "joint":
            step_tags = [set(active) | {"fusion", "shared"}]
        elif active:
            step_tags = [{m, "fusion"} for m in active]
        else:
            step_tags = [{"fusion"}]
        for tags in step_tags:
            loss, gmags = train_step(model, opt, batch, tags)
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
    config.validate()
    opt = T.Adam(lr=config.lr, beta1=config.beta1, beta2=config.beta2)
    history = {m: GradHistory() for m in model.order}
    report = TrainReport(mode=config.mode)
    report.history = history
    if config.warm_start:
        warm_start(model, train, config)
    for epoch in range(1, config.epochs + 1):
        loss, averages = train_epoch(model, opt, train, config, history,
                                     epoch, report.update_steps)
        indicators: dict[str, float | None] = {}
        for m in model.order:
            h = history[m]
            indicators[m] = None
            if h.active and len(h.values) >= 2:
                indicators[m] = early_exit_indicator(h.values, config.tau)
                if config.early_exit and should_exit(
                        h.values, config.tau, config.exit_on_rise):
                    h.active = False
                    h.exit_epoch = epoch
        accuracy = evaluate(model, test, config.eval_batch)
        report.epochs.append(EpochRecord(
            epoch=epoch, loss=loss, accuracy=accuracy,
            grad_mag=dict(averages), indicator=indicators,
            active=[m for m in model.order if history[m].active]))
    report.final_accuracy = report.epochs[-1].accuracy if report.epochs else {}
    return report


def warm_start(model: FusionModel, train: Dataset, config: TrainConfig) -> None:
    """Pre-fit each adapter on its own unimodal questions for one epoch."""
    opt = T.Adam(lr=config.lr, beta1=config.beta1, beta2=config.beta2)
    for i, m in enumerate(model.order):
        mask = (train.template_ids == 0) & \
               (train.questions[:, 1] == train.spec.modality_token(i))
        subset = train.slice(np.flatnonzero(mask))
        if not len(subset):
            continue
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 77, i]))
        for idx in _batches(len(subset), config.batch_size, rng):
            train_step(model, opt, subset.slice(idx), {m, "fusion"})


def census_summary(model: FusionModel) -> dict[str, int]:
    out = {"trainable": count_trainable(model.registry).scalar_count}
    from modfuse.adapters import total_scalars
    out["total"] = total_scalars(model.registry)
    for m in model.order:
        out[m] = count_trainable(model.registry, m).scalar_count
    out["fusion"] = count_trainable(model.registry, "fusion").scalar_count
    out["shared"] = count_trainable(model.registry, "shared").scalar_count
    return out
