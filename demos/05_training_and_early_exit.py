"""Modality-sequential training with gradient-driven early exit.

Training visits modalities one at a time: each minibatch runs one
forward/backward pass per active modality and updates only that
modality's adapter plus the shared fusion parameters. Meanwhile the
trainer records each modality's mean gradient magnitude per epoch. When
a modality's latest average falls to or below tau times the mean of its
history, that modality exits: its adapter freezes and its passes stop,
spending the remaining budget on modalities that still need it. The
whole schedule is replayable after the fact from the recorded averages,
so a run's exit decisions can be audited exactly.
"""

import numpy as np

from modfuse.bench import BenchModality, BenchSpec, gen_dataset
from modfuse.model import FusionModel, ModelDims
from modfuse.training import TrainConfig, fit, replay_exits

spec = BenchSpec(modalities=(BenchModality("video", 16, 8),
                             BenchModality("audio", 24, 6),
                             BenchModality("depth", 48, 4)),
                 train_size=1024, test_size=512, seed=0)
train, test = gen_dataset(spec)
model = FusionModel(ModelDims(rank=8), spec.modalities, "video", "SelfGated",
                    spec.vocab, spec.classes, seed=0, train_classifier=True)

config = TrainConfig(lr=3e-3, epochs=8, batch_size=32, seed=1,
                     early_exit=True, tau=0.6)
report = fit(model, train, test, config)

print("=== per-epoch trace ===")
print("epoch   loss    acc   active          grad averages")
for e in report.epochs:
    mags = " ".join(f"{m}:{g:.4f}" for m, g in sorted(e.grad_mag.items()))
    active = ",".join(e.active) if e.active else "-"
    print(f"{e.epoch:>5} {e.loss:>6.3f} {e.accuracy['overall']:>6.3f}"
          f"   {active:<15} {mags}")

print()
print("=== exits, live vs replayed ===")
live = report.exit_epochs()
recorded = {m: h.values for m, h in report.history.items()}
print("live exit epochs:    ", live)
print("replayed from record:", replay_exits(recorded, config.tau))
print("(an exit at epoch e means the check at the end of epoch e fired;")
print(" the modality's adapter is byte-frozen from then on)")

print()
print("=== what early exit buys ===")
steps = report.update_steps
print("masked update steps actually spent per modality:", steps)
total = sum(steps.values())
budget = config.epochs * -(-len(train) // config.batch_size) * len(steps)
print(f"{total} of {budget} scheduled passes used "
      f"({1 - total / budget:.0%} saved by exits)")
print(f"final test accuracy: {report.final_accuracy['overall']:.3f}")
