"""Print the bytes a checkout computes, one JSON line per run, for diffing.

    python3 tools/byte_digests.py [--train-size N] [--test-size N]
                                  [--epochs N] [--gradcheck-sample N]
                                  [--perfbench]

Run it from the root of two checkouts (say, a parent commit and a change)
and ``diff`` the two outputs: a change that only reorganises work must
leave every line as it was. Each checkout imports ``modfuse`` from its own
``src/``, with BLAS pinned to one thread.

The first lines hold, for every fusion strategy in float32 and in float64,
the grid model (below) as built, untrained: ``registry.checksum`` of each
registry tag (``init``, ``checksum``), so a change to how weights are
drawn shows which component moved.

The grid is every fusion strategy, in sequential and in joint mode, with
early exit (tau 0.9), at seed 7, on the perfbench model (video 16x8 major,
audio 24x6, depth 48x4, d=32, 2 layers, 4 heads, 4 tokens, rank 8,
trainable classifier), plus SelfGated in sequential mode once more on
train and test splits of 269 examples: forward-only prediction runs
query transformers ``model.EVAL_BATCH`` (256) rows at a time, so
exit-time token passes, per-epoch evaluation and ``run_eval`` all run a
ragged last chunk of 13 rows. ``--perfbench`` adds the perfbench configs of
every workload at model seeds 0-3. Each line holds the SHA-256 of the run's
generated data (``data_sha256``: the dtype and bytes of every array of
``bench.gen_dataset``, train split then test split, features in modality
order, then questions, answers, latents and template ids), the SHA-256 of
its ``metrics.jsonl`` (``metrics.run_records``), the SHA-256 of those
records with the ``census`` field dropped from each (``records_sha256``),
the final parameter census (``census``), the SHA-256 of its
checkpoint file (``checkpoint_sha256``), the SHA-256 of the tensors that
``checkpoint.load_checkpoint`` reads from it (``tensors_sha256``: name,
dtype, shape and bytes of each, in file order), the ``run_eval``
accuracies of that checkpoint (``accuracy``) and its ``run_eval``
accuracies with only the major modality visible
(``major_only_accuracy``). The last line is the full-model gradcheck
summary (``modfuse gradcheck``), which prints its worst relative error
to four digits.

A change to the parameter layout alone (a tensor added, dropped or
retagged) shows as a ``census`` diff beside an unchanged
``records_sha256``: the training bytes stayed as they were. Likewise a
change to the checkpoint format alone shows as a ``checkpoint_sha256``
diff beside an unchanged ``tensors_sha256``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7
PERFBENCH_SEEDS = range(4)
RAGGED_SIZE = 269


def grid_config(strategy: str, mode: str, train_size: int, test_size: int,
                epochs: int) -> str:
    return f"""\
modalities = video, audio, depth
major = video
modality.video.feat_dim = 16
modality.video.seq_len = 8
modality.audio.feat_dim = 24
modality.audio.seq_len = 6
modality.depth.feat_dim = 48
modality.depth.seq_len = 4
bench.train_size = {train_size}
bench.test_size = {test_size}
bench.seed = {SEED}
model.d = 32
model.layers = 2
model.heads = 4
model.tokens = 4
model.rank = 8
model.strategy = {strategy}
model.train_classifier = true
model.seed = {SEED}
train.mode = {mode}
train.early_exit = true
train.tau = 0.9
train.epochs = {epochs}
train.batch_size = 32
train.lr = 0.003
train.seed = {SEED}
"""


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def data_sha256(spec) -> str:
    from modfuse.bench import gen_dataset

    h = hashlib.sha256()
    for split in gen_dataset(spec):
        for arr in (*split.features.values(), split.questions,
                    split.answers, split.latents, split.template_ids):
            h.update(arr.dtype.str.encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def records_sha256(records: list[dict]) -> str:
    from modfuse.metrics import dumps_record

    h = hashlib.sha256()
    for record in records:
        rest = {k: v for k, v in record.items() if k != "census"}
        h.update((dumps_record(rest) + "\n").encode())
    return h.hexdigest()


def tensors_sha256(path: str) -> str:
    from modfuse.checkpoint import load_checkpoint

    h = hashlib.sha256()
    for name, arr in load_checkpoint(path).tensors.items():
        h.update(f"{name}\0{arr.dtype.str}\0{arr.shape}\0".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def digest_line(label: str, text: str, outdir: str) -> dict:
    from modfuse import config, metrics, runner

    cfg = config.parse_config(text, source=label)
    result = runner.run_train(cfg, os.path.join(outdir, label))
    ckpt = result["checkpoint"]
    records = metrics.read_jsonl(result["metrics"])
    return {"run": label,
            "data_sha256": data_sha256(cfg.spec),
            "metrics_sha256": _sha256(result["metrics"]),
            "records_sha256": records_sha256(records),
            "census": records[-1]["census"],
            "checkpoint_sha256": _sha256(ckpt),
            "tensors_sha256": tensors_sha256(ckpt),
            "accuracy": runner.run_eval(ckpt)["accuracy"],
            "major_only_accuracy": runner.run_eval(
                ckpt, modalities=[cfg.major])["accuracy"]}


def init_line(strategy: str, dtype: str, args) -> dict:
    """The untrained grid model's ``registry.checksum`` per tag."""
    from modfuse import config
    from modfuse.model import FusionModel

    cfg = config.parse_config(
        grid_config(strategy, "sequential", args.train_size, args.test_size,
                    args.epochs), source=strategy)
    # the grid attaches every modality, so this is build_model at dtype
    reg = FusionModel(cfg.dims, cfg.spec.modalities, cfg.major, cfg.strategy,
                      cfg.spec.vocab, cfg.spec.classes, cfg.model_seed,
                      train_classifier=cfg.train_classifier,
                      dtype=dtype).registry
    return {"init": f"{strategy}-{dtype}",
            "checksum": {tag: reg.checksum({tag})
                         for tag in sorted(reg.tags())}}


def runs(args):
    """(label, config text) of every run, in output order."""
    from modfuse.fusion import STRATEGIES

    for strategy in STRATEGIES:
        for mode in ("sequential", "joint"):
            yield (f"{strategy}-{mode}-exit-seed{SEED}",
                   grid_config(strategy, mode, args.train_size,
                               args.test_size, args.epochs))
    yield (f"SelfGated-sequential-exit-split{RAGGED_SIZE}-seed{SEED}",
           grid_config("SelfGated", "sequential", RAGGED_SIZE, RAGGED_SIZE,
                       args.epochs))
    if args.perfbench:
        sys.path.insert(0, os.path.join(ROOT, "perfbench"))
        import workloads

        for name in workloads.WORKLOADS:
            for seed in PERFBENCH_SEEDS:
                yield (f"perfbench-{name}-seed{seed}",
                       workloads.config_text(name, seed))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--train-size", type=int, default=192)
    p.add_argument("--test-size", type=int, default=256)
    p.add_argument("--epochs", type=int, default=4)
    p.add_argument("--gradcheck-sample", type=int, default=None,
                   help="elements checked per parameter (default: all)")
    p.add_argument("--perfbench", action="store_true",
                   help="also run the perfbench configs at seeds 0-3")
    args = p.parse_args(argv)

    # single-threaded BLAS, pinned before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from modfuse import runner
    from modfuse.fusion import STRATEGIES

    for strategy in STRATEGIES:
        for dtype in ("float32", "float64"):
            print(json.dumps(init_line(strategy, dtype, args), sort_keys=True),
                  flush=True)
    with tempfile.TemporaryDirectory() as outdir:
        for label, text in runs(args):
            print(json.dumps(digest_line(label, text, outdir),
                             sort_keys=True), flush=True)
    report = runner.run_gradcheck(sample=args.gradcheck_sample)
    print(json.dumps({"gradcheck": report.summary()}), flush=True)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
