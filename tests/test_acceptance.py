"""End-to-end acceptance checks, one test per shipping property.

Each test states its tolerance inline, asserts it, and prints a single
``PASS <property>: <measured numbers>`` line on success (visible with
``pytest -rA`` or ``-s``); a failure surfaces as the usual FAILED line.
The benchmark-scale test trains two models and enforces a wall-clock
budget, so run the suite on an otherwise idle core for honest timing.
"""

import hashlib
import time

import numpy as np

from modfuse import tensor as T
from modfuse.adapters import FeatureBatch, mmqa_create
from modfuse.backbone import init_backbone, lora_linear, qformer_forward
from modfuse.bench import (BenchModality, BenchSpec, accuracy_by_template,
                           gen_dataset, split_easy_hard,
                           unimodal_bayes_accuracy)
from modfuse.checkpoint import (checkpoint_bytes, load_checkpoint,
                                restore_into)
from modfuse.config import parse_config
from modfuse.fusion import (STRATEGIES, create_fusion, fuse_variant,
                            token_budget)
from modfuse.model import FusionModel, ModelDims
from modfuse.reasoner import reasoner_flops
from modfuse.runner import run_gradcheck, run_train
from modfuse.training import (TrainConfig, census_summary,
                              early_exit_indicator, fit, predict_dataset,
                              replay_exits, should_exit, train_step)


def _report(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


def _toy_spec(train_size=64, test_size=32, seed=0):
    return BenchSpec(modalities=(BenchModality("video", 16, 8),
                                 BenchModality("audio", 24, 6),
                                 BenchModality("depth", 48, 4)),
                     alphabet=5, train_size=train_size, test_size=test_size,
                     seed=seed)


def _toy_model(strategy="SelfGated", seed=0, **dim_kwargs):
    spec = _toy_spec()
    return FusionModel(ModelDims(**dim_kwargs), spec.modalities, "video",
                       strategy, spec.vocab, spec.classes, seed)


def _tensor_digests(registry) -> dict[str, str]:
    return {name: hashlib.sha256(t.data.tobytes()).hexdigest()
            for name, t in registry.named()}


def test_full_model_gradients_match_finite_differences():
    # Tolerance: max relative error < 1e-4 at 64-bit, every trainable
    # scalar checked against central differences, wall clock < 60 s.
    t0 = time.monotonic()
    report = run_gradcheck()
    elapsed = time.monotonic() - t0
    assert report.max_rel_err < 1e-4, report.summary()
    assert elapsed < 60.0, f"gradcheck took {elapsed:.1f}s"
    _report("gradient correctness",
            f"max rel err {report.max_rel_err:.2e} over "
            f"{report.n_checked} scalars in {elapsed:.1f}s "
            f"(worst: {report.worst_param})")


def test_fresh_adapters_neutral_and_full_rank_matches_dense():
    # Tolerances: freshly created adapters must be bit-identical to the
    # adapter-free path; at full rank the two thin products must match
    # the dense summed weight within 1e-5 max abs at 32-bit.
    bb = init_backbone(7, 32, 2, 4, dtype=np.float64)
    feats = FeatureBatch(
        "video", np.random.default_rng(7).normal(size=(2, 5, 16)))
    fresh = mmqa_create("video", 32, 4, 4, 2, 16, seed=7, dtype=np.float64)
    bare = mmqa_create("video", 32, 4, 4, 2, 16, seed=7, dtype=np.float64)
    bare.lora = [{"q": None, "v": None} for _ in bare.lora]
    out = qformer_forward(bb, fresh, feats)
    reference = qformer_forward(bb, bare, feats)
    assert np.array_equal(out.data, reference.data)

    d = 32
    rng = np.random.default_rng(3)
    x = T.Tensor(rng.normal(size=(4, d)).astype(np.float32))
    w = T.Tensor(rng.normal(0, 0.1, size=(d, d)).astype(np.float32))

    class _Pair:
        down = T.Tensor(rng.normal(0, 0.1, size=(d, d)).astype(np.float32))
        up = T.Tensor(rng.normal(0, 0.1, size=(d, d)).astype(np.float32))

    low_rank = lora_linear(x, w, _Pair)
    dense = x.data @ (w.data + _Pair.down.data @ _Pair.up.data)
    gap = float(np.max(np.abs(low_rank.data - dense)))
    assert gap < 1e-5
    _report("adapter neutrality / full-rank equivalence",
            f"fresh adapter bit-identical; r=d max abs gap {gap:.2e}")


def test_sequential_steps_update_only_target_and_fusion():
    # Tolerance: exact. Over 100 masked steps, every tensor outside the
    # target modality and fusion keeps identical bytes, and at least one
    # fusion tensor changes on every single step.
    spec = _toy_spec(train_size=12)
    train, _ = gen_dataset(spec)
    model = _toy_model(d=16, heads=2, tokens=2, rank=2)
    opt = T.Adam(1e-3)
    batch = train.slice(np.arange(4))
    order = model.order
    fusion_names = {n for n, _ in model.registry.named()
                    if model.registry.entries[n].tag == "fusion"}
    for step in range(100):
        target = order[step % len(order)]
        before = _tensor_digests(model.registry)
        train_step(model, opt, batch, {target, "fusion"})
        after = _tensor_digests(model.registry)
        changed = {n for n in before if before[n] != after[n]}
        allowed = {n for n in before
                   if model.registry.entries[n].tag in (target, "fusion")}
        leaked = changed - allowed
        assert not leaked, f"step {step} ({target}) moved {sorted(leaked)}"
        assert changed & fusion_names, f"step {step}: no fusion tensor moved"
    _report("sequential update masking",
            "100 steps: non-target and frozen tensors byte-stable, "
            "fusion moved every step")


def test_exit_replay_matches_live_run_and_scripted_schedule():
    # Tolerances: replayed exit epochs equal the live run's exactly; on
    # the scripted averages 1.0, 0.8, 0.5 then 0.3 with tau=0.9 the
    # indicator equals 0.4348 within 1e-4 and the exit fires.
    spec = _toy_spec(train_size=192, test_size=64)
    train, test = gen_dataset(spec)
    model = _toy_model()
    config = TrainConfig(lr=3e-3, epochs=6, batch_size=32, seed=1,
                         early_exit=True, tau=2.0)
    report = fit(model, train, test, config)
    recorded = {m: h.values for m, h in report.history.items()}
    live = report.exit_epochs()
    replayed = replay_exits(recorded, config.tau)
    assert replayed == live
    assert any(e is not None for e in live.values())

    scripted = [1.0, 0.8, 0.5, 0.3]
    indicator = early_exit_indicator(scripted, tau=0.9)
    assert abs(indicator - 0.4348) < 1e-4
    assert should_exit(scripted, tau=0.9)
    _report("early-exit replay",
            f"live exits {live} reproduced from recorded averages; "
            f"scripted indicator {indicator:.4f} fires")


def test_fused_token_budget_and_flop_scaling():
    # Tolerance: exact. Measured fused sequence length equals the
    # analytic budget for every strategy and n in 2..6; the self-gated
    # reasoner cost is constant in n while pure concatenation grows.
    tokens, d, heads = 4, 32, 4
    rng = np.random.default_rng(11)
    for strategy in STRATEGIES:
        for n in range(2, 7):
            fusion = create_fusion(strategy, n, tokens, d, heads, seed=0)
            sets = [T.Tensor(rng.normal(size=(2, tokens, d)).astype(np.float32))
                    for _ in range(n)]
            fused = fuse_variant(fusion, sets[0], sets[1:])
            assert fused.shape[1] == token_budget(strategy, n, tokens), \
                f"{strategy} n={n}"
    gated = {reasoner_flops(n, tokens, 3, "SelfGated", d) for n in range(2, 7)}
    concat = [reasoner_flops(n, tokens, 3, "Concat", d) for n in range(2, 7)]
    assert len(gated) == 1
    assert all(a < b for a, b in zip(concat, concat[1:]))
    _report("token budget law",
            f"budgets match for {len(STRATEGIES)} strategies x n=2..6; "
            f"self-gated cost constant at {gated.pop():,} MACs, "
            f"concat grows {concat[0]:,} -> {concat[-1]:,}")


def test_multimodal_model_beats_single_modality_bounds():
    # Tolerances: single-modality model within +2 points of its exact
    # information bound on each cross-modal template (<= 0.82 equal,
    # <= 0.66 count); full model >= 0.95 overall and >= 0.90 on the
    # hard subset; everything inside a 600 s budget on one core.
    t0 = time.monotonic()
    spec = _toy_spec(train_size=8000, test_size=4000, seed=0)
    train, test = gen_dataset(spec)
    bounds = unimodal_bayes_accuracy(spec, ["video"])
    assert abs(bounds["equal"] - 0.80) < 1e-12
    assert abs(bounds["count"] - 0.64) < 1e-12

    major_only = FusionModel(ModelDims(rank=8), spec.modalities[:1], "video",
                             "SelfGated", spec.vocab, spec.classes, 0,
                             train_classifier=True)
    fit(major_only, train, test,
        TrainConfig(lr=3e-3, epochs=8, batch_size=32, seed=1))
    major_preds = predict_dataset(major_only, test)
    acc_major = accuracy_by_template(major_preds, test)
    assert acc_major["equal"] <= bounds["equal"] + 0.02, acc_major
    assert acc_major["count"] <= bounds["count"] + 0.02, acc_major

    full = FusionModel(ModelDims(rank=8), spec.modalities, "video",
                       "SelfGated", spec.vocab, spec.classes, 0,
                       train_classifier=True)
    fit(full, train, test,
        TrainConfig(lr=3e-3, epochs=14, batch_size=32, seed=1))
    full_preds = predict_dataset(full, test)
    acc_full = accuracy_by_template(full_preds, test)
    _, hard = split_easy_hard(major_preds, test)
    hard_acc = float((full_preds[hard] == test.answers[hard]).mean())
    elapsed = time.monotonic() - t0
    assert acc_full["overall"] >= 0.95, acc_full
    assert hard_acc >= 0.90, f"hard subset {hard_acc:.4f}"
    assert elapsed < 600.0, f"benchmark run took {elapsed:.0f}s"
    _report("multimodal benefit",
            f"single-modality equal {acc_major['equal']:.3f} <= 0.82, "
            f"count {acc_major['count']:.3f} <= 0.66; full model "
            f"{acc_full['overall']:.3f} overall, {hard_acc:.3f} on "
            f"{len(hard)} hard examples; {elapsed:.0f}s")


def test_sequential_and_joint_training_diverge():
    # Tolerance: the two schedules must complete from a shared seed and
    # produce non-identical accuracy trajectories; the direction of the
    # gap is reported, not asserted.
    spec = _toy_spec(train_size=256, test_size=128)
    train, test = gen_dataset(spec)
    reports = {}
    for mode in ("sequential", "joint"):
        model = _toy_model(seed=0)
        config = TrainConfig(lr=3e-3, epochs=4, batch_size=32, seed=1,
                             mode=mode)
        reports[mode] = fit(model, train, test, config)
    seq = [e.accuracy["overall"] for e in reports["sequential"].epochs]
    joint = [e.accuracy["overall"] for e in reports["joint"].epochs]
    assert len(seq) == len(joint) == 4
    assert seq != joint
    lead = "sequential" if seq[-1] >= joint[-1] else "joint"
    _report("sequential vs joint",
            f"shared seed, final {seq[-1]:.3f} vs {joint[-1]:.3f} "
            f"({lead} ahead at this scale); trajectories differ")


def test_reruns_checkpoints_and_extension_are_bit_stable(tmp_path):
    # Tolerance: exact bytes. Same config and seed twice -> identical
    # metrics files; checkpoint round trip -> identical serialized
    # bytes; adding a modality under force-load leaves every surviving
    # tensor bitwise intact.
    config_text = """
        bench.train_size = 96
        bench.test_size = 48
        modalities = video, audio
        modality.video.feat_dim = 16
        modality.video.seq_len = 4
        modality.audio.feat_dim = 24
        modality.audio.seq_len = 4
        train.epochs = 2
        train.batch_size = 32
        run.name = stability
    """
    config = parse_config(config_text)
    out_a = run_train(config, outdir=str(tmp_path / "a"))
    out_b = run_train(config, outdir=str(tmp_path / "b"))
    bytes_a = open(out_a["metrics"], "rb").read()
    bytes_b = open(out_b["metrics"], "rb").read()
    assert bytes_a == bytes_b

    first = load_checkpoint(out_a["checkpoint"])
    model_a = out_a["model"]
    restored = FusionModel(model_a.dims, config.spec.modalities, "video",
                           model_a.strategy, model_a.vocab, model_a.classes,
                           seed=9)
    restore_into(restored.registry, first)
    assert checkpoint_bytes(restored.registry, config) == \
        open(out_a["checkpoint"], "rb").read()

    extended = FusionModel(model_a.dims,
                           config.spec.modalities +
                           (BenchModality("thermal", 20, 4),),
                           "video", model_a.strategy, model_a.vocab,
                           model_a.classes, seed=9)
    warnings = restore_into(extended.registry, first, force=True)
    surviving = 0
    current = dict(extended.registry.named())
    for name, arr in first.tensors.items():
        if name in current and current[name].data.shape == arr.shape:
            assert np.array_equal(current[name].data, arr), name
            surviving += 1
    assert surviving > 50
    _report("determinism and persistence",
            f"rerun metrics identical ({len(bytes_a)} bytes); round trip "
            f"byte-exact; {surviving} tensors intact after adding a "
            f"modality ({len(warnings)} skips warned)")


def test_trainable_fraction_small_and_adapter_counts_closed_form():
    # Tolerances: trainable/total < 10% with toy defaults and three
    # modalities; per-modality adapter scalar counts equal the closed
    # form exactly.
    model = _toy_model()
    census = census_summary(model)
    fraction = census["trainable"] / census["total"]
    assert fraction < 0.10, census
    dims = model.dims
    for spec in _toy_spec().modalities:
        expected = dims.layers * 2 * 2 * dims.d * dims.rank \
            + dims.tokens * dims.d
        if spec.feat_dim != dims.d:
            expected += spec.feat_dim * dims.d + dims.d
        assert census[spec.name] == expected, spec.name
    _report("parameter census",
            f"trainable {census['trainable']:,} / {census['total']:,} "
            f"= {fraction:.1%} < 10%; adapter counts match closed form")
