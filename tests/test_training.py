"""Trainer behavior: masked updates, gradient tracking, early exit."""

import dataclasses
import gc
import itertools

import numpy as np
import pytest

from modfuse import Tensor
from modfuse import training
from modfuse.adapters import FeatureBatch, ParamRegistry
from modfuse.bench import BenchModality, BenchSpec, gen_dataset
from modfuse.fusion import MOE_EXPERTS, STRATEGIES
from modfuse.model import FusionModel, ModelDims
from modfuse.training import (MODES, GradHistory, TrainConfig,
                              early_exit_indicator, evaluate, fit,
                              grad_magnitude, predict_dataset,
                              replay_exits, should_exit, train_epoch,
                              train_step)
from modfuse import model as model_module
from modfuse import tensor as T


def small_spec(n=2, train_size=64, test_size=32):
    mods = [BenchModality("video", 16, 5), BenchModality("audio", 24, 5),
            BenchModality("depth", 48, 5)][:n]
    return BenchSpec(modalities=tuple(mods), train_size=train_size,
                     test_size=test_size, seed=3)


def build_model(spec, strategy="SelfGated", seed=11, **kw):
    return FusionModel(ModelDims(), spec.modalities, spec.names[0], strategy,
                       spec.vocab, spec.classes, seed, **kw)


class TestIndicator:
    def test_worked_example(self):
        # history [1.0, 0.8, 0.5] then a new epoch average of 0.3 at tau=0.9:
        # 0.3 / (0.9 * 0.76667) = 0.4348, at or below 1, so the exit fires
        values = [1.0, 0.8, 0.5, 0.3]
        ind = early_exit_indicator(values, tau=0.9)
        assert abs(ind - 0.4348) < 5e-5
        assert should_exit(values, tau=0.9)

    def test_above_threshold_keeps_training(self):
        values = [1.0, 0.9, 0.95]
        ind = early_exit_indicator(values, tau=0.9)
        assert ind > 1.0
        assert not should_exit(values, tau=0.9)

    def test_needs_history(self):
        with pytest.raises(ValueError, match="prior epoch"):
            early_exit_indicator([0.5], tau=0.9)

    def test_zero_history_exits(self):
        assert early_exit_indicator([0.0, 0.0], tau=0.9) == 0.0

    def test_rise_direction_flag(self):
        values = [0.5, 1.0]
        assert not should_exit(values, tau=0.9)
        assert should_exit(values, tau=0.9, exit_on_rise=True)

    def test_replay_first_crossing(self):
        rec = {"a": [1.0, 1.2, 0.9, 0.2], "b": [1.0, 1.1, 1.2]}
        # a: epoch 3 is the first with 0.9 <= 0.9 * mean(1.0, 1.2) = 0.99
        assert replay_exits(rec, tau=0.9) == {"a": 3, "b": None}


class TestGradMagnitude:
    def test_mean_absolute_value(self):
        reg = ParamRegistry()
        t = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        t.grad = np.array([3.0, -4.0], dtype=np.float32)
        reg.register("m.w", t, "m")
        assert grad_magnitude(reg, "m") == pytest.approx(3.5)

    def test_spans_tensors(self):
        reg = ParamRegistry()
        a = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        a.grad = np.array([1.0, 1.0, 1.0], dtype=np.float32)
        b = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
        b.grad = np.array([5.0], dtype=np.float32)
        reg.register("m.a", a, "m")
        reg.register("m.b", b, "m")
        assert grad_magnitude(reg, "m") == pytest.approx(2.0)

    def test_missing_grad_rejected(self):
        reg = ParamRegistry()
        t = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        reg.register("m.w", t, "m")
        with pytest.raises(ValueError, match="no gradient"):
            grad_magnitude(reg, "m")

    def test_unknown_modality_rejected(self):
        with pytest.raises(ValueError, match="tagged"):
            grad_magnitude(ParamRegistry(), "thermal")


class TestSequentialStep:
    def test_only_target_and_fusion_move(self):
        spec = small_spec(n=3)
        model = build_model(spec)
        train, _ = gen_dataset(spec)
        batch = train.slice(np.arange(8))
        opt = T.Adam(lr=1e-2)
        reg = model.registry
        before = {tag: reg.checksum({tag}) for tag in
                  ("video", "audio", "depth", "fusion", "frozen")}
        prefixes = {name: t.data.copy() for name, t in reg.named()
                    if name.startswith("prefix.")}
        loss, gmags = train_step(model, opt, batch, {"audio", "fusion"})
        gmag = gmags["audio"]
        assert np.isfinite(loss) and gmag > 0
        after = {tag: reg.checksum({tag}) for tag in before}
        assert after["audio"] != before["audio"]
        assert after["fusion"] != before["fusion"]
        # the prefixes are fusion tensors: a sequential step trains them
        for name, data in prefixes.items():
            assert not np.array_equal(reg.entries[name].tensor.data,
                                      data), name
        for tag in ("video", "depth", "frozen"):
            assert after[tag] == before[tag]

    def test_unknown_modality_rejected(self):
        spec = small_spec(n=2)
        model = build_model(spec)
        train, _ = gen_dataset(spec)
        with pytest.raises(ValueError, match="not in this model"):
            train_step(model, T.Adam(), train.slice(np.arange(4)),
                       {"thermal", "fusion"})

    def test_fusion_only_step(self):
        spec = small_spec(n=2)
        model = build_model(spec)
        train, _ = gen_dataset(spec)
        opt = T.Adam(lr=1e-2)
        reg = model.registry
        before = {tag: reg.checksum({tag}) for tag in
                  ("video", "audio", "fusion")}
        train_step(model, opt, train.slice(np.arange(8)), {"fusion"})
        assert reg.checksum({"fusion"}) != before["fusion"]
        for tag in ("video", "audio"):
            assert reg.checksum({tag}) == before[tag]

    def test_joint_step_moves_everything_active(self):
        spec = small_spec(n=2)
        model = build_model(spec)
        train, _ = gen_dataset(spec)
        opt = T.Adam(lr=1e-2)
        reg = model.registry
        before = {tag: reg.checksum({tag}) for tag in
                  ("video", "audio", "fusion", "frozen")}
        loss, gmags = train_step(model, opt, train.slice(np.arange(8)),
                                 {"video", "audio", "fusion"})
        assert set(gmags) == {"video", "audio"}
        for tag in ("video", "audio", "fusion"):
            assert reg.checksum({tag}) != before[tag]
        assert reg.checksum({"frozen"}) == before["frozen"]

    def test_joint_step_respects_exits(self):
        spec = small_spec(n=2)
        model = build_model(spec)
        train, _ = gen_dataset(spec)
        opt = T.Adam(lr=1e-2)
        before = model.registry.checksum({"audio"})
        train_step(model, opt, train.slice(np.arange(8)),
                   {"video", "fusion"})
        assert model.registry.checksum({"audio"}) == before


# the update sets train_epoch passes: sequential, all exited, joint
STEP_TAGS = [{"audio", "fusion"}, {"fusion"},
             {"video", "audio", "depth", "fusion"}]


class TestTrainStep:
    @pytest.mark.parametrize("tags", STEP_TAGS,
                             ids=["sequential", "fusion-only", "joint"])
    def test_grads_equal_full_tape(self, tags):
        spec = small_spec(n=3)
        model = build_model(spec, train_classifier=True)
        train, _ = gen_dataset(spec)
        batch = train.slice(np.arange(8))
        loss = model.loss(batch.features, batch.questions, batch.answers)
        T.backward(loss, leaves=[t for _, t in model.registry.named(
            trainable_only=True)])
        updated = model.registry.named(tags, trainable_only=True)
        full = {name: t.grad.copy() for name, t in updated}
        step_loss, _ = train_step(model, T.Adam(lr=1e-2), batch, tags)
        assert step_loss == float(loss.data)
        assert updated and all(np.array_equal(t.grad, full[name])
                               for name, t in updated)

    @pytest.mark.parametrize("tags", STEP_TAGS,
                             ids=["sequential", "fusion-only", "joint"])
    def test_only_tagged_qformers_taped(self, tags, monkeypatch):
        spec = small_spec(n=3)
        model = build_model(spec)
        train, _ = gen_dataset(spec)
        taped = {}
        qformer = model_module.qformer_forward

        def recording(backbone, adapter, feats):
            out = qformer(backbone, adapter, feats)
            taped[feats.modality] = out.requires_grad
            return out

        monkeypatch.setattr(model_module, "qformer_forward", recording)
        train_step(model, T.Adam(), train.slice(np.arange(4)), tags)
        assert taped == {m: m in tags for m in model.order}

    @pytest.mark.parametrize("tags", STEP_TAGS,
                             ids=["sequential", "fusion-only", "joint"])
    def test_backward_reaches_only_updated_tensors(self, tags):
        spec = small_spec(n=3)
        model = build_model(spec, train_classifier=True)
        train, _ = gen_dataset(spec)
        train_step(model, T.Adam(), train.slice(np.arange(4)), tags)
        updated = {name for name, _ in model.registry.named(
            tags, trainable_only=True)}
        for name, t in model.registry.named(trainable_only=True):
            assert (t.grad is not None) == (name in updated), name

    @pytest.mark.parametrize("tags", [STEP_TAGS[0], STEP_TAGS[2]],
                             ids=["sequential", "joint"])
    def test_step_leaves_no_cyclic_garbage(self, tags):
        # backward closures never refer to their op's output, so a finished
        # step's tape is freed by reference counting alone
        spec = small_spec(n=3)
        model = build_model(spec, train_classifier=True)
        train, _ = gen_dataset(spec)
        batch = train.slice(np.arange(8))
        gc.collect()
        gc.disable()
        try:
            train_step(model, T.Adam(), batch, tags)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_non_modality_tags_rejected(self):
        spec = small_spec(n=2)
        model = build_model(spec)
        train, _ = gen_dataset(spec)
        with pytest.raises(ValueError, match="not in this model"):
            train_step(model, T.Adam(), train.slice(np.arange(4)),
                       {"frozen"})

    def test_step_selecting_nothing_rejected(self):
        spec = small_spec(n=2)
        model = build_model(spec)
        train, _ = gen_dataset(spec)
        before = model.registry.checksum()
        with pytest.raises(ValueError, match="select no trainable tensor"):
            train_step(model, T.Adam(), train.slice(np.arange(4)), set())
        assert model.registry.checksum() == before

    def test_loss_recorded_after_every_modality_exits(self, monkeypatch):
        # Concat without a trainable classifier has no fusion module, so
        # its only fusion tensors are its prefixes; the fusion-only epochs
        # after the exits train them and record the minibatch loss
        spec = small_spec(n=2)
        model = build_model(spec, strategy="Concat")
        train, test = gen_dataset(spec)
        assert [name for name, _ in model.registry.named(
            tags={"fusion"}, trainable_only=True)] == \
            ["prefix.video", "prefix.audio"]
        checksums = []
        train_epoch_fn = training.train_epoch

        def marked(*args, **kwargs):
            checksums.append(model.registry.checksum({"fusion"}))
            return train_epoch_fn(*args, **kwargs)

        monkeypatch.setattr(training, "train_epoch", marked)
        report = fit(model, train, test,
                     TrainConfig(epochs=4, batch_size=32, seed=5, tau=10.0,
                                 early_exit=True))
        checksums.append(model.registry.checksum({"fusion"}))
        assert [e.active for e in report.epochs[2:]] == [[], []]
        assert all(e.loss > 0.0 for e in report.epochs)
        # epochs 3 and 4 move the prefixes
        assert checksums[2] != checksums[3] != checksums[4]


class TestEpochAndFit:
    def test_epoch_appends_history_once(self):
        spec = small_spec(n=2)
        model = build_model(spec)
        train, _ = gen_dataset(spec)
        config = TrainConfig(epochs=1, batch_size=32, seed=5)
        history = {m: GradHistory() for m in model.order}
        steps = {}
        loss, averages = train_epoch(model, T.Adam(lr=config.lr), train,
                                     config, history, 1, steps)
        assert np.isfinite(loss)
        assert set(averages) == {"video", "audio"}
        assert all(len(history[m].values) == 1 for m in model.order)
        assert steps == {"video": 2, "audio": 2}

    def test_fit_structure_and_indicators(self):
        spec = small_spec(n=2)
        model = build_model(spec)
        train, test = gen_dataset(spec)
        report = fit(model, train, test,
                     TrainConfig(epochs=2, batch_size=32, seed=5))
        assert len(report.epochs) == 2
        first, second = report.epochs
        assert first.indicator == {"video": None, "audio": None}
        assert all(isinstance(v, float) for v in second.indicator.values())
        assert "overall" in report.final_accuracy
        assert report.exit_epochs() == {"video": None, "audio": None}

    def test_fit_deterministic(self):
        spec = small_spec(n=2)
        train, test = gen_dataset(spec)
        config = TrainConfig(epochs=2, batch_size=32, seed=5)
        r1 = fit(build_model(spec), train, test, config)
        model2 = build_model(spec)
        r2 = fit(model2, train, test, config)
        assert [e.loss for e in r1.epochs] == [e.loss for e in r2.epochs]
        model1 = build_model(spec)
        fit(model1, train, test, config)
        assert model1.registry.checksum() == model2.registry.checksum()

    def test_exit_deactivates_and_stops_collection(self):
        spec = small_spec(n=2)
        model = build_model(spec)
        train, test = gen_dataset(spec)
        # tau so large every modality exits at the first possible check
        report = fit(model, train, test,
                     TrainConfig(epochs=4, batch_size=32, seed=5, tau=1e6,
                                 early_exit=True))
        for m in model.order:
            h = report.history[m]
            assert h.exit_epoch == 2
            assert not h.active
            assert len(h.values) == 2
        # epochs after the last exit still run fusion-only updates
        assert report.epochs[-1].active == []

    def test_exit_is_permanent(self):
        spec = small_spec(n=2)
        model = build_model(spec)
        train, test = gen_dataset(spec)
        report = fit(model, train, test,
                     TrainConfig(epochs=5, batch_size=32, seed=5, tau=1e6,
                                 early_exit=True))
        actives = [set(e.active) for e in report.epochs]
        for prev, cur in zip(actives, actives[1:]):
            assert cur <= prev

    def test_exited_modalities_save_steps(self, monkeypatch):
        spec = small_spec(n=2)
        train, test = gen_dataset(spec)
        calls = record_qformer_calls(monkeypatch)
        config = TrainConfig(epochs=4, batch_size=32, seed=5, tau=1e6,
                             early_exit=True)
        exited = fit(build_model(spec), train, test, config)
        exited_calls = len(calls)
        full = fit(build_model(spec), train, test,
                   TrainConfig(epochs=4, batch_size=32, seed=5))
        for m in ("video", "audio"):
            assert exited.update_steps[m] < full.update_steps[m]
        assert exited_calls < len(calls) - exited_calls

    def test_replay_matches_live_run(self):
        spec = small_spec(n=2)
        model = build_model(spec)
        train, test = gen_dataset(spec)
        config = TrainConfig(epochs=4, batch_size=32, seed=5, tau=1e6,
                             early_exit=True)
        report = fit(model, train, test, config)
        recorded = {m: list(report.history[m].values) for m in model.order}
        assert replay_exits(recorded, config.tau) == report.exit_epochs()

    def test_joint_mode_runs(self):
        spec = small_spec(n=2)
        model = build_model(spec)
        train, test = gen_dataset(spec)
        report = fit(model, train, test,
                     TrainConfig(epochs=2, batch_size=32, seed=5,
                                 mode="joint"))
        assert report.mode == "joint"
        assert report.update_steps == {"video": 4, "audio": 4}

    def test_joint_and_sequential_diverge(self):
        spec = small_spec(n=2)
        train, test = gen_dataset(spec)
        seq = build_model(spec)
        fit(seq, train, test, TrainConfig(epochs=1, batch_size=32, seed=5))
        joint = build_model(spec)
        fit(joint, train, test,
            TrainConfig(epochs=1, batch_size=32, seed=5, mode="joint"))
        assert seq.registry.checksum() != joint.registry.checksum()

    def test_evaluate_keys(self):
        spec = small_spec(n=2)
        model = build_model(spec)
        _, test = gen_dataset(spec)
        acc = evaluate(model, test)
        assert set(acc) == {"overall", "unimodal", "equal", "count"}
        assert all(0.0 <= v <= 1.0 for v in acc.values())


class TestRegistry:
    def test_frozen_tag_on_trainable_tensor_rejected(self):
        reg = ParamRegistry()
        t = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError,
                           match="'head.w': tag 'frozen' disagrees"):
            reg.register("head.w", t, "frozen")
        assert "head.w" not in reg.entries

    def test_modality_tag_on_frozen_tensor_rejected(self):
        reg = ParamRegistry()
        t = Tensor(np.zeros(2, dtype=np.float32))
        with pytest.raises(ValueError,
                           match="'video.queries': tag 'video' disagrees"):
            reg.register("video.queries", t, "video")
        assert "video.queries" not in reg.entries


# Hard top-1 routing can leave an MoE expert without a single token of a
# whole fit; its tensors then get an exactly zero gradient and never move.
# The fit-level check leaves the experts out, and
# test_moe_step_moves_exactly_the_routed_experts pins the rule for them.
UNROUTABLE = "fusion.experts."


class TestEveryTrainableTrains:
    @pytest.mark.parametrize("train_classifier", [False, True],
                             ids=["frozen-head", "trained-classifier"])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_fit_moves_exactly_the_trainable_tensors(self, strategy, mode,
                                                     train_classifier):
        spec = small_spec(n=3)
        model = build_model(spec, strategy,
                            train_classifier=train_classifier)
        train, test = gen_dataset(spec)
        before = {name: t.data.copy() for name, t in model.registry.named()}
        fit(model, train, test,
            TrainConfig(epochs=2, batch_size=32, seed=5, mode=mode))
        for name, e in model.registry.entries.items():
            if name.startswith(UNROUTABLE):
                continue
            moved = not np.array_equal(e.tensor.data, before[name])
            assert moved == e.tensor.requires_grad, name

    def test_moe_step_moves_exactly_the_routed_experts(self):
        spec = small_spec(n=3)
        model = build_model(spec, "MoE")
        train, _ = gen_dataset(spec)
        # one example: its T=4 tokens route to at most 4 experts
        batch = train.slice(np.arange(1))
        p = model.fusion.params
        with T.no_grad():
            tokens = model.modality_tokens(batch.features, taped=set())
            x = T.concat([tokens[m] for m in model.supportive], axis=-1)
            probs = T.softmax(T.matmul(x, p["gate"].w) + p["gate"].b)
        routed = {int(e) for e in np.unique(np.argmax(probs.data, axis=-1))}
        assert 0 < len(routed) < MOE_EXPERTS   # both sides of the rule
        experts = [[e.w, e.b] for e in p["experts"]]
        assert len(experts) == MOE_EXPERTS
        before = [[t.data.copy() for t in ts] for ts in experts]
        train_step(model, T.Adam(lr=1e-2), batch, {"fusion"})
        moved = {e for e, ts in enumerate(experts)
                 if any(not np.array_equal(t.data, old)
                        for t, old in zip(ts, before[e]))}
        assert moved == routed


class TestConfigValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            TrainConfig(mode="cyclic")

    def test_bad_tau(self):
        with pytest.raises(ValueError, match="tau"):
            TrainConfig(tau=0.0)

    def test_early_exit_needs_epochs(self):
        with pytest.raises(ValueError, match="2 epochs"):
            TrainConfig(epochs=1, early_exit=True)

    def test_ok(self):
        TrainConfig()

    def test_frozen(self):
        config = TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.epochs = 0


def record_qformer_calls(monkeypatch) -> list[tuple[str, bool]]:
    """Route every qformer call through a recorder of (modality, taped)."""
    calls = []
    qformer = model_module.qformer_forward

    def recording(backbone, adapter, feats):
        out = qformer(backbone, adapter, feats)
        calls.append((feats.modality, out.requires_grad))
        return out

    monkeypatch.setattr(model_module, "qformer_forward", recording)
    return calls


def forward_only(model, m, features):
    with T.no_grad():
        return model_module.qformer_forward(
            model.backbone, model.adapters[m], FeatureBatch(m, features)).data


class TestPrediction:
    @pytest.mark.parametrize("chunk", [1, 5, 13])
    def test_predictions_do_not_depend_on_chunk_size(self, chunk):
        # 32 test rows in ragged chunks give the predictions of one chunk
        spec = small_spec(n=2)
        model = build_model(spec)
        _, test = gen_dataset(spec)
        whole = predict_dataset(model, test, len(test))
        assert np.array_equal(predict_dataset(model, test, chunk), whole)
        assert np.array_equal(predict_dataset(model, test), whole)

    def test_grad_history_active_until_exit(self):
        h = GradHistory(values=[1.0, 0.5])
        assert h.active
        h.exit_epoch = 2
        assert not h.active


class TestTokenReuse:
    def test_tokens_do_not_depend_on_batch_composition(self):
        # frozen-token arrays are computed in EVAL_BATCH chunks and read back
        # by minibatch rows, so an example's tokens must not depend on which
        # other examples share its batch
        spec = small_spec(n=3, train_size=96, test_size=64)
        model = build_model(spec)
        train, test = gen_dataset(spec)
        fit(model, train, test, TrainConfig(epochs=2, batch_size=32, seed=5))
        rng = np.random.default_rng(0)
        for data in (train, test):
            with T.no_grad():
                full = model.modality_tokens(data.features, taped=set())
            perm = rng.permutation(len(data))
            for m in model.order:
                for chunk in (1, 7, 32):
                    rows = model.forward_only_tokens(
                        m, data.features[m][perm], chunk)
                    assert rows.dtype == np.float32
                    assert np.array_equal(rows, full[m].data[perm]), (m, chunk)

    @pytest.mark.parametrize("kw", [
        dict(),
        dict(early_exit=True, tau=1e6),
        dict(mode="joint", early_exit=True, tau=1e6),
    ], ids=["sequential", "early-exit", "joint-early-exit"])
    def test_cached_tokens_are_never_stale(self, kw, monkeypatch):
        spec = small_spec(n=3)
        model = build_model(spec)
        train, test = gen_dataset(spec)
        calls = record_qformer_calls(monkeypatch)
        tokens = model_module.FusionModel.modality_tokens
        hits = []

        def checked(self, features, taped=None, cache=None):
            before, start = dict(cache or {}), len(calls)
            out = tokens(self, features, taped, cache)
            computed = {m for m, _ in calls[start:]}
            for m, tok in out.items():
                if m in before and tok.data is before[m]:
                    assert m not in computed
                    assert np.array_equal(
                        tok.data, forward_only(self, m, features[m])), m
                    hits.append(m)
            return out

        monkeypatch.setattr(model_module.FusionModel, "modality_tokens",
                            checked)
        report = fit(model, train, test,
                     TrainConfig(epochs=4, batch_size=32, seed=5, **kw))
        assert hits
        if "early_exit" in kw:
            assert report.epochs[-1].active == []
            assert set(hits) == set(model.order)

    def test_forward_only_tokens_computed_once_per_adapter_state(
            self, monkeypatch):
        # One minibatch, M = 3 active: M taped passes, and 2(M - 1)
        # forward-only ones, each at an adapter state no step has read
        # untaped yet: audio and depth at step 1, video (moved by step 1)
        # at step 2, audio (moved by step 2) at step 3. Audio and depth
        # also run taped at their own step from their start states, so the
        # 5 adapter states read take 7 passes.
        spec = small_spec(n=3, train_size=32)
        model = build_model(spec)
        train, _ = gen_dataset(spec)
        calls = record_qformer_calls(monkeypatch)
        config = TrainConfig(batch_size=32, seed=5)
        train_epoch(model, T.Adam(lr=config.lr), train, config,
                    {m: GradHistory() for m in model.order}, 1, {})
        assert [m for m, taped in calls if taped] == \
            ["video", "audio", "depth"]
        assert [m for m, taped in calls if not taped] == \
            ["audio", "depth", "video", "audio"]

    def test_given_tokens_equal_computed_ones(self):
        # fit hands evaluate the tokens of its exited modalities: any
        # subset of the model's own tokens gives the accuracy of none
        spec = small_spec(n=3)
        model = build_model(spec)
        _, test = gen_dataset(spec)
        tokens = {m: model.forward_only_tokens(m, test.features[m], 256)
                  for m in model.order}
        plain = evaluate(model, test)
        for k in range(len(model.order) + 1):
            for subset in itertools.combinations(model.order, k):
                given = {m: tokens[m] for m in subset}
                assert evaluate(model, test, given) == plain, subset

    def test_exited_modalities_run_no_qformer(self, monkeypatch):
        spec = small_spec(n=3)
        model = build_model(spec)
        train, test = gen_dataset(spec)
        calls = record_qformer_calls(monkeypatch)
        epochs = []
        train_epoch_fn = training.train_epoch

        def marked(*args, **kwargs):
            epochs.append(len(calls))
            return train_epoch_fn(*args, **kwargs)

        monkeypatch.setattr(training, "train_epoch", marked)
        report = fit(model, train, test,
                     TrainConfig(epochs=4, batch_size=32, seed=5, tau=1e6,
                                 early_exit=True))
        assert report.exit_epochs() == {m: 2 for m in model.order}
        # epochs 3 and 4 take fusion-only steps and evaluate: no qformer
        assert len(calls) == epochs[2] > epochs[1]
