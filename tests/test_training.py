"""Trainer behavior: masked updates, gradient tracking, early exit."""

import numpy as np
import pytest

from modfuse import Tensor
from modfuse.adapters import ParamRegistry
from modfuse.bench import BenchModality, BenchSpec, gen_dataset
from modfuse.model import FusionModel, ModalitySpec, ModelDims
from modfuse.training import (GradHistory, TrainConfig, early_exit_indicator,
                              evaluate, fit, grad_magnitude, masked_params,
                              replay_exits, should_exit, train_epoch,
                              train_step, warm_start)
from modfuse import model as model_module
from modfuse import tensor as T


def small_spec(n=2, train_size=64, test_size=32):
    mods = [BenchModality("video", 16, 5), BenchModality("audio", 24, 5),
            BenchModality("depth", 48, 5)][:n]
    return BenchSpec(modalities=tuple(mods), train_size=train_size,
                     test_size=test_size, seed=3)


def build_model(spec, strategy="SelfGated", seed=11, **kw):
    mods = [ModalitySpec(m.name, m.feat_dim,
                         "major" if i == 0 else "supportive")
            for i, m in enumerate(spec.modalities)]
    return FusionModel(ModelDims(), mods, strategy, spec.vocab, spec.classes,
                       seed, **kw)


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
        reg.register("m.w", t, trainable=True, tag="m")
        assert grad_magnitude(reg, "m") == pytest.approx(3.5)

    def test_spans_tensors(self):
        reg = ParamRegistry()
        a = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        a.grad = np.array([1.0, 1.0, 1.0], dtype=np.float32)
        b = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
        b.grad = np.array([5.0], dtype=np.float32)
        reg.register("m.a", a, trainable=True, tag="m")
        reg.register("m.b", b, trainable=True, tag="m")
        assert grad_magnitude(reg, "m") == pytest.approx(2.0)

    def test_missing_grad_rejected(self):
        reg = ParamRegistry()
        t = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        reg.register("m.w", t, trainable=True, tag="m")
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
                  ("video", "audio", "depth", "fusion", "shared", "frozen")}
        loss, gmags = train_step(model, opt, batch, {"audio", "fusion"})
        gmag = gmags["audio"]
        assert np.isfinite(loss) and gmag > 0
        after = {tag: reg.checksum({tag}) for tag in before}
        assert after["audio"] != before["audio"]
        assert after["fusion"] != before["fusion"]
        for tag in ("video", "depth", "shared", "frozen"):
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
                  ("video", "audio", "fusion", "shared")}
        train_step(model, opt, train.slice(np.arange(8)), {"fusion"})
        assert reg.checksum({"fusion"}) != before["fusion"]
        for tag in ("video", "audio", "shared"):
            assert reg.checksum({tag}) == before[tag]

    def test_joint_step_moves_everything_active(self):
        spec = small_spec(n=2)
        model = build_model(spec)
        train, _ = gen_dataset(spec)
        opt = T.Adam(lr=1e-2)
        reg = model.registry
        before = {tag: reg.checksum({tag}) for tag in
                  ("video", "audio", "fusion", "shared", "frozen")}
        loss, gmags = train_step(model, opt, train.slice(np.arange(8)),
                                 {"video", "audio", "fusion", "shared"})
        assert set(gmags) == {"video", "audio"}
        for tag in ("video", "audio", "fusion", "shared"):
            assert reg.checksum({tag}) != before[tag]
        assert reg.checksum({"frozen"}) == before["frozen"]

    def test_joint_step_respects_exits(self):
        spec = small_spec(n=2)
        model = build_model(spec)
        train, _ = gen_dataset(spec)
        opt = T.Adam(lr=1e-2)
        before = model.registry.checksum({"audio"})
        train_step(model, opt, train.slice(np.arange(8)),
                   {"video", "fusion", "shared"})
        assert model.registry.checksum({"audio"}) == before


# the update sets train_epoch passes: sequential, all exited, joint
STEP_TAGS = [{"audio", "fusion"}, {"fusion"},
             {"video", "audio", "depth", "fusion", "shared"}]


class TestTrainStep:
    @pytest.mark.parametrize("tags", STEP_TAGS,
                             ids=["sequential", "fusion-only", "joint"])
    def test_grads_equal_full_tape(self, tags):
        spec = small_spec(n=3)
        model = build_model(spec, train_classifier=True)
        train, _ = gen_dataset(spec)
        batch = train.slice(np.arange(8))
        loss = model.loss(batch.features, batch.questions, batch.answers)
        T.backward(loss, leaves=model.registry.trainable_tensors())
        updated = masked_params(model, tags)
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
        updated = {name for name, _ in masked_params(model, tags)}
        for name, t in model.registry.named(trainable_only=True):
            assert (t.grad is not None) == (name in updated), name

    def test_non_modality_tags_rejected(self):
        spec = small_spec(n=2)
        model = build_model(spec)
        train, _ = gen_dataset(spec)
        with pytest.raises(ValueError, match="not in this model"):
            train_step(model, T.Adam(), train.slice(np.arange(4)),
                       {"frozen"})

    def test_nothing_to_update_still_reports_loss(self):
        spec = small_spec(n=2)
        model = build_model(spec, strategy="Concat")
        train, _ = gen_dataset(spec)
        batch = train.slice(np.arange(8))
        before = model.registry.checksum()
        loss, gmags = train_step(model, T.Adam(), batch, {"fusion"})
        expected = model.loss(batch.features, batch.questions, batch.answers)
        assert loss == float(expected.data) > 0.0
        assert gmags == {}
        assert model.registry.checksum() == before

    def test_loss_recorded_after_every_modality_exits(self):
        # Concat without a trainable classifier has no fusion tensors, so
        # the fusion-only epochs after the exits update nothing; their
        # loss must still be the minibatch loss, not 0
        spec = small_spec(n=2)
        model = build_model(spec, strategy="Concat")
        train, test = gen_dataset(spec)
        report = fit(model, train, test,
                     TrainConfig(epochs=4, batch_size=32, seed=5, tau=10.0,
                                 early_exit=True))
        assert [e.active for e in report.epochs[2:]] == [[], []]
        assert all(e.loss > 0.0 for e in report.epochs)


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

    def test_exited_modalities_save_steps(self):
        spec = small_spec(n=2)
        train, test = gen_dataset(spec)
        config = TrainConfig(epochs=4, batch_size=32, seed=5, tau=1e6,
                             early_exit=True)
        exited = fit(build_model(spec), train, test, config)
        full = fit(build_model(spec), train, test,
                   TrainConfig(epochs=4, batch_size=32, seed=5))
        for m in ("video", "audio"):
            assert exited.update_steps[m] < full.update_steps[m]

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

    def test_warm_start_touches_target_tags_only(self):
        spec = small_spec(n=2)
        model = build_model(spec)
        train, _ = gen_dataset(spec)
        config = TrainConfig(batch_size=32, seed=5)
        before = {tag: model.registry.checksum({tag})
                  for tag in ("video", "shared", "frozen")}
        warm_start(model, train, config)
        assert model.registry.checksum({"shared"}) == before["shared"]
        assert model.registry.checksum({"frozen"}) == before["frozen"]
        assert model.registry.checksum({"video"}) != before["video"]


class TestConfigValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            TrainConfig(mode="cyclic").validate()

    def test_bad_tau(self):
        with pytest.raises(ValueError, match="tau"):
            TrainConfig(tau=0.0).validate()

    def test_early_exit_needs_epochs(self):
        with pytest.raises(ValueError, match="2 epochs"):
            TrainConfig(epochs=1, early_exit=True).validate()

    def test_ok(self):
        TrainConfig().validate()
