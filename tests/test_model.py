"""Tests for full-model assembly and the parameter registry wiring."""

import dataclasses

import numpy as np
import pytest

from modfuse import model as model_module
from modfuse import reasoner
from modfuse import tensor as T
from modfuse.adapters import count_trainable, total_scalars
from modfuse.bench import BenchModality
from modfuse.fusion import STRATEGIES, prefix_schedule
from modfuse.model import FusionModel, ModelDims


def toy_modalities():
    return [BenchModality("video", 16, 5),
            BenchModality("audio", 24, 4),
            BenchModality("depth", 48, 3)]


def build_model(strategy="SelfGated", seed=0, dtype=np.float32, **kwargs):
    return FusionModel(ModelDims(), toy_modalities(), "video", strategy,
                       vocab=12, classes=11, seed=seed, dtype=dtype, **kwargs)


def toy_batch(batch=2, seed=0):
    rng = np.random.default_rng(seed)
    feats = {"video": rng.normal(size=(batch, 5, 16)),
             "audio": rng.normal(size=(batch, 4, 24)),
             "depth": rng.normal(size=(batch, 3, 48))}
    questions = rng.integers(0, 12, size=(batch, 3))
    answers = rng.integers(0, 11, size=batch)
    return feats, questions, answers


class TestModelDims:
    @pytest.mark.parametrize("field,value", [
        ("d", 0), ("rank", 0), ("rank", 32)])
    def test_out_of_range_rejected_when_built(self, field, value):
        with pytest.raises(ValueError, match=rf"^model\.{field} must be at "
                                             rf"least .*, got {value}$"):
            ModelDims(**{field: value})

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError,
                           match="model.d must be divisible by model.heads"):
            ModelDims(d=33)

    def test_frozen(self):
        dims = ModelDims()
        with pytest.raises(dataclasses.FrozenInstanceError):
            dims.rank = 0


class TestAssembly:
    # registry tags, the fused prefix and census keys: a modality of one
    # of these names would share its tensors' tag or overwrite its key
    @pytest.mark.parametrize("name", ["fusion", "frozen", "fused",
                                      "trainable", "total"])
    def test_reserved_modality_name_rejected(self, name):
        mods = [BenchModality("video", 16, 5), BenchModality(name, 24, 4)]
        for major in ("video", name):
            with pytest.raises(ValueError,
                               match=f"^model.modalities names '{name}', "
                                     f"which is reserved"):
                FusionModel(ModelDims(), mods, major, "SelfGated", 12, 11, 0)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="model.strategy .* got 'Mixer'"):
            build_model("Mixer")

    def test_major_must_be_a_modality(self):
        with pytest.raises(ValueError, match="major modality 'flow'"):
            FusionModel(ModelDims(), toy_modalities(), "flow", "SelfGated",
                        12, 11, 0)

    def test_duplicate_modality_rejected(self):
        mods = [BenchModality("video", 16, 5), BenchModality("video", 24, 4)]
        with pytest.raises(ValueError, match="names 'video' twice"):
            FusionModel(ModelDims(), mods, "video", "SelfGated", 12, 11, 0)

    def test_registry_tags_cover_components(self):
        model = build_model()
        assert model.registry.tags() == \
            {"frozen", "fusion", "video", "audio", "depth"}

    def test_trainable_fraction_below_ten_percent(self):
        model = build_model()
        trainable = count_trainable(model.registry)
        assert trainable / total_scalars(model.registry) < 0.10

    def test_trainable_census_breakdown(self):
        model = build_model()
        reg = model.registry
        assert count_trainable(reg, "video") == 1696
        # merge.w, merge.b and the two scheduled prefixes (video, fused)
        assert count_trainable(reg, "fusion") == \
            2 * 32 * 32 + 32 + 2 * 32

    def test_registry_prefixes_follow_schedule(self):
        # only the prefixes the head input uses exist, and they are fusion
        # tensors, so every step that updates fusion trains them
        mods = toy_modalities() + [BenchModality("flow", 32, 2)]
        for strategy in STRATEGIES:
            for n in range(1, 5):
                model = FusionModel(ModelDims(), mods[:n], mods[n - 1].name,
                                    strategy, 12, 11, 0)
                names = [name for name, _ in model.registry.named()
                         if name.startswith("prefix.")]
                expected = prefix_schedule(strategy, model.order,
                                           model.major)
                assert sorted(names) == sorted(
                    f"prefix.{m}" for m in expected), (strategy, n)
                entries = model.registry.entries
                assert {entries[name].tag for name in names} == {"fusion"}

    def test_trainable_classifier_adds_to_fusion_tag(self):
        base = count_trainable(build_model().registry, "fusion")
        model = build_model(train_classifier=True)
        with_cls = count_trainable(model.registry, "fusion")
        assert with_cls == base + 64 * 11 + 11
        # still parameter-efficient with the escape hatch on
        assert count_trainable(model.registry) / \
            total_scalars(model.registry) < 0.10


# The checkpoint namespace of a model with a one-layer backbone (the
# answer head has its fixed two layers): every registry name with its tag,
# in registry (and so checkpoint) order.
NAMESPACE = """\
backbone.layers.0.ln1.gain frozen
backbone.layers.0.ln1.bias frozen
backbone.layers.0.selfattn.wq frozen
backbone.layers.0.selfattn.wk frozen
backbone.layers.0.selfattn.wv frozen
backbone.layers.0.selfattn.wo frozen
backbone.layers.0.ln2.gain frozen
backbone.layers.0.ln2.bias frozen
backbone.layers.0.crossattn.wq frozen
backbone.layers.0.crossattn.wk frozen
backbone.layers.0.crossattn.wv frozen
backbone.layers.0.crossattn.wo frozen
backbone.layers.0.ln3.gain frozen
backbone.layers.0.ln3.bias frozen
backbone.layers.0.ffn.w1 frozen
backbone.layers.0.ffn.w2 frozen
video.queries video
video.lora.0.q.down video
video.lora.0.q.up video
video.lora.0.v.down video
video.lora.0.v.up video
audio.queries audio
audio.lora.0.q.down audio
audio.lora.0.q.up audio
audio.lora.0.v.down audio
audio.lora.0.v.up audio
audio.align.w audio
audio.align.b audio
fusion.merge.w fusion
fusion.merge.b fusion
prefix.video fusion
prefix.fused fusion
head.embed frozen
head.input.w frozen
head.input.b frozen
head.layers.0.ln1.gain frozen
head.layers.0.ln1.bias frozen
head.layers.0.attn.wq frozen
head.layers.0.attn.wk frozen
head.layers.0.attn.wv frozen
head.layers.0.attn.wo frozen
head.layers.0.ln2.gain frozen
head.layers.0.ln2.bias frozen
head.layers.0.ffn.w1 frozen
head.layers.0.ffn.w2 frozen
head.layers.1.ln1.gain frozen
head.layers.1.ln1.bias frozen
head.layers.1.attn.wq frozen
head.layers.1.attn.wk frozen
head.layers.1.attn.wv frozen
head.layers.1.attn.wo frozen
head.layers.1.ln2.gain frozen
head.layers.1.ln2.bias frozen
head.layers.1.ffn.w1 frozen
head.layers.1.ffn.w2 frozen
head.classifier.w fusion
head.classifier.b fusion
"""

FUSION_NAMES = {
    "SelfGated": ["merge.w", "merge.b"],
    "Concat": [],
    "Linear": ["mix.w"],
    "MoE": ["gate.w", "gate.b"] + [f"experts.{e}.{p}" for e in range(4)
                                   for p in ("w", "b")],
    "CrossAttention": ["prompts", "attn.wq", "attn.wk", "attn.wv",
                       "attn.wo"],
}


class TestNamespace:
    """Registry names and their order are the checkpoint's; a change to
    either breaks every saved checkpoint."""

    def build(self, strategy="SelfGated", train_classifier=False):
        # video matches d (no alignment map); audio does not
        mods = [BenchModality("video", 8, 3), BenchModality("audio", 6, 2)]
        dims = ModelDims(d=8, layers=1, heads=2, tokens=2, rank=2)
        return FusionModel(dims, mods, "video", strategy, 5, 3, 0,
                           train_classifier=train_classifier)

    def test_names_tags_and_order_are_pinned(self):
        model = self.build(train_classifier=True)
        got = [f"{name} {e.tag}" for name, e in
               model.registry.entries.items()]
        assert got == NAMESPACE.splitlines()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_fusion_names_per_strategy(self, strategy):
        model = self.build(strategy)
        got = [name for name in model.registry.entries
               if name.startswith("fusion.")]
        assert got == [f"fusion.{n}" for n in FUSION_NAMES[strategy]]
        assert {model.registry.entries[n].tag for n in got} <= {"fusion"}

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_float64_model_is_the_float32_model_widened(self, strategy):
        # run_gradcheck checks a float64 model in place of the float32 one
        # that trains: the same layout, the same draws
        wide, narrow = (build_model(strategy, seed=3, dtype=dtype,
                                    train_classifier=True)
                        for dtype in (np.float64, np.float32))
        assert [(name, e.tag, e.tensor.requires_grad)
                for name, e in wide.registry.entries.items()] == \
            [(name, e.tag, e.tensor.requires_grad)
             for name, e in narrow.registry.entries.items()]
        for name, e in narrow.registry.entries.items():
            twin = wide.registry.entries[name].tensor.data
            assert twin.dtype == np.float64 and e.tensor.dtype == np.float32
            assert e.tensor.data.tobytes() == \
                twin.astype(np.float32).tobytes(), name


class TestForward:
    def test_logits_shape(self):
        model = build_model()
        feats, questions, _ = toy_batch()
        out = model.forward(feats, questions)
        assert out.shape == (2, 11)

    def test_same_seed_same_output(self):
        feats, questions, _ = toy_batch()
        a = build_model(seed=3).forward(feats, questions)
        b = build_model(seed=3).forward(feats, questions)
        assert np.array_equal(a.data, b.data)

    def test_missing_modality_rejected(self):
        model = build_model()
        feats, questions, _ = toy_batch()
        del feats["depth"]
        with pytest.raises(ValueError, match="depth"):
            model.forward(feats, questions)
        with pytest.raises(ValueError, match="depth"):
            model.predict_classes(feats, questions)

    def test_loss_is_finite_scalar(self):
        model = build_model()
        feats, questions, answers = toy_batch()
        loss = model.loss(feats, questions, answers)
        assert loss.size == 1
        assert np.isfinite(float(loss.data))

    def test_predictions_in_answer_range(self):
        model = build_model()
        feats, questions, _ = toy_batch(batch=8)
        preds = model.predict_classes(feats, questions)
        assert preds.shape == (8,)
        assert np.all((preds >= 0) & (preds < 11))

    def test_single_modality_model(self):
        model = FusionModel(ModelDims(), toy_modalities()[:1], "video",
                            "SelfGated", 12, 11, 0)
        rng = np.random.default_rng(0)
        feats = {"video": rng.normal(size=(2, 5, 16))}
        out = model.forward(feats, rng.integers(0, 12, size=(2, 3)))
        assert out.shape == (2, 11)
        # no fusion module, only the major's prefix
        assert count_trainable(model.registry, "fusion") == 32

    def test_all_strategies_forward(self):
        feats, questions, _ = toy_batch()
        for strategy in ("SelfGated", "Concat", "Linear", "MoE",
                         "CrossAttention"):
            out = build_model(strategy).forward(feats, questions)
            assert out.shape == (2, 11)

    def test_grads_confined_to_trainable(self):
        model = build_model(dtype=np.float64)
        feats, questions, answers = toy_batch()
        loss = model.loss(feats, questions, answers)
        T.backward(loss, leaves=[t for _, t in model.registry.named(
            trainable_only=True)])
        for name, e in model.registry.entries.items():
            if e.tensor.requires_grad:
                assert e.tensor.grad is not None, name
            else:
                assert e.tensor.grad is None, name


class TestHeadInputLayout:
    """The answer head's input is one prefix and T fused tokens per block
    of the prefix schedule, then the question; the tile rule and the cost
    model count that same length."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_counted_length_is_the_head_input(self, strategy, n,
                                              monkeypatch):
        mods = [BenchModality(f"m{i}", 6 + i, 3) for i in range(n)]
        model = FusionModel(ModelDims(), mods, "m0", strategy, 12, 11, 0)
        seen, counted = [], []
        predict = model_module.predict

        def sized_predict(head, x):
            seen.append(x.shape[1])
            return predict(head, x)

        def spy(fn):
            def wrapped(*args):
                counted.append(fn(*args))
                return counted[-1]
            return wrapped

        monkeypatch.setattr(model_module, "predict", sized_predict)
        monkeypatch.setattr(model_module, "input_length",
                            spy(model_module.input_length))
        monkeypatch.setattr(reasoner, "input_length",
                            spy(reasoner.input_length))
        rng = np.random.default_rng(n)
        feats = {m.name: rng.normal(size=(2, 3, m.feat_dim)) for m in mods}
        model.forward(feats, rng.integers(0, 12, size=(2, 3)))
        model.head_tile_rows(3)
        reasoner.reasoner_flops(n, 4, 3, strategy, 32)
        assert len(seen) == 1
        assert counted == [seen[0], seen[0]]


def forward_only_logits(model, feats, questions):
    with T.no_grad():
        return model.forward(feats, questions, set()).data


class TestTiledPrediction:
    """predict_classes runs fusion and the head over row tiles of a batch
    whose query transformers ran once; that is exact only because every
    strategy and the head act on each example alone."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_tiles_give_whole_batch_bytes(self, strategy):
        model = build_model(strategy)
        feats, questions, _ = toy_batch(batch=23, seed=4)
        whole = forward_only_logits(model, feats, questions)
        tiles = np.concatenate([
            forward_only_logits(model,
                                {m: f[lo:lo + 5] for m, f in feats.items()},
                                questions[lo:lo + 5])
            for lo in range(0, 23, 5)])
        assert whole.dtype == tiles.dtype == np.float32
        assert whole.tobytes() == tiles.tobytes()

    def test_tile_rows_follow_head_activation_bytes(self):
        model = build_model()
        # SelfGated over 3 modalities: 2T fused tokens, 2 prefixes
        seq = 2 * 4 + 2 + 3
        rows = model.head_tile_rows(3)
        row_bytes = seq * 4 * 64 * 4
        assert rows * row_bytes <= model_module.HEAD_TILE_BYTES
        assert (rows + 1) * row_bytes > model_module.HEAD_TILE_BYTES
        # one row of a long enough question outgrows the budget alone
        assert model.head_tile_rows(100_000) == 1

    def test_predict_classes_equals_whole_batch_argmax(self):
        model = build_model()
        tile = model.head_tile_rows(3)
        for batch in (1, tile - 1, tile, tile + 1, 2 * tile + 3, 256):
            feats, questions, _ = toy_batch(batch=batch, seed=batch)
            expected = np.argmax(
                forward_only_logits(model, feats, questions), axis=-1)
            preds = model.predict_classes(feats, questions)
            assert preds.dtype == np.int64
            assert np.array_equal(preds, expected), batch

    def test_one_query_transformer_pass_and_tile_sized_head(self,
                                                            monkeypatch):
        model = build_model()
        tile = model.head_tile_rows(3)
        batch = 2 * tile + 3
        calls, head_rows = [], []
        qformer, predict = model_module.qformer_forward, model_module.predict

        def counted_qformer(backbone, adapter, feats):
            calls.append((feats.modality, len(feats.features)))
            return qformer(backbone, adapter, feats)

        def sized_predict(head, x):
            head_rows.append(x.shape[0])
            return predict(head, x)

        monkeypatch.setattr(model_module, "qformer_forward", counted_qformer)
        monkeypatch.setattr(model_module, "predict", sized_predict)
        feats, questions, _ = toy_batch(batch=batch, seed=6)
        model.predict_classes(feats, questions)
        assert sorted(calls) == sorted((m, batch) for m in model.order)
        assert head_rows == [tile, tile, 3]
