"""Tests for the frozen query transformer and the per-modality adapters."""

import numpy as np
import pytest

from modfuse import tensor as T
from modfuse.adapters import (FeatureBatch, ParamRegistry, count_trainable,
                              mmqa_create, named_tensors)
from modfuse.backbone import init_backbone, lora_linear, qformer_forward
from modfuse.tensor import Tensor


def make_adapter(name="video", d=32, r=4, tokens=4, layers=2, f=16, seed=0,
                 dtype=np.float64):
    return mmqa_create(name, d, r, tokens, layers, f, seed, dtype=dtype)


def backbone_bytes(bb):
    return b"".join(t.data.tobytes()
                    for _, t in named_tensors(bb, "backbone"))


class TestBackboneInit:
    def test_same_seed_bitwise_identical(self):
        a = init_backbone(3, 32, 2, 4)
        b = init_backbone(3, 32, 2, 4)
        assert backbone_bytes(a) == backbone_bytes(b)

    def test_different_seed_differs(self):
        a = init_backbone(3, 32, 2, 4)
        b = init_backbone(4, 32, 2, 4)
        assert backbone_bytes(a) != backbone_bytes(b)

    def test_census_formula(self):
        # per layer: two attention blocks of 4 d^2 each, feed-forward 8 d^2,
        # three layer norms of 2d
        d, layers = 32, 2
        bb = init_backbone(0, d, layers, 4)
        expected = layers * (16 * d * d + 6 * d)
        assert sum(t.size for _, t in named_tensors(bb, "backbone")) == \
            expected

    def test_nothing_trainable(self):
        bb = init_backbone(0, 32, 2, 4)
        assert all(not t.requires_grad
                   for _, t in named_tensors(bb, "backbone"))


class TestLoraLinear:
    def test_zero_down_equals_frozen_path(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 5, 16)).astype(np.float32))
        w = Tensor(rng.normal(size=(16, 16)).astype(np.float32))
        adapter = make_adapter(d=16, f=16, dtype=np.float32)
        pair = adapter.lora[0]["q"]
        with_lora = lora_linear(x, w, pair)
        plain = lora_linear(x, w, None)
        assert np.array_equal(with_lora.data, plain.data)

    def test_full_rank_matches_dense_delta(self):
        rng = np.random.default_rng(1)
        d = 16
        x = Tensor(rng.normal(size=(3, d)).astype(np.float32))
        w = Tensor(rng.normal(size=(d, d)).astype(np.float32))
        down = rng.normal(size=(d, d)).astype(np.float32) * 0.1
        up = rng.normal(size=(d, d)).astype(np.float32) * 0.1

        class Pair:
            pass

        pair = Pair()
        pair.down = Tensor(down)
        pair.up = Tensor(up)
        low_rank = lora_linear(x, w, pair)
        dense = x.data @ (w.data + down @ up)
        assert np.max(np.abs(low_rank.data - dense)) < 1e-5

    def test_scalar_count_per_site(self):
        d, r = 32, 4
        adapter = make_adapter(d=d, r=r)
        pair = adapter.lora[0]["q"]
        assert pair.down.size + pair.up.size == 2 * d * r

    def test_rank_mismatch_rejected(self):
        x = Tensor(np.zeros((2, 8)))
        w = Tensor(np.zeros((8, 8)))

        class Pair:
            pass

        pair = Pair()
        pair.down = Tensor(np.zeros((8, 4)))
        pair.up = Tensor(np.zeros((3, 8)))
        with pytest.raises(ValueError, match="rank mismatch"):
            lora_linear(x, w, pair)


class TestAdapterCreate:
    def test_census_formula_with_alignment(self):
        d, r, tokens, layers, f = 32, 4, 4, 2, 16
        adapter = make_adapter(d=d, r=r, tokens=tokens, layers=layers, f=f)
        count = sum(t.size for _, t in named_tensors(adapter, adapter.name))
        assert count == layers * 2 * 2 * d * r + tokens * d + (f * d + d)
        assert count == 1696

    def test_matching_width_drops_alignment(self):
        adapter = make_adapter(d=32, f=32)
        assert adapter.align is None
        names = [n for n, _ in named_tensors(adapter, adapter.name)]
        assert not any("align" in n for n in names)

    def test_down_projections_start_zero(self):
        adapter = make_adapter()
        for site in adapter.lora:
            for pair in site.values():
                assert np.all(pair.down.data == 0.0)
                assert np.any(pair.up.data != 0.0)

    def test_same_seed_identical(self):
        a = make_adapter(seed=5)
        b = make_adapter(seed=5)
        for (na, ta), (nb, tb) in zip(named_tensors(a, a.name),
                                      named_tensors(b, b.name)):
            assert na == nb
            assert np.array_equal(ta.data, tb.data)

    def test_names_prefixed_by_modality(self):
        adapter = make_adapter(name="audio")
        for name, _ in named_tensors(adapter, adapter.name):
            assert name.startswith("audio.")


class TestQformerForward:
    def setup_method(self):
        self.bb = init_backbone(7, 32, 2, 4, dtype=np.float64)
        self.adapter = make_adapter(seed=7)
        self.rng = np.random.default_rng(7)
        self.feats = FeatureBatch(
            "video", self.rng.normal(size=(2, 5, 16)))

    def test_output_shape(self):
        out = qformer_forward(self.bb, self.adapter, self.feats)
        assert out.shape == (2, 4, 32)

    def test_modality_mismatch_rejected(self):
        feats = FeatureBatch("audio", self.feats.features)
        with pytest.raises(ValueError, match="audio"):
            qformer_forward(self.bb, self.adapter, feats)

    def test_wrong_feature_width_rejected(self):
        feats = FeatureBatch("video", self.rng.normal(size=(2, 5, 20)))
        with pytest.raises(ValueError, match="expected features"):
            qformer_forward(self.bb, self.adapter, feats)

    def test_fresh_adapter_matches_adapter_free_path(self):
        out = qformer_forward(self.bb, self.adapter, self.feats)
        bare = make_adapter(seed=7)
        bare.lora = [{"q": None, "v": None} for _ in bare.lora]
        reference = qformer_forward(self.bb, bare, self.feats)
        assert np.array_equal(out.data, reference.data)

    def test_feature_permutation_invariance(self):
        out = qformer_forward(self.bb, self.adapter, self.feats)
        perm = self.rng.permutation(5)
        shuffled = FeatureBatch("video", self.feats.features[:, perm, :])
        out2 = qformer_forward(self.bb, self.adapter, shuffled)
        assert np.max(np.abs(out.data - out2.data)) < 1e-6

    def test_attention_rows_sum_to_one(self):
        probes = []
        qformer_forward(self.bb, self.adapter, self.feats, attn_probes=probes)
        assert len(probes) == 4  # self + cross per layer
        for p in probes:
            np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-5)

    def test_attention_probes_have_one_array_per_call_per_head(self):
        probes = []
        qformer_forward(self.bb, self.adapter, self.feats, attn_probes=probes)
        # [batch, heads, queries, keys]: self-attention over the 4 query
        # tokens, then cross-attention onto the 5 feature positions
        assert [p.shape for p in probes] == [(2, 4, 4, 4), (2, 4, 4, 5)] * 2

    def test_identical_trainable_values_identical_output(self):
        other = make_adapter(seed=99)
        for (_, src), (_, dst) in zip(named_tensors(self.adapter, "video"),
                                      named_tensors(other, "video")):
            dst.data[...] = src.data
        a = qformer_forward(self.bb, self.adapter, self.feats)
        b = qformer_forward(self.bb, other, self.feats)
        assert np.array_equal(a.data, b.data)

    def test_grads_reach_adapter_but_not_backbone(self):
        out = qformer_forward(self.bb, self.adapter, self.feats)
        T.backward(T.tsum(out))
        assert np.any(self.adapter.queries.grad != 0.0)
        assert np.any(self.adapter.align.w.grad != 0.0)
        assert np.any(self.adapter.lora[0]["q"].down.grad != 0.0)
        for _, t in named_tensors(self.bb, "backbone"):
            assert t.grad is None

    def test_backbone_bytes_stable_across_forwards(self):
        before = backbone_bytes(self.bb)
        for _ in range(3):
            out = qformer_forward(self.bb, self.adapter, self.feats)
            T.backward(T.tmean(out))
        assert backbone_bytes(self.bb) == before


class TestRegistryCensus:
    def build_registry(self, feat_dims=(16, 24, 48)):
        reg = ParamRegistry()
        names = ["video", "audio", "depth"]
        for name, f in zip(names, feat_dims):
            adapter = make_adapter(name=name, f=f)
            for n, t in named_tensors(adapter, adapter.name):
                reg.register(n, t, name)
        bb = init_backbone(0, 32, 2, 4)
        for n, t in named_tensors(bb, "backbone"):
            reg.register(n, t, "frozen")
        return reg

    def test_frozen_filter_counts_zero(self):
        reg = self.build_registry()
        assert count_trainable(reg, "frozen") == 0

    def test_per_modality_count_matches_formula(self):
        reg = self.build_registry()
        assert count_trainable(reg, "video") == 1696
        assert count_trainable(reg, "audio") == 1024 + 128 + 24 * 32 + 32
        assert count_trainable(reg, "depth") == 1024 + 128 + 48 * 32 + 32

    def test_adding_modality_is_additive(self):
        reg = self.build_registry()
        before_total = count_trainable(reg)
        before_video = count_trainable(reg, "video")
        extra = make_adapter(name="flow", f=16)
        for n, t in named_tensors(extra, extra.name):
            reg.register(n, t, "flow")
        assert count_trainable(reg) == before_total + 1696
        assert count_trainable(reg, "video") == before_video

    def test_unknown_tag_rejected(self):
        reg = self.build_registry()
        with pytest.raises(ValueError, match="unknown"):
            count_trainable(reg, "thermal")

    def test_whole_model_is_none_not_a_tag(self):
        # "all" is an ordinary tag name, so a modality may take it
        reg = self.build_registry()
        assert count_trainable(reg, None) == count_trainable(reg) == \
            sum(count_trainable(reg, tag) for tag in reg.tags())
        with pytest.raises(ValueError, match="unknown registry tag 'all'"):
            count_trainable(reg, "all")

    def test_duplicate_name_rejected(self):
        reg = self.build_registry()
        with pytest.raises(ValueError, match="duplicate"):
            reg.register("video.queries", Tensor(np.zeros(1), requires_grad=True),
                         "video")

    def test_modality_isolation(self):
        bb = init_backbone(1, 32, 2, 4, dtype=np.float64)
        video = make_adapter(name="video", seed=1)
        audio = make_adapter(name="audio", f=24, seed=1)
        rng = np.random.default_rng(1)
        feats = FeatureBatch("video", rng.normal(size=(2, 5, 16)))
        out = qformer_forward(bb, video, feats)
        leaves = [t for _, t in named_tensors(video, video.name)]
        leaves += [t for _, t in named_tensors(audio, audio.name)]
        T.backward(T.tsum(out), leaves=leaves)
        for _, t in named_tensors(audio, audio.name):
            assert np.all(t.grad == 0.0)
