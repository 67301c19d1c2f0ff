"""Tests for fusion strategies, prefix handling, and the answer head."""

import numpy as np
import pytest

from modfuse import tensor as T
from modfuse.adapters import named_tensors
from modfuse.bench import QUESTION_LEN
from modfuse.fusion import (create_fusion, create_prefixes,
                            fuse_self_gated, fuse_variant, prefix_schedule,
                            token_budget, MOE_EXPERTS, STRATEGIES)
from modfuse.reasoner import (HEAD_LAYERS, assemble_input, create_head,
                              predict, reasoner_flops)


def token_sets(n, tokens=4, d=32, batch=2, seed=0):
    rng = np.random.default_rng(seed)
    return [T.Tensor(rng.normal(size=(batch, tokens, d))) for _ in range(n)]


def build(strategy, n, tokens=4, d=32):
    return create_fusion(strategy, n, tokens, d, heads=4, seed=0)


class TestTokenBudget:
    def test_self_gated_constant(self):
        assert token_budget("SelfGated", 5, 32) == 64
        assert all(token_budget("SelfGated", n, 4) == 8 for n in range(2, 7))

    def test_concat_linear_in_n(self):
        assert token_budget("Concat", 5, 32) == 160
        assert [token_budget("Concat", n, 4) for n in range(2, 7)] == \
            [8, 12, 16, 20, 24]

    def test_single_modality_always_t(self):
        for s in STRATEGIES:
            assert token_budget(s, 1, 4) == 4

    def test_linear_compresses_to_t(self):
        assert token_budget("Linear", 4, 4) == 4

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="got 'Gated'"):
            token_budget("Gated", 2, 4)

    def test_measured_counts_match_budget(self):
        # fuse_variant does not count its output; this is the guard
        for strategy in STRATEGIES:
            for n in range(2, 7):
                for tokens in (1, 3, 4):
                    fusion = build(strategy, n, tokens=tokens)
                    sets = token_sets(n, tokens=tokens, seed=n)
                    out = fuse_variant(fusion, sets[0], sets[1:])
                    assert out.shape[1] == \
                        token_budget(strategy, n, tokens), (strategy, n)


class TestSelfGated:
    def test_zero_projection_passes_major_with_zero_block(self):
        fusion = build("SelfGated", 3)
        fusion.params["merge"].w.data[...] = 0.0
        sets = token_sets(3)
        out = fuse_self_gated(fusion, sets[0], sets[1:])
        tcount = sets[0].shape[1]
        assert np.array_equal(out.data[:, :tcount, :], sets[0].data)
        assert np.all(out.data[:, tcount:, :] == 0.0)

    def test_constant_two_gates_to_known_value(self):
        fusion = build("SelfGated", 2)
        fusion.params["merge"].w.data[...] = 0.0
        fusion.params["merge"].b.data[...] = 2.0
        sets = token_sets(2)
        out = fuse_self_gated(fusion, sets[0], sets[1:])
        gated = out.data[:, 4:, :]
        np.testing.assert_allclose(gated, 1.761594, atol=1e-5)

    def test_gate_bounds(self):
        fusion = build("SelfGated", 4)
        sets = token_sets(4, seed=3)
        merged = np.concatenate([s.data for s in sets[1:]], axis=-1)
        merge = fusion.params["merge"]
        g = merged @ merge.w.data + merge.b.data
        out = fuse_self_gated(fusion, sets[0], sets[1:])
        gated = out.data[:, 4:, :]
        assert np.all(np.abs(gated) <= np.abs(g) + 1e-12)

    def test_empty_supportive_rejected(self):
        fusion = build("SelfGated", 2)
        with pytest.raises(ValueError, match="at least one supportive"):
            fuse_self_gated(fusion, token_sets(1)[0], [])

    def test_mismatched_token_counts_rejected(self):
        fusion = build("SelfGated", 3)
        a = token_sets(1, tokens=4)[0]
        b = token_sets(1, tokens=5)[0]
        with pytest.raises(ValueError, match="equal T"):
            fuse_self_gated(fusion, a, [a, b])

    def test_gradients_flow_through_gate(self):
        fusion = build("SelfGated", 3)
        sets = token_sets(3, seed=5)

        def f():
            out = fuse_self_gated(fusion, sets[0], sets[1:])
            return T.tmean(out * out)

        params = dict(named_tensors(fusion.params, "fusion"))
        report = T.grad_check(f, params)
        assert report.passed, report.summary()


class TestVariants:
    def test_concat_is_exact_stacking(self):
        fusion = build("Concat", 3)
        sets = token_sets(3)
        out = fuse_variant(fusion, sets[0], sets[1:])
        assert np.array_equal(out.data,
                              np.concatenate([s.data for s in sets], axis=1))

    def test_concat_has_no_params(self):
        assert build("Concat", 4).params == {}

    def test_moe_uses_exactly_one_expert_per_token(self):
        fusion = build("MoE", 3)
        sets = token_sets(3, seed=11)
        out = fuse_variant(fusion, sets[0], sets[1:])
        x = np.concatenate([s.data for s in sets[1:]], axis=-1)
        gate, experts = fusion.params["gate"], fusion.params["experts"]
        logits = x @ gate.w.data + gate.b.data
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
        choice = probs.argmax(axis=-1)
        expected = np.empty_like(sets[0].data)
        for b in range(x.shape[0]):
            for t in range(x.shape[1]):
                sel = choice[b, t]
                y = x[b, t] @ experts[sel].w.data + experts[sel].b.data
                expected[b, t] = probs[b, t, sel] * y
        np.testing.assert_allclose(out.data[:, 4:, :], expected,
                                   atol=1e-10)

    def test_moe_expert_count(self):
        fusion = build("MoE", 3)
        experts = fusion.params["experts"]
        assert len(experts) == MOE_EXPERTS
        assert all(e.w.shape == (64, 32) and e.b.shape == (32,)
                   for e in experts)

    def test_cross_attention_output_contract(self):
        fusion = build("CrossAttention", 4)
        sets = token_sets(4, seed=13)
        out = fuse_variant(fusion, sets[0], sets[1:])
        assert out.shape == (2, 8, 32)
        assert np.array_equal(out.data[:, :4, :], sets[0].data)

    def test_unknown_strategy_fails_on_fuse(self):
        # a hand-built module skips the model's check; fusing it must name
        # the strategy, not fail on a missing parameter
        fusion = build("Mixer", 3)
        sets = token_sets(3)
        with pytest.raises(ValueError, match="^model.strategy must be one "
                                             "of .*, got 'Mixer'$"):
            fuse_variant(fusion, sets[0], sets[1:])

    def test_single_modality_passthrough(self):
        for strategy in STRATEGIES:
            fusion = build(strategy, 1)
            q = token_sets(1, seed=2)[0]
            out = fuse_variant(fusion, q, [])
            assert np.array_equal(out.data, q.data)


class TestPrefixes:
    def test_schedule_per_strategy(self):
        order = ["video", "audio", "depth"]
        assert prefix_schedule("SelfGated", order, "video") == ["video", "fused"]
        assert prefix_schedule("MoE", order, "video") == ["video", "fused"]
        assert prefix_schedule("CrossAttention", order, "video") == \
            ["video", "fused"]
        assert prefix_schedule("Concat", order, "video") == order
        assert prefix_schedule("Concat", order, "audio") == \
            ["audio", "video", "depth"]
        assert prefix_schedule("Linear", order, "video") == ["fused"]
        assert prefix_schedule("SelfGated", ["video"], "video") == ["video"]

    def test_one_prefix_per_budget_block(self):
        # one prefix vector per block of T fused tokens
        for strategy in STRATEGIES:
            for n in range(1, 7):
                order = [f"m{i}" for i in range(n)]
                count = len(prefix_schedule(strategy, order, order[-1]))
                for tokens in (1, 3, 4):
                    assert count * tokens == \
                        token_budget(strategy, n, tokens), (strategy, n)

    def test_only_scheduled_vectors_created(self):
        order = ["video", "audio", "depth"]
        for strategy in STRATEGIES:
            schedule = prefix_schedule(strategy, order, "audio")
            prefixes = create_prefixes(order, schedule, 32, 0)
            assert sorted(prefixes) == sorted(schedule), strategy
            assert all(p.shape == (32,) and p.requires_grad
                       for p in prefixes.values())

    def test_kept_vector_independent_of_schedule(self):
        # one draw per modality, then one for the fused block, whichever
        # of them the schedule keeps
        order = ["video", "audio", "depth"]
        every = create_prefixes(order, order + ["fused"], 32, 4)
        for schedule in (["fused"], ["audio", "fused"], ["depth"]):
            kept = create_prefixes(order, schedule, 32, 4)
            for name, p in kept.items():
                assert np.array_equal(p.data, every[name].data), name

    def test_same_seed_identical(self):
        a = create_prefixes(["video"], ["fused"], 32, 4)
        b = create_prefixes(["video"], ["fused"], 32, 4)
        assert np.array_equal(a["fused"].data, b["fused"].data)


class TestAnswerHead:
    def setup_method(self):
        self.head = create_head(seed=0, d=32, heads=4, vocab=12, classes=11)
        order = ["video", "audio", "depth"]
        self.prefixes = create_prefixes(order, order + ["fused"], 32, 0)

    def assembled(self, strategy="SelfGated", n=3, batch=2):
        order = ["video", "audio", "depth"][:n]
        fusion = build(strategy, n)
        sets = token_sets(n, batch=batch, seed=17)
        fused = fuse_variant(fusion, sets[0], sets[1:])
        ids = np.zeros((batch, QUESTION_LEN), dtype=np.int64)
        lang = T.embedding(self.head.embed, ids)
        schedule = prefix_schedule(strategy, order, "video")
        return assemble_input(fused, self.prefixes, schedule, lang)

    def test_self_gated_sequence_length(self):
        assert self.assembled("SelfGated").shape == (2, 13, 32)

    def test_concat_sequence_length(self):
        assert self.assembled("Concat").shape == (2, 18, 32)

    def test_width_mismatch_rejected(self):
        fused = T.Tensor(np.zeros((2, 4, 32)))
        lang = T.Tensor(np.zeros((2, 3, 16)))
        with pytest.raises(ValueError, match="width"):
            assemble_input(fused, self.prefixes, [], lang)

    def test_logits_shape_and_determinism(self):
        x = self.assembled()
        a = predict(self.head, x)
        b = predict(self.head, x)
        assert a.shape == (2, 11)
        assert np.array_equal(a.data, b.data)

    def test_batch_rows_independent(self):
        x = self.assembled(batch=4)
        full = predict(self.head, x).data
        flipped = T.Tensor(x.data[::-1].copy(), dtype=np.float64)
        swapped = predict(self.head, flipped).data
        np.testing.assert_allclose(swapped, full[::-1], atol=1e-12)

    def test_head_is_frozen(self):
        x = self.assembled()
        out = predict(self.head, x)
        loss = T.cross_entropy(out, np.array([0, 1]))
        T.backward(loss)
        for _, t in named_tensors(self.head, "head"):
            assert t.grad is None

    @pytest.mark.parametrize("d,heads", [(8, 2), (32, 4)])
    def test_head_is_two_layers_of_width_2d(self, d, heads):
        head = create_head(seed=0, d=d, heads=heads, vocab=12, classes=11)
        assert HEAD_LAYERS == 2 and len(head.layers) == HEAD_LAYERS
        assert head.input.w.shape == (d, 2 * d)
        for layer in head.layers:
            assert layer.attn.wq.shape == (2 * d, 2 * d)
            assert layer.ffn.w1.shape == (2 * d, 8 * d)
        assert head.classifier.w.shape == (2 * d, 11)

    def test_trainable_classifier_flag(self):
        head = create_head(seed=0, d=32, heads=4, vocab=12, classes=11,
                           train_classifier=True)
        trainable = [name for name, t in named_tensors(head, "head")
                     if t.requires_grad]
        assert trainable == ["head.classifier.w", "head.classifier.b"]


class TestFlopsEstimate:
    def test_self_gated_constant_in_n(self):
        counts = {reasoner_flops(n, 4, 3, "SelfGated", 32) for n in range(2, 6)}
        assert len(counts) == 1

    def test_concat_strictly_increasing(self):
        counts = [reasoner_flops(n, 4, 3, "Concat", 32) for n in range(2, 7)]
        assert all(a < b for a, b in zip(counts, counts[1:]))

    def test_concat_exceeds_self_gated(self):
        assert reasoner_flops(5, 4, 3, "Concat", 32) > \
            reasoner_flops(5, 4, 3, "SelfGated", 32)

    def test_attention_term_quadratic(self):
        # the estimate is quadratic in sequence length with curvature set by
        # the attention term: second difference = 2 * (2 * layers * width)
        f = [reasoner_flops(2, 4, q, "SelfGated", 32) for q in (6, 7, 8)]
        layers, width = 2, 64
        assert f[2] - 2 * f[1] + f[0] == 2 * (2 * layers * width)
