"""Tests for the synthetic benchmark and its exact Bayes oracle."""

import dataclasses

import numpy as np
import pytest

from modfuse.bench import (BenchModality, BenchSpec, Question, TEMPLATES,
                           accuracy_by_template, codebook, gen_dataset,
                           gen_split, oracle, split_easy_hard,
                           unimodal_bayes_accuracy)


def toy_spec(**kwargs):
    base = dict(
        modalities=(BenchModality("video", 16, 5),
                    BenchModality("audio", 24, 4),
                    BenchModality("depth", 48, 3)),
        alphabet=5, noise=0.05, train_size=64, test_size=32, seed=0)
    base.update(kwargs)
    return BenchSpec(**base)


class TestOracle:
    def test_equal_same_symbols(self):
        spec = toy_spec()
        q = Question("equal", (0, 1))
        assert oracle(spec, (3, 3, 0), q) == spec.answer_yes()
        assert oracle(spec, (3, 2, 3), q) == spec.answer_no()

    def test_count(self):
        spec = toy_spec()
        assert oracle(spec, (1, 2, 1), Question("count", (1,))) == \
            spec.answer_count(2)
        assert oracle(spec, (0, 0, 0), Question("count", (4,))) == \
            spec.answer_count(0)

    def test_unimodal_ignores_other_latents(self):
        spec = toy_spec()
        q = Question("unimodal", (1,))
        answers = {oracle(spec, (v, 2, d), q) for v in range(5) for d in range(5)}
        assert answers == {2}

    def test_malformed_questions_rejected(self):
        spec = toy_spec()
        with pytest.raises(ValueError):
            oracle(spec, (0, 0, 0), Question("equal", (1, 1)))
        with pytest.raises(ValueError):
            oracle(spec, (0, 0, 0), Question("unimodal", (7,)))
        with pytest.raises(ValueError):
            oracle(spec, (0, 0, 0), Question("count", (9,)))
        with pytest.raises(ValueError):
            oracle(spec, (0, 0, 0), Question("parity", (0,)))
        with pytest.raises(ValueError):
            oracle(spec, (0, 0), Question("count", (1,)))

    def test_answer_vocabulary_layout(self):
        spec = toy_spec()
        assert spec.classes == 11
        assert spec.vocab == 12
        assert spec.answer_names() == \
            ["sym0", "sym1", "sym2", "sym3", "sym4", "no", "yes",
             "cnt0", "cnt1", "cnt2", "cnt3"]


class TestGeneration:
    def test_same_spec_bitwise_identical(self):
        a_train, a_test = gen_dataset(toy_spec())
        b_train, b_test = gen_dataset(toy_spec())
        for m in a_train.features:
            assert np.array_equal(a_train.features[m], b_train.features[m])
            assert np.array_equal(a_test.features[m], b_test.features[m])
        assert np.array_equal(a_train.questions, b_train.questions)
        assert np.array_equal(a_train.answers, b_train.answers)

    def test_splits_differ(self):
        train, test = gen_dataset(toy_spec(train_size=32, test_size=32))
        assert not np.array_equal(train.latents, test.latents)

    def test_noiseless_features_equal_codebook_rows(self):
        spec = toy_spec(noise=0.0)
        train, _ = gen_dataset(spec)
        books = {m.name: codebook(spec, m) for m in spec.modalities}
        for i, mod in enumerate(spec.modalities):
            expected = books[mod.name][train.latents[:, i]]
            got = train.features[mod.name]
            assert np.array_equal(got, np.broadcast_to(
                expected[:, None, :], got.shape))

    def test_codebook_rows_unit_norm(self):
        spec = toy_spec()
        for mod in spec.modalities:
            norms = np.linalg.norm(codebook(spec, mod), axis=1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_oracle_consistency(self):
        spec = toy_spec(train_size=200)
        train, _ = gen_dataset(spec)
        for i in range(len(train)):
            t = TEMPLATES[train.template_ids[i]]
            ids = train.questions[i]
            if t == "unimodal":
                q = Question(t, (int(ids[1]) - 4,))
            elif t == "equal":
                q = Question(t, (int(ids[1]) - 4, int(ids[2]) - 4))
            else:
                q = Question(t, (int(ids[1]) - 4 - spec.n,))
            assert train.answers[i] == oracle(spec, train.latents[i], q)

    def test_symbol_balance(self):
        spec = toy_spec(train_size=10000)
        train = gen_split(spec, 10000, stream=0)
        for i in range(spec.n):
            freqs = np.bincount(train.latents[:, i], minlength=5) / 10000
            np.testing.assert_allclose(freqs, 0.2, atol=0.02)

    def test_generation_is_order_free(self):
        spec = toy_spec(train_size=16)
        full = gen_split(spec, 16, stream=0)
        tail = gen_split(spec, 16, stream=0).slice(np.arange(8, 16))
        for m in full.features:
            assert np.array_equal(full.features[m][8:], tail.features[m])

    def test_single_modality_spec(self):
        spec = toy_spec(modalities=(BenchModality("video", 16, 5),),
                        train_size=16, test_size=8)
        train, _ = gen_dataset(spec)
        assert np.all(train.template_ids == 0)


class TestBayesBounds:
    def test_noise_outside_documented_range_rejected(self):
        unimodal_bayes_accuracy(toy_spec(noise=0.1), ["video"])
        for noise in (0.2, -0.05):
            with pytest.raises(ValueError, match="noise"):
                unimodal_bayes_accuracy(toy_spec(noise=noise), ["video"])

    def test_equal_one_visible(self):
        bounds = unimodal_bayes_accuracy(toy_spec(), ["video"])
        assert abs(bounds["equal"] - 0.8) < 1e-12

    def test_count_major_only(self):
        bounds = unimodal_bayes_accuracy(toy_spec(), ["video"])
        assert abs(bounds["count"] - 0.64) < 1e-12

    def test_unimodal_major_only(self):
        bounds = unimodal_bayes_accuracy(toy_spec(), ["video"])
        assert abs(bounds["unimodal"] - (1.0 + 0.2 + 0.2) / 3) < 1e-12

    def test_full_visibility_is_perfect(self):
        bounds = unimodal_bayes_accuracy(toy_spec(),
                                         ["video", "audio", "depth"])
        assert all(abs(v - 1.0) < 1e-12 for v in bounds.values())

    def test_count_below_full_with_one_hidden(self):
        partial = unimodal_bayes_accuracy(toy_spec(), ["video", "audio"])
        assert partial["count"] < 1.0
        assert abs(partial["count"] - 0.8) < 1e-12  # one hidden Bernoulli(1/5)

    def test_no_visibility_floor(self):
        bounds = unimodal_bayes_accuracy(toy_spec(), [])
        assert abs(bounds["unimodal"] - 0.2) < 1e-12
        assert abs(bounds["equal"] - 0.8) < 1e-12


class TestEasyHardSplit:
    def test_partition_laws(self):
        spec = toy_spec(test_size=50)
        _, test = gen_dataset(spec)
        rng = np.random.default_rng(0)
        preds = rng.integers(0, spec.classes, size=50)
        easy, hard = split_easy_hard(preds, test)
        assert len(easy) + len(hard) == 50
        assert len(np.intersect1d(easy, hard)) == 0

    def test_perfect_reference_empty_hard(self):
        spec = toy_spec(test_size=20)
        _, test = gen_dataset(spec)
        easy, hard = split_easy_hard(test.answers.copy(), test)
        assert len(hard) == 0
        assert len(easy) == 20

    def test_reference_scores_zero_on_own_hard_set(self):
        spec = toy_spec(test_size=40)
        _, test = gen_dataset(spec)
        rng = np.random.default_rng(1)
        preds = rng.integers(0, spec.classes, size=40)
        easy, hard = split_easy_hard(preds, test)
        easy_acc = accuracy_by_template(preds[easy], test.slice(easy))
        hard_acc = accuracy_by_template(preds[hard], test.slice(hard))
        assert easy_acc["overall"] == 1.0
        assert hard_acc["overall"] == 0.0

    def test_size_mismatch_rejected(self):
        spec = toy_spec(test_size=10)
        _, test = gen_dataset(spec)
        with pytest.raises(ValueError, match="match"):
            split_easy_hard(np.zeros(5, dtype=np.int64), test)


class TestSpecValidation:
    def test_tiny_alphabet_rejected(self):
        with pytest.raises(ValueError, match="alphabet"):
            toy_spec(alphabet=1)

    def test_no_modalities_rejected(self):
        with pytest.raises(ValueError, match="modality"):
            toy_spec(modalities=())

    def test_spec_is_frozen(self):
        spec = toy_spec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.alphabet = 7
