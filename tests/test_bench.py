"""Tests for the synthetic benchmark and its exact Bayes oracle."""

import dataclasses
import re
from collections import Counter, namedtuple
from itertools import combinations

import numpy as np
import pytest

from modfuse.bench import (ALPHABET, NOISE, PAD_TOKEN, RENDER_CHUNK,
                           TEST_STREAM, BenchModality, BenchSpec, Dataset,
                           TEMPLATES, accuracy_by_template, codebook,
                           gen_dataset, gen_split, oracle_answers,
                           split_easy_hard, unimodal_bayes_accuracy)

# One question: its template name and its arguments, a modality index
# (unimodal), a modality pair (equal) or a symbol (count).
Question = namedtuple("Question", "template args")


def all_questions(spec):
    return ([Question("unimodal", (m,)) for m in range(spec.n)] +
            [Question("equal", p) for p in combinations(range(spec.n), 2)] +
            [Question("count", (x,)) for x in range(ALPHABET)])


def oracle(spec, latents, question):
    """oracle_answers on one row."""
    args = (tuple(question.args) + (0,))[:2]
    return int(oracle_answers(
        spec, np.array([latents], dtype=np.int64),
        np.array([TEMPLATES.index(question.template)]),
        np.array([args], dtype=np.int64))[0])


def toy_spec(**kwargs):
    base = dict(
        modalities=(BenchModality("video", 16, 5),
                    BenchModality("audio", 24, 4),
                    BenchModality("depth", 48, 3)),
        train_size=64, test_size=32, seed=0)
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

    def test_test_split_alone_equals_dataset_test_split(self):
        spec = toy_spec()
        alone = gen_split(spec, spec.test_size, TEST_STREAM)
        _, test = gen_dataset(spec)
        assert alone.features.keys() == test.features.keys()
        for m in test.features:
            assert np.array_equal(alone.features[m], test.features[m])
        for name in ("questions", "answers", "latents", "template_ids"):
            assert np.array_equal(getattr(alone, name), getattr(test, name))

    def test_splits_differ(self):
        train, test = gen_dataset(toy_spec(train_size=32, test_size=32))
        assert not np.array_equal(train.latents, test.latents)

    def test_features_are_codebook_rows_plus_noise(self):
        # each feature is its symbol's codebook row plus N(0, NOISE^2)
        spec = toy_spec()
        train, _ = gen_dataset(spec)
        for i, mod in enumerate(spec.modalities):
            expected = codebook(spec, mod)[train.latents[:, i]]
            residual = train.features[mod.name] - expected[:, None, :]
            assert abs(residual.mean()) < 0.1 * NOISE, mod.name
            assert residual.std() == pytest.approx(NOISE, rel=0.05), \
                mod.name

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
            assert train.answers[i] == \
                reference_oracle(spec, train.latents[i], q)

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


# The per-example generator that gen_split replaced, kept as the byte
# reference: one Python pass per example, rendering included, with the
# scalar answer rule it used (without the oracle's validation).

def _draw_question(spec, rng):
    t = TEMPLATES[rng.integers(0, len(TEMPLATES))]
    if t == "unimodal":
        return Question(t, (int(rng.integers(0, spec.n)),))
    if t == "equal":
        pairs = list(combinations(range(spec.n), 2))
        return Question(t, pairs[rng.integers(0, len(pairs))])
    return Question(t, (int(rng.integers(0, ALPHABET)),))


def reference_oracle(spec, latents, question):
    if question.template == "unimodal":
        return latents[question.args[0]]
    if question.template == "equal":
        m1, m2 = question.args
        return (spec.answer_yes() if latents[m1] == latents[m2]
                else spec.answer_no())
    (x,) = question.args
    return spec.answer_count(sum(1 for s in latents if s == x))


def token_ids(question, spec):
    t = TEMPLATES.index(question.template)
    if question.template == "unimodal":
        ids = [t, spec.modality_token(question.args[0]), PAD_TOKEN]
    elif question.template == "equal":
        ids = [t, spec.modality_token(question.args[0]),
               spec.modality_token(question.args[1])]
    else:
        ids = [t, spec.symbol_token(question.args[0]), PAD_TOKEN]
    return np.asarray(ids, dtype=np.int64)


def gen_example(spec, stream, index, books):
    rng = np.random.default_rng(
        np.random.SeedSequence([spec.seed, stream, index]))
    latents = rng.integers(0, ALPHABET, size=spec.n)
    if spec.n >= 2:
        question = _draw_question(spec, rng)
    else:
        question = Question("unimodal", (0,))
    feats = {}
    for i, mod in enumerate(spec.modalities):
        base = books[mod.name][latents[i]]
        noise = rng.normal(0.0, 1.0, size=(mod.seq_len, mod.feat_dim))
        feats[mod.name] = (base[None, :] +
                           NOISE * noise).astype(np.float32)
    answer = reference_oracle(spec, latents, question)
    return latents, question, feats, answer


def reference_gen_split(spec, size, stream):
    books = {m.name: codebook(spec, m) for m in spec.modalities}
    features = {m.name: np.empty((size, m.seq_len, m.feat_dim),
                                 dtype=np.float32)
                for m in spec.modalities}
    questions = np.empty((size, 3), dtype=np.int64)
    answers = np.empty(size, dtype=np.int64)
    latents = np.empty((size, spec.n), dtype=np.int64)
    template_ids = np.empty(size, dtype=np.int64)
    for i in range(size):
        lat, question, feats, answer = gen_example(spec, stream, i, books)
        for name, arr in feats.items():
            features[name][i] = arr
        questions[i] = token_ids(question, spec)
        answers[i] = answer
        latents[i] = lat
        template_ids[i] = TEMPLATES.index(question.template)
    return Dataset(spec=spec, features=features, questions=questions,
                   answers=answers, latents=latents, template_ids=template_ids)


def _arrays(data: Dataset):
    return ([(f"features.{m}", a) for m, a in data.features.items()] +
            [(name, getattr(data, name)) for name in
             ("questions", "answers", "latents", "template_ids")])


_SHAPES = ((16, 5), (24, 4), (48, 3), (7, 2), (3, 9))  # (feat_dim, seq_len)
_SIZES = (1, RENDER_CHUNK - 1, RENDER_CHUNK, RENDER_CHUNK + 1,
          3 * RENDER_CHUNK + 5)


class TestByteReference:
    """gen_split equals the per-example reference byte for byte."""

    @pytest.mark.parametrize("salt", [2, 5, 7])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_equals_per_example_reference(self, n, salt):
        # three seeds per modality count, so three codebooks and draws
        spec = BenchSpec(
            modalities=tuple(BenchModality(f"m{i}", *_SHAPES[i])
                             for i in range(n)),
            seed=11 * n + salt)
        for stream in (0, 1):
            # examples are pure per index, so every size is a prefix
            reference = reference_gen_split(spec, max(_SIZES), stream)
            for size in _SIZES:
                got = gen_split(spec, size, stream)
                want = reference.slice(np.arange(size))
                for (name, a), (_, b) in zip(_arrays(got), _arrays(want),
                                             strict=True):
                    where = f"{name}, stream {stream}, size {size}"
                    assert a.dtype == b.dtype, where
                    assert a.shape == b.shape, where
                    assert a.tobytes() == b.tobytes(), where


    def test_oracle_equals_reference_rule(self):
        spec = toy_spec()
        for latents in np.ndindex(*(ALPHABET,) * spec.n):
            for q in all_questions(spec):
                assert oracle(spec, latents, q) == \
                    reference_oracle(spec, latents, q), (latents, q)


class TestBayesBounds:
    def test_unknown_modality_named(self):
        # it failed as "'vidoe' is not in list"
        with pytest.raises(ValueError, match=re.escape(
                "unknown modalities ['vidoe']; spec has "
                "['video', 'audio', 'depth']")):
            unimodal_bayes_accuracy(toy_spec(), ["vidoe"])

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


def brute_force_bayes(spec, visible_idx):
    """Per-template Bayes accuracy by counting: for each question, group
    the latent grids by their visible latents and count the most frequent
    answer of each group as correct."""
    grids = list(np.ndindex(*(ALPHABET,) * spec.n))
    out = {}
    for template in TEMPLATES:
        questions = [q for q in all_questions(spec) if q.template == template]
        if spec.n < 2 and template != "unimodal":
            continue
        correct = 0
        for q in questions:
            groups = {}
            for latents in grids:
                seen = tuple(latents[i] for i in visible_idx)
                groups.setdefault(seen, Counter())[
                    reference_oracle(spec, latents, q)] += 1
            correct += sum(max(c.values()) for c in groups.values())
        out[template] = correct / (len(grids) * len(questions))
    return out


class TestBayesBrute:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_counted_majority(self, n):
        spec = BenchSpec(
            modalities=tuple(BenchModality(f"m{i}", *_SHAPES[i])
                             for i in range(n)))
        for k in range(spec.n + 1):
            for visible_idx in combinations(range(spec.n), k):
                visible = [spec.names[i] for i in visible_idx]
                got = unimodal_bayes_accuracy(spec, visible)
                want = brute_force_bayes(spec, visible_idx)
                assert got.keys() == want.keys()
                for template, value in want.items():
                    assert got[template] == pytest.approx(value, abs=1e-12), \
                        (visible, template)


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
    def test_no_modalities_rejected(self):
        with pytest.raises(ValueError,
                           match="^modalities must list at least one name$"):
            toy_spec(modalities=())

    def test_empty_splits_rejected(self):
        with pytest.raises(ValueError, match="^bench.train_size must be"):
            toy_spec(train_size=0)
        with pytest.raises(ValueError, match="^bench.test_size must be"):
            toy_spec(test_size=0)

    @pytest.mark.parametrize("value", [0, -2])
    @pytest.mark.parametrize("field", ["feat_dim", "seq_len"])
    def test_empty_modality_shape_rejected(self, field, value):
        audio = dataclasses.replace(BenchModality("audio", 24, 4),
                                    **{field: value})
        with pytest.raises(ValueError, match=f"^modality.audio.{field} must "
                                             f"be at least 1, got {value}$"):
            toy_spec(modalities=(BenchModality("video", 16, 5), audio))

    @pytest.mark.parametrize("widths", [(16, 8), (16, 16)])
    def test_duplicate_modality_rejected(self, widths):
        # unequal widths would fail in gen_dataset with a bare numpy
        # broadcast error; equal ones would let the second entry overwrite
        # the first one's features
        mods = tuple(BenchModality("video", w, 4) for w in widths)
        with pytest.raises(ValueError,
                           match="^modalities names 'video' twice$"):
            toy_spec(modalities=(BenchModality("audio", 24, 4), *mods))

    def test_spec_is_frozen(self):
        spec = toy_spec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.seed = 7
