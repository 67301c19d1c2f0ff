"""Synthetic compositional multimodal QA benchmark with an exact oracle.

Each modality hides a latent symbol drawn from a shared alphabet of
``ALPHABET`` symbols; a frozen random codebook renders the symbol as a
feature sequence plus Gaussian noise of standard deviation ``NOISE``.
Questions come in three templates: report one modality's symbol, decide
whether two modalities' symbols are equal, and count how many
modalities carry a given symbol. The first template is answerable
unimodally; the other two require fusing specific modality subsets,
which is what makes added modalities measurably useful. Exact Bayes
accuracy under any visible-modality subset is computed by enumeration,
giving a calibrated ceiling for every claim. Both constants are part of
the benchmark's definition, so no config sets them.

Generation is pure per (seed, split, index): example ``i`` of a split
draws its latents, question and noise from its own generator, seeded by
(seed, stream, i), so examples never depend on generation order, and
datasets are regenerated from their BenchSpec rather than stored. Only
those draws run once per example; rendering, answers and question tokens
are computed over the whole split with array operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from modfuse.errors import ConfigError, at_least
from modfuse.rng import component_rng

TEMPLATES = ("unimodal", "equal", "count")
TRAIN_STREAM = 0
TEST_STREAM = 1
PAD_TOKEN = 3  # question slots: 0..2 template ids, 3 pad, then modalities, symbols
QUESTION_LEN = 3  # tokens per question: template id, first argument, second or pad
ALPHABET = 5  # symbols a modality's latent is drawn from
NOISE = 0.05  # noise std added to the unit-norm codebook rows


def check_names(names, key: str) -> None:
    """At least one modality name under config ``key``, none twice."""
    if not names:
        raise ConfigError(f"{key} must list at least one name", key)
    for name in names:
        if names.count(name) > 1:
            raise ConfigError(f"{key} names '{name}' twice", key)


@dataclass(frozen=True)
class BenchModality:
    name: str
    feat_dim: int
    seq_len: int


@dataclass(frozen=True)
class BenchSpec:
    modalities: tuple[BenchModality, ...]
    train_size: int = 8000
    test_size: int = 4000
    seed: int = 0

    def __post_init__(self):
        check_names(self.names, "modalities")
        at_least("bench.train_size", self.train_size, 1)
        at_least("bench.test_size", self.test_size, 1)
        at_least("bench.seed", self.seed, 0)
        for m in self.modalities:
            # one-wide unit-norm codebook rows are only +1 and -1
            at_least(f"modality.{m.name}.feat_dim", m.feat_dim, 2)
            at_least(f"modality.{m.name}.seq_len", m.seq_len, 1)

    @property
    def n(self) -> int:
        return len(self.modalities)

    @property
    def names(self) -> list[str]:
        return [m.name for m in self.modalities]

    @property
    def vocab(self) -> int:
        # template ids, pad, one token per modality, one per symbol
        return 4 + self.n + ALPHABET

    @property
    def classes(self) -> int:
        # symbols, no, yes, counts 0..n
        return ALPHABET + 2 + self.n + 1

    def modality_token(self, index: int) -> int:
        return 4 + index

    def symbol_token(self, symbol: int) -> int:
        return 4 + self.n + symbol

    def answer_no(self) -> int:
        return ALPHABET

    def answer_yes(self) -> int:
        return ALPHABET + 1

    def answer_count(self, count: int) -> int:
        return ALPHABET + 2 + count

    def answer_names(self) -> list[str]:
        return ([f"sym{k}" for k in range(ALPHABET)] + ["no", "yes"] +
                [f"cnt{c}" for c in range(self.n + 1)])


def oracle_answers(spec: BenchSpec, latents: np.ndarray,
                   template_ids: np.ndarray, args: np.ndarray) -> np.ndarray:
    """Gold answer index of every row: the oracle rule over arrays.

    ``latents`` is [N, n]; ``template_ids`` [N] indexes TEMPLATES; ``args``
    [N, 2] holds each question's arguments, zero-padded: a modality index
    (unimodal), a modality pair (equal) or a symbol (count). Questions are
    taken as well formed: ``gen_split`` and ``unimodal_bayes_accuracy``
    build only such rows.
    """
    out = np.empty(len(template_ids), dtype=np.int64)
    first, second = args[:, 0], args[:, 1]
    r = np.flatnonzero(template_ids == TEMPLATES.index("unimodal"))
    out[r] = latents[r, first[r]]
    r = np.flatnonzero(template_ids == TEMPLATES.index("equal"))
    out[r] = np.where(latents[r, first[r]] == latents[r, second[r]],
                      spec.answer_yes(), spec.answer_no())
    r = np.flatnonzero(template_ids == TEMPLATES.index("count"))
    out[r] = spec.answer_count(0) + (latents[r] == first[r, None]).sum(axis=1)
    return out


def codebook(spec: BenchSpec, modality: BenchModality) -> np.ndarray:
    """Frozen unit-norm rows, one per symbol; deterministic per spec seed."""
    rng = component_rng(spec.seed, f"bench.codebook.{modality.name}")
    rows = rng.normal(size=(ALPHABET, modality.feat_dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows.astype(np.float32)


@dataclass
class Dataset:
    spec: BenchSpec
    features: dict[str, np.ndarray]   # name -> [N, S, f] float32
    questions: np.ndarray             # [N, QUESTION_LEN] int64
    answers: np.ndarray               # [N] int64
    latents: np.ndarray               # [N, n] int64
    template_ids: np.ndarray          # [N] int64

    def __len__(self) -> int:
        return self.answers.shape[0]

    def slice(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(
            spec=self.spec,
            features={m: arr[idx] for m, arr in self.features.items()},
            questions=self.questions[idx],
            answers=self.answers[idx],
            latents=self.latents[idx],
            template_ids=self.template_ids[idx],
        )


# Examples whose float64 noise is held at once while a split is rendered;
# it bounds gen_split's temporary memory whatever the split size.
RENDER_CHUNK = 64


def gen_split(spec: BenchSpec, size: int, stream: int) -> Dataset:
    """Materialize one split as stacked arrays.

    Example ``i`` draws from ``default_rng(SeedSequence([seed, stream,
    i]))``, in this order: its latents; when there are two or more
    modalities, a template and then that template's argument (a modality,
    a pair index or a symbol); then the noise of every modality in spec
    order, as one standard-normal row. Everything else runs per chunk of
    rows (rendering, in float64 then rounded to float32) or per split
    (answers and question tokens).
    """
    n = spec.n
    widths = [m.seq_len * m.feat_dim for m in spec.modalities]
    offsets = np.cumsum([0] + widths)
    arg_bounds = (n, n * (n - 1) // 2, ALPHABET)  # by template id
    books = [codebook(spec, m) for m in spec.modalities]
    features = {m.name: np.empty((size, m.seq_len, m.feat_dim),
                                 dtype=np.float32) for m in spec.modalities}
    latents = np.empty((size, n), dtype=np.int64)
    template_ids = np.zeros(size, dtype=np.int64)
    drawn = np.zeros(size, dtype=np.int64)
    noise = np.empty((min(size, RENDER_CHUNK), offsets[-1]))
    for start in range(0, size, RENDER_CHUNK):
        stop = min(start + RENDER_CHUNK, size)
        for i in range(start, stop):
            rng = np.random.default_rng(
                np.random.SeedSequence([spec.seed, stream, i]))
            latents[i] = rng.integers(0, ALPHABET, size=n)
            if n >= 2:
                t = rng.integers(0, len(TEMPLATES))
                template_ids[i] = t
                drawn[i] = rng.integers(0, arg_bounds[t])
            rng.standard_normal(out=noise[i - start])
        rows = noise[:stop - start]
        rows *= NOISE
        for k, mod in enumerate(spec.modalities):
            block = rows[:, offsets[k]:offsets[k + 1]].reshape(
                -1, mod.seq_len, mod.feat_dim)
            block += books[k][latents[start:stop, k]][:, None, :]
            features[mod.name][start:stop] = block

    # an "equal" question draws an index into the ordered modality pairs
    args = np.zeros((size, 2), dtype=np.int64)
    args[:, 0] = drawn
    equal = template_ids == TEMPLATES.index("equal")
    if n >= 2:
        pairs = np.array(list(combinations(range(n), 2)), dtype=np.int64)
        args[equal] = pairs[drawn[equal]]
    count = template_ids == TEMPLATES.index("count")
    questions = np.empty((size, QUESTION_LEN), dtype=np.int64)
    questions[:, 0] = template_ids
    questions[:, 1] = args[:, 0] + np.where(count, spec.symbol_token(0),
                                            spec.modality_token(0))
    questions[:, 2] = np.where(equal, spec.modality_token(0) + args[:, 1],
                               PAD_TOKEN)
    return Dataset(spec=spec, features=features, questions=questions,
                   answers=oracle_answers(spec, latents, template_ids, args),
                   latents=latents, template_ids=template_ids)


def gen_dataset(spec: BenchSpec):
    """Train and test splits on disjoint seed streams."""
    return (gen_split(spec, spec.train_size, TRAIN_STREAM),
            gen_split(spec, spec.test_size, TEST_STREAM))


def unimodal_bayes_accuracy(spec: BenchSpec, visible) -> dict[str, float]:
    """Exact best-achievable per-template accuracy by full enumeration.

    ``visible`` names the modalities whose features the predictor sees;
    each visible symbol counts as decodable, as it is at ``NOISE`` when
    the modality's unit-norm codebook rows lie well apart (``BenchSpec``
    requires ``feat_dim`` of at least 2: one-wide rows are only +1 and
    -1, and symbols would collide). For each question, latent grids are
    grouped by what the predictor observes and the majority answer
    inside each group is counted correct.
    """
    names = spec.names
    unknown = [v for v in visible if v not in names]
    if unknown:
        raise ValueError(f"unknown modalities {unknown}; spec has {names}")
    visible_idx = sorted({names.index(v) for v in visible})
    grids = np.array(list(product(range(ALPHABET), repeat=spec.n)),
                     dtype=np.int64)
    # one integer per grid for what the predictor observes
    observed = grids[:, visible_idx] @ (
        ALPHABET ** np.arange(len(visible_idx), dtype=np.int64))
    # every question of each template, as its zero-padded arguments
    questions = {"unimodal": [(m, 0) for m in range(spec.n)],
                 "equal": list(combinations(range(spec.n), 2)),
                 "count": [(x, 0) for x in range(ALPHABET)]}
    out = {}
    for template in TEMPLATES:
        if spec.n < 2 and template != "unimodal":
            continue
        t = np.full(len(grids), TEMPLATES.index(template))
        qs = questions[template]
        total = 0.0
        for q in qs:
            args = np.full((len(grids), 2), q, dtype=np.int64)
            answers = oracle_answers(spec, grids, t, args)
            # majority answer count inside each observation group
            keys, counts = np.unique(observed * spec.classes + answers,
                                     return_counts=True)
            best = np.zeros(int(observed.max()) + 1, dtype=np.int64)
            np.maximum.at(best, keys // spec.classes, counts)
            total += int(best.sum()) / len(grids)
        out[template] = total / len(qs)
    return out


def split_easy_hard(reference_predictions: np.ndarray, test: Dataset):
    """Partition test indices by the reference model's correctness."""
    preds = np.asarray(reference_predictions)
    if preds.shape != test.answers.shape:
        raise ValueError("reference predictions do not match the test set")
    correct = preds == test.answers
    return np.flatnonzero(correct), np.flatnonzero(~correct)


def accuracy_by_template(predictions: np.ndarray, data: Dataset) -> dict[str, float]:
    """Overall and per-template exact-match accuracy."""
    correct = np.asarray(predictions) == data.answers
    out = {"overall": float(correct.mean()) if len(data) else 0.0}
    for t, name in enumerate(TEMPLATES):
        mask = data.template_ids == t
        if mask.any():
            out[name] = float(correct[mask].mean())
    return out
