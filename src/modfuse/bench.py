"""Synthetic compositional multimodal QA benchmark with an exact oracle.

Each modality hides a latent symbol drawn from a shared alphabet; a
frozen random codebook renders the symbol as a feature sequence plus
Gaussian noise. Questions come in three templates: report one
modality's symbol, decide whether two modalities' symbols are equal,
and count how many modalities carry a given symbol. The first template
is answerable unimodally; the other two require fusing specific
modality subsets, which is what makes added modalities measurably
useful. Exact Bayes accuracy under any visible-modality subset is
computed by enumeration, giving a calibrated ceiling for every claim.

Generation is pure per (seed, split, index): examples never depend on
generation order, and datasets are regenerated from their BenchSpec
rather than stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from modfuse.rng import component_rng

TEMPLATES = ("unimodal", "equal", "count")
TRAIN_STREAM = 0
TEST_STREAM = 1
PAD_TOKEN = 3  # question slots: 0..2 template ids, 3 pad, then modalities, symbols


@dataclass(frozen=True)
class BenchModality:
    name: str
    feat_dim: int
    seq_len: int


@dataclass(frozen=True)
class BenchSpec:
    modalities: tuple[BenchModality, ...]
    alphabet: int = 5
    noise: float = 0.05
    train_size: int = 8000
    test_size: int = 4000
    seed: int = 0

    def __post_init__(self):
        if self.alphabet < 2:
            raise ValueError("alphabet size must be at least 2")
        if not self.modalities:
            raise ValueError("at least one modality required")
        if self.train_size < 1 or self.test_size < 1:
            raise ValueError("train and test sizes must be positive")
        for m in self.modalities:
            for name in ("feat_dim", "seq_len"):
                if getattr(m, name) < 1:
                    raise ValueError(f"modality '{m.name}': {name} must be "
                                     f"positive, got {getattr(m, name)}")

    @property
    def n(self) -> int:
        return len(self.modalities)

    @property
    def names(self) -> list[str]:
        return [m.name for m in self.modalities]

    @property
    def vocab(self) -> int:
        # template ids, pad, one token per modality, one per symbol
        return 4 + self.n + self.alphabet

    @property
    def classes(self) -> int:
        # symbols, no, yes, counts 0..n
        return self.alphabet + 2 + self.n + 1

    def modality_token(self, index: int) -> int:
        return 4 + index

    def symbol_token(self, symbol: int) -> int:
        return 4 + self.n + symbol

    def answer_no(self) -> int:
        return self.alphabet

    def answer_yes(self) -> int:
        return self.alphabet + 1

    def answer_count(self, count: int) -> int:
        return self.alphabet + 2 + count

    def answer_names(self) -> list[str]:
        return ([f"sym{k}" for k in range(self.alphabet)] + ["no", "yes"] +
                [f"cnt{c}" for c in range(self.n + 1)])


@dataclass(frozen=True)
class Question:
    template: str
    args: tuple[int, ...]  # modality indices, or a symbol for "count"

    def token_ids(self, spec: BenchSpec) -> np.ndarray:
        t = TEMPLATES.index(self.template)
        if self.template == "unimodal":
            ids = [t, spec.modality_token(self.args[0]), PAD_TOKEN]
        elif self.template == "equal":
            ids = [t, spec.modality_token(self.args[0]),
                   spec.modality_token(self.args[1])]
        else:
            ids = [t, spec.symbol_token(self.args[0]), PAD_TOKEN]
        return np.asarray(ids, dtype=np.int64)


def oracle(spec: BenchSpec, latents, question: Question) -> int:
    """Gold answer index for a question given the latent symbols."""
    latents = tuple(int(s) for s in latents)
    if len(latents) != spec.n:
        raise ValueError("latent count does not match the modality count")
    if question.template == "unimodal":
        (m,) = question.args
        if not 0 <= m < spec.n:
            raise ValueError(f"modality index {m} out of range")
        return latents[m]
    if question.template == "equal":
        m1, m2 = question.args
        if m1 == m2 or not (0 <= m1 < spec.n and 0 <= m2 < spec.n):
            raise ValueError(f"bad modality pair {question.args}")
        return spec.answer_yes() if latents[m1] == latents[m2] else spec.answer_no()
    if question.template == "count":
        (x,) = question.args
        if not 0 <= x < spec.alphabet:
            raise ValueError(f"symbol {x} out of range")
        return spec.answer_count(sum(1 for s in latents if s == x))
    raise ValueError(f"unknown template '{question.template}'")


def codebook(spec: BenchSpec, modality: BenchModality) -> np.ndarray:
    """Frozen unit-norm rows, one per symbol; deterministic per spec seed."""
    rng = component_rng(spec.seed, f"bench.codebook.{modality.name}")
    rows = rng.normal(size=(spec.alphabet, modality.feat_dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows.astype(np.float32)


@dataclass
class Dataset:
    spec: BenchSpec
    features: dict[str, np.ndarray]   # name -> [N, S, f] float32
    questions: np.ndarray             # [N, 3] int64
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


def _draw_question(spec: BenchSpec, rng: np.random.Generator) -> Question:
    t = TEMPLATES[rng.integers(0, len(TEMPLATES))]
    if t == "unimodal":
        return Question(t, (int(rng.integers(0, spec.n)),))
    if t == "equal":
        pairs = list(combinations(range(spec.n), 2))
        return Question(t, pairs[rng.integers(0, len(pairs))])
    return Question(t, (int(rng.integers(0, spec.alphabet)),))


def gen_example(spec: BenchSpec, stream: int, index: int,
                books: dict[str, np.ndarray]):
    """Pure function of (spec.seed, stream, index)."""
    rng = np.random.default_rng(
        np.random.SeedSequence([spec.seed, stream, index]))
    latents = rng.integers(0, spec.alphabet, size=spec.n)
    if spec.n >= 2:
        question = _draw_question(spec, rng)
    else:
        question = Question("unimodal", (0,))
    feats = {}
    for i, mod in enumerate(spec.modalities):
        base = books[mod.name][latents[i]]
        noise = rng.normal(0.0, 1.0, size=(mod.seq_len, mod.feat_dim))
        feats[mod.name] = (base[None, :] +
                           spec.noise * noise).astype(np.float32)
    answer = oracle(spec, latents, question)
    return latents, question, feats, answer


def gen_split(spec: BenchSpec, size: int, stream: int) -> Dataset:
    """Materialize one split as stacked arrays."""
    books = {m.name: codebook(spec, m) for m in spec.modalities}
    features = {m.name: np.empty((size, m.seq_len, m.feat_dim), dtype=np.float32)
                for m in spec.modalities}
    questions = np.empty((size, 3), dtype=np.int64)
    answers = np.empty(size, dtype=np.int64)
    latents = np.empty((size, spec.n), dtype=np.int64)
    template_ids = np.empty(size, dtype=np.int64)
    for i in range(size):
        lat, question, feats, answer = gen_example(spec, stream, i, books)
        for name, arr in feats.items():
            features[name][i] = arr
        questions[i] = question.token_ids(spec)
        answers[i] = answer
        latents[i] = lat
        template_ids[i] = TEMPLATES.index(question.template)
    return Dataset(spec=spec, features=features, questions=questions,
                   answers=answers, latents=latents, template_ids=template_ids)


def gen_dataset(spec: BenchSpec):
    """Train and test splits on disjoint seed streams."""
    return (gen_split(spec, spec.train_size, TRAIN_STREAM),
            gen_split(spec, spec.test_size, TEST_STREAM))


def _enumerate_questions(spec: BenchSpec, template: str):
    if template == "unimodal":
        return [Question(template, (m,)) for m in range(spec.n)]
    if template == "equal":
        return [Question(template, p) for p in combinations(range(spec.n), 2)]
    return [Question(template, (x,)) for x in range(spec.alphabet)]


# upper end of the noise range where unimodal_bayes_accuracy is exact
MAX_BAYES_NOISE = 0.1


def unimodal_bayes_accuracy(spec: BenchSpec, visible) -> dict[str, float]:
    """Exact best-achievable per-template accuracy by full enumeration.

    ``visible`` names the modalities whose features the predictor sees;
    valid for noise levels where visible symbols are decodable
    (documented range: noise <= 0.1 with unit-norm codebooks). For each
    question, latent grids are grouped by what the predictor observes
    and the majority answer inside each group is counted correct.
    Raises ValueError for a noise level outside the documented range.
    """
    if not 0.0 <= spec.noise <= MAX_BAYES_NOISE:
        raise ValueError(f"unimodal_bayes_accuracy is exact only for noise "
                         f"in [0, {MAX_BAYES_NOISE}], got {spec.noise}")
    names = spec.names
    visible_idx = {names.index(v) for v in visible}
    out = {}
    grids = list(product(range(spec.alphabet), repeat=spec.n))
    for template in TEMPLATES:
        qs = _enumerate_questions(spec, template)
        if spec.n < 2 and template != "unimodal":
            continue
        total = 0.0
        for q in qs:
            groups: dict[tuple, dict[int, int]] = {}
            for grid in grids:
                obs = tuple(grid[i] for i in sorted(visible_idx))
                answer = oracle(spec, grid, q)
                groups.setdefault(obs, {})
                groups[obs][answer] = groups[obs].get(answer, 0) + 1
            correct = sum(max(hist.values()) for hist in groups.values())
            total += correct / len(grids)
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
