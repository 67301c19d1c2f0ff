"""Full model assembly: backbone, adapters, fusion, prefixes, answer head.

Builds a parameter registry over every component from its modalities,
one of them named the major; every other is supportive. The forward pass
is a pure function of registered parameters and the input batch.

``check_modalities`` states the rules on a model's modality names once;
``FusionModel`` calls it, and so does ``config.RunConfig`` for both of
its name lists. ``ModelDims`` is frozen and checks its ranges when
built; the component constructors take its sizes as given, and the
answer head's size follows from ``d`` (``reasoner.head_width``).
``FusionModel`` rejects an unknown strategy through ``prefix_schedule``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from modfuse import tensor as T
from modfuse.adapters import (STRUCTURAL_TAGS, FeatureBatch, MMQAdapter,
                              ParamRegistry, mmqa_create, named_tensors)
from modfuse.backbone import (FF_EXPANSION, Backbone, init_backbone,
                              qformer_forward)
from modfuse.bench import BenchModality, check_names
from modfuse.errors import ConfigError, at_least
from modfuse.fusion import (FUSED_TAG, FusionModule, create_fusion,
                            create_prefixes, fuse_variant, prefix_schedule)
from modfuse.reasoner import (AnswerHead, assemble_input, create_head,
                              head_width, input_length, predict)

# Byte budget for the answer head's widest activation in forward-only
# prediction, its feed-forward hidden [rows, seq, FF_EXPANSION * width].
# Kept within a per-core L2 (1-2 MiB), every elementwise pass over it
# stays in cache; the whole eval batch at once streams each pass from L3.
HEAD_TILE_BYTES = 3 << 18

# Rows per query-transformer pass in forward-only prediction (evaluation,
# and an exited modality's tokens): enough to keep per-op overhead low.
EVAL_BATCH = 256

# Names no modality may take: a modality's name is its adapter's registry
# tag, its prefix's key and its census key, so it must not be a structural
# tag, the fused block's prefix or another census key.
RESERVED_NAMES = (*STRUCTURAL_TAGS, FUSED_TAG, "trainable", "total")


@dataclass(frozen=True)
class ModelDims:
    d: int = 32
    layers: int = 2
    heads: int = 4
    tokens: int = 4
    rank: int = 4

    def __post_init__(self):
        for name in ("d", "layers", "heads", "tokens"):
            at_least(f"model.{name}", getattr(self, name), 1)
        if not 1 <= self.rank < self.d:
            raise ConfigError(f"model.rank must be at least 1 and below "
                              f"model.d ({self.d}), got {self.rank}",
                              "model.rank", "model.d")
        # the answer head, twice as wide, is then divisible too
        if self.d % self.heads:
            raise ConfigError("model.d must be divisible by model.heads",
                              "model.d", "model.heads")


def check_modalities(names: Sequence[str], major: str, key: str) -> None:
    """The rules on modality names listed under config ``key``: those of
    ``bench.check_names``, none reserved, and ``major`` among them."""
    check_names(names, key)
    for name in names:
        if name in RESERVED_NAMES:
            raise ConfigError(f"{key} names '{name}', which is reserved; "
                              f"{', '.join(RESERVED_NAMES)} name other parts "
                              f"of the model", key)
    if major not in names:
        raise ConfigError(f"major modality '{major}' must be one of {key} "
                          f"{list(names)}", "major", key)


class FusionModel:
    """One trained artifact: frozen core plus per-modality trainable bundles."""

    def __init__(self, dims: ModelDims, modalities: Sequence[BenchModality],
                 major: str, strategy: str, vocab: int, classes: int,
                 seed: int, train_classifier: bool = False,
                 dtype=np.float32):
        names = [m.name for m in modalities]
        check_modalities(names, major, "model.modalities")
        self.dims = dims
        self.dtype = dtype
        self.strategy = strategy
        self.order = names
        self.major = major
        self.vocab = vocab
        self.classes = classes

        self.schedule = prefix_schedule(strategy, names, major)
        self.backbone: Backbone = init_backbone(
            seed, dims.d, dims.layers, dims.heads, dtype=dtype)
        self.adapters: dict[str, MMQAdapter] = {}
        for m in modalities:
            self.adapters[m.name] = mmqa_create(
                m.name, dims.d, dims.rank, dims.tokens, dims.layers,
                m.feat_dim, seed, dtype=dtype)
        self.fusion: FusionModule = create_fusion(
            strategy, len(names), dims.tokens, dims.d, dims.heads, seed,
            dtype=dtype)
        self.prefixes = create_prefixes(names, self.schedule, dims.d, seed,
                                        dtype=dtype)
        self.head: AnswerHead = create_head(
            seed, dims.d, dims.heads, vocab, classes,
            train_classifier=train_classifier, dtype=dtype)
        self.registry = self._build_registry()

    def _build_registry(self) -> ParamRegistry:
        """Every tensor under its path through the components. An
        adapter's tensors take its modality's tag; any other tensor is
        "fusion" if it trains and "frozen" if not, as its constructor's
        ``trainable`` flag set it."""
        reg = ParamRegistry()
        for part, node in [("backbone", self.backbone),
                           *self.adapters.items(),
                           ("fusion", self.fusion.params),
                           ("prefix", self.prefixes), ("head", self.head)]:
            for name, t in named_tensors(node, part):
                if isinstance(node, MMQAdapter):
                    tag = part
                else:
                    tag = "fusion" if t.requires_grad else "frozen"
                reg.register(name, t, tag)
        return reg

    @property
    def supportive(self) -> list[str]:
        return [m for m in self.order if m != self.major]

    def modality_tokens(self, features: dict[str, np.ndarray],
                        taped: set[str] | None = None,
                        cache: dict[str, np.ndarray] | None = None
                        ) -> dict[str, T.Tensor]:
        """Query-transformer tokens per modality.

        Only the modalities in ``taped`` (every one when None) are put on
        the tape; the rest run forward-only and carry no gradient. A
        forward-only modality's token array is taken from ``cache`` when
        it holds one, and stored there when it does not, so whoever
        updates an adapter must drop that modality's entry.
        """
        self._check_features(features)
        if cache is None:
            cache = {}
        out = {}
        for m in self.order:
            if taped is None or m in taped:
                out[m] = self._qformer(m, features[m])
                continue
            if m not in cache:
                with T.no_grad():
                    cache[m] = self._qformer(m, features[m]).data
            out[m] = T.Tensor(cache[m])
        return out

    def _check_features(self, features: dict[str, np.ndarray]) -> None:
        for m in self.order:
            if m not in features:
                raise ValueError(f"batch is missing features for '{m}'")

    def _qformer(self, m: str, features: np.ndarray) -> T.Tensor:
        return qformer_forward(self.backbone, self.adapters[m],
                               FeatureBatch(m, features))

    def forward_only_tokens(self, m: str, features: np.ndarray,
                            batch_size: int) -> np.ndarray:
        """Modality ``m``'s forward-only tokens for every row of
        ``features`` [N, S, f], ``batch_size`` rows per pass: [N, T, d]."""
        with T.no_grad():
            return np.concatenate([
                self._qformer(m, features[lo:lo + batch_size]).data
                for lo in range(0, len(features), batch_size)])

    def forward(self, features: dict[str, np.ndarray],
                question_ids: np.ndarray,
                taped: set[str] | None = None,
                cache: dict[str, np.ndarray] | None = None) -> T.Tensor:
        """Answer logits. ``taped`` names the modalities whose query
        transformers go on the tape; None tapes every one. Fusion, the
        prefixes and the answer head are always taped. ``cache`` holds
        forward-only tokens, as in :meth:`modality_tokens`.
        """
        tokens = self.modality_tokens(features, taped, cache)
        fused = fuse_variant(self.fusion, tokens[self.major],
                             [tokens[m] for m in self.supportive])
        lang = T.embedding(self.head.embed, question_ids)
        x = assemble_input(fused, self.prefixes, self.schedule, lang)
        return predict(self.head, x)

    def loss(self, features: dict[str, np.ndarray], question_ids: np.ndarray,
             answers: np.ndarray, taped: set[str] | None = None,
             cache: dict[str, np.ndarray] | None = None) -> T.Tensor:
        return T.cross_entropy(
            self.forward(features, question_ids, taped, cache), answers)

    def head_tile_rows(self, q_len: int) -> int:
        """Rows per fusion and answer-head pass of :meth:`predict_classes`:
        the most whose head feed-forward hidden fits HEAD_TILE_BYTES, for
        questions of ``q_len`` tokens; at least one."""
        seq = input_length(len(self.schedule), self.dims.tokens, q_len)
        row_bytes = (seq * FF_EXPANSION * head_width(self.dims.d)
                     * np.dtype(self.dtype).itemsize)
        return max(1, HEAD_TILE_BYTES // row_bytes)

    def predict_classes(self, features: dict[str, np.ndarray],
                        question_ids: np.ndarray,
                        tokens: dict[str, np.ndarray] | None = None,
                        batch_size: int = EVAL_BATCH) -> np.ndarray:
        """Argmax classes, forward-only, in two passes. Each modality's
        tokens come from ``tokens`` when it holds them, or else from
        :meth:`forward_only_tokens` in ``batch_size`` chunks. Fusion and
        the answer head then run over tiles of :meth:`head_tile_rows`
        rows, each handed its slice of the tokens. Both act on every
        example alone, so the tiles' logits are the bytes of one
        whole-batch pass."""
        self._check_features(features)
        given = tokens or {}
        tokens = {m: (given[m] if m in given else
                      self.forward_only_tokens(m, features[m], batch_size))
                  for m in self.order}
        preds = np.empty(len(question_ids), dtype=np.int64)
        rows = self.head_tile_rows(question_ids.shape[1])
        with T.no_grad():
            for lo in range(0, len(question_ids), rows):
                tile = slice(lo, lo + rows)
                logits = self.forward(
                    {m: f[tile] for m, f in features.items()},
                    question_ids[tile], set(),
                    {m: t[tile] for m, t in tokens.items()})
                preds[tile] = np.argmax(logits.data, axis=-1)
        return preds
