"""Full model assembly: backbone, adapters, fusion, prefixes, answer head.

Builds a parameter registry over every component, enforcing exactly one
major modality and unique dotted names. The forward pass is a pure
function of registered parameters and the input batch.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from modfuse import tensor as T
from modfuse.adapters import (FeatureBatch, MMQAdapter, Modality,
                              ParamRegistry, mmqa_create)
from modfuse.backbone import Backbone, init_backbone, qformer_forward
from modfuse.fusion import (FusionModule, create_fusion, create_prefixes,
                            fuse_variant, prefix_schedule)
from modfuse.reasoner import AnswerHead, assemble_input, create_head, predict


@dataclass
class ModelDims:
    d: int = 32
    layers: int = 2
    heads: int = 4
    tokens: int = 4
    rank: int = 4
    head_width: int = 0      # 0 means 2*d
    head_layers: int = 2

    def resolved_head_width(self) -> int:
        return self.head_width if self.head_width > 0 else 2 * self.d


@dataclass
class ModalitySpec:
    name: str
    feat_dim: int
    role: str = "supportive"


class FusionModel:
    """One trained artifact: frozen core plus per-modality trainable bundles."""

    def __init__(self, dims: ModelDims, modalities: list[ModalitySpec],
                 strategy: str, vocab: int, classes: int, seed: int,
                 train_classifier: bool = False, dtype=np.float32):
        majors = [m.name for m in modalities if m.role == "major"]
        if len(majors) != 1:
            raise ValueError(f"exactly one major modality required, got {majors}")
        names = [m.name for m in modalities]
        if len(set(names)) != len(names):
            raise ValueError("duplicate modality names")
        self.dims = dims
        self.dtype = dtype
        self.seed = seed
        self.strategy = strategy
        self.order = names
        self.major = majors[0]
        self.vocab = vocab
        self.classes = classes
        self.train_classifier = train_classifier

        self.backbone: Backbone = init_backbone(
            seed, dims.d, dims.layers, dims.heads, dims.tokens, dtype=dtype)
        self.adapters: dict[str, MMQAdapter] = {}
        for spec in modalities:
            self.adapters[spec.name] = mmqa_create(
                Modality(spec.name, spec.role), dims.d, dims.rank, dims.tokens,
                dims.layers, spec.feat_dim, seed, dtype=dtype)
        self.fusion: FusionModule = create_fusion(
            strategy, len(names), dims.tokens, dims.d, dims.heads, seed,
            dtype=dtype)
        self.prefixes = create_prefixes(names, dims.d, seed, dtype=dtype)
        self.head: AnswerHead = create_head(
            seed, dims.d, dims.resolved_head_width(), dims.heads,
            dims.head_layers, vocab, classes,
            train_classifier=train_classifier, dtype=dtype)
        self.registry = self._build_registry()

    def _build_registry(self) -> ParamRegistry:
        reg = ParamRegistry()
        for name, t in self.backbone.named_tensors():
            reg.register(name, t, trainable=False, tag="frozen")
        for m, adapter in self.adapters.items():
            for name, t in adapter.named_tensors():
                reg.register(name, t, trainable=True, tag=m)
        for name, t in self.fusion.named_tensors():
            reg.register(name, t, trainable=True, tag="fusion")
        for m, t in self.prefixes.items():
            reg.register(f"prefix.{m}", t, trainable=True, tag="shared")
        for name, t in self.head.named_tensors():
            reg.register(name, t, trainable=False, tag="frozen")
        for name, t in self.head.classifier_tensors():
            if self.train_classifier:
                reg.register(name, t, trainable=True, tag="fusion")
            else:
                reg.register(name, t, trainable=False, tag="frozen")
        return reg

    @property
    def supportive(self) -> list[str]:
        return [m for m in self.order if m != self.major]

    def modality_tokens(self, features: dict[str, np.ndarray],
                        taped: set[str] | None = None) -> dict[str, T.Tensor]:
        """Query-transformer tokens per modality.

        Only the modalities in ``taped`` (every one when None) are put on
        the tape; the rest run forward-only and carry no gradient.
        """
        out = {}
        for m in self.order:
            if m not in features:
                raise ValueError(f"batch is missing features for '{m}'")
            untaped = taped is not None and m not in taped
            with T.no_grad() if untaped else contextlib.nullcontext():
                out[m] = qformer_forward(self.backbone, self.adapters[m],
                                         FeatureBatch(m, features[m]))
        return out

    def forward(self, features: dict[str, np.ndarray],
                question_ids: np.ndarray | None,
                taped: set[str] | None = None) -> T.Tensor:
        """Answer logits. ``taped`` names the tags whose tensors go on the
        tape: modality names for their query transformers and "shared" for
        the prefixes; None tapes everything. Fusion and the answer head are
        always taped.
        """
        tokens = self.modality_tokens(features, taped)
        fused = fuse_variant(self.fusion, tokens[self.major],
                             [tokens[m] for m in self.supportive],
                             supportive_names=self.supportive)
        lang = None
        if question_ids is not None:
            lang = T.embedding(self.head.embed, question_ids)
        schedule = prefix_schedule(self.strategy, self.order, self.major)
        prefixes = self.prefixes
        if taped is not None and "shared" not in taped:
            prefixes = {m: T.Tensor(p.data) for m, p in prefixes.items()}
        x = assemble_input(fused, prefixes, schedule, lang)
        return predict(self.head, x)

    def loss(self, features: dict[str, np.ndarray], question_ids: np.ndarray,
             answers: np.ndarray,
             taped: set[str] | None = None) -> T.Tensor:
        return T.cross_entropy(self.forward(features, question_ids, taped),
                               answers)

    def predict_classes(self, features: dict[str, np.ndarray],
                        question_ids: np.ndarray) -> np.ndarray:
        with T.no_grad():
            logits = self.forward(features, question_ids)
        return np.argmax(logits.data, axis=-1)
