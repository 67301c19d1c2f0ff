"""Per-modality trainable adapter bundles and the model parameter registry.

An adapter is everything one modality owns: learnable query tokens, one
low-rank pair per self-attention q/v projection per backbone layer, and
(when the modality's native feature width differs from the hidden size)
an affine alignment map (``align``).

``named_tensors`` names every tensor of a component by its path through
dataclass fields, list indices and dict keys; the model registers each
one under that name, so an adapter's names are prefixed by its modality
(``audio.lora.0.q.down``, ``audio.align.w``), and its tensors carry the
modality's tag, which is what makes masked per-modality optimizer
updates possible.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from functools import cache

import numpy as np

from modfuse import tensor as T
from modfuse.backbone import Affine, affine, normal, zeros
from modfuse.rng import component_rng


@dataclass
class FeatureBatch:
    modality: str
    features: np.ndarray  # [B, S, f]


@dataclass
class LoraPair:
    down: T.Tensor  # [d, r], zero at init so the adapter starts neutral
    up: T.Tensor    # [r, d], scaled-normal


@dataclass
class MMQAdapter:
    name: str                              # the modality this adapter serves
    queries: T.Tensor                      # [T, d]
    lora: list[dict[str, LoraPair]]        # per layer, sites "q" and "v"
    align: Affine | None                   # [f, d] map iff f != d
    feat_dim: int


def mmqa_create(name: str, d: int, r: int, tokens: int, layers: int,
                feat_dim: int, seed: int, dtype=np.float32) -> MMQAdapter:
    """Deterministic adapter init: down-projections zero, the rest scaled-normal."""
    rng = component_rng(seed, f"adapter.{name}")
    queries = normal(rng, (tokens, d), dtype, trainable=True)
    lora = [{key: LoraPair(down=zeros((d, r), dtype, trainable=True),
                           up=normal(rng, (r, d), dtype, trainable=True))
             for key in ("q", "v")} for _ in range(layers)]
    align = (affine(rng, feat_dim, d, dtype, trainable=True)
             if feat_dim != d else None)
    return MMQAdapter(name=name, queries=queries, lora=lora, align=align,
                      feat_dim=feat_dim)


def named_tensors(node, prefix: str):
    """(dotted name, tensor) for every tensor under ``node``, in order.

    A name is ``prefix`` followed by the path to the tensor: dataclass
    field names in declaration order, list indices and dict keys. Any
    other value (None, a number, a string) holds no tensor.
    """
    if isinstance(node, T.Tensor):
        yield prefix, node
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from named_tensors(item, f"{prefix}.{i}")
    elif isinstance(node, dict):
        for key, item in node.items():
            yield from named_tensors(item, f"{prefix}.{key}")
    elif is_dataclass(node):
        for name in _field_names(type(node)):
            yield from named_tensors(getattr(node, name), f"{prefix}.{name}")


@cache
def _field_names(cls) -> tuple[str, ...]:
    # dataclasses.fields rebuilds its tuple on every call; every model
    # build walks the same few classes
    return tuple(f.name for f in fields(cls))


@dataclass
class RegistryEntry:
    tensor: T.Tensor
    tag: str


class ParamRegistry:
    """Dotted name -> (tensor, ownership tag).

    Tags are modality names, "fusion" or "frozen"; they drive masked
    updates, checksums, the checkpoint namespace, and the parameter
    census. A tensor trains iff it requires grad, which every tag but
    "frozen" demands.
    """

    def __init__(self):
        self.entries: dict[str, RegistryEntry] = {}

    def register(self, name: str, tensor: T.Tensor, tag: str):
        if name in self.entries:
            raise ValueError(f"duplicate registry name '{name}'")
        if (tag == "frozen") == tensor.requires_grad:
            raise ValueError(f"'{name}': tag '{tag}' disagrees with "
                             f"requires_grad={tensor.requires_grad}")
        self.entries[name] = RegistryEntry(tensor, tag)

    def tags(self) -> set[str]:
        return {e.tag for e in self.entries.values()}

    def named(self, tags=None, trainable_only: bool = False):
        """Entries in registration order, optionally filtered."""
        out = []
        for name, e in self.entries.items():
            if tags is not None and e.tag not in tags:
                continue
            if trainable_only and not e.tensor.requires_grad:
                continue
            out.append((name, e.tensor))
        return out

    def checksum(self, tags=None) -> str:
        """Hex digest over raw data bytes of the selected entries."""
        import hashlib
        h = hashlib.sha256()
        for name, e in self.entries.items():
            if tags is not None and e.tag not in tags:
                continue
            h.update(name.encode())
            h.update(e.tensor.data.tobytes())
        return h.hexdigest()


STRUCTURAL_TAGS = ("fusion", "frozen")


def count_trainable(registry: ParamRegistry, tag: str | None = None) -> int:
    """Trainable scalars, for one tag or (``None``) the whole model.

    The structural tags are always queryable (a registry may hold none of
    them); anything else must be a registered tag.
    """
    if tag is not None and tag not in registry.tags() | set(STRUCTURAL_TAGS):
        raise ValueError(f"unknown registry tag '{tag}'")
    tags = None if tag is None else {tag}
    return sum(t.size for _, t in registry.named(tags, trainable_only=True))


def total_scalars(registry: ParamRegistry) -> int:
    return sum(e.tensor.size for e in registry.entries.values())
