"""Frozen shared query transformer.

Stacked pre-norm blocks, each running self-attention over the query
tokens (with optional low-rank adaptation on the query and value
projections), cross-attention from query tokens to modality features,
and a feed-forward sublayer, all with residual connections. The backbone
is initialized once and never trained; all task capacity lives in the
per-modality adapters. Its layer norms hold no weights.

Every tensor is a dataclass field, registered under its field path
(``backbone.layers.<i>.selfattn.wq``). The constructors here (``normal``,
``zeros``, ``affine``, ``attention_weights``, ``feed_forward``) build
every weight of the model, the adapters', the fusion module's, the
prefixes' and the answer head's as well. ``normal`` alone reads
``INIT_STD``, scaled by a ``gain``; ``trainable`` sets ``requires_grad``,
which is what the registry reads each non-adapter tag off, so a
constructor call is the one statement of what trains. Each returns a
float64 draw, which ``FusionModel`` rounds to its ``dtype``.

``align_features`` maps a modality's features onto the hidden size with
its adapter's ``align`` map before the first cross-attention.

Modality features carry no positional encoding, so the cross-attention
treats them as an unordered set and the output is invariant to permuting
feature positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from modfuse import tensor as T
from modfuse.rng import component_rng

INIT_STD = 0.02
# hidden width of every feed-forward sublayer, as a multiple of its input
FF_EXPANSION = 4


@dataclass
class AttentionWeights:
    wq: T.Tensor
    wk: T.Tensor
    wv: T.Tensor
    wo: T.Tensor


@dataclass
class Affine:
    w: T.Tensor
    b: T.Tensor


@dataclass
class FeedForward:
    w1: T.Tensor
    w2: T.Tensor


@dataclass
class BackboneLayer:
    selfattn: AttentionWeights
    crossattn: AttentionWeights
    ffn: FeedForward


@dataclass
class Backbone:
    heads: int
    layers: list[BackboneLayer]


def normal(rng: np.random.Generator, shape, gain: float = 1.0,
           trainable: bool = False) -> T.Tensor:
    """A scaled-normal draw: zero mean, standard deviation gain * INIT_STD."""
    return T.Tensor(rng.normal(0.0, gain * INIT_STD, size=shape),
                    requires_grad=trainable)


def zeros(shape, trainable: bool = False) -> T.Tensor:
    return T.Tensor(np.zeros(shape), requires_grad=trainable)


def affine(rng: np.random.Generator, rows: int, cols: int, gain: float = 1.0,
           trainable: bool = False) -> Affine:
    """A scaled-normal [rows, cols] map with a zero bias."""
    return Affine(w=normal(rng, (rows, cols), gain, trainable),
                  b=zeros(cols, trainable))


def attention_weights(rng: np.random.Generator, d: int, qk_gain: float = 1.0,
                      vo_gain: float = 1.0,
                      trainable: bool = False) -> AttentionWeights:
    """Four [d, d] projections, drawn in the order q, k, v, o."""
    return AttentionWeights(wq=normal(rng, (d, d), qk_gain, trainable),
                            wk=normal(rng, (d, d), qk_gain, trainable),
                            wv=normal(rng, (d, d), vo_gain, trainable),
                            wo=normal(rng, (d, d), vo_gain, trainable))


def feed_forward(rng: np.random.Generator, d: int,
                 gain: float = 1.0) -> FeedForward:
    """A frozen d -> FF_EXPANSION * d -> d feed-forward pair."""
    return FeedForward(w1=normal(rng, (d, FF_EXPANSION * d), gain),
                       w2=normal(rng, (FF_EXPANSION * d, d), gain))


def init_backbone(seed: int, d: int, layers: int, heads: int) -> Backbone:
    """Deterministic scaled-normal init; every tensor stays frozen. The
    dims are taken as ``ModelDims`` checked them."""
    rng = component_rng(seed, "backbone")
    return Backbone(heads=heads, layers=[BackboneLayer(
        selfattn=attention_weights(rng, d),
        crossattn=attention_weights(rng, d),
        ffn=feed_forward(rng, d),
    ) for _ in range(layers)])


def lora_linear(x: T.Tensor, w: T.Tensor, lora=None) -> T.Tensor:
    """x @ w plus a rank-r correction (x @ down) @ up when ``lora`` is given.

    The correction is computed as two sequential thin products; the dense
    d-by-d delta is never materialized.
    """
    base = T.matmul(x, w)
    if lora is None:
        return base
    down, up = lora.down, lora.up
    if down.shape[1] != up.shape[0]:
        raise ValueError(f"rank mismatch: down {down.shape} vs up {up.shape}")
    if down.shape[0] != w.shape[0] or up.shape[1] != w.shape[1]:
        raise ValueError("adapter shapes do not match the frozen projection")
    return base + T.matmul(T.matmul(x, down), up)


def attention(q_in: T.Tensor, kv_in: T.Tensor, weights: AttentionWeights,
              heads: int, lora_q=None, lora_v=None,
              attn_probes: list | None = None) -> T.Tensor:
    """Multi-head scaled dot-product attention from q_in onto kv_in."""
    q = lora_linear(q_in, weights.wq, lora_q)
    k = T.matmul(kv_in, weights.wk)
    v = lora_linear(kv_in, weights.wv, lora_v)
    return T.matmul(T.attention(q, k, v, heads, probes=attn_probes),
                    weights.wo)


def ffn(x: T.Tensor, weights: FeedForward) -> T.Tensor:
    return T.matmul(T.silu(T.matmul(x, weights.w1)), weights.w2)


def align_features(adapter, feats) -> T.Tensor:
    """Map native-width features onto the hidden size (identity when the
    adapter has no alignment map)."""
    if feats.modality != adapter.name:
        raise ValueError(f"features for '{feats.modality}' passed to the "
                         f"'{adapter.name}' adapter")
    arr = feats.features
    if arr.ndim != 3 or arr.shape[-1] != adapter.feat_dim:
        raise ValueError(f"expected features [B, S, {adapter.feat_dim}], "
                         f"got {arr.shape}")
    x = T.Tensor(arr, dtype=adapter.queries.dtype)
    if adapter.align is None:
        return x
    return T.matmul(x, adapter.align.w) + adapter.align.b


def qformer_forward(backbone: Backbone, adapter, feats,
                    attn_probes: list | None = None) -> T.Tensor:
    """Compress one modality's features into the adapter's query tokens.

    ``adapter`` supplies the learnable queries, per-layer low-rank pairs
    for the self-attention q/v projections, and the feature alignment
    map; ``feats`` is that modality's FeatureBatch. Output [B, T, d].
    """
    aligned = align_features(adapter, feats)
    b = aligned.shape[0]
    tcount, d = adapter.queries.shape
    x = T.broadcast_to(T.reshape(adapter.queries, (1, tcount, d)), (b, tcount, d))
    for i, layer in enumerate(backbone.layers):
        site = adapter.lora[i]
        h = T.layer_norm(x)
        x = x + attention(h, h, layer.selfattn, backbone.heads,
                          lora_q=site["q"], lora_v=site["v"],
                          attn_probes=attn_probes)
        h = T.layer_norm(x)
        x = x + attention(h, aligned, layer.crossattn, backbone.heads,
                          attn_probes=attn_probes)
        h = T.layer_norm(x)
        x = x + ffn(h, layer.ffn)
    return x
