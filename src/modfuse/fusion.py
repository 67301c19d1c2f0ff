"""Fusion of supportive-modality tokens into a fixed token budget.

The default strategy merges every supportive modality's query tokens by
channel-wise concatenation, projects them back to the hidden size, and
scales the result elementwise by its own sigmoid before appending it to
the major modality's tokens. The output token count is therefore 2T no
matter how many modalities are attached. Four alternative strategies
(plain concatenation, a learned token-axis map, a top-1 mixture of
experts, and prompt cross-attention) cover the ablation axis.

The fused layout is stated once, by :func:`prefix_schedule`: one name per
block of T fused tokens, so :func:`token_budget` is T times its length.
``fuse_variant`` does not recount its output on every forward; the tests
pin every strategy's count against the budget.

A strategy's parameters are built, all trainable, by the backbone's
constructors (``affine``, ``attention_weights``, ``normal``) and held in
``FusionModule.params`` under their field names, so the model's walk
names them (``fusion.merge.w``, ``fusion.experts.2.b``,
``fusion.attn.wq``) and rounds them from float64 to its dtype.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from modfuse import tensor as T
from modfuse.backbone import affine, attention, attention_weights, normal
from modfuse.errors import ConfigError
from modfuse.rng import component_rng

STRATEGIES = ("SelfGated", "Concat", "Linear", "MoE", "CrossAttention")
MOE_EXPERTS = 4
FUSED_TAG = "fused"


@dataclass
class TokenMix:
    w: T.Tensor     # [n*T, T], a learned map along the token axis


@dataclass
class FusionModule:
    strategy: str
    heads: int
    # field name -> tensor, component or list of components
    params: dict[str, object] = field(default_factory=dict)


def check_strategy(strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise ConfigError(f"model.strategy must be one of "
                          f"{', '.join(STRATEGIES)}, got '{strategy}'",
                          "model.strategy")


def block_count(strategy: str, n: int) -> int:
    """Blocks of T fused tokens for ``n`` modalities: the length of the
    prefix schedule, which does not depend on the modalities' names."""
    if n < 1:
        raise ValueError("modality count must be at least 1")
    order = [str(i) for i in range(n)]
    return len(prefix_schedule(strategy, order, order[0]))


def token_budget(strategy: str, n: int, tokens: int) -> int:
    """Fused token count as a pure function of (strategy, n, T)."""
    return tokens * block_count(strategy, n)


def create_fusion(strategy: str, n: int, tokens: int, d: int, heads: int,
                  seed: int) -> FusionModule:
    """Initialize strategy parameters for ``n`` total modalities."""
    module = FusionModule(strategy=strategy, heads=heads)
    if n == 1 or strategy == "Concat":
        return module
    rng = component_rng(seed, f"fusion.{strategy}")
    wide = (n - 1) * d
    p = module.params
    if strategy == "SelfGated":
        p["merge"] = affine(rng, wide, d, trainable=True)
    elif strategy == "Linear":
        p["mix"] = TokenMix(w=normal(rng, (n * tokens, tokens), trainable=True))
    elif strategy == "MoE":
        p["gate"] = affine(rng, wide, MOE_EXPERTS, trainable=True)
        p["experts"] = [affine(rng, wide, d, trainable=True)
                        for _ in range(MOE_EXPERTS)]
    elif strategy == "CrossAttention":
        p["prompts"] = normal(rng, (tokens, d), trainable=True)
        p["attn"] = attention_weights(rng, d, trainable=True)
    return module


def _channel_concat(supportive: list[T.Tensor]) -> T.Tensor:
    tcount = supportive[0].shape[1]
    for s in supportive[1:]:
        if s.shape[1] != tcount:
            raise ValueError("supportive token counts differ; equal T required")
    return supportive[0] if len(supportive) == 1 else T.concat(supportive, axis=-1)


def fuse_self_gated(fusion: FusionModule, q_major: T.Tensor,
                    supportive: list[T.Tensor]) -> T.Tensor:
    """[q_major ; g * sigmoid(g)] where g projects the supportive channels."""
    if not supportive:
        raise ValueError("self-gated fusion needs at least one supportive "
                         "modality; with none, fuse_variant passes the major "
                         "tokens through")
    merge = fusion.params["merge"]
    g = T.matmul(_channel_concat(supportive), merge.w) + merge.b
    return T.concat([q_major, T.silu(g)], axis=1)


def _fuse_linear(fusion, q_major, supportive):
    stacked = T.concat([q_major] + supportive, axis=1)     # [B, nT, d]
    flipped = T.transpose(stacked, (0, 2, 1))              # [B, d, nT]
    mixed = T.matmul(flipped, fusion.params["mix"].w)      # [B, d, T]
    return T.transpose(mixed, (0, 2, 1))


def _fuse_moe(fusion, q_major, supportive):
    x = _channel_concat(supportive)                        # [B, T, (n-1)d]
    gate = fusion.params["gate"]
    logits = T.matmul(x, gate.w) + gate.b                  # [B, T, E]
    probs = T.softmax(logits)
    # hard top-1 routing; the selected probability scales the expert output
    # so the gate still receives gradient
    choice = np.argmax(probs.data, axis=-1)
    onehot = np.eye(MOE_EXPERTS, dtype=probs.data.dtype)[choice]
    scaled = probs * T.Tensor(onehot)
    out = None
    for e, expert in enumerate(fusion.params["experts"]):
        column = np.zeros(MOE_EXPERTS, dtype=probs.data.dtype)
        column[e] = 1.0
        weight = T.tsum(scaled * T.Tensor(column), axis=-1, keepdims=True)
        y = T.matmul(x, expert.w) + expert.b
        term = y * weight
        out = term if out is None else out + term
    return T.concat([q_major, out], axis=1)


def _fuse_cross_attention(fusion, q_major, supportive):
    everything = T.concat([q_major] + supportive, axis=1)  # [B, nT, d]
    p = fusion.params
    b = everything.shape[0]
    tcount, d = p["prompts"].shape
    prompts = T.broadcast_to(T.reshape(p["prompts"], (1, tcount, d)),
                             (b, tcount, d))
    attended = attention(prompts, everything, p["attn"], fusion.heads)
    return T.concat([q_major, attended], axis=1)


def fuse_variant(fusion: FusionModule, q_major: T.Tensor,
                 supportive: list[T.Tensor]) -> T.Tensor:
    """Dispatch on the configured strategy: the fused tokens, one block of
    T per entry of the prefix schedule.

    With no supportive modalities every strategy degenerates to passing
    the major tokens through untouched. An unknown strategy fails first,
    by name.
    """
    check_strategy(fusion.strategy)
    if not supportive:
        return q_major
    if fusion.strategy == "SelfGated":
        return fuse_self_gated(fusion, q_major, supportive)
    if fusion.strategy == "Concat":
        return T.concat([q_major] + supportive, axis=1)
    if fusion.strategy == "Linear":
        return _fuse_linear(fusion, q_major, supportive)
    if fusion.strategy == "MoE":
        return _fuse_moe(fusion, q_major, supportive)
    return _fuse_cross_attention(fusion, q_major, supportive)


def create_prefixes(order: list[str], schedule: list[str], d: int,
                    seed: int) -> dict[str, T.Tensor]:
    """The learnable d-vectors that ``schedule`` names, in draw order.

    One vector is drawn per modality of ``order`` and then one for the
    fused block, whatever the schedule, so a kept prefix's initial bytes
    do not depend on which others are kept.
    """
    rng = component_rng(seed, "prefixes")
    drawn = {name: normal(rng, (d,), trainable=True)
             for name in [*order, FUSED_TAG]}
    return {name: t for name, t in drawn.items() if name in schedule}


def prefix_schedule(strategy: str, order: list[str], major: str) -> list[str]:
    """The layout of the fused output: one name per block of T fused
    tokens, in order, each naming the prefix vector that block brings to
    the reasoner input (where every prefix goes first, in this order).

    Concatenation keeps one block per modality, the major's first; the
    merging strategies give the major's block and one "fused" block; a
    single merged block is just "fused".
    """
    check_strategy(strategy)
    if len(order) == 1:
        return [major]
    if strategy == "Concat":
        return [major] + [m for m in order if m != major]
    if strategy == "Linear":
        return [FUSED_TAG]
    return [major, FUSED_TAG]
