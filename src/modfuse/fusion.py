"""Fusion of supportive-modality tokens into a fixed token budget.

The default strategy merges every supportive modality's query tokens by
channel-wise concatenation, projects them back to the hidden size, and
scales the result elementwise by its own sigmoid before appending it to
the major modality's tokens. The output token count is therefore 2T no
matter how many modalities are attached. Four alternative strategies
(plain concatenation, a learned token-axis map, a top-1 mixture of
experts, and prompt cross-attention) cover the ablation axis.

A strategy's parameters are the component dataclasses the backbone also
uses (``Affine``, ``AttentionWeights``), held in ``FusionModule.params``
under their field names, so the model's walk names them
(``fusion.merge.w``, ``fusion.experts.2.b``, ``fusion.attn.wq``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from modfuse import tensor as T
from modfuse.backbone import INIT_STD, Affine, AttentionWeights, attention
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
    tokens: int     # T, per-modality query token count
    heads: int
    # field name -> tensor, component or list of components
    params: dict[str, object] = field(default_factory=dict)


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
                  seed: int, dtype=np.float32) -> FusionModule:
    """Initialize strategy parameters for ``n`` total modalities."""
    module = FusionModule(strategy=strategy, tokens=tokens, heads=heads)
    if n == 1 or strategy == "Concat":
        return module
    rng = component_rng(seed, f"fusion.{strategy}")
    wide = (n - 1) * d

    def normal(shape):
        return T.Tensor(rng.normal(0.0, INIT_STD, size=shape),
                        requires_grad=True, dtype=dtype)

    def affine(rows, cols):
        return Affine(w=normal((rows, cols)),
                      b=T.Tensor(np.zeros(cols), requires_grad=True,
                                 dtype=dtype))

    p = module.params
    if strategy == "SelfGated":
        p["merge"] = affine(wide, d)
    elif strategy == "Linear":
        p["mix"] = TokenMix(w=normal((n * tokens, tokens)))
    elif strategy == "MoE":
        p["gate"] = affine(wide, MOE_EXPERTS)
        p["experts"] = [affine(wide, d) for _ in range(MOE_EXPERTS)]
    elif strategy == "CrossAttention":
        p["prompts"] = normal((tokens, d))
        p["attn"] = AttentionWeights(wq=normal((d, d)), wk=normal((d, d)),
                                     wv=normal((d, d)), wo=normal((d, d)))
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
    probs = T.softmax(logits, axis=-1)
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
    """Dispatch on the configured strategy: the fused tokens [B, budget, d].

    With no supportive modalities every strategy degenerates to passing
    the major tokens through untouched (token budget T). The budget is
    computed first, so an unknown strategy fails there, by name.
    """
    expected = token_budget(fusion.strategy, len(supportive) + 1, fusion.tokens)
    if not supportive:
        return q_major
    if fusion.strategy == "SelfGated":
        out = fuse_self_gated(fusion, q_major, supportive)
    elif fusion.strategy == "Concat":
        out = T.concat([q_major] + supportive, axis=1)
    elif fusion.strategy == "Linear":
        out = _fuse_linear(fusion, q_major, supportive)
    elif fusion.strategy == "MoE":
        out = _fuse_moe(fusion, q_major, supportive)
    else:
        out = _fuse_cross_attention(fusion, q_major, supportive)
    if out.shape[1] != expected:
        raise AssertionError(f"fused token count {out.shape[1]} "
                             f"violates the budget {expected}")
    return out


def create_prefixes(order: list[str], schedule: list[str], d: int, seed: int,
                    dtype=np.float32) -> dict[str, T.Tensor]:
    """The learnable d-vectors that ``schedule`` names, in draw order.

    One vector is drawn per modality of ``order`` and then one for the
    fused block, whatever the schedule, so a kept prefix's initial bytes
    do not depend on which others are kept.
    """
    rng = component_rng(seed, "prefixes")
    out = {}
    for name in list(order) + [FUSED_TAG]:
        init = rng.normal(0.0, INIT_STD, size=(d,))
        if name in schedule:
            out[name] = T.Tensor(init, requires_grad=True, dtype=dtype)
    return out


def prefix_schedule(strategy: str, order: list[str], major: str) -> list[str]:
    """The layout of the fused output: one name per block of T fused
    tokens, in order, and so the prefix vector that fronts that block in
    the reasoner input.

    Concatenation keeps one block per modality, the major's first; the
    merging strategies give the major's block and one "fused" block; a
    single merged block is just "fused".
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown fusion strategy '{strategy}'")
    if len(order) == 1:
        return [major]
    if strategy == "Concat":
        return [major] + [m for m in order if m != major]
    if strategy == "Linear":
        return [FUSED_TAG]
    return [major, FUSED_TAG]
