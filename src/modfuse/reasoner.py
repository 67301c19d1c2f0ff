"""Frozen answer head: a stand-in for the downstream language model.

Consumes [prefix tokens; fused modality tokens; question tokens],
projects them into its own hidden size (:func:`head_width`, twice the
token width d), runs a frozen transformer encoder of ``HEAD_LAYERS``
layers with full attention and weightless layer norms, mean-pools, and
classifies over the closed answer vocabulary. Like the frozen language
model it stands in for, its shape is fixed rather than configured.
Frozen after random init, so all task-solving capacity must come from
the adapters and the fusion module. A config flag may make the final
classifier trainable; no metrics field names that escape hatch, but its
scalars are counted in the census's ``fusion`` and ``trainable`` entries
and the checkpoint's config text records the flag.

``AnswerHead`` declares its tensors in checkpoint order (``embed``,
``input``, ``layers``, ``classifier``); the registry names them by field
path (``head.input.w``, ``head.layers.<i>.ffn.w1``, ``head.classifier.b``).
The backbone's constructors build them in float64, at the gains below;
only the classifier can be built trainable.
"""

from __future__ import annotations

from dataclasses import dataclass

from modfuse import tensor as T
from modfuse.backbone import (FF_EXPANSION, Affine, AttentionWeights,
                              FeedForward, affine, attention, attention_weights,
                              feed_forward, ffn, normal)
from modfuse.fusion import block_count
from modfuse.rng import component_rng

# Init gains for the frozen reservoir: the ``gain`` of backbone.normal, a
# multiple of the backbone's conservative init scale. At that small scale
# a frozen random transformer is nearly inert: pre-softmax attention
# scores sit within a fraction of a unit of each other (attention
# collapses to uniform pooling) and the gated feed-forward units stay in
# their linear region, so products of question and content tokens never
# reach the classifier. Scaling the frozen matrices up gives sharp,
# input-dependent attention patterns and active nonlinearities, turning
# the head into a usable random-feature reservoir — the same
# spectral-scale tuning that echo-state networks need. Query/key matrices
# get an extra factor because scores are bilinear in them.
HEAD_GAIN = 6.0
ATTN_GAIN = 12.0

HEAD_LAYERS = 2


def head_width(d: int) -> int:
    """The answer head's hidden width for fused tokens of width ``d``."""
    return 2 * d


@dataclass
class HeadLayer:
    attn: AttentionWeights
    ffn: FeedForward


@dataclass
class AnswerHead:
    heads: int
    embed: T.Tensor           # [vocab, d] question-token table
    input: Affine             # [d, width] projection into the head
    layers: list[HeadLayer]
    classifier: Affine        # [width, classes]


def create_head(seed: int, d: int, heads: int, vocab: int, classes: int,
                train_classifier: bool = False) -> AnswerHead:
    rng = component_rng(seed, "head")
    width = head_width(d)
    # drawn in the order embed, input, classifier, layers: the classifier
    # comes before the layers it follows in the checkpoint
    embed = normal(rng, (vocab, d))
    input_map = affine(rng, d, width, gain=HEAD_GAIN)
    classifier = affine(rng, width, classes, gain=HEAD_GAIN,
                        trainable=train_classifier)
    return AnswerHead(heads=heads, embed=embed, input=input_map, layers=[
        HeadLayer(
            attn=attention_weights(rng, width, qk_gain=ATTN_GAIN,
                                   vo_gain=HEAD_GAIN),
            ffn=feed_forward(rng, width, gain=HEAD_GAIN),
        ) for _ in range(HEAD_LAYERS)], classifier=classifier)


def input_length(blocks: int, tokens: int, q_len: int) -> int:
    """The answer head's sequence length: one prefix vector and ``tokens``
    fused tokens per block of the prefix schedule, then the question."""
    return blocks * (tokens + 1) + q_len


def assemble_input(fused: T.Tensor, prefixes: dict[str, T.Tensor],
                   schedule: list[str], lang: T.Tensor) -> T.Tensor:
    """[prefix block; fused tokens; question tokens], all width d.

    The prefix block holds one vector per entry of ``schedule``, in its
    order, all ahead of the fused tokens; ``lang`` holds the embedded
    question tokens. The head mean-pools and has no positional encoding,
    so this order moves only the order of its float sums.
    """
    b, _, d = fused.shape
    if lang.shape[-1] != d:
        raise ValueError(f"question tokens width {lang.shape[-1]} != {d}")
    rows = [T.reshape(prefixes[name], (1, 1, d)) for name in schedule]
    block = T.concat(rows, axis=1) if len(rows) > 1 else rows[0]
    return T.concat([T.broadcast_to(block, (b, len(schedule), d)), fused,
                     lang], axis=1)


def predict(head: AnswerHead, assembled: T.Tensor) -> T.Tensor:
    """Deterministic answer logits [B, classes]; argmax is the prediction."""
    x = T.matmul(assembled, head.input.w) + head.input.b
    for layer in head.layers:
        h = T.layer_norm(x)
        x = x + attention(h, h, layer.attn, head.heads)
        h = T.layer_norm(x)
        x = x + ffn(h, layer.ffn)
    pooled = T.tmean(x, axis=1)
    return T.matmul(pooled, head.classifier.w) + head.classifier.b


def reasoner_flops(n: int, tokens: int, q_len: int, strategy: str,
                   d: int) -> int:
    """Analytic multiply-accumulate estimate for one example.

    The sequence length is :func:`input_length`; the count is dominated
    by attention (seq^2 * width) and feed-forward (seq * width^2) terms.
    """
    width = head_width(d)
    seq = input_length(block_count(strategy, n), tokens, q_len)
    per_layer = 4 * seq * width * width      # q, k, v, o projections
    per_layer += 2 * seq * seq * width       # scores and weighted sum
    per_layer += 2 * FF_EXPANSION * seq * width * width  # feed-forward
    total = HEAD_LAYERS * per_layer
    total += seq * d * width                 # input projection
    total += width                           # pooling
    return int(total)
