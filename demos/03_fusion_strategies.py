"""Five ways to merge modality tokens, and what each costs downstream.

After the backbone summarizes every modality into a fixed set of tokens,
a fusion module decides what the answer head actually reads. The default
self-gated merge keeps the major modality's tokens verbatim and
compresses all supportive tokens into one extra token set via a linear
map scaled by its own sigmoid -- so the downstream sequence length never
depends on how many modalities are attached. The alternatives trade that
budget differently. This script fuses the same inputs under every
strategy and tabulates sequence lengths and estimated reasoning cost as
modalities are added.
"""

import numpy as np

from modfuse import tensor as T
from modfuse.fusion import (STRATEGIES, create_fusion, fuse_variant,
                            prefix_schedule, token_budget)
from modfuse.reasoner import reasoner_flops

TOKENS, D, HEADS = 4, 32, 4
rng = np.random.default_rng(0)


def token_sets(n):
    # float64, as the fusion weights come from their constructor
    return [T.Tensor(rng.normal(size=(2, TOKENS, D))) for _ in range(n)]


print("=== what each strategy emits for 3 modalities ===")
sets = token_sets(3)
for strategy in STRATEGIES:
    fusion = create_fusion(strategy, 3, TOKENS, D, HEADS, seed=0)
    fused = fuse_variant(fusion, sets[0], sets[1:])
    # one block of TOKENS fused tokens per schedule entry, each behind
    # its own prefix vector
    schedule = prefix_schedule(strategy, ["video", "audio", "depth"], "video")
    print(f"{strategy:>14}: {fused.shape[1]} tokens in blocks "
          f"({','.join(schedule)}) + {len(schedule)} prefix tokens")

print()
print("=== sequence budget as modalities are added ===")
header = "modalities " + "".join(f"{s:>16}" for s in STRATEGIES)
print(header)
for n in range(2, 7):
    row = f"{n:>10} "
    for strategy in STRATEGIES:
        row += f"{token_budget(strategy, n, TOKENS):>16}"
    print(row)

print()
print("=== estimated answer-head cost (multiply-accumulates) ===")
print("modalities      SelfGated         Concat   concat/gated")
for n in range(2, 7):
    gated = reasoner_flops(n, TOKENS, 3, "SelfGated", D)
    concat = reasoner_flops(n, TOKENS, 3, "Concat", D)
    print(f"{n:>10} {gated:>14,} {concat:>14,} {concat / gated:>14.2f}")
print()
print("The self-gated column is flat: adding a modality costs one adapter,")
print("not a longer sequence for the answer head to attend over.")
