"""Per-modality adapters on a shared frozen query transformer.

The backbone is a small query transformer: a bank of learnable query
tokens cross-attends into variable-length feature sequences and returns
a fixed number of summary tokens. It is initialized once and never
trained. Everything a modality needs to learn lives in its adapter: a
pair of low-rank matrices at each attention query/value projection, its
own query tokens, and a projection that aligns raw feature width to the
backbone width. This script shows the three properties that make that
arrangement safe: fresh adapters change nothing, training moves only
adapter bytes, and the trainable footprint stays small.
"""

import hashlib

import numpy as np

from modfuse import tensor as T
from modfuse.adapters import FeatureBatch, mmqa_create, named_tensors
from modfuse.backbone import init_backbone, qformer_forward

D, LAYERS, HEADS, TOKENS, RANK = 32, 2, 4, 4, 4
backbone = init_backbone(seed=0, d=D, layers=LAYERS, heads=HEADS)
adapter = mmqa_create("audio", D, RANK, TOKENS, LAYERS, feat_dim=24, seed=0)

rng = np.random.default_rng(1)
feats = FeatureBatch("audio", rng.normal(size=(2, 6, 24)).astype(np.float32))

print("=== a fresh adapter is exactly neutral ===")
# The down half of every low-rank pair starts at zero, so the adapter's
# correction term is exactly zero and the output matches the adapter-free
# backbone bit for bit -- attaching a new modality cannot disturb an
# existing model.
out = qformer_forward(backbone, adapter, feats)
bare = mmqa_create("audio", D, RANK, TOKENS, LAYERS, feat_dim=24, seed=0)
bare.lora = [{"q": None, "v": None} for _ in bare.lora]
reference = qformer_forward(backbone, bare, feats)
print("adapter output shape:", out.shape)
print("bit-identical to the adapter-free path:",
      np.array_equal(out.data, reference.data))


def digest(named):
    h = hashlib.sha256()
    for _, t in named:
        h.update(t.data.tobytes())
    return h.hexdigest()[:16]


print()
print("=== training moves adapter bytes, never backbone bytes ===")
backbone_before = digest(named_tensors(backbone, "backbone"))
adapter_before = digest(named_tensors(adapter, "audio"))
opt = T.Adam(lr=1e-2)
params = list(named_tensors(adapter, "audio"))
for step in range(20):
    tokens = qformer_forward(backbone, adapter, feats)
    loss = T.tmean(tokens * tokens)  # shrink the summary tokens
    T.backward(loss, leaves=[t for _, t in params])
    opt.step(params)
print(f"loss after 20 steps: {float(loss.data):.5f}")
print("backbone digest unchanged:",
      digest(named_tensors(backbone, "backbone")) == backbone_before)
print("adapter digest changed:   ",
      digest(named_tensors(adapter, "audio")) != adapter_before)

print()
print("=== the trainable footprint ===")
adapter_scalars = sum(t.size for _, t in named_tensors(adapter, "audio"))
backbone_scalars = sum(t.size for _, t in named_tensors(backbone, "backbone"))
formula = LAYERS * 2 * 2 * D * RANK + TOKENS * D + (24 * D + D)
print(f"adapter scalars:  {adapter_scalars:>7,} "
      f"(closed form {formula:,}: two rank-{RANK} pairs per layer, "
      f"{TOKENS} query tokens, one alignment projection)")
print(f"backbone scalars: {backbone_scalars:>7,} (frozen, shared by every "
      f"modality)")
print(f"ratio: {adapter_scalars / backbone_scalars:.1%} of the backbone "
      f"per modality")
