"""The synthetic benchmark, and exactly how much each modality knows.

Every example draws one hidden symbol per modality, renders each symbol
as that modality's feature sequence (a codebook row plus noise), and
asks one of three question templates: read one modality's symbol
(unimodal), compare two modalities (equal), or count how many modalities
show a given symbol (count). Because the generative process is fully
known, the best possible accuracy for any subset of visible modalities
is computable by enumeration -- an exact yardstick no learned model can
beat, only approach. That yardstick is what makes the benchmark useful:
a model that sees only one modality has a hard information ceiling on
cross-modal templates, so clearing that ceiling is proof that fusion is
actually reading the other modalities.
"""

import numpy as np

from modfuse.bench import (BenchModality, BenchSpec, TEMPLATES, gen_dataset,
                           split_easy_hard, unimodal_bayes_accuracy)

spec = BenchSpec(modalities=(BenchModality("video", 16, 8),
                             BenchModality("audio", 24, 6),
                             BenchModality("depth", 48, 4)),
                 train_size=512, test_size=4096, seed=0)
train, test = gen_dataset(spec)

print("=== one decoded example per template ===")
names = spec.names
for want in range(len(TEMPLATES)):
    i = int(np.flatnonzero(test.template_ids == want)[0])
    q = test.questions[i]
    print(f"{TEMPLATES[want]:>9}: question tokens {q.tolist()} "
          f"-> answer class {test.answers[i]}")
print("feature shapes:", {m: v.shape for m, v in test.features.items()})
print("(question tokens index a closed vocabulary: template id, then")
print(" modality or symbol arguments; features are noisy codebook rows)")

print()
print("=== exact accuracy ceilings by visible subset ===")
print(f"{'visible':>20} {'unimodal':>9} {'equal':>9} {'count':>9}")
for visible in (["video"], ["video", "audio"], ["video", "audio", "depth"]):
    bounds = unimodal_bayes_accuracy(spec, visible)
    print(f"{'+'.join(visible):>20} "
          f"{bounds['unimodal']:>9.4f} {bounds['equal']:>9.4f} "
          f"{bounds['count']:>9.4f}")
print("With every modality visible the task is exactly solvable; with")
print("one modality, 'equal' caps at 0.80 (guess the 4-in-5 'no') and")
print("'count' at 0.64 (both hidden modalities must miss the symbol).")

print()
print("=== the easy/hard split is defined by a reference model ===")
# In the harness the reference is a trained single-modality checkpoint
# and the split partitions test examples by its correctness. Here a
# scripted predictor at the video-only count ceiling stands in, just to
# show the mechanics.
rng = np.random.default_rng(0)
scripted = np.where(rng.random(len(test)) < 0.64, test.answers,
                    (test.answers + 1) % spec.classes)
easy, hard = split_easy_hard(scripted, test)
print(f"a reference at 64% accuracy marks {len(easy)} examples easy, "
      f"{len(hard)} hard")
print("the multimodal model is then judged separately on the hard part,")
print("where single-modality shortcuts are guaranteed to fail.")
