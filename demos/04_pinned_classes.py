"""Pre-assigning closed classes: pin words to a subtree, recluster the rest.

Closed-class words (determiners, prepositions, ...) tend to claim a large
share of the class space.  Pinning fixes their bit paths up front: they
keep contributing bigram mass, the search never moves them, and the whole
remaining tree serves the open-class words.  The workflow is two runs:
cluster shallow, hand over the closed-class list as a pin file, recluster.

Run:  python3 demos/04_pinned_classes.py
"""

from tagsplit import ClusterConfig, build_vocabulary, cluster, count_bigrams
from tagsplit.elman import ELMAN_GOLD, generate

tokens = generate(10_000, seed=1)
vocab, stream = build_vocabulary([tokens], 29)
store = count_bigrams(stream, vocab.size)

verbs = sorted(w for w, p in ELMAN_GOLD.pos.items() if p == "verb")
print(f"pinning {len(verbs)} verbs under prefix '1': {', '.join(verbs)}")

pinned = ClusterConfig(strategy="znrp", levels=5, pinned={w: "1" for w in verbs})
tags, stats = cluster(vocab, store, pinned)

bits = tags.bits_by_surface()
assert all(bits[w].startswith("1") for w in verbs)
moved = {w for s in stats for w in s.moved_words}
assert not moved & {vocab.index[w] for w in verbs}

print("\nnoun subtree ('0...') gets the full class space:")
for r in sorted(tags.rows, key=lambda r: r.bits):
    marker = "pinned" if r.surface in verbs else ""
    print(f"  {r.bits:<6} {r.surface:<10} {marker}")

total_moves = sum(s.committed_moves for s in stats)
unpinned_tags, unpinned_stats = cluster(
    vocab, store, ClusterConfig(strategy="znrp", levels=5)
)
print(
    f"\ncommitted moves with pins: {total_moves}, without:"
    f" {sum(s.committed_moves for s in unpinned_stats)}"
)
