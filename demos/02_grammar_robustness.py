"""Recover a toy grammar's word classes and score them against gold truth.

A 16-production grammar over 29 words generates corpora whose true word
classes are known, so induced tag trees can be graded mechanically:
dendrogram purity per gold group plus a noun/verb separation check at the
first bit.  The non-random strategies stay clean down to 2,000 sentences;
at 1,000 everything starts to wobble.

Run:  python3 demos/02_grammar_robustness.py
"""

from tagsplit import ClusterConfig, build_vocabulary, cluster, count_bigrams
from tagsplit.elman import evaluate, generate

for n_sentences in (10_000, 2_000, 1_000):
    print(f"\n=== {n_sentences} sentences ===")
    for method in ("znr", "znrp", "m"):
        tokens = generate(n_sentences, seed=1)
        vocab, stream = build_vocabulary([tokens], 29)
        store = count_bigrams(stream, vocab.size)
        tags, _ = cluster(
            vocab, store, ClusterConfig(strategy=method, levels=6, seed=1)
        )
        report = evaluate(tags)
        worst = min(report.per_group_purity.items(), key=lambda kv: kv[1])
        print(
            f"  {method:<5} separation={report.level1_separation!s:<5}"
            f" purity={report.dendrogram_purity:.3f}"
            f" error={report.error_label:<6} worst group {worst[0]}={worst[1]:.2f}"
        )

print("\nA full tag tree for the 10k corpus (znrp):")
tokens = generate(10_000, seed=1)
vocab, stream = build_vocabulary([tokens], 29)
store = count_bigrams(stream, vocab.size)
tags, _ = cluster(vocab, store, ClusterConfig(strategy="znrp", levels=6))
for r in sorted(tags.rows, key=lambda r: r.bits):
    print(f"  {r.bits:<7} {r.surface}")
