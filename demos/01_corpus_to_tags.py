"""End-to-end walk: raw text -> vocabulary -> bigrams -> structured tags.

Run:  python3 demos/01_corpus_to_tags.py
"""

import io

from tagsplit import (
    ClusterConfig,
    TokenizerOptions,
    build_vocabulary,
    cluster,
    count_bigrams,
    tokenize,
)
from tagsplit.cli import write_vocab_tsv

TEXT = """
the cat sat on the mat . the dog sat on the rug .
a cat chased the dog , and the dog chased a mouse .
the mouse hid under the mat ; the cat slept on the rug .
dogs chase cats , cats chase mice , mice fear cats .
""" * 40

# 1. Tokenize.  Punctuation runs become tokens of their own, matching how
#    novels are usually profiled for class induction.  tokenize yields a
#    text's tokens as one flat, lazy stream.  Here newlines are plain
#    whitespace, so bigrams span lines.
tokens = list(tokenize(TEXT, TokenizerOptions(lowercase=True)))
print(f"{len(tokens)} tokens, e.g. {tokens[:12]}")

# 2. Keep the 12 most frequent words; pool the rest as pseudo-words by
#    morphological shape and length, so their bigram mass still counts.
#    The corpus is a list of segments, and no bigram spans two: this text
#    is one segment.
vocab, stream = build_vocabulary([tokens], top_k=12)
print(f"\nvocabulary (V={vocab.size}):")
buf = io.StringIO()
write_vocab_tsv(buf, vocab)
print(buf.getvalue())

# 3. Count word bigrams and cluster: each level appends one bit to every
#    word's class id, greedily maximizing average class mutual information.
store = count_bigrams(stream, vocab.size)
tags, stats = cluster(vocab, store, ClusterConfig(strategy="znrp", levels=4))

print("level  iters  moves  acmi_before -> acmi_after")
for s in stats:
    print(
        f"{s.level:5d}  {s.iterations:5d}  {s.committed_moves:5d}"
        f"  {s.acmi_before:.6f} -> {s.acmi_after:.6f}"
    )

print("\nstructured tags (shared prefixes = closer classes):")
for r in sorted(tags.rows, key=lambda r: r.bits):
    print(f"  {r.bits:<6} {r.surface:<14} freq {r.frequency}")
