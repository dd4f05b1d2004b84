"""Why non-random initialization wins: move counts, not magic.

Random initialization misplaces half the vocabulary on average, so the
single-move search must commit about 0.5 V moves per level.  A perfect-
knowledge mover starting from random bits needs almost as many (the
Monte-Carlo simulation below), while starting everyone in one class only
costs as many moves as the minority class it splits off.

Run:  python3 demos/03_move_economics.py
"""


from tagsplit import (
    ClusterConfig,
    build_vocabulary,
    cluster,
    count_bigrams,
    oracle_min_moves,
)
from tagsplit.synth import markov_text

print("Lower bound on moves from a random start (perfect knowledge):")
for V, target in [(1000, (700, 300)), (1000, (500, 500)), (800, (660, 140))]:
    mean = oracle_min_moves(V, target, trials=100, seed=1)
    print(f"  V={V}, final split {target}: {mean:.1f} moves  (~{mean/V:.2f} V)")

print("\nActual committed moves per level on a synthetic English-like text:")
sentences = markov_text(60_000, n_types=4_000, n_states=20, seed=3)
tokens = [w for s in sentences for w in s]
vocab, stream = build_vocabulary([tokens], 256)
store = count_bigrams(stream, vocab.size)
print(f"  corpus: {len(tokens)} tokens, V={vocab.size}, T={store.T}")

for method in ("m", "znr", "znrp"):
    _, stats = cluster(
        vocab, store, ClusterConfig(strategy=method, levels=5, seed=1)
    )
    moves = [s.committed_moves for s in stats]
    iters = [s.iterations for s in stats]
    secs = sum(s.wall_time for s in stats)
    print(
        f"  {method:<5} moves/level {moves}  iterations/level {iters}"
        f"  total {secs:.1f}s"
    )
print(
    "\nznrp commits up to one move per class being split each iteration,"
    "\nso its iteration count collapses while move totals stay comparable."
)
