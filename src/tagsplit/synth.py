"""Deterministic English-like corpora for benchmarking.

Clustering benchmarks want a text of realistic scale: on the order of
10^5 tokens, a few thousand word types with a Zipfian frequency profile,
and genuine word-class structure for the objective to find.  When no real
text is at hand this module synthesizes one from a hidden-state chain:
states play the role of syntactic classes (a few closed classes holding
very frequent function-like words, many open classes holding long Zipfian
tails), transitions are sparse and skewed, and emissions within a state
are Zipf-distributed.  Output is reproducible from the seed alone.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .errors import ConfigError


def zipf_weights(n: int, exponent: float = 1.05) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    return w / w.sum()


def markov_text(
    n_tokens: int,
    n_types: int = 6500,
    n_states: int = 24,
    seed: int = 0,
    mean_sentence_len: float = 12.0,
) -> list[list[str]]:
    """Generate sentences totalling ~n_tokens over an n_types lexicon.

    Returns a list of sentences (lists of word strings) so callers can
    write one per line.  Word w{i} belongs to exactly one hidden state.
    """
    if n_tokens < 1 or n_types < n_states or n_states < 2:
        raise ConfigError("need n_tokens >= 1 and n_types >= n_states >= 2")
    rng = np.random.default_rng(seed)

    # closed states get few, very frequent words; open states share the rest
    n_closed = min(max(2, n_states // 4), n_states - 1)
    closed_sizes = np.minimum(
        rng.integers(3, 9, n_closed), max(1, n_types // (2 * n_closed))
    )
    remaining = n_types - int(closed_sizes.sum())
    open_share = rng.dirichlet(np.full(n_states - n_closed, 1.5))
    open_sizes = np.maximum(1, (open_share * remaining).astype(np.int64))
    while open_sizes.sum() > remaining:
        open_sizes[np.argmax(open_sizes)] -= 1
    open_sizes[np.argmax(open_sizes)] += remaining - int(open_sizes.sum())
    sizes = np.concatenate([closed_sizes, open_sizes])

    # each state's words; every token of a word is the one str object
    names = [f"w{i}" for i in range(n_types)]
    members: list[list[str]] = []
    start = 0
    for s in sizes.tolist():
        members.append(names[start : start + s])
        start += s

    # sparse, skewed transitions: each state prefers a handful of successors
    trans = np.zeros((n_states, n_states))
    for i in range(n_states):
        fanout = int(rng.integers(3, min(9, n_states)))
        nxt = rng.choice(n_states, size=fanout, replace=False)
        trans[i, nxt] = rng.dirichlet(np.full(fanout, 0.6))
    # closed states are everyone's glue: boost flow through them
    for i in range(n_states):
        glue = rng.integers(0, n_closed)
        trans[i, glue] += 0.8
    trans /= trans.sum(axis=1, keepdims=True)

    # rng.choice(n, p=p) draws one double u and returns the first index
    # whose cdf, built as below, exceeds u; drawing a sentence's doubles at
    # once and bisecting gives the same text far faster
    emit = [_cdf(zipf_weights(len(m))) for m in members]
    step = [_cdf(row) for row in trans]
    start_dist = zipf_weights(n_states, 0.8)

    sentences: list[list[str]] = []
    produced = 0
    state = int(rng.choice(n_states, p=start_dist))
    while produced < n_tokens:
        length = max(2, int(rng.geometric(1.0 / mean_sentence_len)))
        u = rng.random(2 * length).tolist()
        sent = []
        for i in range(0, 2 * length, 2):
            sent.append(members[state][bisect_right(emit[state], u[i])])
            state = bisect_right(step[state], u[i + 1])
        sentences.append(sent)
        produced += len(sent)
    return sentences


def _cdf(p: np.ndarray) -> list[float]:
    # as Generator.choice builds it from p; a state with no words has none
    cdf = p.cumsum()
    return (cdf / cdf[-1]).tolist() if len(cdf) else []
