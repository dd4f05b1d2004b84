"""Shared fixtures and independent brute-force oracles.

The oracles recompute everything from the raw text, token segments or id
stream with plain Python loops, deliberately avoiding the package's
compiled patterns, sparse stores and incremental updates so the two routes
stay independent.  build_vocabulary_oracle shares only the package's
rare-word classifier and pseudo-label pattern.  pair_count and
context_vectors are the scalar lookups over a BigramStore that only tests
need, and cells_oracle lists a ContextBank's cells from them word by
word.  line_terms sums the n lg n terms of whole rows and columns of a
class matrix, the booking oracle for a commit confined to them.
context_source and bank_from pick where a ContextBank reads its counts,
so a test can run one state on both sources.  full_rescore makes level 1
rescore every eligible word, as a search without its drift bound would.
plogp_cells counts the scalar oracle's logs.
"""

from __future__ import annotations

import contextlib
import math
from collections import Counter
from typing import NamedTuple

import numpy as np
import pytest

from tagsplit import (
    TokenizerOptions,
    TokenStream,
    Vocabulary,
    classify_rare,
    count_bigrams,
)
from tagsplit import bigram, objective, splitter
from tagsplit.bigram import ContextBank
from tagsplit.corpus import _PSEUDO_LABEL_RE, LEXICAL, PSEUDO, VocabEntry

def make_stream(ids, breaks=()) -> TokenStream:
    return TokenStream(
        ids=np.asarray(ids, dtype=np.int32),
        breaks=np.asarray(list(breaks), dtype=np.int64),
    )


def pair_counts_oracle(ids, breaks=()) -> Counter:
    """Adjacent in-segment pairs tallied by a direct scan."""
    breaks = set(int(b) for b in breaks)
    pairs: Counter = Counter()
    for i in range(1, len(ids)):
        if i in breaks:
            continue
        pairs[(int(ids[i - 1]), int(ids[i]))] += 1
    return pairs


def pair_count(store, w, v) -> int:
    """f(w, v) looked up in the store's successor list."""
    ids, cnts = store.succ(w)
    i = np.searchsorted(ids, v)
    if i < len(ids) and ids[i] == v:
        return int(cnts[i])
    return 0


class Context(NamedTuple):
    """One word's class-context counts; see ContextBank for the meaning."""

    left: np.ndarray
    right: np.ndarray
    self_count: int


def context_vectors(store, assignment, w, C) -> Context:
    """One word's context vectors by a pass over its sparse lists."""
    if w < 0 or w >= store.V:
        raise ValueError(f"unknown word id {w}")
    left = np.zeros(C, dtype=np.int64)
    ids, cnts = store.succ(w)
    np.add.at(left, assignment[ids], cnts)
    right = np.zeros(C, dtype=np.int64)
    ids, cnts = store.pred(w)
    np.add.at(right, assignment[ids], cnts)
    return Context(left, right, int(store.self_count[w]))


def cells_oracle(store, assignment, words, a, C) -> list[tuple]:
    """ContextBank.cells(words, a) word by word from context_vectors."""
    sides = []
    for side in ("left", "right"):
        k, j, x, at_a, at_b = [], [], [], [], []
        for i, (w, c) in enumerate(zip(map(int, words), map(int, a))):
            ctx = getattr(context_vectors(store, assignment, w, C), side)
            at_a.append(ctx[c])
            at_b.append(ctx[c ^ 1])
            for col in np.flatnonzero(ctx):
                if col not in (c, c ^ 1):
                    k.append(i)
                    j.append(col)
                    x.append(ctx[col])
        sides.append(tuple(np.array(v, dtype=np.int64) for v in (k, j, x, at_a, at_b)))
    return sides


@contextlib.contextmanager
def context_source(source: str):
    """Every ContextBank built inside reads its counts from `source`,
    "rows" or "edges", at every class count."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bigram, "keeps_rows", lambda store, C: source == "rows")
        yield


@contextlib.contextmanager
def full_rescore():
    """Every level-1 step inside rescores every eligible word: an infinite
    margin makes every kept delta's slack infinite."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(splitter, "DRIFT_MARGIN", np.inf)
        yield


def bank_from(source: str, store, assignment, C) -> ContextBank:
    """A ContextBank over `assignment` that reads its counts from `source`."""
    with context_source(source):
        bank = ContextBank(store, assignment, C)
    assert bank.dense == (source == "rows")
    return bank


def _char_kind_oracle(ch: str) -> int:
    # 0 = separator, 1 = word character, 2 = punctuation
    if ch.isspace() or not ch.isprintable():
        return 0
    if ch.isalnum():
        return 1
    return 2


def _tokenize_line_oracle(line: str) -> list[str]:
    tokens: list[str] = []
    start = -1
    kind = 0
    for i, ch in enumerate(line):
        k = _char_kind_oracle(ch)
        if k != kind:
            if kind != 0:
                tokens.append(line[start:i])
            start, kind = i, k
    if kind != 0:
        tokens.append(line[start:])
    return tokens


def tokenize_oracle(text: str, options: TokenizerOptions) -> list[list[str]]:
    """The tokenizer as a per-character scan: the non-empty token list of
    each line, or of the whole text when lines are not segments."""
    if options.lowercase:
        text = text.lower()
    lines = text.split("\n") if options.sentence_boundary == "token" else [text]
    segments = []
    for line in lines:
        line_tokens = _tokenize_line_oracle(line)
        if line_tokens:
            segments.append(line_tokens)
    return segments


def build_vocabulary_oracle(segments: list[list[str]], top_k: int):
    """build_vocabulary with per-segment count and encode loops."""
    counts: Counter[str] = Counter()
    for segment in segments:
        for t in segment:
            counts[t] += 1
    plain = [t for t in counts if not _PSEUDO_LABEL_RE.match(t)]
    plain.sort(key=lambda t: (-counts[t], t))
    lexical = plain[:top_k]
    lexical_set = set(lexical)

    group_counts: Counter[str] = Counter()
    group_of: dict[str, str] = {}
    for t, c in counts.items():
        if t in lexical_set:
            continue
        label = t if _PSEUDO_LABEL_RE.match(t) else classify_rare(t)
        group_of[t] = label
        group_counts[label] += c

    entries = [VocabEntry(i, t, counts[t], LEXICAL) for i, t in enumerate(lexical)]
    pseudo_labels = sorted(group_counts, key=lambda g: (-group_counts[g], g))
    entries.extend(
        VocabEntry(len(lexical) + i, g, group_counts[g], PSEUDO)
        for i, g in enumerate(pseudo_labels)
    )
    vocab = Vocabulary(entries)

    ids = np.empty(sum(counts.values()), dtype=np.int32)
    breaks: list[int] = []
    pos = 0
    for segment in segments:
        if not segment:
            continue
        if pos > 0:
            breaks.append(pos)
        for t in segment:
            surface = t if t in lexical_set else group_of[t]
            ids[pos] = vocab.index[surface]
            pos += 1
    return vocab, TokenStream(ids=ids, breaks=np.array(breaks, dtype=np.int64))


def class_matrix_oracle(ids, assignment, C, breaks=()) -> np.ndarray:
    """Class-bigram table recomputed from the raw stream."""
    N = np.zeros((C, C), dtype=np.int64)
    for (w, v), c in pair_counts_oracle(ids, breaks).items():
        N[int(assignment[w]), int(assignment[v])] += c
    return N


def context_oracle(ids, assignment, w, C, breaks=()) -> tuple[np.ndarray, np.ndarray, int]:
    """One word's class-context vectors recomputed from the raw stream."""
    left = np.zeros(C, dtype=np.int64)
    right = np.zeros(C, dtype=np.int64)
    self_count = 0
    for (u, v), c in pair_counts_oracle(ids, breaks).items():
        if u == w:
            left[int(assignment[v])] += c
        if v == w:
            right[int(assignment[u])] += c
        if u == w and v == w:
            self_count = c
    return left, right, self_count


def acmi_oracle(N) -> float:
    """Term-by-term evaluation of the mutual-information sum."""
    N = np.asarray(N)
    T = N.sum()
    row = N.sum(axis=1)
    col = N.sum(axis=0)
    total = 0.0
    for i in range(N.shape[0]):
        for j in range(N.shape[1]):
            if N[i, j] > 0:
                p = N[i, j] / T
                total += p * math.log2(p / ((row[i] / T) * (col[j] / T)))
    return total


def line_terms(matrix, classes) -> float:
    """T * ACMI's share from rows and columns `classes` (distinct ids).

    sum n lg n over their cells, each intersection once, minus the same
    over their row and column marginals.  An update confined to those
    lines changes ACMI by exactly (after - before) / T.
    """
    def h(x):
        x = x[x > 0].astype(np.float64)
        return float(np.dot(x, np.log2(x)))

    N = matrix.counts
    s = -h(np.concatenate((matrix.row[classes], matrix.col[classes])))
    for lines, counted in ((N, []), (N.T, classes)):
        block = lines[classes]
        block[:, counted] = 0  # each intersection once, in the rows
        s += h(block)
    return s


def random_instance(seed, V=None, length=None, C=4):
    """A random stream + assignment + store + matrix, reproducible by seed."""
    rng = np.random.default_rng(seed)
    V = V or int(rng.integers(5, 51))
    length = length or int(rng.integers(2 * V, 2001))
    ids = rng.integers(0, V, length).astype(np.int32)
    n_breaks = int(rng.integers(0, max(1, length // 50)))
    breaks = np.unique(rng.integers(1, length, n_breaks)) if n_breaks else []
    stream = make_stream(ids, breaks)
    assignment = rng.integers(0, C, V).astype(np.int32)
    store = count_bigrams(stream, V)
    return stream, assignment, store


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def plogp_cells(monkeypatch):
    """The cell count of each objective._plogp call: the oracle's logs."""
    passed = []
    plogp = objective._plogp

    def counted(x, line, cross, T):
        passed.append(len(x))
        return plogp(x, line, cross, T)

    monkeypatch.setattr(objective, "_plogp", counted)
    return passed
