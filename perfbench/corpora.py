"""Seeded benchmark inputs, generated once and cached on disk.

Two corpora, each a plain UTF-8 text with one sentence per line.  The
seed changes the layout of the text but never its token statistics, so
every seed gives the same vocabulary, bigram table and search.  This is
deliberate: the greedy search is chaotic in its input.  On a 2-vCPU VM,
rotating the novel corpus's sentence order, which changes two bigram
counts, moved one seed in five from about 13 s to 16 s of znrp search; a
full reshuffle spread it from 537 to 736 iterations; and fresh brown
samples moved the corpus-ingest search by a third.  Input noise of that
size would bury any change under the benchmark's bounds.

  novel  The ROADMAP reference corpus, ``tagsplit.synth.markov_text(
         140_000, n_types=10_000, n_states=24, seed=7)``, re-wrapped into
         lines of seed-chosen lengths.  Its workloads read newlines as
         plain whitespace, so the token stream is the same for every seed.
         About 5 s to generate, once.
  brown  A Brown-corpus-scale text (about 1.6M tokens, 40k types) from the
         same kind of hidden-state chain, sampled with vectorised numpy
         (markov_text would take about 47 s), with its sentences shuffled
         by the seed.  Its workload keeps bigrams inside sentences, so the
         shuffle changes no count.  Word ids are mapped to varied surfaces
         (capitalised, attached punctuation, numerals, vowel-less acronyms,
         letter-digit mixes and punctuation runs) so every tokenizer branch
         runs and rare words fall into all five pseudo-word groups.

``ensure(name, seed, cache_dir)`` returns the path of the cached text and
writes it first if needed.  Cached file names carry the seed and a digest
of the generator sources (this file and, for novel, synth.py), so a
changed generator never reuses a stale file.  Generation time is never
part of any metric.
"""

from __future__ import annotations

import bisect
import hashlib
import os
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SYNTH_SRC = HERE.parent / "src" / "tagsplit" / "synth.py"

NOVEL = {"n_tokens": 140_000, "n_types": 10_000, "n_states": 24, "seed": 7}
BROWN = {"n_tokens": 1_500_000, "n_types": 40_000, "n_states": 40, "seed": 1996}
PARAMS = {"novel": NOVEL, "brown": BROWN}

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]  # 70
_CONSONANTS = "bcdfghjklmnpqrstvwxz"  # 20, no vowels and no y
_PUNCT = "!?;:-~*#&%@+=^|"


def _zipf(n: int, exponent: float = 1.05) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    return w / w.sum()


def _digits(n: int, alphabet) -> list:
    """n written in base len(alphabet), most significant symbol first."""
    out = [alphabet[n % len(alphabet)]]
    n //= len(alphabet)
    while n:
        out.append(alphabet[n % len(alphabet)])
        n //= len(alphabet)
    return out[::-1]


def _surface(word: int, kind: int) -> str:
    stem = "".join(_digits(word, _SYLLABLES))
    if kind == 0:
        return stem
    if kind == 1:
        return stem.capitalize()
    if kind == 2:
        return "".join(_digits(word, _CONSONANTS)).upper()
    if kind == 3:
        return str(1000 + word)
    if kind == 4:
        return stem + str(word % 97)
    if kind == 5:
        return "".join(_digits(word, _PUNCT)) + _PUNCT[word % 3]
    if kind == 6:
        return stem + ","
    if kind == 7:
        return "(" + stem + ")"
    return stem[:2] + "'" + stem[2:]


# surface kinds for open-class words: plain, Capitalised, ACRONYM, numeric,
# alpha+digits, punctuation run, trailing comma, parenthesised, apostrophe
_KIND_SHARE = [0.55, 0.14, 0.05, 0.07, 0.05, 0.03, 0.05, 0.03, 0.03]


def brown_text(n_tokens: int, n_types: int, n_states: int, seed: int) -> str:
    rng = np.random.default_rng(seed)
    n_closed = n_states // 4
    closed = rng.integers(4, 16, n_closed)
    open_share = rng.dirichlet(np.full(n_states - n_closed, 1.5))
    open_sizes = np.maximum(1, (open_share * (n_types - closed.sum())).astype(np.int64))
    sizes = np.concatenate([closed, open_sizes])
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    trans = np.zeros((n_states, n_states))
    for i in range(n_states):
        fanout = int(rng.integers(3, 9))
        trans[i, rng.choice(n_states, size=fanout, replace=False)] = rng.dirichlet(
            np.full(fanout, 0.6)
        )
        trans[i, rng.integers(0, n_closed)] += 0.8
    kinds = rng.choice(len(_KIND_SHARE), size=int(offsets[-1]), p=_KIND_SHARE)
    kinds[: offsets[n_closed]] = 0  # function words stay plain
    surfaces = [_surface(w, int(k)) for w, k in enumerate(kinds)]
    cdf = np.cumsum(trans / trans.sum(axis=1, keepdims=True), axis=1)
    cdf[:, -1] = 1.0
    rows = [r.tolist() for r in cdf]
    states = [0] * n_tokens
    s = 0
    for i, u in enumerate(rng.random(n_tokens).tolist()):
        states[i] = s
        s = bisect.bisect_right(rows[s], u)
    states = np.array(states)

    words = np.empty(n_tokens, dtype=np.int64)
    for st in range(n_states):
        at = np.nonzero(states == st)[0]
        words[at] = offsets[st] + rng.choice(sizes[st], size=len(at), p=_zipf(int(sizes[st])))

    lengths = rng.geometric(1.0 / 20.0, size=n_tokens // 2 + 1)
    ends = np.cumsum(np.maximum(lengths, 2))
    ends = ends[: int(np.searchsorted(ends, n_tokens)) + 1]
    ends[-1] = n_tokens
    tokens = [surfaces[w] for w in words.tolist()]
    lines = []
    start = 0
    for end in ends.tolist():
        sent = tokens[start:end]
        sent[0] = sent[0][:1].upper() + sent[0][1:]  # sentence-initial capital
        lines.append(" ".join(sent))
        start = end
    return "\n".join(lines) + "\n"


def novel_text(n_tokens: int, n_types: int, n_states: int, seed: int) -> str:
    from tagsplit.synth import markov_text

    sents = markov_text(n_tokens, n_types=n_types, n_states=n_states, seed=seed)
    return "".join(" ".join(s) + "\n" for s in sents)


def shuffled(text: str, seed: int) -> str:
    lines = text.splitlines(keepends=True)
    return "".join(lines[i] for i in np.random.default_rng(seed).permutation(len(lines)))


def rewrapped(text: str, seed: int) -> str:
    tokens = text.split()
    ends = np.cumsum(np.random.default_rng(seed).geometric(1.0 / 12.0, size=len(tokens)))
    ends = [0, *ends[ends < len(tokens)].tolist(), len(tokens)]
    return "".join(" ".join(tokens[a:b]) + "\n" for a, b in zip(ends, ends[1:]))


def _cached(path: Path, make) -> Path:
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(make(), encoding="utf-8", newline="\n")
        os.replace(tmp, path)
    return path


def ensure(name: str, seed: int, cache_dir: Path) -> Path:
    """Path of the cached corpus `name` for `seed`, generating it if absent."""
    key = hashlib.sha256(Path(__file__).read_bytes())
    if name == "novel":
        key.update(SYNTH_SRC.read_bytes())
        make, relayout = (lambda: novel_text(**NOVEL)), rewrapped
    elif name == "brown":
        make, relayout = (lambda: brown_text(**BROWN)), shuffled
    else:
        raise ValueError(f"unknown corpus {name!r}")
    tag = key.hexdigest()[:12]
    base = _cached(cache_dir / f"{name}-base-{tag}.txt", make)
    return _cached(
        cache_dir / f"{name}-s{seed}-{tag}.txt",
        lambda: relayout(base.read_text(encoding="utf-8"), seed),
    )
