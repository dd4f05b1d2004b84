"""Corpus ingestion: tokenization, rare-word grouping and vocabulary building.

Raw text is turned into a dense-id token stream over a vocabulary made of
the ``top_k`` most frequent surface tokens plus "pseudo-word" group entries
that pool everything rarer by a coarse morphological tag and exact length
(``<word9>``, ``<numeric3>``, ...).  Pooling the rare words keeps their
context statistics available to the clustering instead of discarding them.

A corpus is a list of segments, each a list of tokens, and no bigram
spans two segments.  tokenize returns a text's non-empty segments (its
lines under sentence_boundary="token", else the whole text); the segments
of several files are simply concatenated, and build_vocabulary turns the
segment lengths into the stream's break positions.

Character classes follow Python's own ``str`` predicates: a "word"
character is anything ``isalnum()``, whitespace is ``isspace()`` plus any
non-printable character, and everything else counts as punctuation, whose
maximal runs are tokens too.  The tokenizer classifies only the text's
distinct characters, then builds one pattern ``[word chars]+|[punct
chars]+`` listing exactly those characters and splits the text with it in
a single ``findall`` per segment.  Encoding maps each distinct token to its
id once and converts all tokens to an id array in one numpy pass.

Nothing here touches the disk: tagsplit.cli reads the input files and
writes the vocabulary as TSV (write_vocab_tsv).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import ConfigError, IngestionError

LEXICAL = "lexical"
PSEUDO = "pseudo"

_VOWELS = frozenset("aeiouAEIOU")
_PSEUDO_LABEL_RE = re.compile(r"^<(numeric|alphanumeric|word|acronym|nota)(\d+)>$")


@dataclass(frozen=True)
class TokenizerOptions:
    """Tokenization switches.

    lowercase: fold cased letters before splitting.
    sentence_boundary: "none" treats newlines as whitespace; "token"
        makes each line a segment of its own, so bigrams never cross them.
    """

    lowercase: bool = False
    sentence_boundary: str = "none"

    def __post_init__(self) -> None:
        if self.sentence_boundary not in ("none", "token"):
            raise ConfigError(
                f"sentence_boundary must be 'none' or 'token', got {self.sentence_boundary!r}"
            )


def _char_kind(ch: str) -> int:
    # 0 = separator, 1 = word character, 2 = punctuation
    if ch.isspace() or not ch.isprintable():
        return 0
    if ch.isalnum():
        return 1
    return 2


def _token_pattern(text: str) -> re.Pattern | None:
    """One pattern matching maximal word runs and punctuation runs of text.

    The character classes list exactly the text's own characters of each
    kind, so the split follows _char_kind with no regex approximation of
    Python's str predicates.  None when the text has no token character.
    """
    kinds = {ch: _char_kind(ch) for ch in set(text)}
    runs = []
    for kind in (1, 2):
        chars = "".join(ch for ch, k in kinds.items() if k == kind)
        if chars:
            runs.append(f"[{re.escape(chars)}]+")
    return re.compile("|".join(runs)) if runs else None


def tokenize(text: str, options: TokenizerOptions | None = None) -> list[list[str]]:
    """Split text into its non-empty segments of tokens.

    Deterministic and whitespace-free.  With sentence_boundary="token"
    each line is a segment, otherwise the whole text is one.
    """
    opts = options or TokenizerOptions()
    if opts.lowercase:
        text = text.lower()
    pattern = _token_pattern(text)
    if pattern is None:
        return []
    lines = text.split("\n") if opts.sentence_boundary == "token" else [text]
    return [seg for line in lines if (seg := pattern.findall(line))]


def classify_rare(token: str) -> str:
    """Return the pseudo-word group label for a rare token.

    The label is ``"<" + tag + length + ">"`` where tag is one of
    numeric, alphanumeric, word (alphabetic with at least one of aeiou),
    acronym (alphabetic without), or nota (none of the above).
    """
    if not token:
        raise ValueError("cannot classify an empty token")
    has_alpha = False
    has_digit = False
    other = False
    for ch in token:
        if ch.isalpha():
            has_alpha = True
        elif ch.isdigit():
            has_digit = True
        else:
            other = True
    if other:
        tag = "nota"
    elif has_digit and not has_alpha:
        tag = "numeric"
    elif has_digit and has_alpha:
        tag = "alphanumeric"
    elif any(ch in _VOWELS for ch in token):
        tag = "word"
    else:
        tag = "acronym"
    return f"<{tag}{len(token)}>"


@dataclass(frozen=True)
class VocabEntry:
    word_id: int
    surface: str
    frequency: int
    kind: str  # LEXICAL or PSEUDO


@dataclass
class Vocabulary:
    """Ranked lexicon: dense ids 0..V-1 for lexical and pseudo entries."""

    entries: list[VocabEntry]
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.index = {e.surface: e.word_id for e in self.entries}

    @property
    def size(self) -> int:
        return len(self.entries)

    def id_of(self, surface: str) -> int:
        return self.index[surface]

    def surface_of(self, word_id: int) -> str:
        return self.entries[word_id].surface


@dataclass
class TokenStream:
    """Dense-id encoding of a corpus.

    ids: int32 word ids, one per token.
    breaks: sorted positions p meaning no bigram spans ids[p-1] -> ids[p].
    """

    ids: np.ndarray
    breaks: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def decode(self, vocab: Vocabulary) -> list[str]:
        return [vocab.surface_of(int(i)) for i in self.ids]


def build_vocabulary(
    segments: list[list[str]], top_k: int
) -> tuple[Vocabulary, TokenStream]:
    """Build the top-k vocabulary and encode the segments as one stream.

    The top_k most frequent distinct tokens become lexical entries (ties at
    the cut broken lexicographically); every other token is replaced by its
    pseudo-group label.  Tokens that already look like pseudo-group labels
    map straight to their group, which makes decode + rebuild a fixed point.
    Segments are concatenated; the stream breaks where one non-empty
    segment ends and the next begins.  Pass a flat token list as [tokens].
    """
    if top_k < 1:
        raise ConfigError(f"top_k must be >= 1, got {top_k}")
    if any(isinstance(seg, str) for seg in segments):
        raise ConfigError("segments must be token lists; pass a flat token list as [tokens]")
    lengths = np.fromiter(map(len, segments), np.int64, len(segments))
    n_tokens = int(lengths.sum())
    if n_tokens == 0:
        raise IngestionError("empty token stream: nothing to build a vocabulary from")
    counts = Counter(chain.from_iterable(segments))

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

    entries = [
        VocabEntry(i, t, counts[t], LEXICAL) for i, t in enumerate(lexical)
    ]
    pseudo_labels = sorted(group_counts, key=lambda g: (-group_counts[g], g))
    entries.extend(
        VocabEntry(len(lexical) + i, g, group_counts[g], PSEUDO)
        for i, g in enumerate(pseudo_labels)
    )
    vocab = Vocabulary(entries)

    id_of = {t: vocab.index[group_of.get(t, t)] for t in counts}
    ids = np.fromiter(
        map(id_of.__getitem__, chain.from_iterable(segments)), np.int32, n_tokens
    )
    breaks = np.cumsum(lengths[lengths > 0])[:-1]
    return vocab, TokenStream(ids=ids, breaks=breaks)
