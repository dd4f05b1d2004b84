"""Corpus ingestion: tokenization, rare-word grouping and vocabulary building.

Raw text is turned into a dense-id token stream over a vocabulary made of
the ``top_k`` most frequent surface tokens plus "pseudo-word" group entries
that pool everything rarer by a coarse morphological tag and exact length
(``<word9>``, ``<numeric3>``, ...).  Pooling the rare words keeps their
context statistics available to the clustering instead of discarding them.

A corpus is a sequence of segments, each a list of tokens, and no bigram
spans two segments.  tokenize lazily yields a text's non-empty segments
(its lines under sentence_boundary="token", else the whole text); the
segments of several files simply follow one another, and
build_vocabulary turns the segment lengths into the stream's break
positions.

Ingest is one streaming pass.  build_vocabulary consumes any one-pass
iterable of segments in blocks of BLOCK_TOKENS tokens; it maps each
block to provisional int32 type ids (first-seen order, one dict for the
whole corpus) and then drops the block's strings, so only one string per
distinct type stays alive.  At the end it counts the types with one
bincount, ranks the vocabulary once and remaps the provisional ids to
final ids through one lookup table.  A segment is tokenized whole, so
under sentence_boundary="none" a file's tokens are all alive together.

Character classes follow Python's own ``str`` predicates: a "word"
character is anything ``isalnum()``, whitespace is ``isspace()`` plus any
non-printable character, and everything else counts as punctuation, whose
maximal runs are tokens too.  The tokenizer classifies only the text's
distinct characters, then builds one pattern ``[word chars]+|[punct
chars]+`` listing exactly those characters and splits the text with it in
a single ``findall`` per segment.

Nothing here touches the disk: tagsplit.cli reads the input files and
writes the vocabulary as TSV (write_vocab_tsv).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigError, IngestionError

LEXICAL = "lexical"
PSEUDO = "pseudo"

_VOWELS = frozenset("aeiouAEIOU")
_PSEUDO_LABEL_RE = re.compile(r"^<(numeric|alphanumeric|word|acronym|nota)(\d+)>$")
_LINE_RE = re.compile(r"[^\n]+")

# Tokens per encoding block.  Small blocks keep the peak low: freed token
# strings would otherwise pin the allocator's arenas.
BLOCK_TOKENS = 1 << 16


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


def tokenize(text: str, options: TokenizerOptions | None = None) -> Iterator[list[str]]:
    """Lazily split text into its non-empty segments of tokens.

    Deterministic and whitespace-free.  With sentence_boundary="token"
    each line is a segment, tokenized only when it is reached; otherwise
    the whole text is one.  The pattern is built when tokenize is called.
    """
    opts = options or TokenizerOptions()
    if opts.lowercase:
        text = text.lower()
    pattern = _token_pattern(text)
    if pattern is None:
        return iter(())
    if opts.sentence_boundary == "token":
        spans = (line.span() for line in _LINE_RE.finditer(text))
    else:
        spans = [(0, len(text))]
    return (seg for a, b in spans if (seg := pattern.findall(text, a, b)))


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


def _encode_block(tokens: Iterator[str], type_id: dict[str, int]) -> np.ndarray:
    """Provisional int32 ids of the next BLOCK_TOKENS tokens (fewer at the
    end, none when exhausted); new types get the next ids in type_id.  The
    block's strings are freed on return."""
    block = list(islice(tokens, BLOCK_TOKENS))
    new = [t for t in dict.fromkeys(block) if t not in type_id]
    type_id.update(zip(new, range(len(type_id), len(type_id) + len(new))))
    return np.fromiter(map(type_id.__getitem__, block), np.int32, len(block))


def build_vocabulary(
    segments: Iterable[list[str]], top_k: int
) -> tuple[Vocabulary, TokenStream]:
    """Build the top-k vocabulary and encode the segments as one stream.

    The top_k most frequent distinct tokens become lexical entries (ties at
    the cut broken lexicographically); every other token is replaced by its
    pseudo-group label.  Tokens that already look like pseudo-group labels
    map straight to their group, which makes decode + rebuild a fixed point.
    Segments are concatenated; the stream breaks where one non-empty
    segment ends and the next begins.  segments may be any iterable (a
    generator such as tokenize's output) and is consumed once, in blocks
    of BLOCK_TOKENS tokens.  Pass a flat token list as [tokens].
    """
    if top_k < 1:
        raise ConfigError(f"top_k must be >= 1, got {top_k}")
    lengths: list[int] = []

    def segment(seg: list[str]) -> list[str]:
        if isinstance(seg, str):
            raise ConfigError("segments must be token lists; pass a flat token list as [tokens]")
        lengths.append(len(seg))
        return seg

    tokens = chain.from_iterable(map(segment, segments))
    type_id: dict[str, int] = {}
    blocks = []
    while len(ids := _encode_block(tokens, type_id)):
        blocks.append(ids)
    if not blocks:
        raise IngestionError("empty token stream: nothing to build a vocabulary from")
    # Free the blocks and the dict as soon as they are copied: held until
    # the return, they fragment the heap under the later allocations and
    # raise the peak RSS (by about 9 MB on 1.6M tokens).
    provisional = np.concatenate(blocks)
    del blocks
    surfaces = list(type_id)
    del type_id
    counts = np.bincount(provisional, minlength=len(surfaces)).tolist()

    plain = [i for i, t in enumerate(surfaces) if not _PSEUDO_LABEL_RE.match(t)]
    plain.sort(key=lambda i: (-counts[i], surfaces[i]))
    lexical = plain[:top_k]
    lexical_set = set(lexical)

    group_counts: Counter[str] = Counter()
    final_surface = surfaces.copy()
    for i, t in enumerate(surfaces):
        if i in lexical_set:
            continue
        label = t if _PSEUDO_LABEL_RE.match(t) else classify_rare(t)
        final_surface[i] = label
        group_counts[label] += counts[i]

    entries = [
        VocabEntry(j, surfaces[i], counts[i], LEXICAL) for j, i in enumerate(lexical)
    ]
    pseudo_labels = sorted(group_counts, key=lambda g: (-group_counts[g], g))
    entries.extend(
        VocabEntry(len(lexical) + i, g, group_counts[g], PSEUDO)
        for i, g in enumerate(pseudo_labels)
    )
    vocab = Vocabulary(entries)

    final_id = np.fromiter(
        map(vocab.index.__getitem__, final_surface), np.int32, len(final_surface)
    )
    sizes = np.array(lengths, dtype=np.int64)
    breaks = np.cumsum(sizes[sizes > 0])[:-1]
    return vocab, TokenStream(ids=final_id[provisional], breaks=breaks)
