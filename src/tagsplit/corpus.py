"""Corpus ingestion: tokenization, rare-word grouping and vocabulary building.

Raw text is turned into a dense-id token stream over a vocabulary made of
the ``top_k`` most frequent surface tokens plus "pseudo-word" group entries
that pool everything rarer by a coarse morphological tag and exact length
(``<word9>``, ``<numeric3>``, ...).  Pooling the rare words keeps their
context statistics available to the clustering instead of discarding them.

A corpus is a sequence of token lists, and no bigram spans the end of a
list or a "\n" token (BREAK) inside one.  Under sentence_boundary="token"
tokenize lazily yields the text in chunks of whole lines, about
CHUNK_CHARS characters each, with a BREAK token for each "\n" of the
text; under "none" it yields the whole text as one list.  The lists of several files
simply follow one another, and build_vocabulary turns the BREAK
positions and the list ends into the stream's break positions.

Ingest is one streaming pass.  build_vocabulary maps each list to
provisional int32 type ids with one np.fromiter over a first-seen-order
dict (one for the whole corpus, BREAK reserved as id 0) and then drops
the list's strings, so only one string per distinct type stays alive.
At the end it drops the BREAK ids and counts the types with bincount.
The per-type work after that is numpy work over all types at once, with
no Python object made per type:

* ranking: one np.partition finds the count of the top_k-th type, and
  only the types at or above it are sorted by (-count, surface);
* grouping: the surfaces are joined and encoded once as UTF-32, each
  distinct character gets classify_rare's flags (alpha, digit, other,
  vowel) in one table, np.bitwise_or.reduceat ORs them per type, and the
  tag and the length give the group; one np.bincount sums the groups, and
  label strings are made for the groups only;
* the pseudo-label pattern runs only on the surfaces that begin with "<";
* one lookup table remaps the provisional ids to final ids.

Under sentence_boundary="none" a file's tokens are all alive together.

Character classes follow Python's own ``str`` predicates: a "word"
character is anything ``isalnum()``, whitespace is ``isspace()`` plus any
non-printable character, and everything else counts as punctuation, whose
maximal runs are tokens too.  The tokenizer classifies only the text's
distinct characters, then builds one pattern ``[word chars]+|[punct
chars]+`` listing exactly those characters (plus ``|\n`` for line breaks)
and splits the text with it in a single ``findall`` per chunk.

Nothing here touches the disk: tagsplit.cli reads the input files and
writes the vocabulary as TSV (write_vocab_tsv).
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, count
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigError, IngestionError

LEXICAL = "lexical"
PSEUDO = "pseudo"

_VOWELS = frozenset("aeiouAEIOU")
# \Z, not $: "$" also matches before a trailing "\n"
_PSEUDO_LABEL_RE = re.compile(r"^<(numeric|alphanumeric|word|acronym|nota)(\d+)>\Z")

# The line-break token: "\n" is whitespace, so no text token equals it.
BREAK = "\n"
# Characters per tokenized chunk, cut after a line break.  Small chunks
# keep the peak low: freed token strings would otherwise pin the
# allocator's arenas.
CHUNK_CHARS = 1 << 16
# Elements per piece of the character scan and of the type count, which
# keeps their temporaries (UTF-32 bytes, bincount's intp copy) small.
_PIECE = 1 << 16


@dataclass(frozen=True)
class TokenizerOptions:
    """Tokenization switches.

    lowercase: fold cased letters before splitting.
    sentence_boundary: "none" treats newlines as whitespace; "token"
        keeps each newline as a BREAK token, so bigrams never cross lines.
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


def _token_pattern(text: str, lines: bool) -> re.Pattern | None:
    """One pattern matching maximal word runs and punctuation runs of text,
    and BREAK when lines is set.

    The character classes list exactly the text's own characters of each
    kind, so the split follows _char_kind with no regex approximation of
    Python's str predicates.  None when the text has no token character.
    """
    # the text's distinct code points; "surrogatepass" keeps a lone
    # surrogate, which _char_kind makes a separator
    seen = np.zeros(0x110000, dtype=bool)
    for a in range(0, len(text), _PIECE):
        piece = text[a : a + _PIECE].encode("utf-32-le", "surrogatepass")
        seen[np.frombuffer(piece, "<u4")] = True
    kinds = {ch: _char_kind(ch) for ch in map(chr, np.flatnonzero(seen).tolist())}
    runs = []
    for kind in (1, 2):
        chars = "".join(ch for ch, k in kinds.items() if k == kind)
        if chars:
            runs.append(f"[{re.escape(chars)}]+")
    if not runs:
        return None
    if lines:
        runs.append(re.escape(BREAK))
    return re.compile("|".join(runs))


def tokenize(text: str, options: TokenizerOptions | None = None) -> Iterator[list[str]]:
    """Lazily split text into non-empty lists of tokens.

    Deterministic, and no token holds whitespace.  With
    sentence_boundary="token" the text is cut into chunks of whole lines,
    about CHUNK_CHARS characters each, each tokenized only when it is
    reached, and each "\n" of the text is a BREAK token; split a list at
    its BREAK tokens to get the lines' tokens.  Otherwise the whole text is
    one list.  The pattern is built when tokenize is called.
    """
    opts = options or TokenizerOptions()
    if opts.lowercase:
        text = text.lower()
    lines = opts.sentence_boundary == "token"
    pattern = _token_pattern(text, lines)
    if pattern is None:
        return iter(())
    return _chunks(text, pattern, CHUNK_CHARS if lines else len(text))


def _chunks(text: str, pattern: re.Pattern, size: int) -> Iterator[list[str]]:
    # each chunk ends just after the first BREAK at or past `size` characters
    a = 0
    while a < len(text):
        b = text.find(BREAK, a + size - 1) + 1 or len(text)
        if tokens := pattern.findall(text, a, b):
            yield tokens
        a = b


def classify_rare(token: str) -> str:
    """Return the pseudo-word group label for a rare token.

    The label is ``"<" + tag + length + ">"`` where tag is one of
    numeric, alphanumeric, word (alphabetic with at least one of aeiou),
    acronym (alphabetic without), or nota (none of the above).
    build_vocabulary groups all rare types at once with the same rules
    (_shapes, _groups); this scalar form is the reference it is tested
    against.
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


# classify_rare's character tests as flag bits; a vowel is alphabetic too
_ALPHA, _DIGIT, _OTHER, _VOWEL = 1, 2, 4, 8
_TAGS = ("nota", "numeric", "alphanumeric", "word", "acronym")
# the _TAGS index of each OR of flags, decided as classify_rare decides it
_TAG_OF_FLAGS = np.array(
    [
        _TAGS.index(
            "nota" if f & _OTHER
            else "numeric" if not f & _ALPHA
            else "alphanumeric" if f & _DIGIT
            else "word" if f & _VOWEL
            else "acronym"
        )
        for f in range(16)
    ]
)


def _char_flags(ch: str) -> int:
    if ch.isalpha():
        return _ALPHA | (_VOWEL if ch in _VOWELS else 0)
    return _DIGIT if ch.isdigit() else _OTHER


def _shapes(surfaces: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each surface's first code point, the OR of its characters' flags,
    and its length in code points.  No surface may be empty."""
    lengths = np.fromiter(map(len, surfaces), np.int64, len(surfaces))
    starts = np.cumsum(lengths) - lengths
    codes = np.frombuffer("".join(surfaces).encode("utf-32-le", "surrogatepass"), "<u4")
    # the table spans only up to the largest code point present, and the
    # flags are worked out once per distinct character
    table = np.zeros(int(codes.max()) + 1, np.uint8)
    table[codes] = 1
    present = np.flatnonzero(table)
    table[present] = [_char_flags(chr(c)) for c in present.tolist()]
    return codes[starts], np.bitwise_or.reduceat(table[codes], starts), lengths


def _rank(surfaces: list[str], counts: np.ndarray, plain: np.ndarray, top_k: int) -> np.ndarray:
    """The first top_k of the types `plain` by (-count, surface).

    Only the types whose count reaches the top_k-th largest are sorted."""
    if len(plain) > top_k:
        c = counts[plain]
        plain = plain[c >= np.partition(c, len(c) - top_k)[len(c) - top_k]]
    kept = plain.tolist()
    ranked = sorted(zip((-counts[plain]).tolist(), map(surfaces.__getitem__, kept), kept))
    return np.array([i for _, _, i in ranked[:top_k]], np.int64)


def _groups(
    surfaces: list[str],
    labels: list[int],
    flags: np.ndarray,
    lengths: np.ndarray,
    shaped: np.ndarray,
) -> tuple[np.ndarray, list[str]]:
    """The pseudo group of each rare type, and each group's label.

    A type listed in `labels` is a pseudo label and joins its own group; a
    `shaped` type joins the group of its tag and length.  The group of any
    other type is undefined.
    """
    group = np.zeros(len(surfaces), np.int64)
    width = int(lengths.max()) + 1
    key = _TAG_OF_FLAGS[flags[shaped]] * width + lengths[shaped]
    # sort and searchsorted, not np.unique: its hash-set and argsort paths
    # raised the novel workloads' peak RSS by 0.4-2.9 MB
    keys = np.sort(key)
    keys = keys[np.diff(keys, prepend=-1) > 0]
    group[shaped] = np.searchsorted(keys, key)
    index = {f"<{_TAGS[k // width]}{k % width}>": g for g, k in enumerate(keys.tolist())}
    for i in labels:
        group[i] = index.setdefault(surfaces[i], len(index))
    return group, list(index)


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


def build_vocabulary(
    segments: Iterable[list[str]], top_k: int
) -> tuple[Vocabulary, TokenStream]:
    """Build the top-k vocabulary and encode the segments as one stream.

    The top_k most frequent distinct tokens become lexical entries (ties at
    the cut broken lexicographically); every other token is replaced by its
    pseudo-group label.  Tokens that already look like pseudo-group labels
    map straight to their group, so decoding and rebuilding is a fixed point.
    Segments are concatenated without their BREAK ("\\n") tokens; the
    stream breaks wherever a segment's end or a BREAK token, one inside a
    caller's segment included, has tokens on both sides.  segments may be
    any iterable (a generator such as tokenize's output) and is consumed
    once.  Pass a flat token list as [tokens].  An empty token raises
    ConfigError.
    """
    if top_k < 1:
        raise ConfigError(f"top_k must be >= 1, got {top_k}")
    # provisional ids in first-seen order, BREAK reserved as 0; a BREAK
    # closes every segment (and one opens the stream, so parts is never
    # empty), which makes each segment end a break
    type_id: defaultdict[str, int] = defaultdict(count(1).__next__, {BREAK: 0})

    def encode(seg: list[str]) -> np.ndarray:
        if isinstance(seg, str):
            raise ConfigError("segments must be token lists; pass a flat token list as [tokens]")
        ids = map(type_id.__getitem__, chain(seg, (BREAK,)))
        return np.fromiter(ids, np.int32, len(seg) + 1)

    parts = [np.zeros(1, np.int32), *map(encode, segments)]
    if "" in type_id:
        raise ConfigError("tokens must be non-empty strings")
    # Free the parts, the raw ids and the dict as soon as they are copied:
    # held until the return, they fragment the heap under the later
    # allocations and raise the peak RSS (by about 9 MB on 1.6M tokens).
    raw = np.concatenate(parts)
    del parts
    at = np.flatnonzero(raw == 0)
    provisional = np.delete(raw, at)
    del raw
    if not len(provisional):
        raise IngestionError("empty token stream: nothing to build a vocabulary from")
    provisional -= 1
    surfaces = list(type_id)[1:]
    del type_id
    counts = sum(
        np.bincount(provisional[a : a + _PIECE], minlength=len(surfaces))
        for a in range(0, len(provisional), _PIECE)
    )

    first, flags, lengths = _shapes(surfaces)
    labels = [
        i
        for i in np.flatnonzero(first == ord("<")).tolist()
        if _PSEUDO_LABEL_RE.match(surfaces[i])
    ]
    plain = np.ones(len(surfaces), bool)
    plain[labels] = False
    lexical = _rank(surfaces, counts, np.flatnonzero(plain), top_k)
    rare = np.ones(len(surfaces), bool)
    rare[lexical] = False
    shaped = rare & plain
    group, names = _groups(surfaces, labels, flags, lengths, shaped)
    # float64 sums of int64 counts are exact below 2**53 tokens
    sizes = np.bincount(group[rare], counts[rare], len(names)).astype(np.int64).tolist()
    order = sorted(range(len(names)), key=lambda g: (-sizes[g], names[g]))

    # Drop the other types' strings before making the vocabulary's objects:
    # made first, those could land in the allocator's arenas that the
    # strings are about to empty, and hold them (about 1 MB of peak RSS).
    words = list(map(surfaces.__getitem__, lexical.tolist()))
    del surfaces
    entries = [
        VocabEntry(j, w, c, LEXICAL)
        for j, (w, c) in enumerate(zip(words, counts[lexical].tolist()))
    ]
    entries.extend(
        VocabEntry(len(lexical) + j, names[g], sizes[g], PSEUDO) for j, g in enumerate(order)
    )
    group_id = np.empty(len(names), np.int32)
    group_id[order] = np.arange(len(lexical), len(entries), dtype=np.int32)
    final_id = np.empty(len(counts), np.int32)
    final_id[lexical] = np.arange(len(lexical), dtype=np.int32)
    final_id[rare] = group_id[group[rare]]
    # the tokens before each BREAK, in ascending order; where tokens follow
    # too, that is a break (np.diff drops repeats)
    cuts = at - np.arange(len(at), dtype=np.int64)
    cuts = cuts[(cuts > 0) & (cuts < len(provisional))]
    breaks = cuts[np.diff(cuts, prepend=0) > 0]
    return Vocabulary(entries), TokenStream(ids=final_id[provisional], breaks=breaks)
