"""Corpus ingestion: tokenization, rare-word grouping and vocabulary building.

Raw text is turned into a dense-id token stream over a vocabulary made of
the ``top_k`` most frequent surface tokens plus "pseudo-word" group entries
that pool everything rarer by a coarse morphological tag and exact length
(``<word9>``, ``<numeric3>``, ...).  Pooling the rare words keeps their
context statistics available to the clustering instead of discarding them.

Character classes follow Python's own ``str`` predicates: a "word"
character is anything ``isalnum()``, whitespace is ``isspace()`` plus any
non-printable character, and everything else counts as punctuation.  The
tokenizer classifies only the text's distinct characters, then builds one
pattern ``[word chars]+|[punct chars]+`` listing exactly those characters
and splits the whole text with it in a single ``findall`` (per line when
lines are sentences).  Encoding maps each distinct token to its id once
and converts the token list to an id array in one numpy pass.

Nothing here touches the disk: tagsplit.cli reads the input files and
writes the vocabulary as TSV (write_vocab_tsv).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, IngestionError

# Sentinel emitted between sentences when sentence_boundary="token".
# Tokenization treats non-printable characters as whitespace, so this can
# never be produced from input text.
BOUNDARY_TOKEN = "\x1e"

BOUNDARY_NONE = "none"
BOUNDARY_TOKEN_MODE = "token"

LEXICAL = "lexical"
PSEUDO = "pseudo"

_VOWELS = frozenset("aeiouAEIOU")
_PSEUDO_LABEL_RE = re.compile(r"^<(numeric|alphanumeric|word|acronym|nota)(\d+)>$")


@dataclass(frozen=True)
class TokenizerOptions:
    """Tokenization switches.

    lowercase: fold cased letters before splitting.
    punctuation_as_tokens: emit each maximal punctuation run as a token
        (otherwise punctuation only separates).
    sentence_boundary: "none" treats newlines as whitespace; "token"
        emits BOUNDARY_TOKEN between lines so bigrams never cross them.
    """

    lowercase: bool = False
    punctuation_as_tokens: bool = True
    sentence_boundary: str = BOUNDARY_NONE

    def __post_init__(self) -> None:
        if self.sentence_boundary not in (BOUNDARY_NONE, BOUNDARY_TOKEN_MODE):
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


def _token_pattern(text: str, punctuation_as_tokens: bool) -> re.Pattern | None:
    """One pattern matching maximal word runs (and punctuation runs) of text.

    The character classes list exactly the text's own characters of each
    kind, so the split follows _char_kind with no regex approximation of
    Python's str predicates.  None when the text has no token character.
    """
    kinds = {ch: _char_kind(ch) for ch in set(text)}
    runs = []
    for kind in (1, 2) if punctuation_as_tokens else (1,):
        chars = "".join(ch for ch, k in kinds.items() if k == kind)
        if chars:
            runs.append(f"[{re.escape(chars)}]+")
    return re.compile("|".join(runs)) if runs else None


def tokenize(text: str, options: TokenizerOptions | None = None) -> list[str]:
    """Split text into tokens; deterministic and whitespace-free.

    With sentence_boundary="token" a BOUNDARY_TOKEN separates the tokens
    of consecutive non-empty lines.
    """
    opts = options or TokenizerOptions()
    if opts.lowercase:
        text = text.lower()
    pattern = _token_pattern(text, opts.punctuation_as_tokens)
    if pattern is None:
        return []
    if opts.sentence_boundary == BOUNDARY_TOKEN_MODE:
        out: list[str] = []
        for line in text.split("\n"):
            line_tokens = pattern.findall(line)
            if not line_tokens:
                continue
            if out:
                out.append(BOUNDARY_TOKEN)
            out.extend(line_tokens)
        return out
    return pattern.findall(text)


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

    ids: int32 word ids, one per token (boundary sentinels removed).
    breaks: sorted positions p meaning no bigram spans ids[p-1] -> ids[p].
    """

    ids: np.ndarray
    breaks: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def decode(self, vocab: Vocabulary) -> list[str]:
        return [vocab.surface_of(int(i)) for i in self.ids]


def build_vocabulary(tokens: list[str], top_k: int) -> tuple[Vocabulary, TokenStream]:
    """Build the top-k vocabulary and encode the token sequence.

    The top_k most frequent distinct tokens become lexical entries (ties at
    the cut broken lexicographically); every other token is replaced by its
    pseudo-group label.  Tokens that already look like pseudo-group labels
    map straight to their group, which makes decode + rebuild a fixed point.
    BOUNDARY_TOKEN sentinels become stream break positions.
    """
    if top_k < 1:
        raise ConfigError(f"top_k must be >= 1, got {top_k}")
    counts = Counter(tokens)
    n_tokens = len(tokens) - counts.pop(BOUNDARY_TOKEN, 0)
    if n_tokens == 0:
        raise IngestionError("empty token stream: nothing to build a vocabulary from")

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
    id_of[BOUNDARY_TOKEN] = -1
    codes = np.fromiter(map(id_of.__getitem__, tokens), np.int32, len(tokens))
    is_token = codes >= 0
    # a boundary breaks the stream at the number of tokens before it (its
    # index minus the boundaries before it); a run keeps one break, and
    # none falls at either end.  No corpus-long int64 array is needed.
    at = np.flatnonzero(~is_token)
    pos = at - np.arange(len(at))
    breaks = pos[pos > 0]
    breaks = breaks[np.diff(breaks, append=n_tokens) > 0]
    return vocab, TokenStream(ids=codes[is_token], breaks=breaks)
