"""Synthetic test grammar and scoring of induced tags against it.

A tiny 16-production sentence grammar over 12 word classes (29 distinct
words) generates corpora with known structure: sentences are two or three
slots, each slot names a word class, and both the production and the word
within each class are drawn uniformly.  No punctuation or end-of-sentence
marker is emitted.

The gold reference flattens the grammar to disjoint word groups plus a
noun/verb label per word.  Two words are genuinely ambiguous across the
grammar's classes ("break" doubles as a food noun and two kinds of verb,
"see" sits in two verb classes); they are excluded from the groups and
from purity leaf sets, though "see" still counts as a verb for the
top-level noun/verb separation check.

Scoring: for every unordered in-group pair, take the deepest tag-tree node
containing both (their longest common tag prefix) and measure what
fraction of the labelled words under that node belongs to the group.
Group purity is the mean over the group's pairs; dendrogram purity pools
all pairs.  A clean subtree per group scores 1.0.

This module holds only the grammar and the scoring; the gold reference's
TSV form is read and written by tagsplit.cli (read_gold_tsv,
write_gold_tsv), which owns every on-disk format.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, CoverageError
from .splitter import TagTable

SENTENCE_PRODUCTIONS: tuple[tuple[str, ...], ...] = (
    ("noun-human", "verb-eat", "noun-food"),
    ("noun-human", "verb-percept", "noun-inan"),
    ("noun-human", "verb-destroy", "noun-fragile"),
    ("noun-human", "verb-intran"),
    ("noun-human", "verb-tran", "noun-human"),
    ("noun-human", "verb-agpat", "noun-inan"),
    ("noun-human", "verb-agpat"),
    ("noun-anim", "verb-eat", "noun-food"),
    ("noun-anim", "verb-tran", "noun-anim"),
    ("noun-anim", "verb-agpat", "noun-inan"),
    ("noun-anim", "verb-agpat"),
    ("noun-inan", "verb-agpat"),
    ("noun-agress", "verb-destroy", "noun-fragile"),
    ("noun-agress", "verb-eat", "noun-human"),
    ("noun-agress", "verb-eat", "noun-anim"),
    ("noun-agress", "verb-eat", "noun-food"),
)

WORD_CLASSES: dict[str, tuple[str, ...]] = {
    "noun-human": ("man", "woman", "girl", "boy"),
    "noun-anim": (
        "cat", "mouse", "dog", "man", "woman", "girl", "boy",
        "dragon", "monster", "lion",
    ),
    "noun-inan": (
        "book", "rock", "car", "cookie", "break", "bread", "sandwich",
        "glass", "plate",
    ),
    "noun-agress": ("dragon", "monster", "lion"),
    "noun-fragile": ("glass", "plate"),
    "noun-food": ("cookie", "break", "bread", "sandwich"),
    "verb-intran": ("think", "sleep", "exist"),
    "verb-tran": ("see", "chase", "like"),
    "verb-agpat": ("move", "break"),
    "verb-percept": ("smell", "see"),
    "verb-destroy": ("break", "smash"),
    "verb-eat": ("eat",),
}

LEXICON: frozenset[str] = frozenset(w for ws in WORD_CLASSES.values() for w in ws)


def generate(n_sentences: int, seed: int = 0) -> list[str]:
    """Concatenated tokens of n uniformly generated sentences."""
    out: list[str] = []
    for sent in sentences(n_sentences, seed):
        out.extend(sent)
    return out


def sentences(n_sentences: int, seed: int = 0) -> list[list[str]]:
    """The same corpus as generate(), kept one sentence per list."""
    return [sent for _, sent in sentences_with_rules(n_sentences, seed)]


def sentences_with_rules(n_sentences: int, seed: int = 0) -> list[tuple[int, list[str]]]:
    """Sentences paired with the index of the production that made them."""
    if n_sentences < 1:
        raise ConfigError(f"n_sentences must be >= 1, got {n_sentences}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    result = []
    for _ in range(n_sentences):
        rule = int(rng.integers(len(SENTENCE_PRODUCTIONS)))
        sent = []
        for cls in SENTENCE_PRODUCTIONS[rule]:
            words = WORD_CLASSES[cls]
            sent.append(words[int(rng.integers(len(words)))])
        result.append((rule, sent))
    return result


@dataclass(frozen=True)
class GoldReference:
    """Disjoint word groups, ambiguous leftovers, and a noun/verb map."""

    groups: dict[str, frozenset[str]]
    ambiguous: frozenset[str]
    pos: dict[str, str]  # word -> "noun" | "verb"; ambiguous words may be absent

    @property
    def words(self) -> frozenset[str]:
        return frozenset(w for g in self.groups.values() for w in g) | self.ambiguous


def _default_gold() -> GoldReference:
    groups = {
        "HUM": frozenset({"man", "woman", "girl", "boy"}),
        "ANIM": frozenset({"cat", "mouse", "dog"}),
        "AGGR": frozenset({"dragon", "monster", "lion"}),
        "FRAG": frozenset({"glass", "plate"}),
        "FOOD": frozenset({"cookie", "bread", "sandwich"}),
        "INAN": frozenset({"book", "rock", "car"}),
        "VINTRAN": frozenset({"think", "sleep", "exist"}),
        "VTRAN": frozenset({"chase", "like"}),
        "VAGPAT": frozenset({"move"}),
        "VPERCEPT": frozenset({"smell"}),
        "VDESTROY": frozenset({"smash"}),
        "VEAT": frozenset({"eat"}),
    }
    pos = {}
    for name, members in groups.items():
        label = "verb" if name.startswith("V") else "noun"
        for w in members:
            pos[w] = label
    pos["see"] = "verb"
    return GoldReference(groups=groups, ambiguous=frozenset({"break", "see"}), pos=pos)


ELMAN_GOLD = _default_gold()

PURITY_THRESHOLD = 0.95

ERROR_NONE = "none"
ERROR_LOW = "low"
ERROR_MEDIUM = "medium"
ERROR_HIGH = "high"


@dataclass
class EvalReport:
    level1_separation: bool
    dendrogram_purity: float
    per_group_purity: dict[str, float] = field(default_factory=dict)
    error_label: str = ERROR_HIGH


def _common_prefix_len(a: str, b: str) -> int:
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return i
    return n


def evaluate(tags: TagTable, gold: GoldReference = ELMAN_GOLD) -> EvalReport:
    """Score a tag table against the gold groups.

    Raises CoverageError if any gold word is missing from the table.
    """
    bits = tags.bits_by_surface()
    missing = sorted(w for w in gold.words if not bits.get(w))
    if missing:
        raise CoverageError(f"tag table misses gold words: {', '.join(missing)}")

    labelled = sorted(w for w in gold.pos)
    noun_bits = {bits[w][0] for w in labelled if gold.pos[w] == "noun"}
    verb_bits = {bits[w][0] for w in labelled if gold.pos[w] == "verb"}
    separation = (
        len(noun_bits) == 1 and len(verb_bits) == 1 and noun_bits != verb_bits
    )

    # leaf universe: group members only; ambiguous words sit outside it
    universe = sorted(w for g in gold.groups.values() for w in g)
    per_group: dict[str, float] = {}
    all_purities: list[float] = []
    for name, members in sorted(gold.groups.items()):
        ms = sorted(members)
        if len(ms) < 2:
            continue
        purities = []
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                k = _common_prefix_len(bits[ms[i]], bits[ms[j]])
                prefix = bits[ms[i]][:k]
                leaves = [w for w in universe if bits[w].startswith(prefix)]
                inside = sum(1 for w in leaves if w in members)
                purities.append(inside / len(leaves))
        per_group[name] = float(np.mean(purities))
        all_purities.extend(purities)
    dendrogram = float(np.mean(all_purities)) if all_purities else 1.0

    impure = sum(1 for p in per_group.values() if p < PURITY_THRESHOLD)
    if not separation:
        label = ERROR_HIGH
    elif impure == 0:
        label = ERROR_NONE
    elif impure == 1:
        label = ERROR_LOW
    elif impure <= 3:
        label = ERROR_MEDIUM
    else:
        label = ERROR_HIGH
    return EvalReport(
        level1_separation=separation,
        dendrogram_purity=dendrogram,
        per_group_purity=per_group,
        error_label=label,
    )
