import io
from collections import Counter

import numpy as np
import pytest

from tagsplit import CoverageError, TagRow, TagTable
from tagsplit.cli import read_gold_tsv, write_gold_tsv
from tagsplit.elman import (
    sentences_with_rules,
    ELMAN_GOLD,
    LEXICON,
    SENTENCE_PRODUCTIONS,
    WORD_CLASSES,
    evaluate,
    generate,
    sentences,
)


def table_from(bits_by_word) -> TagTable:
    return TagTable(
        [TagRow(w, b, 1, int(b, 2)) for w, b in sorted(bits_by_word.items())]
    )


def gold_subtree_table() -> TagTable:
    """A tag table whose subtrees mirror the gold groups exactly."""
    groups = sorted(ELMAN_GOLD.groups)
    nouns = [g for g in groups if not g.startswith("V")]
    verbs = [g for g in groups if g.startswith("V")]
    bits = {}
    for i, g in enumerate(nouns):
        prefix = "0" + format(i, "03b")
        for j, w in enumerate(sorted(ELMAN_GOLD.groups[g])):
            bits[w] = prefix + format(j, "02b")
    for i, g in enumerate(verbs):
        prefix = "1" + format(i, "03b")
        for j, w in enumerate(sorted(ELMAN_GOLD.groups[g])):
            bits[w] = prefix + format(j, "02b")
    bits["see"] = "111110"
    bits["break"] = "111111"
    return table_from(bits)


class TestGrammar:
    def test_sixteen_productions_of_length_two_or_three(self):
        assert len(SENTENCE_PRODUCTIONS) == 16
        assert all(len(p) in (2, 3) for p in SENTENCE_PRODUCTIONS)

    def test_twelve_word_classes(self):
        assert len(WORD_CLASSES) == 12

    def test_lexicon_has_29_words(self):
        assert len(LEXICON) == 29

    def test_break_sits_in_three_classes(self):
        holders = [name for name, ws in WORD_CLASSES.items() if "break" in ws]
        assert sorted(holders) == ["noun-food", "noun-inan", "verb-agpat", "verb-destroy"]

    def test_production_classes_exist(self):
        for p in SENTENCE_PRODUCTIONS:
            for cls in p:
                assert cls in WORD_CLASSES


class TestGenerate:
    def test_deterministic(self):
        assert generate(50, seed=3) == generate(50, seed=3)

    def test_tokens_stay_in_lexicon(self):
        assert set(generate(500, seed=1)) <= LEXICON

    def test_sentence_lengths(self):
        for sent in sentences(200, seed=2):
            assert len(sent) in (2, 3)

    def test_ten_thousand_sentences_cover_lexicon(self):
        assert len(set(generate(10000, seed=1))) == 29

    def test_production_choice_uniform_within_3_sigma(self):
        n = 100_000
        counts = Counter(rule for rule, _ in sentences_with_rules(n, seed=9))
        p = 1.0 / 16
        sigma = (n * p * (1 - p)) ** 0.5
        for i in range(16):
            assert abs(counts[i] - n * p) < 3 * sigma

    def test_words_uniform_within_their_class(self):
        picks = Counter(
            sent[1] for _, sent in sentences_with_rules(50_000, seed=4)
        )
        # slot 2 is always a verb class; check verb-intran's three members
        intran = [picks[w] for w in WORD_CLASSES["verb-intran"]]
        assert max(intran) - min(intran) < 0.2 * max(intran)


class TestEvaluate:
    def test_gold_mirror_scores_perfect(self):
        report = evaluate(gold_subtree_table())
        assert report.level1_separation
        assert report.dendrogram_purity == pytest.approx(1.0)
        assert report.error_label == "none"

    def test_all_words_one_leaf(self):
        bits = {w: "0" for w in LEXICON}
        table = TagTable([TagRow(w, "0", 1, 0) for w in sorted(bits)])
        report = evaluate(table)
        assert not report.level1_separation
        assert report.error_label == "high"
        # every pair's LCA covers all 27 group members
        assert report.per_group_purity["HUM"] == pytest.approx(4 / 27)
        assert report.per_group_purity["VTRAN"] == pytest.approx(2 / 27)

    def test_interleaved_nouns_and_verbs_score_high(self):
        nouns = sorted(w for w, p in ELMAN_GOLD.pos.items() if p == "noun")
        verbs = sorted(w for w, p in ELMAN_GOLD.pos.items() if p == "verb")
        bits = {}
        for i, w in enumerate(nouns):
            bits[w] = format(i % 2, "01b") + format(i, "05b")
        for i, w in enumerate(verbs):
            bits[w] = format((i + 1) % 2, "01b") + format(i + 32, "05b")
        bits["break"] = "000000"
        report = evaluate(table_from(bits))
        assert not report.level1_separation
        assert report.error_label == "high"

    def test_bit_complement_invariance(self):
        table = gold_subtree_table()
        flipped = TagTable(
            [
                TagRow(r.surface, r.bits.translate(str.maketrans("01", "10")),
                       r.frequency, int(r.bits.translate(str.maketrans("01", "10")), 2))
                for r in table.rows
            ]
        )
        a = evaluate(table)
        b = evaluate(flipped)
        assert a.level1_separation == b.level1_separation
        assert a.dendrogram_purity == pytest.approx(b.dendrogram_purity)
        assert a.error_label == b.error_label

    def test_single_impure_group_is_low(self):
        table = gold_subtree_table()
        bits = {r.surface: r.bits for r in table.rows}
        # swap one FOOD word deep into INAN territory
        bits["sandwich"], bits["book"] = bits["book"], bits["sandwich"]
        report = evaluate(table_from(bits))
        assert report.level1_separation
        assert report.error_label in ("low", "medium")
        assert sum(1 for p in report.per_group_purity.values() if p < 0.95) >= 1

    def test_missing_word_raises(self):
        table = gold_subtree_table()
        table.rows = [r for r in table.rows if r.surface != "cat"]
        with pytest.raises(CoverageError):
            evaluate(table)

    def test_ambiguous_words_never_pollute_leaf_sets(self):
        table = gold_subtree_table()
        bits = {r.surface: r.bits for r in table.rows}
        # drop "see" right inside the VTRAN subtree; purity must stay 1.0
        bits["see"] = bits["chase"][:4] + "11"
        report = evaluate(table_from(bits))
        assert report.per_group_purity["VTRAN"] == pytest.approx(1.0)
        assert report.error_label == "none"


class TestGoldTsv:
    def test_round_trip(self):
        buf = io.StringIO()
        write_gold_tsv(buf)
        buf.seek(0)
        loaded = read_gold_tsv(buf)
        assert loaded.groups == ELMAN_GOLD.groups
        assert loaded.ambiguous == ELMAN_GOLD.ambiguous
        assert loaded.pos == ELMAN_GOLD.pos


@pytest.fixture(scope="module")
def elman_10k():
    from tagsplit import build_vocabulary, count_bigrams

    tokens = generate(10000, seed=1)
    vocab, stream = build_vocabulary(tokens, 29)
    store = count_bigrams(stream, vocab.size)
    return vocab, store


class TestEndToEnd:
    def test_vocabulary_is_all_lexical_at_29(self, elman_10k):
        vocab, _ = elman_10k
        assert vocab.size == 29
        assert all(e.kind == "lexical" for e in vocab.entries)

    def test_level_one_separates_verbs_from_nouns(self, elman_10k):
        from tagsplit import ClusterConfig, cluster

        vocab, store = elman_10k
        for strategy in ("znr", "znrp"):
            tags, _ = cluster(vocab, store, ClusterConfig(strategy=strategy, levels=1))
            bits = tags.bits_by_surface()
            nouns = {bits[w] for w, p in ELMAN_GOLD.pos.items() if p == "noun"}
            verbs = {bits[w] for w, p in ELMAN_GOLD.pos.items() if p == "verb"}
            assert len(nouns) == 1 and len(verbs) == 1 and nouns != verbs

    def test_znr_and_znrp_agree_at_level_one(self, elman_10k):
        from tagsplit import ClusterConfig, cluster

        vocab, store = elman_10k
        a, _ = cluster(vocab, store, ClusterConfig(strategy="znr", levels=1))
        b, _ = cluster(vocab, store, ClusterConfig(strategy="znrp", levels=1))
        pa = [r.class_id for r in a.rows]
        pb = [r.class_id for r in b.rows]
        assert pa == pb or pa == [1 - c for c in pb]

    def test_random_tags_score_below_clustered_result(self, elman_10k):
        from tagsplit import ClusterConfig, TagRow, TagTable, cluster

        vocab, store = elman_10k
        tags, _ = cluster(vocab, store, ClusterConfig(strategy="znrp", levels=6))
        clustered = evaluate(tags).dendrogram_purity
        rng = np.random.default_rng(0)
        baseline = []
        for _ in range(100):
            rows = [
                TagRow(w, format(int(rng.integers(0, 16)), "04b"), 1, 0)
                for w in sorted(LEXICON)
            ]
            baseline.append(evaluate(TagTable(rows)).dendrogram_purity)
        assert float(np.mean(baseline)) < clustered
