import itertools
import string

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tagsplit import (
    BOUNDARY_TOKEN,
    ConfigError,
    IngestionError,
    TokenizerOptions,
    build_vocabulary,
    classify_rare,
    tokenize,
)
from tagsplit.cli import write_vocab_tsv
from tagsplit.corpus import LEXICAL, PSEUDO
from conftest import build_vocabulary_oracle, tokenize_oracle

# Letters, digits and punctuation (regex metacharacters included), ASCII
# and Unicode whitespace, non-printable separators, and non-ASCII word
# characters, one of which lowercases to two characters of two kinds.
MIXED_ALPHABET = (
    string.ascii_letters[::5]
    + string.digits[::3]
    + string.punctuation
    + "\t\r\n\x85 \xa0\u2028"
    + "\u200b\x1e\x00"
    + "é١²İß"
)
ALL_OPTIONS = [
    TokenizerOptions(lowercase=lc, punctuation_as_tokens=pt, sentence_boundary=sb)
    for lc, pt, sb in itertools.product((False, True), (False, True), ("none", "token"))
]


class TestTokenize:
    def test_punctuation_runs_are_tokens(self):
        opts = TokenizerOptions(lowercase=False, punctuation_as_tokens=True)
        assert tokenize("AB & CD SMITH", opts) == ["AB", "&", "CD", "SMITH"]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_lowercase_fold(self):
        opts = TokenizerOptions(lowercase=True, punctuation_as_tokens=True)
        assert tokenize("It is, perhaps.", opts) == ["it", "is", ",", "perhaps", "."]

    def test_punctuation_dropped_when_disabled(self):
        opts = TokenizerOptions(punctuation_as_tokens=False)
        assert tokenize("a, b... c", opts) == ["a", "b", "c"]

    def test_no_whitespace_inside_tokens(self):
        for tok in tokenize("one\ttwo\n three!?four"):
            assert not any(ch.isspace() for ch in tok)

    def test_deterministic(self):
        text = "Some text; with 3 kinds-of tokens."
        assert tokenize(text) == tokenize(text)

    def test_boundary_token_between_lines(self):
        opts = TokenizerOptions(sentence_boundary="token")
        toks = tokenize("a b\nc d\n\ne", opts)
        assert toks == ["a", "b", BOUNDARY_TOKEN, "c", "d", BOUNDARY_TOKEN, "e"]

    def test_boundary_sentinel_never_produced_from_text(self):
        opts = TokenizerOptions(sentence_boundary="token")
        toks = tokenize("a \x1e b\nc", opts)
        # the raw control char is whitespace, not a token
        assert toks == ["a", "b", BOUNDARY_TOKEN, "c"]

    def test_bad_boundary_mode_rejected(self):
        with pytest.raises(ConfigError):
            TokenizerOptions(sentence_boundary="paragraph")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(text=st.text(alphabet=st.sampled_from(MIXED_ALPHABET), max_size=60))
    def test_matches_per_character_oracle(self, text):
        for opts in ALL_OPTIONS:
            assert tokenize(text, opts) == tokenize_oracle(text, opts), opts


class TestClassifyRare:
    @pytest.mark.parametrize(
        "token,label",
        [
            ("123", "<numeric3>"),
            ("987", "<numeric3>"),
            ("K9", "<alphanumeric2>"),
            ("ARISTOTLE", "<word9>"),
            ("FLRCVRNGS", "<acronym9>"),
            ("-", "<nota1>"),
            ("don't", "<nota5>"),
            ("y", "<acronym1>"),  # y is not a vowel
            ("café", "<word4>"),
        ],
    )
    def test_examples(self, token, label):
        assert classify_rare(token) == label

    def test_referentially_transparent(self):
        assert classify_rare("xyzzy") == classify_rare("xyzzy")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            classify_rare("")

    def test_total_function_over_random_tokens(self, rng):
        alphabet = "abcXYZ019_.-"
        for _ in range(200):
            n = int(rng.integers(1, 12))
            token = "".join(alphabet[int(i)] for i in rng.integers(0, len(alphabet), n))
            label = classify_rare(token)
            assert label.startswith("<") and label.endswith(str(len(token)) + ">")


class TestBuildVocabulary:
    def test_top_k_and_tie_break(self):
        # "c" is a vowelless single letter, so its pseudo group is acronym1
        vocab, stream = build_vocabulary("a b a c".split(), 2)
        surfaces = [(e.surface, e.frequency, e.kind) for e in vocab.entries]
        assert surfaces == [
            ("a", 2, LEXICAL),
            ("b", 1, LEXICAL),
            ("<acronym1>", 1, PSEUDO),
        ]
        assert stream.ids.tolist() == [0, 1, 0, 2]

    def test_rare_word_with_vowel_goes_to_word_group(self):
        vocab, stream = build_vocabulary("a b a e".split(), 2)
        assert vocab.entries[2].surface == "<word1>"
        assert stream.ids.tolist() == [0, 1, 0, 2]

    def test_tie_at_cut_is_lexicographic(self):
        vocab, _ = build_vocabulary("z q z q m m".split(), 2)
        lexical = [e.surface for e in vocab.entries if e.kind == LEXICAL]
        assert lexical == ["m", "q"]  # all tied at 2; lexicographic wins

    def test_no_pseudo_groups_when_everything_frequent(self):
        tokens = "a b c a b c".split()
        vocab, stream = build_vocabulary(tokens, 10)
        assert all(e.kind == LEXICAL for e in vocab.entries)
        assert vocab.size == 3
        decoded = stream.decode(vocab)
        assert decoded == tokens

    def test_frequency_conservation(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 300))
            tokens = [f"t{int(i)}" for i in rng.integers(0, 40, n)]
            vocab, _ = build_vocabulary(tokens, int(rng.integers(1, 12)))
            assert sum(e.frequency for e in vocab.entries) == len(tokens)

    def test_round_trip_fixed_point(self, rng):
        tokens = [f"w{int(i)}" if i < 5 else str(int(i)) for i in rng.integers(0, 30, 500)]
        vocab1, stream1 = build_vocabulary(tokens, 4)
        decoded = stream1.decode(vocab1)
        vocab2, stream2 = build_vocabulary(decoded, 4)
        assert [
            (e.surface, e.frequency, e.kind) for e in vocab1.entries
        ] == [(e.surface, e.frequency, e.kind) for e in vocab2.entries]
        assert np.array_equal(stream1.ids, stream2.ids)

    def test_word_ids_dense(self):
        vocab, _ = build_vocabulary("x y z z y x 1 22 333".split(), 2)
        assert [e.word_id for e in vocab.entries] == list(range(vocab.size))

    def test_boundary_tokens_become_breaks(self):
        tokens = ["a", "b", BOUNDARY_TOKEN, "a", "c"]
        vocab, stream = build_vocabulary(tokens, 10)
        assert len(stream.ids) == 4
        assert stream.breaks.tolist() == [2]

    def test_leading_and_double_boundaries_collapse(self):
        tokens = [BOUNDARY_TOKEN, "a", BOUNDARY_TOKEN, BOUNDARY_TOKEN, "b", BOUNDARY_TOKEN]
        _, stream = build_vocabulary(tokens, 10)
        assert stream.breaks.tolist() == [1]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        tokens=st.lists(
            st.sampled_from(
                [BOUNDARY_TOKEN, "a", "b", "the", "ox", "xyz", "42", "7", "k9",
                 "-", "don't", "é", "<word3>", "<numeric1>", "<nota9>"]
            ),
            max_size=40,
        ),
        lead=st.integers(0, 2),
        trail=st.integers(0, 2),
        top_k=st.integers(1, 8),
    )
    def test_matches_loop_oracle(self, tokens, lead, trail, top_k):
        tokens = [BOUNDARY_TOKEN] * lead + tokens + [BOUNDARY_TOKEN] * trail
        assume(any(t != BOUNDARY_TOKEN for t in tokens))
        vocab, stream = build_vocabulary(tokens, top_k)
        want_vocab, want = build_vocabulary_oracle(tokens, top_k)
        assert vocab.entries == want_vocab.entries
        assert stream.ids.dtype == want.ids.dtype
        assert np.array_equal(stream.ids, want.ids)
        assert stream.breaks.dtype == want.breaks.dtype
        assert np.array_equal(stream.breaks, want.breaks)

    def test_errors(self):
        with pytest.raises(ConfigError):
            build_vocabulary(["a"], 0)
        with pytest.raises(IngestionError):
            build_vocabulary([], 3)
        with pytest.raises(IngestionError):
            build_vocabulary([BOUNDARY_TOKEN], 3)

    def test_lexical_frequencies_dominate_pooled_tokens(self, rng):
        tokens = [f"t{int(i)}" for i in rng.integers(0, 50, 400)]
        vocab, _ = build_vocabulary(tokens, 10)
        from collections import Counter

        counts = Counter(tokens)
        lexical = {e.surface for e in vocab.entries if e.kind == LEXICAL}
        min_lex = min(counts[s] for s in lexical)
        pooled_max = max(
            (c for t, c in counts.items() if t not in lexical), default=0
        )
        assert min_lex >= pooled_max

    def test_vocab_tsv_export(self, tmp_path):
        vocab, _ = build_vocabulary("a b a c".split(), 2)
        out = tmp_path / "vocab.tsv"
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            write_vocab_tsv(fh, vocab)
        lines = out.read_text().splitlines()
        assert lines[0] == "word_id\tsurface\tfrequency\tkind"
        assert lines[1] == "0\ta\t2\tlexical"
        assert len(lines) == 1 + vocab.size
