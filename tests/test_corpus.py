import hashlib
import io
import itertools
import re
import string
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tagsplit import (
    ConfigError,
    IngestionError,
    TokenizerOptions,
    build_vocabulary,
    classify_rare,
    tokenize,
)
from tagsplit import corpus
from tagsplit.cli import build_pipeline, write_vocab_tsv
from tagsplit.corpus import BREAK, LEXICAL, PSEUDO
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
    + "\ud800"  # a lone surrogate
)
ALL_OPTIONS = [
    TokenizerOptions(lowercase=lc, sentence_boundary=sb)
    for lc, sb in itertools.product((False, True), ("none", "token"))
]
# Chunk sizes that make every line of a short text a chunk of its own, or
# join it to the next line, and the real size.
CHUNK_SIZES = (1, 2, 3, corpus.CHUNK_CHARS)
# Surfaces for generated texts: case pairs, digits, punctuation runs and a
# pseudo-label lookalike, which the tokenizer splits at its brackets.
WORDS = ["a", "A", "the", "The", "ox", "xyz", "42", "k9", "-", "don't", "é", "<word3>", "?!"]
TEXTS = st.lists(st.lists(st.sampled_from(WORDS), max_size=7), max_size=6).map(
    lambda lines: "\n".join(" ".join(line) for line in lines)
)

# Characters for rare tokens: MIXED_ALPHABET's token characters, digits
# that are not decimal ("²") or not ASCII ("١"), a letter number that is
# neither alphabetic nor a digit ("Ⅻ"), letters whose case mapping gives
# two characters ("İ", "ß"), a lone surrogate and a surrogate pair held as two
# code points; plus whole pseudo labels and a label with a trailing newline.
RARE_PIECES = sorted(
    {ch for ch in MIXED_ALPHABET if ch.isprintable() and not ch.isspace()}
    | set("²١Ⅻİß")
    | {"\ud800", "\ud83d\ude00"}
)
RARE_TOKENS = st.one_of(
    st.lists(st.sampled_from(RARE_PIECES), min_size=1, max_size=5).map("".join),
    st.sampled_from(["<word3>", "<nota1>", "<word9>\n"]),
)
# SHA-256 of write_vocab_tsv for golden_segments() at top_k=40
GOLDEN_VOCAB_SHA256 = "cac74e2afb17dc44ae4b1669e173f0805948be21cac1d605f120a57d31350249"


def golden_segments():
    """A seeded corpus of mixed surfaces with Zipf-like frequencies: words,
    vowelless letter runs, numbers, letter-digit mixes and tokens with
    other characters, some non-ASCII, plus one pseudo-label lookalike."""
    rng = np.random.default_rng(20261019)
    shapes = [
        "bcdfghklmnpst" + "aeiou" + "éß",
        "bcdfghklmnpstxz" + "İ",
        "0123456789" + "²١",
        "kqxz" + "0123456789",
        "ab1" + "-'._/" + "Ⅻ",
    ]
    types = ["<word3>"]
    for i in range(1500):
        alphabet = shapes[i % 5]
        n = int(rng.integers(1, 10))
        types.append("".join(alphabet[j] for j in rng.integers(0, len(alphabet), n)))
    weights = 1.0 / np.arange(1, len(types) + 1)
    draws = rng.choice(len(types), 20_000, p=weights / weights.sum())
    cuts = np.cumsum(rng.integers(1, 25, 2_000))
    cuts = cuts[cuts < len(draws)]
    return [[types[i] for i in seg.tolist()] for seg in np.split(draws, cuts)]


def tokenize_lines(text, opts):
    """tokenize's output in tokenize_oracle's form: under
    sentence_boundary="token" the yielded lists cut at their BREAK tokens,
    empty pieces dropped, which gives each non-empty line's tokens; as
    yielded otherwise."""
    got = list(tokenize(text, opts))
    if opts.sentence_boundary != "token":
        return got
    return [
        list(tokens)
        for chunk in got
        for is_break, tokens in itertools.groupby(chunk, lambda t: t == BREAK)
        if not is_break
    ]


def assert_same_encoding(got, want):
    (vocab, stream), (want_vocab, want_stream) = got, want
    assert vocab.entries == want_vocab.entries
    assert stream.ids.dtype == want_stream.ids.dtype == np.int32
    assert np.array_equal(stream.ids, want_stream.ids)
    assert stream.breaks.dtype == want_stream.breaks.dtype == np.int64
    assert np.array_equal(stream.breaks, want_stream.breaks)


class TestTokenize:
    def test_punctuation_runs_are_tokens(self):
        opts = TokenizerOptions(lowercase=False)
        assert list(tokenize("AB & CD SMITH", opts)) == [["AB", "&", "CD", "SMITH"]]

    def test_empty_input(self):
        assert list(tokenize("")) == []
        assert list(tokenize(" \n\t", TokenizerOptions(sentence_boundary="token"))) == []

    def test_lowercase_fold(self):
        opts = TokenizerOptions(lowercase=True)
        assert list(tokenize("It is, perhaps.", opts)) == [["it", "is", ",", "perhaps", "."]]

    def test_no_whitespace_inside_tokens(self):
        for tok in itertools.chain.from_iterable(tokenize("one\ttwo\n three!?four")):
            assert not any(ch.isspace() for ch in tok)

    def test_deterministic(self):
        text = "Some text; with 3 kinds-of tokens."
        assert list(tokenize(text)) == list(tokenize(text))

    def test_boundary_token_between_lines(self):
        text = "\na b\nc d\n\ne\n"
        opts = TokenizerOptions(sentence_boundary="token")
        assert tokenize_lines(text, opts) == [["a", "b"], ["c", "d"], ["e"]]
        # one chunk, a BREAK for every "\n"
        assert list(tokenize(text, opts)) == [
            [BREAK, "a", "b", BREAK, "c", "d", BREAK, BREAK, "e", BREAK]
        ]
        # without line boundaries a newline is whitespace: one segment
        assert list(tokenize(text)) == [["a", "b", "c", "d", "e"]]

    def test_boundary_sentinel_never_produced_from_text(self):
        opts = TokenizerOptions(sentence_boundary="token")
        # a raw control char is whitespace, not a token, and only "\n" ends a line
        assert tokenize_lines("a \x1e b\nc", opts) == [["a", "b"], ["c"]]
        assert list(tokenize("a \x1e b\nc", opts)) == [["a", "b", BREAK, "c"]]

    def test_lone_surrogate_is_a_separator(self):
        for opts in ALL_OPTIONS:
            got = tokenize_lines("a\ud800b \udfff\n-\ud83d\ude00-", opts)
            assert got == tokenize_oracle("a\ud800b \udfff\n-\ud83d\ude00-", opts), opts
            assert list(itertools.chain.from_iterable(got)) == ["a", "b", "-", "-"]

    def test_long_line_never_cut(self):
        opts = TokenizerOptions(sentence_boundary="token")
        text = "x " * corpus.CHUNK_CHARS + "\ny z"
        assert list(tokenize(text, opts)) == [["x"] * corpus.CHUNK_CHARS + [BREAK], ["y", "z"]]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(corpus, "CHUNK_CHARS", 4)
            got = list(tokenize("abcdefgh ij\nk\n\nlm no", opts))
        assert got == [["abcdefgh", "ij", BREAK], ["k", BREAK, BREAK, "lm", "no"]]

    def test_bad_boundary_mode_rejected(self):
        with pytest.raises(ConfigError):
            TokenizerOptions(sentence_boundary="paragraph")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(text=st.text(alphabet=st.sampled_from(MIXED_ALPHABET), max_size=60))
    def test_matches_per_character_oracle(self, text):
        for chunk, opts in itertools.product(CHUNK_SIZES, ALL_OPTIONS):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(corpus, "CHUNK_CHARS", chunk)
                got = tokenize_lines(text, opts)
            assert got == tokenize_oracle(text, opts), (chunk, opts)


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
        vocab, stream = build_vocabulary(["a b a c".split()], 2)
        surfaces = [(e.surface, e.frequency, e.kind) for e in vocab.entries]
        assert surfaces == [
            ("a", 2, LEXICAL),
            ("b", 1, LEXICAL),
            ("<acronym1>", 1, PSEUDO),
        ]
        assert stream.ids.tolist() == [0, 1, 0, 2]

    def test_rare_word_with_vowel_goes_to_word_group(self):
        vocab, stream = build_vocabulary(["a b a e".split()], 2)
        assert vocab.entries[2].surface == "<word1>"
        assert stream.ids.tolist() == [0, 1, 0, 2]

    def test_tie_at_cut_is_lexicographic(self):
        vocab, _ = build_vocabulary(["z q z q m m".split()], 2)
        lexical = [e.surface for e in vocab.entries if e.kind == LEXICAL]
        assert lexical == ["m", "q"]  # all tied at 2; lexicographic wins

    def test_top_k_inside_a_tie_at_the_cut(self, rng):
        tied = [f"t{i:02d}" for i in range(20)]
        tokens = rng.permutation(["a"] * 5 + tied * 2 + ["<word3>"] * 3 + ["z9"]).tolist()
        for top_k in (1, 2, 7, 20, 21, 22, 40):
            got = build_vocabulary([tokens], top_k)
            assert_same_encoding(got, build_vocabulary_oracle([tokens], top_k))
        vocab, _ = build_vocabulary([tokens], 7)
        lexical = [e.surface for e in vocab.entries if e.kind == LEXICAL]
        assert lexical == ["a", *tied[:6]]

    def test_label_with_trailing_newline_is_not_a_label(self, tmp_path):
        # "$" would match before the "\n", and make "<word9>\n" a group
        vocab, stream = build_vocabulary([["a", "a", "<word9>\n", "b"]], 1)
        surfaces = [(e.surface, e.frequency, e.kind) for e in vocab.entries]
        assert surfaces == [("a", 2, LEXICAL), ("<acronym1>", 1, PSEUDO), ("<nota8>", 1, PSEUDO)]
        assert stream.ids.tolist() == [0, 0, 2, 1]
        out = tmp_path / "vocab.tsv"
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            write_vocab_tsv(fh, vocab)
        assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + vocab.size

    @pytest.mark.parametrize(
        "tokens",
        [["", "a", "a"], ["", "", "a"], ["a", "", "a", "b"]],
        ids=["rare", "lexical", "tied"],
    )
    def test_empty_token_rejected(self, tokens):
        with pytest.raises(ConfigError, match="non-empty"):
            build_vocabulary([tokens], 1)
        with pytest.raises(ConfigError, match="non-empty"):
            build_vocabulary([tokens], 5)

    def test_no_pseudo_groups_when_everything_frequent(self):
        tokens = "a b c a b c".split()
        vocab, stream = build_vocabulary([tokens], 10)
        assert all(e.kind == LEXICAL for e in vocab.entries)
        assert vocab.size == 3
        decoded = [vocab.entries[i].surface for i in stream.ids]
        assert decoded == tokens

    def test_frequency_conservation(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 300))
            tokens = [f"t{int(i)}" for i in rng.integers(0, 40, n)]
            vocab, _ = build_vocabulary([tokens], int(rng.integers(1, 12)))
            assert sum(e.frequency for e in vocab.entries) == len(tokens)

    def test_round_trip_fixed_point(self, rng):
        tokens = [f"w{int(i)}" if i < 5 else str(int(i)) for i in rng.integers(0, 30, 500)]
        vocab1, stream1 = build_vocabulary([tokens], 4)
        decoded = [vocab1.entries[i].surface for i in stream1.ids]
        vocab2, stream2 = build_vocabulary([decoded], 4)
        assert [
            (e.surface, e.frequency, e.kind) for e in vocab1.entries
        ] == [(e.surface, e.frequency, e.kind) for e in vocab2.entries]
        assert np.array_equal(stream1.ids, stream2.ids)

    def test_word_ids_dense(self):
        vocab, _ = build_vocabulary(["x y z z y x 1 22 333".split()], 2)
        assert [e.word_id for e in vocab.entries] == list(range(vocab.size))

    def test_boundary_tokens_become_breaks(self):
        vocab, stream = build_vocabulary([["a", "b"], ["a", "c"]], 10)
        assert len(stream.ids) == 4
        assert stream.breaks.tolist() == [2]
        assert stream.breaks.dtype == np.int64

    def test_break_token_inside_a_segment_is_a_break(self):
        got = build_vocabulary([[BREAK, "a", BREAK, "b"], [BREAK], ["c", BREAK]], 10)
        assert_same_encoding(got, build_vocabulary_oracle([["a"], ["b"], ["c"]], 10))
        assert got[1].breaks.tolist() == [1, 2]

    def test_leading_and_double_boundaries_collapse(self):
        # empty segments leading, doubled and trailing add no break
        _, stream = build_vocabulary([[], ["a"], [], [], ["b"], []], 10)
        assert stream.breaks.tolist() == [1]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        segments=st.lists(
            st.lists(
                st.sampled_from(
                    ["a", "b", "the", "ox", "xyz", "42", "7", "k9",
                     "-", "don't", "é", "<word3>", "<numeric1>", "<nota9>"]
                ),
                max_size=8,
            ),
            max_size=8,
        ),
        lead=st.integers(0, 2),
        trail=st.integers(0, 2),
        top_k=st.integers(1, 8),
    )
    def test_matches_loop_oracle(self, segments, lead, trail, top_k):
        segments = [[]] * lead + segments + [[]] * trail
        assume(any(segments))
        got = build_vocabulary(segments, top_k)
        assert_same_encoding(got, build_vocabulary_oracle(segments, top_k))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(segments=st.lists(st.lists(RARE_TOKENS, max_size=8), min_size=1, max_size=6))
    def test_rare_groups_match_classify_rare(self, segments):
        # at top_k=1 nearly every type is rare, and its group comes from the
        # vectorized classifier; the oracle calls classify_rare per type
        assume(any(segments))
        got = build_vocabulary(segments, 1)
        assert_same_encoding(got, build_vocabulary_oracle(segments, 1))

    def test_golden_vocabulary_tsv(self, tmp_path):
        segments = golden_segments()
        vocab, _ = build_vocabulary(segments, 40)
        tags = {re.match(r"<([a-z]+)", e.surface)[1] for e in vocab.entries if e.kind == PSEUDO}
        assert tags == {"word", "acronym", "numeric", "alphanumeric", "nota"}
        out = tmp_path / "vocab.tsv"
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            write_vocab_tsv(fh, vocab)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_VOCAB_SHA256

    def test_errors(self):
        with pytest.raises(ConfigError):
            build_vocabulary([["a"]], 0)
        with pytest.raises(IngestionError):
            build_vocabulary([], 3)
        with pytest.raises(IngestionError):
            build_vocabulary([[], []], 3)
        with pytest.raises(IngestionError, match="empty token stream"):
            build_vocabulary([[BREAK], [BREAK, BREAK]], 3)
        with pytest.raises(ConfigError, match=r"\[tokens\]"):
            build_vocabulary(["a", "b"], 3)  # a flat token list, not segments

    def test_one_pass_input(self):
        segments = [["a", "b"], [], ["a", "c", "a"], ["b"]]
        once = (seg for seg in segments)
        got = build_vocabulary(once, 2)
        assert next(once, None) is None  # consumed, and only once
        assert_same_encoding(got, build_vocabulary_oracle(segments, 2))

    def test_one_pass_input_validated(self):
        with pytest.raises(ConfigError, match=r"\[tokens\]"):
            build_vocabulary(iter(["a", "b"]), 3)
        with pytest.raises(ConfigError, match=r"\[tokens\]"):
            build_vocabulary((s for s in [["a", "b"], "c"]), 3)  # checked as it streams
        with pytest.raises(IngestionError):
            build_vocabulary(iter([]), 3)
        with pytest.raises(IngestionError):
            build_vocabulary((s for s in [[], []]), 3)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(text=TEXTS, top_k=st.integers(1, 8))
    def test_block_joints_match_oracle(self, text, top_k):
        for chunk, opts in itertools.product(CHUNK_SIZES, ALL_OPTIONS):
            segments = tokenize_oracle(text, opts)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(corpus, "CHUNK_CHARS", chunk)
                if not segments:
                    with pytest.raises(IngestionError):
                        build_vocabulary(tokenize(text, opts), top_k)
                    continue
                got = build_vocabulary(tokenize(text, opts), top_k)
            assert_same_encoding(got, build_vocabulary_oracle(segments, top_k))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        texts=st.lists(TEXTS, min_size=1, max_size=3),
        opts=st.sampled_from(ALL_OPTIONS),
        top_k=st.integers(1, 8),
    )
    def test_pipeline_block_joints_match_oracle(self, tmp_path_factory, texts, opts, top_k):
        # 1-3 character chunks put chunk joints at line joints, the real
        # size keeps each text in one chunk; file joints fall between chunks
        segments = [seg for text in texts for seg in tokenize_oracle(text, opts)]
        assume(segments)
        paths = [tmp_path_factory.mktemp("in") / "corpus.txt" for _ in texts]
        for path, text in zip(paths, texts):
            path.write_bytes(text.encode("utf-8"))
        want_vocab, want = build_vocabulary_oracle(segments, top_k)
        # every in-segment pair, and no pair across a line or file joint
        in_segment: Counter = Counter()
        pos = 0
        for seg in segments:
            ids = want.ids[pos : pos + len(seg)].tolist()
            in_segment.update(zip(ids, ids[1:]))
            pos += len(seg)
        for chunk in CHUNK_SIZES:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(corpus, "CHUNK_CHARS", chunk)
                vocab, stream, store = build_pipeline(
                    paths, top_k, opts.lowercase, opts.sentence_boundary
                )
            assert_same_encoding((vocab, stream), (want_vocab, want))
            got = zip(store.left.tolist(), store.right.tolist(), store.counts.tolist())
            assert {(w, v): c for w, v, c in got} == in_segment

    def test_lexical_frequencies_dominate_pooled_tokens(self, rng):
        tokens = [f"t{int(i)}" for i in rng.integers(0, 50, 400)]
        vocab, _ = build_vocabulary([tokens], 10)
        from collections import Counter

        counts = Counter(tokens)
        lexical = {e.surface for e in vocab.entries if e.kind == LEXICAL}
        min_lex = min(counts[s] for s in lexical)
        pooled_max = max(
            (c for t, c in counts.items() if t not in lexical), default=0
        )
        assert min_lex >= pooled_max

    @pytest.mark.parametrize("bad", ["a\tb", "x\ny", "x\ry"])
    def test_vocab_tsv_refuses_a_field_that_splits_its_row(self, bad):
        # such surfaces never come from tokenize, but a library caller can
        # pass them to build_vocabulary
        vocab, _ = build_vocabulary([[bad, bad, "c"]], 2)
        out = io.StringIO()
        with pytest.raises(ConfigError, match=r"surface .* on line 2:"):
            write_vocab_tsv(out, vocab)
        assert out.getvalue() == ""

    def test_vocab_tsv_export(self, tmp_path):
        vocab, _ = build_vocabulary(["a b a c".split()], 2)
        out = tmp_path / "vocab.tsv"
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            write_vocab_tsv(fh, vocab)
        lines = out.read_text().splitlines()
        assert lines[0] == "word_id\tsurface\tfrequency\tkind"
        assert lines[1] == "0\ta\t2\tlexical"
        assert len(lines) == 1 + vocab.size
