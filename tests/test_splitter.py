import contextlib
import dataclasses
import decimal
import tracemalloc
import warnings
from collections import Counter
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tagsplit
from tagsplit import (
    EPSILON,
    ClusterConfig,
    ConfigError,
    ConsistencyError,
    IngestionError,
    acmi,
    build_vocabulary,
    class_matrix,
    cluster,
    count_bigrams,
    oracle_min_moves,
)
from tagsplit import elman, splitter
from tagsplit.bigram import BANK_BYTES_PER_PAIR, BigramStore, ContextBank
from tagsplit.objective import delta_acmi
from tagsplit.splitter import ClusterState, init_level, run_level
from tagsplit.synth import markov_text
from conftest import (
    acmi_oracle,
    class_matrix_oracle,
    context_source,
    context_vectors,
    full_rescore,
    line_terms,
    make_stream,
    random_instance,
)


def tiny_corpus(tokens, top_k=None):
    vocab, stream = build_vocabulary([tokens], top_k or len(set(tokens)))
    store = count_bigrams(stream, vocab.size)
    return vocab, stream, store


def test_every_public_name_resolves():
    assert [n for n in tagsplit.__all__ if not hasattr(tagsplit, n)] == []


def test_public_surface_is_the_user_api():
    # the search internals (ContextBank, apply_move, batch_deltas,
    # delta_acmi, ClusterState, init_level, run_level) are imported from
    # their modules, not from the package
    assert sorted(tagsplit.__all__) == [
        "BigramStore", "ClassMatrix", "ClusterConfig", "ConfigError",
        "ConsistencyError", "CoverageError", "EPSILON", "IngestionError",
        "LevelStats", "MAX_LEVELS", "STRATEGIES", "TagRow", "TagTable",
        "TagsplitError", "TokenStream", "TokenizerOptions",
        "UndefinedObjectiveError", "Vocabulary", "acmi", "build_vocabulary",
        "class_matrix", "classify_rare", "cluster", "count_bigrams",
        "oracle_min_moves", "tokenize",
    ]


class TestClusterConfig:
    def test_level_cap_message_cites_bound(self):
        with pytest.raises(ConfigError, match="1024"):
            ClusterConfig(levels=11)
        with pytest.raises(ConfigError):
            ClusterConfig(levels=0)

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            ClusterConfig(strategy="annealing")

    def test_bad_pin_path(self):
        with pytest.raises(ConfigError):
            ClusterConfig(pinned={"the": "102"})

    def test_fields_cannot_be_set_past_the_checks(self):
        # a field set after construction would skip __post_init__: a seed
        # of -1 reached numpy, a pin path "2" the class matrix
        bad = {"strategy": "annealing", "levels": 11, "seed": -1, "pinned": {"man": "2"}}
        config = ClusterConfig()
        assert set(bad) == {f.name for f in dataclasses.fields(ClusterConfig)}
        for name, value in bad.items():
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, name, value)
        assert config == ClusterConfig()


def root(V):
    return np.zeros(V, dtype=np.int32)


class TestInitLevel:
    def test_znr_leaves_sibling_empty(self):
        class_of = init_level(root(5), 0, "znr")
        assert class_of.dtype == np.int32
        assert class_of.tolist() == [0] * 5

    def test_m_is_deterministic_per_seed(self):
        a = init_level(root(40), 0, "m", seed=7)
        b = init_level(root(40), 0, "m", seed=7)
        assert np.array_equal(a, b)
        c = init_level(root(40), 0, "m", seed=8)
        assert not np.array_equal(a, c)

    def test_m_uses_level_in_seed(self):
        lvl1 = init_level(root(40), 0, "m", seed=7)
        lvl2 = init_level(lvl1, 1, "m", seed=7)
        bits2 = lvl2 - (lvl1 << 1)
        assert not np.array_equal(lvl1, bits2)

    def test_pinned_bit_overrides_znr(self):
        class_of = init_level(root(4), 0, "znr", pinned_bits={2: 1})
        assert class_of.tolist() == [0, 0, 1, 0]

    def test_children_are_2c_and_2c_plus_1(self):
        parent = np.array([0, 1, 2, 3, 3], dtype=np.int32)
        class_of = init_level(parent, 2, "znr", pinned_bits={3: 1})
        assert class_of.tolist() == [0, 2, 4, 7, 6]

    def test_frozen_words_ride_with_bit_zero(self):
        # words 0, 1 and 4 are alone in their classes; 2 and 3 share class 2
        parent = np.array([0, 1, 2, 2, 3], dtype=np.int32)
        for seed in range(20):
            class_of = init_level(parent, 2, "m", seed=seed)
            assert class_of[[0, 1, 4]].tolist() == [0, 2, 6]
            assert (class_of[[2, 3]] >> 1).tolist() == [2, 2]
        # a pin overrides the lone word's bit 0
        class_of = init_level(parent, 2, "m", seed=0, pinned_bits={4: 1})
        assert class_of[4] == 7

    def test_level_cap(self):
        with pytest.raises(ConfigError):
            init_level(root(3), 10, "znr")


class TestRunLevel:
    def test_lone_word_cannot_move(self):
        # one word per class at level 1: nothing is eligible
        vocab, stream, store = tiny_corpus("a b a b a".split())
        state = ClusterState(store, np.array([0, 1]), 1)
        stats = run_level(state, "znr")
        assert stats.iterations == 0
        assert stats.committed_moves == 0

    def test_znr_exiles_exactly_one_of_two(self):
        vocab, stream, store = tiny_corpus(["a", "b"] * 100)
        state = ClusterState(store, np.array([0, 0]), 1)
        stats = run_level(state, "znr")
        assert stats.committed_moves == 1
        assert stats.moved_words == [0]  # tie broken by lowest word id
        assert sorted(state.assignment.tolist()) == [0, 1]
        # enumeration oracle: both exile outcomes
        outcomes = []
        for moved in (0, 1):
            a = np.array([0, 0])
            a[moved] = 1
            outcomes.append(acmi_oracle(class_matrix_oracle(stream.ids, a, 2)))
        assert stats.acmi_after == pytest.approx(max(outcomes), abs=1e-12)
        assert stats.acmi_after == pytest.approx(1.0, abs=1e-3)

    def test_acmi_never_decreases_within_level(self):
        rng = np.random.default_rng(3)
        ids = rng.integers(0, 12, 600)
        stream = make_stream(ids)
        store = count_bigrams(stream, 12)
        for strategy in ("m", "znr", "znrp"):
            class_of = init_level(root(12), 0, strategy, seed=5)
            state = ClusterState(store, class_of, 1)
            stats = run_level(state, strategy)
            assert stats.acmi_after >= stats.acmi_before - 1e-12
            trace = [stats.acmi_before] + stats.acmi_trace
            assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))

    def test_iteration_cap_sets_flag(self):
        rng = np.random.default_rng(4)
        ids = rng.integers(0, 20, 800)
        store = count_bigrams(make_stream(ids), 20)
        class_of = init_level(root(20), 0, "znr")
        state = ClusterState(store, class_of, 1)
        state.max_iterations = 1
        stats = run_level(state, "znr")
        assert stats.capped
        assert stats.iterations == 1

    def test_running_acmi_drift_detected(self):
        # nothing can move, so the running value is compared as set
        vocab, stream, store = tiny_corpus("a b a b a".split())
        state = ClusterState(store, np.array([0, 1]), 1)
        state.acmi += 1e-8
        with pytest.raises(ConsistencyError, match="drifted"):
            run_level(state, "znr")
        state = ClusterState(store, np.array([0, 1]), 1)
        state.acmi += 1e-11
        assert run_level(state, "znr").acmi_after == pytest.approx(1.0, abs=1e-12)


class TestCommitRetract:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 10_000),
        level=st.integers(1, 4),
        self_pair=st.booleans(),
        pick=st.integers(0, 2**16),
    )
    def test_commit_then_retract_is_exact(self, seed, level, self_pair, pick):
        C = 1 << level
        _, assignment, store = random_instance(seed, C=C)
        # self_pair: a word with a bigram (w, w), whose mass sits in both
        # of its own context rows
        pool = np.flatnonzero(store.self_count > 0) if self_pair else np.arange(store.V)
        assume(len(pool))
        w = int(pool[pick % len(pool)])
        for source in ("rows", "edges"):
            with context_source(source):
                state = ClusterState(store, assignment, level)
            m, bank = state.matrix, state.bank

            def snapshot():
                return [
                    a.copy()
                    for a in (m.counts, m.row, m.col, state.assignment, bank.left, bank.right)
                ]

            before = snapshot()
            frm = int(state.assignment[w])
            state.commit(w, frm ^ 1)
            assert state.moved == [w]
            assert state.assignment[w] == frm ^ 1
            assert np.array_equal(m.counts, class_matrix(store, state.assignment, C).counts)
            for v in range(store.V):
                fresh = context_vectors(store, state.assignment, v, C)
                L, R = bank.context(v)
                assert np.array_equal(L, fresh.left)
                assert np.array_equal(R, fresh.right)
            state.retract(w, frm)
            for old, new in zip(before, snapshot()):
                assert np.array_equal(old, new)
            with pytest.raises(ValueError, match="already"):
                state.retract(w, frm)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 10_000),
        level=st.integers(2, 6),
        empty=st.booleans(),
        n_moves=st.integers(1, 8),
    )
    def test_commit_all_matches_one_move_at_a_time(self, seed, level, empty, n_moves):
        # a move set with one move per sibling pair, committed at once and
        # one move at a time, on both sources.  Movers are drawn along
        # bigram edges from a word with a (w, w) bigram, so they neighbour
        # each other; with `empty`, class 1 starts empty
        C = 1 << level
        _, assignment, store = random_instance(seed, C=C)
        if empty:
            assignment[assignment == 1] = 0
        rng = np.random.default_rng(seed)
        queue = rng.permutation(store.V).tolist()
        if store.self_count.any():
            queue.insert(0, int(rng.choice(np.flatnonzero(store.self_count))))
        words, pairs = [], set()
        while queue and len(words) < n_moves:
            w = queue.pop(0)
            if assignment[w] >> 1 not in pairs:
                pairs.add(assignment[w] >> 1)
                words.append(w)
                near = np.concatenate((store.succ(w)[0], store.pred(w)[0]))
                queue[:0] = rng.permutation(near).tolist()
        words = np.array(words)
        to = assignment[words] ^ 1

        def arrays(state):
            m, bank = state.matrix, state.bank
            return m.counts, m.row, m.col, state.assignment, bank.left, bank.right

        for source in ("rows", "edges"):
            with context_source(source):
                at_once = ClusterState(store, assignment, level)
                one_by_one = ClusterState(store, assignment, level)
            at_once.dirty[:] = one_by_one.dirty[:] = False
            at_once.commit_all(words, to)
            for w, t in zip(words, to):
                one_by_one.commit(int(w), int(t))
            for a, b in zip(arrays(at_once), arrays(one_by_one)):
                assert np.array_equal(a, b)
            fresh = class_matrix(store, at_once.assignment, C)
            with context_source(source):
                bank = ContextBank(store, at_once.assignment.copy(), C)
            for a, b in zip(arrays(at_once), (fresh.counts, fresh.row, fresh.col,
                                              bank.assignment, bank.left, bank.right)):
                assert np.array_equal(a, b)
            assert at_once.moved == one_by_one.moved == words.tolist()
            pairs_of = [d[0::2] | d[1::2] for d in (at_once.dirty, one_by_one.dirty)]
            assert np.array_equal(*pairs_of)
            assert abs(at_once.acmi - acmi(at_once.matrix)) <= 1e-9

            if not empty:
                continue
            # a word of class 0 whose id reads 1, the empty class: moving it
            # "back" to 0 takes its bigrams from class 1's zero counts
            heavy = np.flatnonzero((assignment == 0) & (store.succ_total + store.pred_total > 0))
            assume(len(heavy))
            w = int(heavy[0])
            kept = [(v, t) for v, t in zip(words, to) if assignment[v] >> 1 and v != w]
            bad_words = np.array([w] + [v for v, _ in kept])
            bad_to = np.array([0] + [t for _, t in kept])
            for commit_set in (
                lambda state: state.commit_all(bad_words, bad_to),
                lambda state: [state.commit(int(v), int(t)) for v, t in zip(bad_words, bad_to)],
            ):
                with context_source(source):
                    state = ClusterState(store, assignment, level)
                state.assignment[w] = 1
                with pytest.raises(ConsistencyError, match="negative"):
                    commit_set(state)

    @pytest.mark.parametrize("level", range(1, 11))
    def test_move_sequences_match_rebuild(self, level):
        # on both sources: V=60 and about 1,200 pairs of int32 counts keep
        # rows at every level, so the default rule alone covers no edges
        C = 1 << level
        _, assignment, store = random_instance(40 + level, V=60, length=1500, C=C)
        assert store.counts.dtype == np.int32
        for source in ("rows", "edges"):
            with context_source(source):
                state = ClusterState(store, assignment, level)
            assert state.bank.dense == (source == "rows")
            rng = np.random.default_rng(level)
            for step in range(300):
                w = int(rng.integers(0, store.V))
                frm = int(state.assignment[w])
                if step % 3:
                    state.commit(w, frm ^ 1)
                else:
                    state.retract(w, (frm + int(rng.integers(1, C))) % C if C > 2 else frm ^ 1)
                rebuilt = class_matrix(store, state.assignment, C)
                assert np.array_equal(state.matrix.counts, rebuilt.counts)
                assert np.array_equal(state.matrix.row, rebuilt.row)
                assert np.array_equal(state.matrix.col, rebuilt.col)
            for v in range(store.V):
                fresh = context_vectors(store, state.assignment, v, C)
                L, R = state.bank.context(v)
                assert np.array_equal(L, fresh.left)
                assert np.array_equal(R, fresh.right)


def row_budget(store, C, headroom=True):
    """The bytes a bank at C classes may give its rows: BANK_BYTES_PER_PAIR
    per bigram pair or, with headroom, a quarter of what a 1024-class
    matrix holds above one of C, whichever is more."""
    quarter = (1024**2 - C**2) * store.counts.itemsize // 4 if headroom else 0
    return max(BANK_BYTES_PER_PAIR * len(store.counts), quarter)


def dense_rows(store, C, headroom=True):
    """Whether a bank at C classes keeps rows: both sides' V x C cells fit
    in row_budget."""
    return 2 * C * store.V * store.counts.itemsize <= row_budget(store, C, headroom)


def corpus_of(top_k):
    vocab, stream = build_vocabulary(
        markov_text(20_000, n_types=2000, n_states=16, seed=5), top_k
    )
    return vocab, count_bigrams(stream, vocab.size)


def banks_built(monkeypatch):
    """The (C, dense, bytes of rows) of every ContextBank built from now
    on, in order."""
    built = []
    init = ContextBank.__init__

    def recorded(bank, *args, **kwargs):
        init(bank, *args, **kwargs)
        built.append((bank.C, bank.dense, bank.left.nbytes + bank.right.nbytes))

    monkeypatch.setattr(ContextBank, "__init__", recorded)
    return built


class TestContextBankChoice:
    @pytest.mark.parametrize("seed", range(6))
    def test_bank_exactly_below_the_crossover(self, seed):
        _, assignment, store = random_instance(seed, C=2)
        for level in range(1, 11):
            C = 1 << level
            state = ClusterState(store, assignment, level)
            dense = dense_rows(store, C)
            assert state.bank.dense == dense
            rows = store.V if dense else 0
            assert state.bank.left.shape == state.bank.right.shape == (rows, C)
            bank_bytes = state.bank.left.nbytes + state.bank.right.nbytes
            assert bank_bytes <= row_budget(store, C)

    def test_no_bank_allocated_above_the_crossover(self, monkeypatch):
        # every ContextBank a run builds with dense rows, by class count
        vocab, stream = build_vocabulary(
            markov_text(20_000, n_types=10_000, n_states=24, seed=7), 200
        )
        store = count_bigrams(stream, vocab.size)
        built = []
        init = ContextBank.__init__

        def counted(bank, store, assignment, C):
            init(bank, store, assignment, C)
            if bank.left.size:
                built.append(C)

        monkeypatch.setattr(ContextBank, "__init__", counted)
        cluster(vocab, store, ClusterConfig(strategy="znrp", levels=10))
        dense = [1 << level for level in range(1, 11) if dense_rows(store, 1 << level)]
        assert built == dense
        # the headroom puts a level on rows that the pair bound alone would not
        pair_bound = [C for C in dense if dense_rows(store, C, headroom=False)]
        assert 0 < len(pair_bound) < len(dense) < 10

    @pytest.mark.parametrize("top_k, sources", [(150, "rrrrrrrrre"), (600, "rrrrrrreee")])
    def test_no_level_peaks_above_the_last(self, top_k, sources, monkeypatch):
        # in a 10-level run, rows the headroom admits, with their build's
        # tally and the scorer's gathered copy of them, fit in memory the
        # last level holds anyway.  At top_k=600 a bound of the whole
        # headroom would put L9 on rows and raise its peak above L10's
        vocab, store = corpus_of(top_k)
        built = banks_built(monkeypatch)
        peaks = []
        init, run = ClusterState.__init__, splitter.run_level

        def level_start(state, *args, **kwargs):
            tracemalloc.reset_peak()
            init(state, *args, **kwargs)

        def level_end(state, strategy):
            stats = run(state, strategy)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return stats

        monkeypatch.setattr(ClusterState, "__init__", level_start)
        monkeypatch.setattr(splitter, "run_level", level_end)
        tracemalloc.start()
        try:
            cluster(vocab, store, ClusterConfig(strategy="znrp", levels=10))
        finally:
            tracemalloc.stop()
        assert len(peaks) == 10
        assert max(peaks) == peaks[-1]
        assert "".join("r" if dense else "e" for _, dense, _ in built) == sources
        assert any(dense and not dense_rows(store, C, headroom=False) for C, dense, _ in built)

    def test_a_level_chooses_as_a_bank_built_alone(self, monkeypatch):
        # at every level of runs that end at levels 4, 7 and 10, the bank
        # chooses as one built alone at that level's class count, and its
        # rows keep within the larger of the two bounds
        vocab, store = corpus_of(600)
        built = banks_built(monkeypatch)
        runs = {}
        for levels in (4, 7, 10):
            cluster(vocab, store, ClusterConfig(strategy="znrp", levels=levels))
            runs[levels] = list(built)
            built.clear()
        monkeypatch.undo()
        alone = {}
        for C in (1 << level for level in range(1, 11)):
            bank = ContextBank(store, np.zeros(store.V, dtype=np.int32), C)
            alone[C] = bank.dense
            assert bank.dense == dense_rows(store, C)
        for levels, banks in runs.items():
            assert [C for C, _, _ in banks] == [1 << level for level in range(1, levels + 1)]
            for C, dense, nbytes in banks:
                assert dense == alone[C]
                assert nbytes <= row_budget(store, C)
        assert "".join("r" if dense else "e" for _, dense, _ in runs[10]) == "rrrrrrreee"


@pytest.mark.parametrize("strategy", ["m", "znr", "znrp"])
def test_both_sources_give_identical_runs(strategy, monkeypatch):
    # forced rows, forced edges and the default rule, which puts this run's
    # L1-L9 on rows and L10 on edges: same tags and stats, wall time aside
    vocab, store = corpus_of(150)
    built = banks_built(monkeypatch)
    config = ClusterConfig(strategy=strategy, levels=10, seed=3)
    runs = {}
    for source in ("rows", "edges", "default"):
        forced = contextlib.nullcontext() if source == "default" else context_source(source)
        with forced:
            tags, stats = cluster(vocab, store, config)
        runs[source] = (
            tags.rows,
            [{**vars(s), "wall_time": None} for s in stats],
            "".join("r" if dense else "e" for _, dense, _ in built),
        )
        built.clear()
    assert runs["rows"][2] == "r" * 10
    assert runs["edges"][2] == "e" * 10
    assert runs["default"][2] == "r" * 9 + "e"
    for source in ("edges", "default"):
        assert runs[source][:2] == runs["rows"][:2]


def reference_deltas(state):
    """Scalar delta_acmi for every eligible word, in word order."""
    words = state.eligible_words()
    return words, np.array([
        delta_acmi(
            state.matrix, state.bank, int(w),
            int(state.assignment[w]), int(state.assignment[w]) ^ 1,
        )
        for w in words
    ])


def separated(values):
    """True when the best value is unique by more than 1e-9."""
    top = np.sort(values)[::-1]
    return len(top) < 2 or top[0] - top[1] > 1e-9


def search_states():
    """Random mid-search states at C = 2..16, with empty siblings at C=2."""
    for seed in range(40):
        level = 1 + seed % 4
        C = 1 << level
        _, assignment, store = random_instance(500 + seed, C=C)
        if level == 1 and seed % 8 == 0:
            assignment[:] = 0
        yield ClusterState(store, assignment, level)


class TestSearchSelection:
    def test_single_move_matches_scalar_loop(self):
        checked = 0
        for state in search_states():
            words, d = reference_deltas(state)
            if not separated(d):
                continue
            best = int(words[np.argmax(d)]) if d.size and d.max() > EPSILON else None
            splitter._iteration(state, False)
            chosen = state.moved
            assert chosen == ([] if best is None else [best])
            checked += 1
        assert checked >= 30

    def test_parallel_matches_scalar_loop_per_parent(self):
        checked = 0
        for state in search_states():
            words, d = reference_deltas(state)
            parent = state.assignment[words] >> 1
            if not all(separated(d[parent == p]) for p in np.unique(parent)):
                continue
            expected = set()
            for p in np.unique(parent):
                mine = np.flatnonzero(parent == p)
                i = mine[np.argmax(d[mine])]
                if d[i] > EPSILON:
                    expected.add(int(words[i]))
            splitter._iteration(state, True)
            assert set(state.moved) == expected
            checked += 1
        assert checked >= 20

    def test_first_word_wins_exact_ties(self):
        # words 0 and 1 are mirror images: either exile gives the same split
        vocab, stream, store = tiny_corpus(["a", "b"] * 100)
        for strategy in ("znr", "znrp"):
            state = ClusterState(store, np.array([0, 0]), 1)
            run_level(state, strategy)
            assert state.moved[0] == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_one_group_pick_on_planted_ties(self, seed, monkeypatch):
        # deltas drawn from a few values, so the best one is shared by
        # several words; with one group (znr, m, and znrp at level 1) the
        # pick is the best delta, then the lowest word id.  A word's delta
        # is drawn anew whenever the step rescores it, so it is a function
        # of the word and of the step that last scored it, which is what
        # the step reads back for the words it does not rescore
        rng = np.random.default_rng(seed)
        planted = {}

        def tied(matrix, bank, words, frm):
            d = rng.choice([-1e-3, 0.0, 2e-3, 5e-3], len(words))
            planted["latest"][words] = d
            return d

        monkeypatch.setattr(splitter, "batch_deltas", tied)
        # planted deltas obey no drift bound, so level 1 rescores all words
        monkeypatch.setattr(splitter, "DRIFT_MARGIN", np.inf)
        checked = kept = 0
        for state in search_states():
            per_parent = state.level == 1 and seed % 2 == 1
            planted["latest"] = np.full(len(state.assignment), np.nan)
            for _ in range(5):
                n_moves, n_scored = len(state.moved), state.words_scored
                words = state.eligible_words()
                splitter._iteration(state, per_parent)
                d = planted["latest"][words]
                assert not np.isnan(d).any()
                best = d.max()
                expected = [int(words[d == best].min())] if best > EPSILON else []
                assert state.moved[n_moves:] == expected
                checked += int(np.sum(d == d.max()) > 1)
                kept += state.words_scored - n_scored < len(words)
        assert checked >= 50
        assert kept >= 5

    def test_zero_delta_is_not_a_move(self):
        # word 12 never occurs, so moving it scores exactly 0: once the
        # level has converged, no iteration may commit it
        rng = np.random.default_rng(14)
        store = count_bigrams(make_stream(rng.integers(0, 12, 900)), 13)
        for strategy, per_parent in (("znr", False), ("znrp", True)):
            state = ClusterState(store, np.zeros(13, dtype=np.int32), 1)
            run_level(state, strategy)
            n_moves = len(state.moved)
            assert splitter._iteration(state, per_parent) == (False, 0)
            assert len(state.moved) == n_moves

    def test_lone_parallel_move_books_exact_acmi(self):
        # at level 1 there is one parent, so every znrp step commits at
        # most one move and books its frozen delta without a rescan
        steps = 0
        for state in search_states():
            if state.level != 1:
                continue
            while True:
                n_moves = len(state.moved)
                progressed, n_r = splitter._iteration(state, True)
                if not progressed:
                    break
                assert n_r == 0
                assert len(state.moved) == n_moves + 1
                assert abs(state.acmi - acmi(state.matrix)) <= 1e-9
                steps += 1
        assert steps >= 20

    def test_batch_bookkeeping_is_exact(self, monkeypatch):
        # znrp books each batch and each retraction from the h-terms of the
        # cells and marginals it changed; a full acmi() runs only at a
        # level's start and end.  Every such booking equals the h-terms of
        # the touched classes' whole rows and columns, summed before and
        # after, to 1e-12 relative.  This corpus retracts at levels 5 and 7.
        vocab, stream = build_vocabulary(
            markov_text(20_000, n_types=10_000, n_states=24, seed=7), 200
        )
        store = count_bigrams(stream, vocab.size)
        full_calls = Counter()
        full = splitter.acmi

        def counted_acmi(matrix):
            full_calls[matrix.C] += 1
            return full(matrix)

        checked = Counter()

        def assert_booked(state, what):
            assert abs(state.acmi - acmi(state.matrix)) <= 1e-9
            checked[what] += 1

        retract = splitter.ClusterState.retract

        def checked_retract(state, w, back_to):
            # the batch, or the retraction before this one, is booked
            assert_booked(state, "retraction")
            retract(state, w, back_to)

        move_all = splitter.ClusterState._move_all

        def checked_move_all(state, words, to):
            touched = np.concatenate((state.assignment[words], to))
            before = line_terms(state.matrix, touched)
            change = move_all(state, words, to)
            after = line_terms(state.matrix, touched)
            # relative to the line sums, whose difference rounds far more
            # than the booking's sum over the changed cells does
            assert abs(change - (after - before)) <= 1e-12 * abs(before)
            checked["oracle"] += 1
            return change

        step = splitter._iteration

        def checked_step(state, per_parent):
            n_moves = len(state.moved)
            out = step(state, per_parent)
            assert_booked(state, "batch" if len(state.moved) - n_moves >= 2 else "step")
            return out

        monkeypatch.setattr(splitter, "acmi", counted_acmi)
        monkeypatch.setattr(splitter.ClusterState, "retract", checked_retract)
        monkeypatch.setattr(splitter.ClusterState, "_move_all", checked_move_all)
        monkeypatch.setattr(splitter, "_iteration", checked_step)
        _, stats = cluster(vocab, store, ClusterConfig(strategy="znrp", levels=10))
        assert checked["retraction"] == sum(s.retracted_moves for s in stats) > 0
        assert checked["batch"] > 50
        assert checked["oracle"] >= checked["batch"] + checked["retraction"]
        assert full_calls == {1 << level: 2 for level in range(1, 11)}

    @pytest.mark.parametrize("strategy", ["m", "znr", "znrp"])
    def test_kept_deltas_equal_a_full_rescore(self, strategy, monkeypatch):
        # at every step of a 10-level run above level 1, the deltas the
        # step picks from (rescored for dirty pairs, kept for the rest) are
        # bit-identical to scoring every eligible word afresh.  At level 1
        # the rescored words' deltas are, every skipped word's fresh delta
        # lies within its kept delta +- slack and below tau, and the pick
        # and the booked ACMI are those of a full rescore.  znrp retracts
        # on this corpus at levels 5 and 7, and two words are pinned
        vocab, stream = build_vocabulary(
            markov_text(20_000, n_types=10_000, n_states=24, seed=7), 200
        )
        store = count_bigrams(stream, vocab.size)
        pinned = {vocab.entries[3].surface: "0110", vocab.entries[40].surface: "1"}
        kernel = splitter.batch_deltas
        step = splitter._iteration
        steps = []
        rescored = []

        def spy(matrix, bank, words, frm):
            rescored.append(words)
            return kernel(matrix, bank, words, frm)

        def checked_step(state, per_parent):
            words = state.eligible_words()
            frm = state.assignment[words]
            full = kernel(state.matrix, state.bank, words, frm)
            scored, start, n_moves = state.words_scored, state.acmi, len(state.moved)
            if state.level == 1:
                kept = state.delta[words]
                slack = state.bound[words] + splitter.DRIFT_MARGIN
                tau = (kept - slack).max()
            out = step(state, per_parent)
            steps.append((state.level, state.words_scored - scored, len(words)))
            if state.level > 1:
                assert np.array_equal(state.delta[words], full)
                return out
            redo = np.isin(words, rescored[-1])
            assert np.array_equal(state.delta[words[redo]], full[redo])
            assert (np.abs(full[~redo] - kept[~redo]) <= slack[~redo]).all()
            assert (full[~redo] < tau).all()
            best = np.lexsort((words, -full))[0]
            if full[best] > EPSILON:
                assert out == (True, 0)
                assert state.moved[n_moves:] == [int(words[best])]
                assert state.acmi == start + full[best]
            else:
                assert out == (False, 0)
            return out

        monkeypatch.setattr(splitter, "batch_deltas", spy)
        monkeypatch.setattr(splitter, "_iteration", checked_step)
        config = ClusterConfig(strategy=strategy, levels=10, seed=3, pinned=pinned)
        _, stats = cluster(vocab, store, config)
        assert len(steps) == sum(s.iterations + (not s.capped) for s in stats)
        for s in stats:
            mine = [(n, e) for level, n, e in steps if level == s.level]
            assert s.words_scored == sum(n for n, _ in mine)
            assert s.words_eligible == sum(e for _, e in mine)
        # both rules keep some deltas: fewer words rescored than chosen from
        assert stats[0].words_scored < stats[0].words_eligible / 2
        assert sum(s.words_scored for s in stats[1:]) < sum(s.words_eligible for s in stats[1:])
        if strategy == "znrp":
            assert sum(s.retracted_moves for s in stats) > 0

    def test_pinned_and_lone_words_never_scored(self, monkeypatch):
        rng = np.random.default_rng(13)
        store = count_bigrams(make_stream(rng.integers(0, 12, 900)), 12)
        # class 3 holds word 11 alone; word 0 is pinned
        assignment = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2, 2, 2, 3])
        pinned = np.zeros(12, dtype=bool)
        pinned[0] = True
        kernel = splitter.batch_deltas
        calls = []

        def spy(matrix, bank, words, frm):
            sizes = np.bincount(state.assignment, minlength=state.C)
            calls.append(words.tolist())
            assert not pinned[words].any()
            assert (sizes[state.assignment[words]] >= 2).all()
            return kernel(matrix, bank, words, frm)

        monkeypatch.setattr(splitter, "batch_deltas", spy)
        for strategy in ("znr", "znrp"):
            state = ClusterState(store, assignment, 2, pinned_mask=pinned)
            run_level(state, strategy)
            assert 11 not in calls[0]
            calls.clear()


def level_one_corpus(kind):
    """A seeded store whose last word never occurs, and two pinned bits."""
    if kind == "markov":
        text = markov_text(20_000, n_types=2000, n_states=16, seed=5)
        vocab, stream = build_vocabulary(text, 150)
    else:
        vocab, stream = build_vocabulary(elman.sentences(2000, seed=4), 29)
    store = count_bigrams(stream, vocab.size + 1)
    assert store.succ_total[-1] == store.pred_total[-1] == 0
    return store, {3: 1, 7: 0}


def exact_level_one_deltas(store, assignment):
    """Every word's level-1 move delta, summed in 50-digit decimals."""
    matrix = class_matrix(store, assignment, 2)
    N, row, col = matrix.counts.tolist(), matrix.row.tolist(), matrix.col.tolist()
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        ln2 = Decimal(2).ln()

        def dh(n, x):
            # h(n + x) - h(n), h(n) = n lg n
            h = [Decimal(v) * Decimal(v).ln() / ln2 if v else Decimal(0) for v in (n + x, n)]
            return h[0] - h[1]

        out = []
        for w in range(store.V):
            a = int(assignment[w])
            b = a ^ 1
            L, R, f = context_vectors(store, assignment, w, 2)
            La, Lb, Ra, Rb = int(L[a]), int(L[b]), int(R[a]), int(R[b])
            sL, sR = La + Lb, Ra + Rb
            d = (
                dh(N[a][a], -La - Ra + f) + dh(N[a][b], -Lb + Ra - f)
                + dh(N[b][a], La - Rb - f) + dh(N[b][b], Lb + Rb + f)
                - dh(row[a], -sL) - dh(row[b], sL) - dh(col[a], -sR) - dh(col[b], sR)
            )
            out.append(float(d / matrix.T))
    return np.array(out)


class TestLevelOneBound:
    @pytest.mark.parametrize("kind", ["markov", "elman"])
    @pytest.mark.parametrize("strategy, seed", [("m", 1), ("m", 2), ("znr", 0), ("znrp", 0)])
    def test_lockstep_with_a_full_rescore(self, kind, strategy, seed):
        # level 1 under its drift bound and under a full rescore, a step at
        # a time: the same moves, booked ACMI and class ids.  Every commit
        # widens each bound it leaves finite by at least the drift of that
        # word's fresh delta
        store, pins = level_one_corpus(kind)
        V = store.V
        pinned = np.zeros(V, dtype=bool)
        pinned[list(pins)] = True
        start = init_level(np.zeros(V, dtype=np.int32), 0, strategy, seed, pins)
        lazy, full = (ClusterState(store, start, 1, pinned_mask=pinned) for _ in range(2))
        every = np.arange(V)
        finite = []

        def checked_commit(w, to):
            fresh = splitter.batch_deltas(lazy.matrix, lazy.bank, every, lazy.assignment)
            bound = lazy.bound.copy()
            ClusterState.commit(lazy, w, to)
            now = splitter.batch_deltas(lazy.matrix, lazy.bank, every, lazy.assignment)
            kept = np.isfinite(lazy.bound)
            grown = lazy.bound[kept] - bound[kept] + splitter.DRIFT_MARGIN
            assert (np.abs(now - fresh)[kept] <= grown).all()
            finite.append(kept.sum())

        lazy.commit = checked_commit
        per_parent = strategy == "znrp"
        for _ in range(lazy.max_iterations):
            out = splitter._iteration(lazy, per_parent)
            with full_rescore():
                assert splitter._iteration(full, per_parent) == out
            assert lazy.moved == full.moved
            assert lazy.acmi == full.acmi
            if not out[0]:
                break
        assert not out[0]
        assert np.array_equal(lazy.assignment, full.assignment)
        assert V - 1 not in lazy.moved
        assert sum(finite) > V
        # at V = 30 nearly every Elman word neighbours each mover or holds
        # over half of t, so only the Markov runs skip many words
        assert lazy.words_scored <= full.words_scored
        if kind == "markov":
            assert lazy.words_scored < 0.95 * full.words_scored

    def test_heavy_word_gets_an_infinite_bound(self):
        # word 0 only precedes word 1, M times, and so holds all but one of
        # cell (0, 0)'s bigrams; word 2 moving 0 -> 1 takes that one away,
        # so t = M < 2 m(0) = 2M.  The slope bound needs 2m <= t: here word
        # 0's delta moves by about (lg M + lg e) / T, more than the
        # 2 lg e m Y / (t T) = 8 lg e / T it would give
        M, K = 1 << 20, 1000
        left, right = np.array([0, 1, 1, 3, 4]), np.array([1, 2, 3, 4, 3])
        store = BigramStore(5, left, right, np.array([M, 1, M, K, K]))
        assignment = np.array([0, 0, 0, 1, 1], dtype=np.int32)
        state = ClusterState(store, assignment, 1)
        state.bound[:] = 0.0  # as if every word had just been scored
        every = np.arange(5)
        before = splitter.batch_deltas(state.matrix, state.bank, every, state.assignment)
        state.commit(2, 1)
        after = splitter.batch_deltas(state.matrix, state.bank, every, state.assignment)
        drift = np.abs(after - before)
        assert drift[0] * store.T > 8 * splitter.LOG2E
        assert state.bound[0] == np.inf
        # word 4 is light and far from the move: its bound stays finite
        kept = np.isfinite(state.bound)
        assert kept[4]
        assert (drift[kept] <= state.bound[kept] + splitter.DRIFT_MARGIN).all()

    def test_znr_start_widens_every_bound_without_warnings(self):
        # bit 1 starts empty, so the first step's t is 0: every bound
        # becomes infinite, with no division by zero
        store, _ = level_one_corpus("markov")
        state = ClusterState(store, init_level(np.zeros(store.V, dtype=np.int32), 0, "znr"), 1)
        assert np.isinf(state.bound).all()
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert splitter._iteration(state, False) == (True, 0)
            assert np.isinf(state.bound).all()
            run_level(state, "znr")
        assert np.isfinite(state.bound).any()

    @pytest.mark.parametrize("scale", [1, 1 << 20, 1 << 36])
    def test_margin_covers_kernel_rounding(self, scale):
        # a level-1 delta from batch_deltas is off from its exact value by
        # less than a hundredth of DRIFT_MARGIN, here up to T ~ 2^51, so a
        # kept and a fresh delta of one word differ by less than the margin
        # beyond their exact drift
        rng = np.random.default_rng(scale % 97)
        V = 12
        left, right = np.divmod(rng.choice(V * V, 60, replace=False), V)
        store = BigramStore(V, left, right, rng.integers(1, 1000, 60) * scale)
        for _ in range(5):
            assignment = rng.integers(0, 2, V).astype(np.int32)
            matrix = class_matrix(store, assignment, 2)
            bank = ContextBank(store, assignment, 2)
            got = splitter.batch_deltas(matrix, bank, np.arange(V), assignment)
            error = np.abs(got - exact_level_one_deltas(store, assignment))
            assert error.max() <= splitter.DRIFT_MARGIN / 100


class TestCluster:
    def test_two_words_get_singleton_tags(self):
        vocab, _, store = tiny_corpus(["a", "b"] * 50)
        tags, stats = cluster(vocab, store, ClusterConfig(strategy="znr", levels=3))
        bits = tags.bits_by_surface()
        assert sorted(bits.values()) == ["0", "1"]
        assert len(stats) == 3

    def test_tags_cover_pseudo_words(self):
        tokens = ("the cat sat on the mat . " * 30).split() + ["zyzzyva", "7", "qq"]
        vocab, _, store = tiny_corpus(tokens, top_k=6)
        tags, _ = cluster(vocab, store, ClusterConfig(strategy="znrp", levels=4))
        surfaces = {r.surface for r in tags.rows}
        assert vocab.size == len(tags.rows)
        assert any(s.startswith("<") for s in surfaces)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(6)
        tokens = [f"w{int(i)}" for i in rng.integers(0, 25, 2000)]
        vocab, _, store = tiny_corpus(tokens)
        for strategy in ("znr", "znrp"):
            t1, s1 = cluster(vocab, store, ClusterConfig(strategy=strategy, levels=5))
            t2, s2 = cluster(vocab, store, ClusterConfig(strategy=strategy, levels=5))
            assert t1.rows == t2.rows
            assert [x.committed_moves for x in s1] == [x.committed_moves for x in s2]
            assert [x.acmi_after for x in s1] == [x.acmi_after for x in s2]

    def test_m_seeds_recorded_not_equal(self):
        rng = np.random.default_rng(7)
        tokens = [f"w{int(i)}" for i in rng.integers(0, 25, 2000)]
        vocab, _, store = tiny_corpus(tokens)
        t1, _ = cluster(vocab, store, ClusterConfig(strategy="m", levels=4, seed=1))
        t2, _ = cluster(vocab, store, ClusterConfig(strategy="m", levels=4, seed=2))
        # different seeds may legally coincide, but the run must not crash
        # and must stay internally consistent
        assert len(t1.rows) == len(t2.rows)

    def test_hierarchy_prefixes_nest(self):
        rng = np.random.default_rng(8)
        tokens = [f"w{int(i)}" for i in rng.integers(0, 30, 3000)]
        vocab, _, store = tiny_corpus(tokens)
        shallow, _ = cluster(vocab, store, ClusterConfig(strategy="znr", levels=2))
        deep, _ = cluster(vocab, store, ClusterConfig(strategy="znr", levels=3))
        # level-3 class id shifted right once must equal the level-2 class id
        b2 = shallow.bits_by_surface()
        b3 = deep.bits_by_surface()
        for surface, bits in b3.items():
            prefix = b2[surface]
            assert bits[: len(prefix)] == prefix or bits == prefix[: len(bits)]

    def test_tag_bits_match_class_ids(self):
        rng = np.random.default_rng(9)
        tokens = [f"w{int(i)}" for i in rng.integers(0, 20, 1500)]
        vocab, _, store = tiny_corpus(tokens)
        tags, _ = cluster(vocab, store, ClusterConfig(strategy="znrp", levels=4))
        for r in tags.rows:
            assert r.bits == format(r.class_id, f"0{len(r.bits)}b")
            assert 1 <= len(r.bits) <= 4

    def test_frozen_singleton_stops_growing_bits(self):
        # "rare" is a singleton class early; its tag must stay short
        tokens = ("a b " * 200).split() + ["rare"]
        vocab, _, store = tiny_corpus(tokens)
        tags, _ = cluster(vocab, store, ClusterConfig(strategy="znr", levels=4))
        bits = tags.bits_by_surface()
        assert max(len(b) for b in bits.values()) <= 4
        lengths = sorted(len(b) for b in bits.values())
        assert lengths[0] < 4  # somebody froze before the last level

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        ids=st.lists(st.integers(0, 11), min_size=20, max_size=200),
        strategy=st.sampled_from(splitter.STRATEGIES),
        levels=st.integers(1, 6),
        seed=st.integers(0, 3),
        pins=st.dictionaries(
            st.integers(0, 11), st.text("01", min_size=1, max_size=8), max_size=3
        ),
    )
    def test_tag_ends_where_word_is_alone(self, ids, strategy, levels, seed, pins):
        vocab, _, store = tiny_corpus([f"w{i}" for i in ids])
        assume(vocab.size >= 2)
        pinned = {f"w{w}": p for w, p in pins.items() if f"w{w}" in vocab.index}
        config = ClusterConfig(
            strategy=strategy, levels=levels, seed=seed, pinned=pinned or None
        )
        tags, _ = cluster(vocab, store, config)
        bits = tags.bits_by_surface()
        for surface, t in bits.items():
            others = [u for other, u in bits.items() if other != surface]
            path = pinned.get(surface, "")[:levels]
            assert t.startswith(path)
            if len(t) < levels:
                # alone at its last level
                assert not any(u.startswith(t) for u in others)
            if len(t) > len(path):
                # not alone one level up
                assert any(u.startswith(t[:-1]) for u in others)

    def test_empty_corpus_rejected(self):
        vocab, _, store = tiny_corpus(["solo"])
        with pytest.raises(IngestionError):
            cluster(vocab, store, ClusterConfig())

    def test_unknown_pin_rejected(self):
        vocab, _, store = tiny_corpus(["a", "b"] * 30)
        with pytest.raises(ConfigError):
            cluster(vocab, store, ClusterConfig(pinned={"missing": "1"}))

    def test_store_of_another_vocabulary_rejected(self):
        # the store's word ids must be the vocabulary's, in both directions
        tokens = [f"w{int(i)}" for i in np.random.default_rng(2).integers(0, 40, 2000)]
        big, _, big_store = tiny_corpus(tokens, 30)
        small, _, small_store = tiny_corpus(tokens, 12)
        for vocab, store in ((big, small_store), (small, big_store)):
            with pytest.raises(ConfigError, match=f"{store.V} words.* has {vocab.size}"):
                cluster(vocab, store, ClusterConfig(levels=3))


class TestPinning:
    def _pinned_run(self, pin_bit="1"):
        rng = np.random.default_rng(11)
        tokens = [f"w{int(i)}" for i in rng.integers(0, 16, 1500)]
        vocab, _, store = tiny_corpus(tokens)
        pinned = {"w0": pin_bit, "w1": pin_bit}
        config = ClusterConfig(strategy="znr", levels=4, pinned=pinned)
        tags, stats = cluster(vocab, store, config)
        return vocab, tags, stats, pinned

    def test_pinned_words_keep_prefix(self):
        _, tags, _, pinned = self._pinned_run()
        bits = tags.bits_by_surface()
        for surface, path in pinned.items():
            assert bits[surface].startswith(path)

    def test_pinned_words_never_move(self):
        vocab, _, stats, pinned = self._pinned_run()
        pinned_ids = {vocab.index[s] for s in pinned}
        for st in stats:
            assert not pinned_ids & set(st.moved_words)

    def test_pin_respected_under_m_strategy(self):
        rng = np.random.default_rng(12)
        tokens = [f"w{int(i)}" for i in rng.integers(0, 16, 1500)]
        vocab, _, store = tiny_corpus(tokens)
        config = ClusterConfig(strategy="m", levels=3, seed=5, pinned={"w2": "01"})
        tags, stats = cluster(vocab, store, config)
        assert tags.bits_by_surface()["w2"].startswith("01")
        pinned_id = vocab.index["w2"]
        for st in stats:
            assert pinned_id not in st.moved_words


class TestOracleMinMoves:
    def test_thousand_word_simulation(self):
        mean = oracle_min_moves(1000, (700, 300), trials=100, seed=1)
        assert 479 <= mean <= 499

    def test_two_words_balanced_target(self):
        # enumeration over the 4 assignments gives (1+0+0+1)/4 = 0.5
        mean = oracle_min_moves(2, (1, 1), trials=4000, seed=0)
        assert mean == pytest.approx(0.5, abs=0.05)

    def test_single_word_is_free(self):
        assert oracle_min_moves(1, (1, 0), trials=50, seed=3) == 0.0

    def test_bad_target_rejected(self):
        with pytest.raises(ConfigError):
            oracle_min_moves(10, (7, 4), trials=5)
