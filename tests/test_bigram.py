import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagsplit import BigramStore, ConsistencyError, class_matrix, count_bigrams
from tagsplit.bigram import ContextBank, apply_move, run_starts
from tagsplit.objective import batch_deltas, delta_acmi
from conftest import (
    bank_from,
    class_matrix_oracle,
    context_oracle,
    context_vectors,
    make_stream,
    pair_count,
    pair_counts_oracle,
    random_instance,
)


def assert_matches_pair_oracle(ids, breaks, V) -> BigramStore:
    store = count_bigrams(make_stream(ids, breaks), V)
    want = pair_counts_oracle(ids, breaks)
    got = zip(store.left.tolist(), store.right.tolist(), store.counts.tolist())
    assert {(w, v): c for w, v, c in got} == want
    assert store.T == sum(want.values())
    return store


class TestCountBigrams:
    def test_simple_counts(self):
        store = count_bigrams(make_stream([0, 1, 0, 1]), 2)
        assert pair_count(store, 0, 1) == 2
        assert pair_count(store, 1, 0) == 1
        assert store.T == 3

    def test_single_token(self):
        store = count_bigrams(make_stream([0], breaks=[0]), 1)
        assert store.T == 0

    def test_self_bigrams(self):
        store = count_bigrams(make_stream([0, 0, 0]), 1)
        assert pair_count(store, 0, 0) == 2
        assert store.self_count[0] == 2
        assert store.T == 2

    def test_empty_stream(self):
        store = count_bigrams(make_stream([]), 3)
        assert (store.V, store.T, len(store.counts)) == (3, 0, 0)
        assert count_bigrams(make_stream([])).V == 0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), V=st.sampled_from([1, 2, 5, 46_340, 70_000]))
    def test_matches_pair_oracle(self, data, V):
        # V=70,000 puts keys past 2**32, so int32 key arithmetic would wrap;
        # 46,340 is the largest V whose keys are built in int32
        ids = data.draw(st.lists(st.integers(0, V - 1), max_size=30))
        cuts = st.integers(0, len(ids))
        breaks = sorted(data.draw(st.lists(cuts, max_size=6)))
        # breaks at 0 and at len(ids) sever nothing
        for br in (breaks, sorted({0, len(ids), *breaks})):
            assert_matches_pair_oracle(ids, br, V)

    @pytest.mark.parametrize(
        "ids, breaks, V",
        [
            # a hand-built stream may list a break more than once
            ([0, 1, 0, 1, 1, 0], [2, 2, 4, 4, 4], 2),
            # every pair severed: an empty store that keeps V
            ([0, 1, 2, 3], [1, 2, 3], 7),
            ([2, 2], [1, 1], 3),
            # the largest real key, (V-1, V-1), right before a severed pair:
            # the sentinel V*V marking severed pairs must sort above it, in
            # int32 keys (V = 46,340) and in int64 keys (V = 46,341)
            ([46_339, 46_339, 46_339, 0], [2], 46_340),
            ([46_340, 46_340, 46_340, 0], [2], 46_341),
            ([46_339, 46_339, 46_339], [2, 2], 46_340),
        ],
    )
    def test_edge_cases_match_pair_oracle(self, ids, breaks, V):
        store = assert_matches_pair_oracle(ids, breaks, V)
        assert store.V == V

    @pytest.mark.parametrize(
        "ids, V", [([0, 5, 1], 3), ([0, -1, 1], 3), ([0, -1, 1], None), ([3], 3)]
    )
    def test_word_id_outside_the_vocabulary_rejected(self, ids, V):
        # 5 at V=3 once made a bogus pair (1, 2), and -1 a word -1
        with pytest.raises(ValueError, match="outside"):
            count_bigrams(make_stream(ids), V)

    def test_counting_holds_one_corpus_long_integer_array(self):
        # 1M int32 ids at V=75, 50,000 breaks: the traced peak was 10.9 MB
        # while a masked copy and np.unique's sorted copy of the key stood
        # beside it, and about 13 MB when np.searchsorted took a Python int
        # and numpy 2 widened the int32 key to int64 to compare with it
        rng = np.random.default_rng(5)
        n, V = 1_000_000, 75
        ids = rng.integers(0, V, n).astype(np.int32)
        breaks = np.sort(rng.choice(np.arange(1, n), 50_000, replace=False))
        stream = make_stream(ids, breaks)
        key_nbytes = (n - 1) * np.dtype(np.int32).itemsize
        tracemalloc.start()
        try:
            store = count_bigrams(stream, V)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert store.T == n - 1 - len(breaks)
        # the key, one bool per token to mark run starts, and 1 MiB for the
        # rest (the breaks' index arrays, the store's pair-sized arrays)
        assert peak <= key_nbytes + n + 2**20

    def test_total_beyond_float64_exactness_rejected(self):
        # per-word sums of counts go through float64, exact below 2**53
        one = np.zeros(1, dtype=np.int64)
        BigramStore(1, one, one, np.array([2**53 - 1]))
        with pytest.raises(ValueError, match="2\\*\\*53"):
            BigramStore(1, one, one, np.array([2**53]))

    def test_count_too_wide_to_pack_rejected(self):
        # (word, class, count) is sorted as one int64: V * MAX_CLASSES
        # shifted by the widest count's bits must stay within 2**63
        one = np.zeros(1, dtype=np.int64)
        BigramStore(16, one, one, np.array([2**49 - 1]))
        with pytest.raises(ValueError, match="63 bits"):
            BigramStore(16, one, one, np.array([2**49]))

    def test_breaks_sever_pairs(self):
        store = count_bigrams(make_stream([0, 1, 0, 1], breaks=[2]), 2)
        assert pair_count(store, 1, 0) == 0
        assert pair_count(store, 0, 1) == 2
        assert store.T == 2

    def test_total_is_length_minus_segments(self, rng):
        for seed in range(10):
            stream, _, store = random_instance(seed)
            segments = len(stream.breaks) + 1
            assert store.T == len(stream.ids) - segments

    def test_succ_pred_mirror(self):
        for seed in range(10):
            stream, _, store = random_instance(seed)
            pairs = pair_counts_oracle(stream.ids, stream.breaks)
            for (w, v), c in pairs.items():
                ids, cnts = store.succ(w)
                assert cnts[list(ids).index(v)] == c
                ids, cnts = store.pred(v)
                assert cnts[list(ids).index(w)] == c
            assert sum(pairs.values()) == store.T

    def test_edges_list_succ_and_pred_of_a_word_set(self):
        stream, _, store = random_instance(4, V=30)
        rng = np.random.default_rng(4)
        # repeats, any order, and words without bigrams
        words = np.concatenate((rng.integers(0, store.V, 25), [store.V - 1] * 2))
        for edges, lists in ((store.succ_edges, store.succ), (store.pred_edges, store.pred)):
            k, v, c = edges(words)
            assert np.all(np.diff(k) >= 0)
            for i, w in enumerate(words):
                ids, cnts = lists(int(w))
                assert np.array_equal(v[k == i], ids)
                assert np.array_equal(c[k == i], cnts)
        k, v, c = store.succ_edges(np.zeros(0, dtype=np.int64))
        assert len(k) == len(v) == len(c) == 0

    def test_totals_per_word(self):
        stream, _, store = random_instance(3)
        pairs = pair_counts_oracle(stream.ids, stream.breaks)
        for w in range(store.V):
            assert store.succ_total[w] == sum(c for (u, _), c in pairs.items() if u == w)
            assert store.pred_total[w] == sum(c for (_, v), c in pairs.items() if v == w)


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.intp])
@pytest.mark.parametrize(
    "values", [[], [7], [3, 3, 3, 3], [0, 1, 0, 1, 0], [1, 1, 2, 5, 5, 5, 9]],
    ids=["empty", "one", "all-equal", "alternating", "sorted-runs"],
)
def test_run_starts_marks_the_first_of_each_run(values, dtype):
    x = np.array(values, dtype=dtype)
    want = np.concatenate(([True], np.diff(x) != 0))[: len(x)]
    got = run_starts(x)
    assert got.dtype == bool
    assert np.array_equal(got, want)


class TestClassMatrix:
    def test_single_class_holds_everything(self):
        stream, _, store = random_instance(1)
        m = class_matrix(store, np.zeros(store.V, dtype=np.int32), 1)
        assert m.counts[0, 0] == store.T

    def test_two_word_example(self):
        store = count_bigrams(make_stream([0, 1, 0, 1]), 2)
        m = class_matrix(store, np.array([0, 1]), 2)
        assert m.counts[0, 1] == 2
        assert m.counts[1, 0] == 1

    def test_matches_full_scan_oracle(self):
        for seed in range(15):
            stream, assignment, store = random_instance(seed)
            C = int(assignment.max()) + 1
            got = class_matrix(store, assignment, C)
            want = class_matrix_oracle(stream.ids, assignment, C, stream.breaks)
            assert np.array_equal(got.counts, want)
            assert np.array_equal(got.row, want.sum(axis=1))
            assert np.array_equal(got.col, want.sum(axis=0))

    def test_build_from_succ_equals_build_from_pred(self):
        stream, assignment, store = random_instance(7)
        C = 4
        from_succ = np.zeros((C, C), dtype=np.int64)
        for w in range(store.V):
            ids, cnts = store.succ(w)
            np.add.at(from_succ, (assignment[w], assignment[ids]), cnts)
        from_pred = np.zeros((C, C), dtype=np.int64)
        for w in range(store.V):
            ids, cnts = store.pred(w)
            np.add.at(from_pred, (assignment[ids], assignment[w]), cnts)
        assert np.array_equal(from_succ, from_pred)

    def test_class_id_out_of_range_rejected(self):
        _, _, store = random_instance(2)
        bad = np.full(store.V, 4, dtype=np.int32)
        with pytest.raises(ValueError):
            class_matrix(store, bad, 4)
        bad[:] = 0
        bad[-1] = -1  # would wrap to the last class
        with pytest.raises(ValueError):
            class_matrix(store, bad, 4)

    def test_narrow_class_ids_do_not_overflow(self):
        stream, assignment, store = random_instance(3)
        C = int(assignment.max()) + 1
        want = class_matrix(store, assignment, C).counts
        # C * C = 2**20 flat cells: int8 ids times C would wrap in int8
        got = class_matrix(store, assignment.astype(np.int8), 1024).counts
        assert np.array_equal(got[:C, :C], want) and got.sum() == want.sum()


class TestContextVectors:
    def test_unseen_word_is_all_zero(self):
        store = count_bigrams(make_stream([0, 1, 0, 1]), 3)
        ctx = context_vectors(store, np.array([0, 1, 1]), 2, 2)
        assert ctx.left.sum() == 0 and ctx.right.sum() == 0

    def test_direct_example(self):
        store = count_bigrams(make_stream([0, 1, 0, 1]), 2)
        ctx = context_vectors(store, np.array([0, 1]), 0, 2)
        assert ctx.left.tolist() == [0, 2]
        assert ctx.right.tolist() == [0, 1]
        assert ctx.self_count == 0

    def test_matches_full_scan_oracle(self):
        for seed in range(10):
            stream, assignment, store = random_instance(seed)
            C = int(assignment.max()) + 1
            for w in range(0, store.V, 7):
                ctx = context_vectors(store, assignment, w, C)
                left, right, f = context_oracle(stream.ids, assignment, w, C, stream.breaks)
                assert np.array_equal(ctx.left, left)
                assert np.array_equal(ctx.right, right)
                assert ctx.self_count == f

    def test_row_and_column_sums_match_totals(self):
        stream, assignment, store = random_instance(4)
        C = 4
        for w in range(store.V):
            ctx = context_vectors(store, assignment, w, C)
            assert ctx.left.sum() == store.succ_total[w]
            assert ctx.right.sum() == store.pred_total[w]
            a = int(assignment[w])
            assert ctx.left[a] >= ctx.self_count
            assert ctx.right[a] >= ctx.self_count

    def test_unknown_word_rejected(self):
        _, _, store = random_instance(5)
        with pytest.raises(ValueError):
            context_vectors(store, np.zeros(store.V, dtype=np.int32), store.V + 3, 2)

    def test_summed_vectors_reproduce_matrix(self):
        stream, assignment, store = random_instance(11)
        C = 4
        m = class_matrix(store, assignment, C)
        rows = np.zeros((C, C), dtype=np.int64)
        for w in range(store.V):
            ctx = context_vectors(store, assignment, w, C)
            rows[assignment[w]] += ctx.left
        assert np.array_equal(rows, m.counts)


class TestApplyMove:
    def test_zero_context_leaves_matrix_unchanged(self):
        store = count_bigrams(make_stream([0, 1, 0, 1]), 3)
        assignment = np.array([0, 0, 0])
        m = class_matrix(store, assignment, 2)
        before = m.counts.copy()
        apply_move(m, ContextBank(store, assignment, 2), 2, 0, 1)
        assert np.array_equal(m.counts, before)

    def test_self_pair_mass_lands_once(self):
        # word 0 only ever follows itself: f(0,0) = 2
        store = count_bigrams(make_stream([0, 0, 0]), 2)
        assignment = np.array([0, 1])
        m = class_matrix(store, assignment, 2)
        apply_move(m, ContextBank(store, assignment, 2), 0, 0, 1)
        assert m.counts[0, 0] == 0
        assert m.counts[1, 1] == 2
        assert m.T == 2

    def test_thousand_random_moves_match_rebuild(self):
        stream, assignment, store = random_instance(21, V=50, length=1500, C=4)
        C = 8
        assignment = assignment % C
        m = class_matrix(store, assignment, C)
        bank = ContextBank(store, assignment, C)
        rng = np.random.default_rng(99)
        for _ in range(1000):
            w = int(rng.integers(0, store.V))
            frm = int(assignment[w])
            to = int(rng.integers(0, C))
            if to == frm:
                to = (to + 1) % C
            apply_move(m, bank, w, frm, to)
            bank.move(w, frm, to)
            rebuilt = class_matrix(store, assignment, C)
            assert np.array_equal(m.counts, rebuilt.counts)
            assert np.array_equal(m.row, rebuilt.row)
            assert np.array_equal(m.col, rebuilt.col)
            assert m.counts.sum() == store.T

    def test_inverse_move_restores_exactly(self):
        stream, assignment, store = random_instance(8, C=4)
        C = 4
        m = class_matrix(store, assignment, C)
        bank = ContextBank(store, assignment, C)
        original = m.counts.copy()
        w = int(np.argmax(store.succ_total))
        frm = int(assignment[w])
        to = (frm + 1) % C
        apply_move(m, bank, w, frm, to)
        bank.move(w, frm, to)
        apply_move(m, bank, w, to, frm)
        assert np.array_equal(m.counts, original)

    def test_stale_context_detected(self):
        store = count_bigrams(make_stream([0, 1, 0, 1]), 2)
        assignment = np.array([0, 1])
        m = class_matrix(store, assignment, 2)
        bank = ContextBank(store, assignment, 2)
        apply_move(m, bank, 0, 0, 1)
        # the same move again, bank not moved: word 0 no longer holds mass
        # in class 0
        with pytest.raises(ConsistencyError):
            apply_move(m, bank, 0, 0, 1)

    @pytest.mark.parametrize(
        "stream, short, cell",
        [
            # word 0's successors in class 2: row frm loses them
            ([0, 2, 0, 2], "matrix", (0, 2)),
            # word 0's predecessors in class 2: column frm loses them
            ([2, 0, 2, 0], "matrix", (2, 0)),
            # a bank row one short of word 0's self count f = 1 leaves short
            # the cross corner that gives up f: (to, frm) in column frm ...
            ([0, 0], "left", (1, 0)),
            # ... and (frm, to) in row frm
            ([0, 0], "right", (0, 1)),
        ],
        ids=["row-frm", "column-frm", "corner-to-frm", "corner-frm-to"],
    )
    def test_count_driven_negative_detected(self, stream, short, cell):
        store = count_bigrams(make_stream(stream), 4)
        assignment = np.array([0, 1, 2, 3])
        m = class_matrix(store, assignment, 4)
        bank = bank_from("rows", store, assignment, 4)
        if short == "matrix":
            m.counts[cell] -= 1
        else:
            getattr(bank, short)[0, 0] -= 1
        with pytest.raises(ConsistencyError, match=r"word 0, 0->1"):
            apply_move(m, bank, 0, 0, 1)
        # the move left exactly that one count negative
        assert np.argwhere(m.counts < 0).tolist() == [list(cell)]

    def test_raises_exactly_when_a_count_goes_negative(self):
        # a matrix cell or a bank count off by one: apply_move raises if and
        # only if the move leaves a count negative anywhere in the matrix
        outcomes = []
        for seed in range(60):
            _, assignment, store = random_instance(seed, V=12, length=60, C=4)
            m = class_matrix(store, assignment, 4)
            bank = bank_from("rows", store, assignment, 4)
            rng = np.random.default_rng(seed)
            w = int(rng.integers(store.V))
            frm = int(assignment[w])
            to = (frm + int(rng.integers(1, 4))) % 4
            c = int(rng.integers(4))
            lines = [bank.left[w], bank.right[w]]
            if seed % 3 == 0:
                cells = np.argwhere(m.counts > 0)
                m.counts[tuple(cells[rng.integers(len(cells))])] -= 1
            elif lines[seed % 2][c] > 0:
                lines[seed % 2][c] -= 1
            else:
                lines[seed % 2][c] += 1
            try:
                apply_move(m, bank, w, frm, to)
                raised = False
            except ConsistencyError:
                raised = True
            assert raised == bool((m.counts < 0).any())
            outcomes.append(raised)
        assert 0 < sum(outcomes) < len(outcomes)

    def test_class_count_must_be_a_power_of_two(self):
        store = count_bigrams(make_stream([0, 1, 2]), 3)
        for C in (0, 3, 6):
            with pytest.raises(ValueError, match="power of two"):
                ContextBank(store, np.zeros(3, dtype=np.int32), C)

    @pytest.mark.parametrize("C", [2, 8, 64])
    def test_bank_read_matches_edge_read(self, C):
        # a bank with dense rows and one that reads the bigram edges give
        # apply_move the same (L, R), and twin matrices moved through them
        # stay integer-identical to a rebuild
        _, assignment, store = random_instance(60 + C, V=40, length=1200, C=C)
        by_edges = class_matrix(store, assignment, C)
        by_rows = class_matrix(store, assignment, C)
        edges = bank_from("edges", store, assignment.copy(), C)
        rows = bank_from("rows", store, assignment.copy(), C)
        rng = np.random.default_rng(C)
        # every word with a (w, w) bigram moves at least once
        movers = [*np.flatnonzero(store.self_count), *rng.integers(0, store.V, 300)]
        for w in map(int, movers):
            frm = int(rows.assignment[w])
            to = (frm + int(rng.integers(1, C))) % C
            edge_read = apply_move(by_edges, edges, w, frm, to)
            row_read = [a.copy() for a in apply_move(by_rows, rows, w, frm, to)]
            for a, b in zip(edge_read, row_read):
                assert np.array_equal(a, b)
            edges.move(w, frm, to)
            rows.move(w, frm, to)
            assert np.array_equal(edges.assignment, rows.assignment)
            rebuilt = class_matrix(store, rows.assignment, C)
            for m in (by_edges, by_rows):
                assert np.array_equal(m.counts, rebuilt.counts)
                assert np.array_equal(m.row, rebuilt.row)
                assert np.array_equal(m.col, rebuilt.col)

    def test_incremental_bank_matches_recompute(self):
        stream, assignment, store = random_instance(31, V=30, length=800, C=4)
        C = 4
        bank = bank_from("rows", store, assignment, C)
        rng = np.random.default_rng(5)
        for _ in range(200):
            w = int(rng.integers(0, store.V))
            frm = int(assignment[w])
            to = int(rng.integers(0, C))
            if to == frm:
                continue
            bank.move(w, frm, to)
            assert assignment[w] == to
        for w in range(store.V):
            fresh = context_vectors(store, assignment, w, C)
            assert np.array_equal(bank.left[w], fresh.left)
            assert np.array_equal(bank.right[w], fresh.right)


def store_with_total(T, seed=0, V=8):
    """A hand-built store of random pairs whose counts total exactly T."""
    _, _, small = random_instance(seed, V=V, length=120)
    counts = small.counts.astype(np.int64) * (T // small.T)
    counts[0] += T - counts.sum()
    return BigramStore(V, small.left, small.right, counts)


def widened(store):
    """A copy of store whose counts are int64, whatever its total."""
    wide = copy.copy(store)
    for name in ("counts", "_pred_counts", "succ_total", "pred_total", "self_count"):
        setattr(wide, name, getattr(store, name).astype(np.int64))
    return wide


class TestCountDtype:
    """A store counts in int32 below 2**31 bigrams, else in int64, and every
    count built from it keeps that dtype."""

    @pytest.mark.parametrize("T, dtype", [(2**31 - 1, np.int32), (2**31, np.int64)])
    def test_one_dtype_from_store_to_cells(self, T, dtype):
        store = store_with_total(T)
        assert store.T == T
        for counts in (store.counts, store.succ_total, store.pred_total, store.self_count):
            assert counts.dtype == dtype
        assert store.left.dtype == store.right.dtype == np.int64
        C = 4
        assignment = np.arange(store.V, dtype=np.int32) % C
        matrix = class_matrix(store, assignment, C)
        assert matrix.counts.dtype == matrix.row.dtype == matrix.col.dtype == dtype
        assert matrix.T == T
        words = np.arange(store.V)
        for source in ("rows", "edges"):
            bank = bank_from(source, store, assignment, C)
            assert bank.left.dtype == bank.right.dtype == dtype
            L, R = bank.context(0)
            assert L.dtype == R.dtype == dtype
            for k, j, *counts in bank.cells(words, assignment):
                assert k.dtype == j.dtype == np.int64
                assert all(x.dtype == dtype for x in counts)

    @pytest.mark.parametrize("T, factor", [(2**31 - 1, 8), (2**31, 4)])
    def test_rows_kept_to_64_bytes_per_pair(self, T, factor):
        # C * V up to 8 times the pair count for int32 rows, 4 for int64.
        # Rows of 2**16 words take more than the headroom at every level,
        # so the pair bound alone decides
        V, pairs = 2**16, 2**17
        key = np.arange(pairs)
        counts = np.full(pairs, T // pairs)
        counts[0] += T - counts.sum()
        store = BigramStore(V, key // V, key % V, counts)
        assert store.T == T
        choices = []
        for C in (2 << i for i in range(10)):
            bank = ContextBank(store, np.zeros(V, dtype=np.int32), C)
            assert bank.dense == (C * V <= factor * pairs)
            assert bank.left.nbytes + bank.right.nbytes <= 64 * pairs
            choices.append(bank.dense)
        assert True in choices and False in choices

    @pytest.mark.parametrize(
        "V, pairs, levels, wide, sources, pair_bound",
        [
            # the pair bound keeps L1-L7 on rows, the headroom L8-L9
            (153, 2917, 10, False, "rrrrrrrrre", "rrrrrrreee"),
            (153, 2917, 10, True, "rrrrrrrrre", "rrrrrreeee"),
            # at V=703 the headroom takes L7 only
            (703, 8121, 10, False, "rrrrrrreee", "rrrrrreeee"),
            (50, 500, 8, True, "rrrrrrrr", "rrrrreee"),
            (50, 500, 8, False, "rrrrrrrr", "rrrrrree"),
            # the pair bound alone decides
            (75, 2969, 4, False, "rrrr", "rrrr"),
            (300, 40000, 10, False, "rrrrrrrrrr", "rrrrrrrrrr"),
            # the headroom alone decides, in int32 and int64 alike
            (1000, 100, 3, False, "rrr", "eee"),
            (1000, 1, 10, False, "rrrrrrreee", "eeeeeeeeee"),
            (1000, 1, 10, True, "rrrrrrreee", "eeeeeeeeee"),
        ],
    )
    def test_rows_kept_within_the_larger_bound(
        self, V, pairs, levels, wide, sources, pair_bound
    ):
        # at levels 1..levels, rows while 2 * C * V * itemsize fits in 64
        # bytes per pair (pair_bound), or in a quarter of what the
        # 1024-class matrix holds above this level's
        key = np.arange(pairs)
        count = -(-(2**31) // pairs) if wide else 1
        store = BigramStore(V, key // V, key % V, np.full(pairs, count, dtype=np.int64))
        itemsize = 8 if wide else 4
        assert store.counts.itemsize == itemsize
        choices = by_pairs = ""
        for C in (1 << level for level in range(1, levels + 1)):
            bank = ContextBank(store, np.zeros(V, dtype=np.int32), C)
            quarter = (1024**2 - C**2) * itemsize // 4
            assert bank.left.nbytes + bank.right.nbytes <= max(64 * pairs, quarter)
            choices += "r" if bank.dense else "e"
            by_pairs += "r" if 2 * C * V * itemsize <= 64 * pairs else "e"
        assert (choices, by_pairs) == (sources, pair_bound)

    @pytest.mark.parametrize("source", ["rows", "edges"])
    def test_int32_at_its_widest_matches_int64(self, source):
        # at T = 2**31 - 1 every batch delta equals delta_acmi on an int64
        # copy, and the moved int32 matrix equals an int64 rebuild
        store = store_with_total(2**31 - 1, seed=3, V=12)
        wide = widened(store)
        C = 8
        rng = np.random.default_rng(3)
        assignment = rng.integers(0, C, store.V).astype(np.int32)
        matrix = class_matrix(store, assignment, C)
        bank = bank_from(source, store, assignment, C)
        assert matrix.counts.dtype == np.int32
        words = np.arange(store.V)
        for w in map(int, rng.integers(0, store.V, 40)):
            wide_matrix = class_matrix(wide, assignment, C)
            assert wide_matrix.counts.dtype == np.int64
            wide_bank = bank_from(source, wide, assignment.copy(), C)
            want = [
                delta_acmi(wide_matrix, wide_bank, int(v), int(c), int(c) ^ 1)
                for v, c in zip(words, assignment)
            ]
            got = batch_deltas(matrix, bank, words, assignment[words])
            assert np.allclose(got, want, rtol=0, atol=1e-9)
            frm = int(assignment[w])
            apply_move(matrix, bank, w, frm, frm ^ 1)
            bank.move(w, frm, frm ^ 1)
            rebuilt = class_matrix(wide, assignment, C)
            assert np.array_equal(matrix.counts, rebuilt.counts)
            assert np.array_equal(matrix.row, rebuilt.row)
            assert np.array_equal(matrix.col, rebuilt.col)

    def test_int32_class_matrix_at_1024_classes_is_4_mib(self):
        _, assignment, store = random_instance(9, V=60, length=1500, C=1024)
        assert store.counts.dtype == np.int32
        tracemalloc.start()
        try:
            matrix = class_matrix(store, assignment, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matrix.counts.nbytes == 4 * 2**20
        # the table and 1 MiB for the pair-sized keys and the marginals;
        # an int64 table alone would take 8 MiB
        assert peak <= 5 * 2**20
