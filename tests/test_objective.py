
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagsplit import (
    BigramStore,
    ClassMatrix,
    ClusterConfig,
    ConsistencyError,
    UndefinedObjectiveError,
    acmi,
    build_vocabulary,
    class_matrix,
    cluster,
    count_bigrams,
)
from tagsplit import splitter
from tagsplit.bigram import ContextBank, apply_move
from tagsplit.objective import batch_deltas, delta_acmi
from tagsplit.synth import markov_text
from conftest import (
    acmi_oracle,
    bank_from,
    cells_oracle,
    context_source,
    full_rescore,
    line_terms,
    make_stream,
    random_instance,
)


def matrix_from(counts) -> ClassMatrix:
    counts = np.asarray(counts, dtype=np.int64)
    return ClassMatrix(counts.shape[0], counts)


class TestAcmi:
    def test_perfectly_anticorrelated_is_one_bit(self):
        for k in (1, 5, 400):
            m = matrix_from([[0, k], [k, 0]])
            assert acmi(m) == pytest.approx(1.0, abs=1e-12)

    def test_independent_is_zero(self):
        m = matrix_from([[7, 7], [7, 7]])
        assert acmi(m) == pytest.approx(0.0, abs=1e-12)

    def test_single_class_is_zero(self):
        m = matrix_from([[42]])
        assert acmi(m) == 0.0

    def test_matches_term_by_term_oracle(self, rng):
        for _ in range(25):
            counts = rng.integers(0, 30, (4, 4))
            if counts.sum() == 0:
                continue
            m = matrix_from(counts)
            assert acmi(m) == pytest.approx(acmi_oracle(counts), abs=1e-12)

    def test_nonnegative_on_random_matrices(self, rng):
        for _ in range(50):
            counts = rng.integers(0, 10, (6, 6))
            if counts.sum():
                assert acmi(matrix_from(counts)) >= 0.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(UndefinedObjectiveError):
            acmi(matrix_from([[0, 0], [0, 0]]))

    def test_permutation_invariant(self, rng):
        counts = rng.integers(0, 20, (5, 5))
        counts[0, 1] += 3
        base = acmi(matrix_from(counts))
        for _ in range(5):
            perm = rng.permutation(5)
            assert acmi(matrix_from(counts[np.ix_(perm, perm)])) == pytest.approx(
                base, abs=1e-12
            )

    def test_zero_rows_and_columns_are_neutral(self):
        m = matrix_from([[0, 3, 0], [4, 0, 0], [0, 0, 0]])
        small = matrix_from([[0, 3], [4, 0]])
        assert acmi(m) == pytest.approx(acmi(small), abs=1e-12)


class TestDeltaAcmi:
    def _setup(self, seed, C):
        stream, assignment, store = random_instance(seed, C=C)
        assignment = assignment % C
        matrix = class_matrix(store, assignment, C)
        bank = ContextBank(store, assignment, C)
        return store, assignment, matrix, bank

    def test_zero_context_word_has_zero_delta(self):
        from tagsplit import count_bigrams
        from conftest import make_stream

        # word 2 never occurs in the stream: moving it changes nothing
        store = count_bigrams(make_stream([0, 1, 0, 1]), 3)
        assignment = np.array([0, 1, 0])
        matrix = class_matrix(store, assignment, 2)
        bank = ContextBank(store, assignment, 2)
        d = delta_acmi(matrix, bank, 2, 0, 1)
        assert d == pytest.approx(0.0, abs=1e-12)

    def test_same_class_rejected(self):
        _, assignment, matrix, bank = self._setup(3, 4)
        with pytest.raises(ValueError):
            delta_acmi(matrix, bank, 0, 1, 1)

    def test_matches_full_recompute_everywhere(self):
        for seed, C in [(1, 4), (2, 8), (3, 2)]:
            store, assignment, matrix, bank = self._setup(seed, C)
            base = acmi(matrix)
            for w in range(0, store.V, 3):
                frm = int(assignment[w])
                for to in range(C):
                    if to == frm:
                        continue
                    d = delta_acmi(matrix, bank, w, frm, to)
                    after = ClassMatrix(C, matrix.counts.copy())
                    apply_move(after, bank, w, frm, to)
                    assert d == pytest.approx(
                        acmi(after) - base, abs=1e-9 * max(1.0, abs(base))
                    )

    def test_matrix_not_mutated(self):
        _, assignment, matrix, bank = self._setup(5, 4)
        snapshot = matrix.counts.copy()
        delta_acmi(matrix, bank, 1, int(assignment[1]), int(assignment[1]) ^ 1)
        assert np.array_equal(matrix.counts, snapshot)
        assert np.array_equal(matrix.row, snapshot.sum(axis=1))

    def test_log_eval_counter_within_bound(self, plogp_cells):
        # delta_acmi takes one log per nonzero cell of rows and columns
        # {frm, to}, each cell once, before the move and after it: two
        # _plogp passes, at most 4(C - 1) cells each
        def line_cells(counts, a, b):
            lines = np.zeros(counts.shape, dtype=bool)
            lines[[a, b], :] = lines[:, [a, b]] = True
            return np.count_nonzero(counts[lines])

        for seed, C in [(3, 2), (4, 4), (5, 8), (6, 16)]:
            store, assignment, matrix, bank = self._setup(seed, C)
            for w in range(store.V):
                frm = int(assignment[w])
                for to in range(C):
                    if to == frm:
                        continue
                    plogp_cells.clear()
                    delta_acmi(matrix, bank, w, frm, to)
                    after = ClassMatrix(C, matrix.counts.copy())
                    apply_move(after, bank, w, frm, to)
                    assert len(plogp_cells) == 2
                    assert sum(plogp_cells) == (
                        line_cells(matrix.counts, frm, to) + line_cells(after.counts, frm, to)
                    )
                    assert sum(plogp_cells) <= 8 * (C - 1)

    def test_scale_invariance_of_deltas(self):
        store, assignment, matrix, bank = self._setup(7, 4)
        w = int(np.argmax(store.succ_total))
        frm = int(assignment[w])
        to = (frm + 1) % 4
        d1 = delta_acmi(matrix, bank, w, frm, to)
        # every bigram seen 7 times as often
        store7 = BigramStore(store.V, store.left, store.right, store.counts * 7)
        scaled = ClassMatrix(4, matrix.counts * 7)
        d7 = delta_acmi(scaled, ContextBank(store7, assignment, 4), w, frm, to)
        assert d7 == pytest.approx(d1, abs=1e-12)

    def test_stale_vectors_detected(self):
        from tagsplit import count_bigrams
        from conftest import make_stream

        # word 0 alone in class 0: once its mass leaves, re-subtracting the
        # same vectors has nothing left to take and must be flagged
        store = count_bigrams(make_stream([0, 1, 0, 1]), 2)
        assignment = np.array([0, 1])
        matrix = class_matrix(store, assignment, 2)
        bank = ContextBank(store, assignment, 2)
        apply_move(matrix, bank, 0, 0, 1)
        with pytest.raises(ConsistencyError):
            delta_acmi(matrix, bank, 0, 0, 1)

    def test_untouched_cells_cancel_in_delta(self):
        # moving w between classes a->b and summing delta with the reverse
        # move must give exactly zero: only the shared cells are evaluated
        store, assignment, matrix, bank = self._setup(10, 8)
        w = int(np.argmax(store.pred_total))
        frm = int(assignment[w])
        to = (frm + 3) % 8
        d_fwd = delta_acmi(matrix, bank, w, frm, to)
        apply_move(matrix, bank, w, frm, to)
        bank.move(w, frm, to)
        d_back = delta_acmi(matrix, bank, w, to, frm)
        assert d_fwd + d_back == pytest.approx(0.0, abs=1e-10)


class TestLineTerms:
    @pytest.mark.parametrize("seed", range(12))
    def test_books_moves_within_sibling_pairs_exactly(self, seed):
        # moves confined to the touched sibling pairs change ACMI by
        # (after - before) / T; with seed % 3 == 0 the odd classes start
        # empty, so marginals of 0 are counted
        C = 2 << seed % 4
        _, assignment, store = random_instance(seed, C=C)
        if seed % 3 == 0:
            assignment &= ~1
        matrix = class_matrix(store, assignment, C)
        bank = ContextBank(store, assignment, C)
        rng = np.random.default_rng(seed)
        parents = rng.choice(C // 2, int(rng.integers(1, C // 2 + 1)), replace=False)
        touched = np.concatenate((2 * parents, 2 * parents + 1))
        start = acmi(matrix)
        before = line_terms(matrix, touched)
        for w in rng.permutation(store.V)[: store.V // 2]:
            frm = int(assignment[w])
            if frm >> 1 in parents:
                apply_move(matrix, bank, int(w), frm, frm ^ 1)
                bank.move(int(w), frm, frm ^ 1)
        change = line_terms(matrix, touched) - before
        assert change / matrix.T == pytest.approx(acmi(matrix) - start, abs=1e-12)


def scalar_deltas(matrix, bank, words, frm):
    return np.array([
        delta_acmi(matrix, bank, int(w), int(f), int(f) ^ 1)
        for w, f in zip(words, frm)
    ])


def both_sources(matrix, store, assignment, words, frm):
    """batch_deltas from the bigram edges and from dense rows; the two must
    agree to the bit.  Returns the deltas and a bank for the oracle."""
    bank = bank_from("rows", store, assignment, matrix.C)
    d = batch_deltas(matrix, bank_from("edges", store, assignment, matrix.C), words, frm)
    assert np.array_equal(d, batch_deltas(matrix, bank, words, frm))
    return d, bank


class TestBatchDeltas:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 10_000),
        C=st.sampled_from([2, 4, 8, 16]),
        empty_sibling=st.booleans(),
    )
    def test_matches_scalar_oracle(self, seed, C, empty_sibling):
        _, assignment, store = random_instance(seed, C=C)
        if empty_sibling:
            # class 1 empty: every word of the pair starts in class 0, as in znr
            assignment[assignment == 1] = 0
        matrix = class_matrix(store, assignment, C)
        words = np.arange(store.V)
        frm = assignment[words]
        d, bank = both_sources(matrix, store, assignment, words, frm)
        assert np.allclose(d, scalar_deltas(matrix, bank, words, frm), rtol=0, atol=1e-9)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 10_000),
        C=st.sampled_from([2, 4, 8, 16]),
        pick=st.integers(0, 2**32 - 1),
    )
    def test_strict_subset_of_eligible_words_matches_oracle(self, seed, C, pick):
        # the kernel gathers only the scored words' context, in any order
        _, assignment, store = random_instance(seed, C=C)
        eligible = np.flatnonzero(np.bincount(assignment, minlength=C)[assignment] >= 2)
        if len(eligible) < 2:
            return
        rng = np.random.default_rng(pick)
        words = rng.choice(eligible, int(rng.integers(1, len(eligible))), replace=False)
        matrix = class_matrix(store, assignment, C)
        frm = assignment[words]
        d, bank = both_sources(matrix, store, assignment, words, frm)
        assert np.allclose(d, scalar_deltas(matrix, bank, words, frm), rtol=0, atol=1e-9)

    def test_self_bigrams_and_unseen_word(self):
        # words 0 and 1 repeat themselves; word 3 never occurs
        store = count_bigrams(make_stream([0, 0, 0, 1, 1, 2, 0, 0, 1, 1, 1, 2]), 4)
        assert store.self_count[:2].tolist() == [3, 3]
        for assignment in ([0, 0, 0, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 0, 1, 1]):
            assignment = np.array(assignment)
            matrix = class_matrix(store, assignment, 2)
            words = np.arange(4)
            d, bank = both_sources(matrix, store, assignment, words, assignment)
            assert np.allclose(
                d, scalar_deltas(matrix, bank, words, assignment), rtol=0, atol=1e-12
            )
            assert d[3] == 0.0

    def test_selected_subset_scored_in_place(self):
        _, assignment, store = random_instance(21, C=8)
        matrix = class_matrix(store, assignment, 8)
        words = np.arange(store.V)
        full, _ = both_sources(matrix, store, assignment, words, assignment)
        subset = words[1::3]
        part, _ = both_sources(matrix, store, assignment, subset, assignment[subset])
        assert np.allclose(part, full[1::3], rtol=0, atol=1e-12)
        empty, _ = both_sources(matrix, store, assignment, words[:0], assignment[:0])
        assert empty.shape == (0,)

    def test_stale_bank_detected(self):
        # the matrix already holds word 0's move; the bank does not
        store = count_bigrams(make_stream([0, 1, 0, 1]), 2)
        assignment = np.array([0, 1])
        matrix = class_matrix(store, assignment, 2)
        apply_move(matrix, ContextBank(store, assignment, 2), 0, 0, 1)
        for source in ("rows", "edges"):
            bank = bank_from(source, store, assignment, 2)
            with pytest.raises(ConsistencyError):
                batch_deltas(matrix, bank, np.array([0]), np.array([0]))

    def test_stale_off_corner_cell_detected(self):
        # C=4: word 0's successors sit in class 2, off the (0,1) corners
        store = count_bigrams(make_stream([0, 2, 0, 2, 1, 3]), 4)
        assignment = np.array([0, 1, 2, 3])
        matrix = class_matrix(store, assignment, 4)
        bank = bank_from("rows", store, assignment, 4)
        matrix.counts[0, 2] -= 1
        with pytest.raises(ConsistencyError, match="word 0"):
            batch_deltas(matrix, bank, np.array([1, 0]), np.array([1, 0]))


    @pytest.mark.parametrize("C", [2, 64])
    @pytest.mark.parametrize("rows", [False, True])
    def test_state_is_read_only(self, C, rows):
        # the corners are zeroed in a gathered copy of the rows, never in
        # the rows themselves
        _, assignment, store = random_instance(5, V=40, length=800, C=C)
        matrix = class_matrix(store, assignment, C)
        bank = bank_from("rows" if rows else "edges", store, assignment, C)
        state = (matrix.counts, matrix.row, matrix.col, bank.left, bank.right, assignment)
        snapshot = [x.copy() for x in state]
        words = np.arange(store.V)
        batch_deltas(matrix, bank, words, assignment[words])
        for now, before in zip(state, snapshot):
            assert np.array_equal(now, before)

    def test_error_names_first_word_in_check_order(self):
        # the first negative post-move count, taken over successor cells,
        # then predecessor cells, then corners, names the word, whatever
        # the order of the scored words
        # (1) word 2's predecessor cell and word 0's successor cell, both
        # at N[0, 2]: the successor cell wins
        store = count_bigrams(make_stream([0, 2, 0, 2]), 4)
        assignment = np.array([0, 1, 2, 3])
        matrix = class_matrix(store, assignment, 4)
        matrix.counts[0, 2] -= 1
        words = np.array([2, 0])
        for source in ("rows", "edges"):
            bank = bank_from(source, store, assignment, 4)
            with pytest.raises(ConsistencyError, match=r"cell count for word 0;"):
                batch_deltas(matrix, bank, words, assignment[words])
        # (2) word 4's corner (2, 3) and word 0's predecessor cell N[2, 0]:
        # the predecessor cell wins
        store = count_bigrams(make_stream([0, 2, 0, 2, 4, 5], breaks=[4]), 6)
        assignment = np.array([0, 1, 2, 3, 2, 3])
        matrix = class_matrix(store, assignment, 4)
        matrix.counts[2, 0] -= 1
        matrix.counts[2, 3] -= 1
        words = np.array([4, 0])
        for source in ("rows", "edges"):
            bank = bank_from(source, store, assignment, 4)
            with pytest.raises(ConsistencyError, match=r"cell count for word 0;"):
                batch_deltas(matrix, bank, words, assignment[words])
            # word 4 alone: its corner is named as a corner
            with pytest.raises(ConsistencyError, match=r"corner count for word 4;"):
                batch_deltas(matrix, bank, words[:1], np.array([2]))


class TestContextCellBranches:
    """ContextBank.cells lists context cells from dense rows at the levels
    that keep them and from the bigram edges and class ids at the levels
    that do not; the two must give bit-identical deltas."""

    def _moved_instance(self, seed, C):
        # class ids and a matrix that have followed some moves
        _, assignment, store = random_instance(seed, V=40, length=600, C=C)
        matrix = class_matrix(store, assignment, C)
        bank = bank_from("edges", store, assignment, C)
        rng = np.random.default_rng(seed)
        for w in rng.integers(0, store.V, 15):
            frm = int(assignment[w])
            apply_move(matrix, bank, int(w), frm, frm ^ 1)
            bank.move(int(w), frm, frm ^ 1)
        return store, assignment, matrix

    @pytest.mark.parametrize("C", [2 << i for i in range(10)])
    def test_sources_list_the_same_cells(self, C):
        # words 0 and 1 neighbour only each other and themselves, so their
        # whole context lies in their own pair; at C=2 every word's does
        rng = np.random.default_rng(C)
        V = 40
        ids = np.concatenate(([0, 1, 1, 0, 0, 1], rng.integers(2, V, 600)))
        store = count_bigrams(make_stream(ids, breaks=[6]), V)
        assignment = rng.integers(0, C, V).astype(np.int32)
        assignment[:2] = [0, 1]
        rows = bank_from("rows", store, assignment, C)
        edges = bank_from("edges", store, assignment, C)
        words = np.arange(V)
        for part in (words, words[::-3], words[:0]):
            want = cells_oracle(store, assignment, part, assignment[part], C)
            for bank in (rows, edges):
                got = bank.cells(part, assignment[part])
                for side, expected in zip(got, want):
                    # k and j index; x, at_a and at_b are counts
                    for g, e, dtype in zip(side, expected, [np.int64] * 2 + [store.counts.dtype] * 3):
                        assert g.dtype == dtype
                        assert np.array_equal(g, e)
        cells = rows.cells(words, assignment)
        for k, *_ in cells:
            assert not np.isin(k, [0, 1]).any()
            if C == 2:
                assert len(k) == 0
        (_, _, _, La, Lb), (_, _, _, Ra, Rb) = cells
        assert np.array_equal((La + Lb)[:2], store.succ_total[:2])
        assert np.array_equal((Ra + Rb)[:2], store.pred_total[:2])

    @pytest.mark.parametrize("C", [2, 4, 64, 256, 1024])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_branches_agree_exactly(self, seed, C):
        store, assignment, matrix = self._moved_instance(100 + seed, C)
        words = np.arange(store.V)
        frm = assignment[words]
        d, rows = both_sources(matrix, store, assignment, words, frm)
        edges = bank_from("edges", store, assignment, C)
        # the scalar oracle reads either source
        for bank in (rows, edges):
            assert np.allclose(d, scalar_deltas(matrix, bank, words, frm), rtol=0, atol=1e-9)
        part = words[::3]
        assert np.array_equal(batch_deltas(matrix, edges, part, frm[part]), d[::3])

    def test_wide_counts_sum_exactly(self):
        # distinct counts of 48 bits at C=1024, the widest that 20 words
        # leave room for below (word, class): each edge cell's counts still
        # sum exactly, as the dense bank rows hold them
        _, assignment, store = random_instance(7, V=20, length=14, C=1024)
        counts = np.random.default_rng(7).integers(2**47, 2**48, len(store.counts))
        store = BigramStore(store.V, store.left, store.right, counts)
        matrix = class_matrix(store, assignment, 1024)
        words = np.arange(store.V)
        d, bank = both_sources(matrix, store, assignment, words, assignment)
        assert np.allclose(d, scalar_deltas(matrix, bank, words, assignment), rtol=0, atol=1e-9)

    def test_corrupt_cell_detected_without_bank(self):
        # C=4: word 0's successors sit in class 2, off the (0,1) corners;
        # with one bigram gone from that cell of the matrix, the edges list
        # more mass than the cell holds
        store = count_bigrams(make_stream([0, 2, 0, 2, 1, 3]), 4)
        assignment = np.array([0, 1, 2, 3])
        matrix = class_matrix(store, assignment, 4)
        words, frm = np.array([1, 0]), np.array([1, 0])
        matrix.counts[0, 2] -= 1
        with pytest.raises(ConsistencyError, match="word 0"):
            batch_deltas(matrix, bank_from("edges", store, assignment, 4), words, frm)
        # a corner: word 0 -> word 1 twice, both in class 0
        store = count_bigrams(make_stream([0, 1, 0, 1]), 2)
        assignment = np.array([0, 0])
        matrix = class_matrix(store, assignment, 2)
        matrix.counts[0, 0] -= 2
        bank = bank_from("edges", store, assignment, 2)
        with pytest.raises(ConsistencyError, match="corner count for word 0"):
            batch_deltas(matrix, bank, np.array([0]), np.array([0]))


# SHA-256 of the raw float64 bytes of every batch_deltas result, in call
# order, over a 10-level run on a seeded Markov corpus (V=153, 2,917
# pairs), recorded with numpy 2.4.6 on x86-64.  By default levels 1-9
# (C=2-512) read dense bank rows of int32 counts and level 10 (C=1024)
# bigram edges; forced onto the edges at every level, the run gives the
# same digests.  They are those recorded when levels 1-6 read int64 rows
# and levels 8-9 read edges, and when level 1 rescored every eligible
# word at every step, as it still does under conftest.full_rescore.
GOLDEN_KERNEL_SHA256 = {
    "znr": "919821aeae3dc05d578ee25b7abcd9e38df8192f07c9b549067c92fe5859fb5e",
    "znrp": "19f8f8501fcb1b00f55732a080bfca0aa9e74c7ee7eb4bdcf4c0baa832e58bae",
}
# the same run with level 1 rescoring only the words its drift bound
# cannot rule out, as by default
GOLDEN_KERNEL_SHA256_BOUNDED = {
    "znr": "da7d7e71dbe1786729c7947f9078fb204fe1074276b0fd04e53bc53e00a8c46b",
    "znrp": "e9502995e588f0c5e41411622649f0b00ed747ddc27e8898689f9105d5359e2d",
}


def kernel_run(strategy, monkeypatch):
    """(C, dense) of every batch_deltas call of a 10-level run, and the
    SHA-256 of every result's raw bytes in call order."""
    # pins every delta to the bit, not only the picks the tags show
    vocab, stream = build_vocabulary(markov_text(20000, n_types=2000, n_states=16, seed=5), 150)
    store = count_bigrams(stream, vocab.size)
    assert store.counts.dtype == np.int32
    digest = hashlib.sha256()
    sources = set()

    def hashed(matrix, bank, words, frm):
        d = batch_deltas(matrix, bank, words, frm)
        assert d.dtype == np.float64
        digest.update(d.tobytes())
        sources.add((matrix.C, bank.dense))
        return d

    monkeypatch.setattr(splitter, "batch_deltas", hashed)
    cluster(vocab, store, ClusterConfig(strategy=strategy, levels=10))
    return sources, digest.hexdigest()


@pytest.mark.parametrize("strategy", sorted(GOLDEN_KERNEL_SHA256))
def test_kernel_bits_match_recorded_sha256(strategy, monkeypatch):
    with full_rescore():
        sources, digest = kernel_run(strategy, monkeypatch)
    assert sources == {(1 << level, level <= 9) for level in range(1, 11)}
    assert digest == GOLDEN_KERNEL_SHA256[strategy]


@pytest.mark.parametrize("strategy", sorted(GOLDEN_KERNEL_SHA256))
def test_kernel_bits_on_forced_edges_match_recorded_sha256(strategy, monkeypatch):
    # keeps the edge source pinned to the bit at the levels the default
    # rule now puts on rows
    with context_source("edges"), full_rescore():
        sources, digest = kernel_run(strategy, monkeypatch)
    assert sources == {(1 << level, False) for level in range(1, 11)}
    assert digest == GOLDEN_KERNEL_SHA256[strategy]


@pytest.mark.parametrize("strategy", sorted(GOLDEN_KERNEL_SHA256_BOUNDED))
def test_kernel_bits_with_level_one_bound_match_recorded_sha256(strategy, monkeypatch):
    sources, digest = kernel_run(strategy, monkeypatch)
    assert sources == {(1 << level, level <= 9) for level in range(1, 11)}
    assert digest == GOLDEN_KERNEL_SHA256_BOUNDED[strategy]
