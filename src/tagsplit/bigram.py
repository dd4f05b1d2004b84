"""Word-level bigram counts and the dense class-bigram contingency matrix.

BigramStore holds exact integer counts of adjacent in-segment token pairs,
mirrored as successor and predecessor lists per word (succ_edges and
pred_edges list those of a set of words at once).  ClassMatrix is the
C x C table of bigram counts by (left class, right class) with row/column
marginals; moving one word between classes touches only two rows and two
columns, so the matrix is maintained incrementally (apply_move) and kept
bit-identical to a from-scratch rebuild.  ContextBank owns a level's
class ids and is the one place that knows where a word's class-context
counts come from: dense V x C rows per side at the levels where those
take at most BANK_BYTES_PER_PAIR bytes per bigram pair or fit under the
1024-class matrix (keeps_rows), else the bigram edges and the class ids,
so level 10 and any level whose rows would be too large hold no V x C
state.  The choice depends on the level's class count alone.

Every count has the store's one count dtype, int32 below 2**31 bigrams
and int64 above (see BigramStore): the store, the class matrix and its
marginals, the bank's rows and every context count.  Word and class ids
used in index arithmetic and flat indices stay int64 or intp;
probabilities appear only in the objective module.
"""

from __future__ import annotations

import numpy as np

from .corpus import TokenStream
from .errors import ConsistencyError

MAX_LEVELS = 10  # class ids fit a 10-bit path
MAX_CLASSES = 1 << MAX_LEVELS  # dense storage bound


class BigramStore:
    """Immutable sparse adjacency counts plus the total bigram count T.

    counts, succ_total, pred_total and self_count have the store's count
    dtype: int32 while T < 2**31, else int64.
    """

    def __init__(self, V: int, left: np.ndarray, right: np.ndarray, counts: np.ndarray):
        self.V = V
        self.T = int(counts.sum(dtype=np.int64))
        if self.T >= 2**53:
            raise ValueError("more than 2**53 bigrams: float64 sums of counts would round")
        # _edge_context packs (word, class, count) into one int64 to sort edge cells
        if V * MAX_CLASSES << int(counts.max(initial=0)).bit_length() > 2**63:
            raise ValueError(
                f"a bigram count too large for {V} words: (word, class, count) "
                "would not fit in 63 bits"
            )
        # every count the search forms from counts that match the matrix
        # lies in [-T, T]: cells, corners, marginals, context counts, their
        # post-move values and each partial sum of batch_deltas.  E.g.
        # ab - Lb + Ra <= ab + aa <= T, as Ra counts bigrams inside cell
        # (a, a).  So below 2**31 no count wraps in int32, and one count
        # dtype serves every kernel
        dtype = np.int32 if self.T < 2**31 else np.int64
        # flat unique triples (left word, right word, count), lex-sorted
        order = np.lexsort((right, left))
        self.left, self.right = left[order], right[order]
        self.counts = counts[order].astype(dtype, copy=False)
        self._succ_bounds = np.searchsorted(self.left, np.arange(V + 1))
        order_p = np.lexsort((self.left, self.right))
        self._pred_left = self.left[order_p]
        self._pred_right = self.right[order_p]
        self._pred_counts = self.counts[order_p]
        self._pred_bounds = np.searchsorted(self._pred_right, np.arange(V + 1))
        self.succ_total = np.zeros(V, dtype=dtype)
        np.add.at(self.succ_total, self.left, self.counts)
        self.pred_total = np.zeros(V, dtype=dtype)
        np.add.at(self.pred_total, self.right, self.counts)
        self.self_count = np.zeros(V, dtype=dtype)
        diag = self.left == self.right
        self.self_count[self.left[diag]] = self.counts[diag]

    def succ(self, w: int) -> tuple[np.ndarray, np.ndarray]:
        """(successor ids, counts) for bigrams (w, v)."""
        lo, hi = self._succ_bounds[w], self._succ_bounds[w + 1]
        return self.right[lo:hi], self.counts[lo:hi]

    def pred(self, w: int) -> tuple[np.ndarray, np.ndarray]:
        """(predecessor ids, counts) for bigrams (v, w)."""
        lo, hi = self._pred_bounds[w], self._pred_bounds[w + 1]
        return self._pred_left[lo:hi], self._pred_counts[lo:hi]

    def succ_edges(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(k, v, count) for every bigram (words[k], v), ascending in k."""
        return _edges(self._succ_bounds, self.right, self.counts, words)

    def pred_edges(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(k, v, count) for every bigram (v, words[k]), ascending in k."""
        return _edges(self._pred_bounds, self._pred_left, self._pred_counts, words)


def _edges(bounds: np.ndarray, targets: np.ndarray, counts: np.ndarray, words: np.ndarray):
    # concatenated slices [bounds[w]:bounds[w+1]] for w in words
    lo = bounds[words]
    n = bounds[words + 1] - lo
    k = np.repeat(np.arange(len(words)), n)
    at = np.arange(len(k)) + np.repeat(lo - np.cumsum(n) + n, n)
    return k, targets[at], counts[at]


def count_bigrams(stream: TokenStream, V: int | None = None) -> BigramStore:
    """Count adjacent in-segment pairs once each; breaks sever pairs."""
    ids = np.asarray(stream.ids)
    lo, hi = (int(ids.min()), int(ids.max())) if len(ids) else (0, -1)
    if V is None:
        V = hi + 1
    if lo < 0 or hi >= V:
        raise ValueError(f"stream contains a word id outside 0..{V - 1}")
    if len(ids) < 2:
        empty = np.zeros(0, dtype=np.int64)
        return BigramStore(V, empty, empty, empty)
    # the key left*V + right is the only corpus-long integer array: built,
    # severed and sorted in place; int32 wherever every key and the
    # sentinel V*V fit, and only the unique keys widened
    key = ids[:-1].astype(np.int32 if V * V < 2**31 else np.int64)
    key *= V
    key += ids[1:]
    # a severed pair gets the sentinel V*V, above every real key, so the
    # sort puts all of them in one tail that a view cuts off
    br = np.asarray(stream.breaks, dtype=np.int64)
    key[br[(br > 0) & (br < len(ids))] - 1] = V * V
    key.sort()
    # search with a scalar of key's own dtype: numpy 2 compares an int32
    # key with a Python int through an int64 copy of the whole key
    key = key[: np.searchsorted(key, key.dtype.type(V * V))]
    # one bool per pair marks where each run of equal keys starts
    first = np.empty(len(key), dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    uniq = key[starts].astype(np.int64)
    return BigramStore(V, uniq // V, uniq % V, np.diff(starts, append=len(key)))


class ClassMatrix:
    """Dense C x C class-bigram counts with row/column marginals of their dtype."""

    def __init__(self, C: int, counts: np.ndarray | None = None):
        if C < 1 or C > MAX_CLASSES:
            raise ValueError(f"class count must be in 1..{MAX_CLASSES}, got {C}")
        self.C = C
        self.counts = np.zeros((C, C), dtype=np.int64) if counts is None else counts
        dtype = self.counts.dtype
        self.row = self.counts.sum(axis=1, dtype=dtype)
        self.col = self.counts.sum(axis=0, dtype=dtype)
        self.T = int(self.counts.sum(dtype=np.int64))


def class_matrix(store: BigramStore, assignment: np.ndarray, C: int) -> ClassMatrix:
    """Tally the class-bigram table from scratch under an assignment."""
    assignment = np.asarray(assignment)
    if len(assignment) < store.V:
        raise ValueError("assignment shorter than vocabulary")
    if len(assignment) and not 0 <= int(assignment.min()) <= int(assignment.max()) < C:
        raise ValueError(f"assignment contains a class id outside 0..{C - 1}")
    # one flat tally: np.add.at is faster on flat indices than on an index
    # pair; intp keys, so no narrow integer dtype can overflow
    counts = np.zeros((C, C), dtype=store.counts.dtype)
    keys = np.multiply(assignment[store.left], C, dtype=np.intp) + assignment[store.right]
    np.add.at(counts.ravel(), keys, store.counts)
    return ClassMatrix(C, counts)


# A level keeps dense context rows, and ContextBank reads its counts from
# them, while the rows, 2 * V * C cells of the count dtype, take at most
# BANK_BYTES_PER_PAIR bytes per bigram pair (C * V up to 8 times the pair
# count for an int32 store, 4 times for an int64 one), or at most a
# quarter of the bytes by which the 1024-class matrix outgrows this
# level's (keeps_rows).  Otherwise the counts come from the bigram edges
# and the class ids.  Timed per level L6-L10 on the final class ids of
# the novel benchmark runs (batch_deltas over every eligible word, int32
# counts, 2-vCPU x86 host, numpy 2.4.6, median of 9 alternating rounds),
# edge time over row time is, by C * V / pairs:
#   znrp, V=503:  2.53 -> 2.53,  5.06 -> 1.80,  10.1 -> 1.47,  20.2 -> 1.21,  40.4 -> 0.88
#   znr,  V=253:  2.26 -> 2.57,  4.52 -> 2.19,  9.05 -> 1.57,  18.1 -> 1.37,  36.2 -> 1.20
# so the rows, whose cells a bool-mask scan lists, stay faster up to about
# 25-40 times the pair count.  The pair bound puts L7 of both runs on
# rows; a larger one would keep banks of 1-4 MB more on these runs and
# raise their peak RSS.  The headroom raises no peak of a 10-level run,
# whose last class matrix (4 MiB of int32 at C = 1024) covers a bank, its
# build's float64 tally of one side and the scorer's gathered copy of it,
# each as large as the rows.  A shorter run may peak up to about 1 MiB of
# int32 rows (2 MiB of int64) above its last level, which the pair bound
# alone never ruled out either.  A quarter, not a half: at half, L8 of
# novel-znrp (V=503, a 1.03 MB bank) went on rows and its benchmark peak
# RSS rose 0.26 MB in 20 of 20 pairs of runs.  The headroom puts L8 of
# novel-znr (V=253) on rows, which cut its search CPU (state build
# included, median of alternating rounds) from about 35 to 23 ms.
BANK_BYTES_PER_PAIR = 64


def keeps_rows(store: BigramStore, C: int) -> bool:
    """Whether a ContextBank of C classes over store keeps dense rows."""
    itemsize = store.counts.itemsize
    headroom = (MAX_CLASSES**2 - C**2) * itemsize // 4
    return 2 * C * store.V * itemsize <= max(BANK_BYTES_PER_PAIR * len(store.counts), headroom)


class ContextBank:
    """A level's class ids and every word's class-context counts.

    A word w's context is L[c], the count of bigrams (w, v), and R[c], that
    of bigrams (v, w), with v in class c; f(w, w) = store.self_count[w] is
    in both at w's class.  `assignment` is the caller's class id array,
    which only move writes.  Where keeps_rows(store, C) holds, left and
    right hold every word's L and R as dense V x C rows of the store's
    count dtype, and a move repairs only its word's neighbours' rows;
    otherwise they have no rows, and the counts come from the bigram edges
    and the class ids, which give the same counts, in that dtype, and
    cells in the same order.
    """

    def __init__(self, store: BigramStore, assignment: np.ndarray, C: int):
        if C < 1 or C & (C - 1):
            # cells and batch_deltas address a class by its bits
            raise ValueError(f"class count must be a power of two, got {C}")
        self.store = store
        self.assignment = np.asarray(assignment)  # the caller's array itself
        self.C = C
        V = store.V
        dtype = store.counts.dtype
        self.dense = keeps_rows(store, C)
        if not self.dense:
            self.left = self.right = np.zeros((0, C), dtype=dtype)
            return

        def tally(word: np.ndarray, neighbour: np.ndarray) -> np.ndarray:
            # one bincount keyed word * C + class; its float64 sums are
            # exact, as every count totals at most T < 2**53
            key = word * C + self.assignment[neighbour]
            cells = np.bincount(key, store.counts, minlength=V * C)
            return cells.astype(dtype).reshape(V, C)

        self.left = tally(store.left, store.right)
        self.right = tally(store.right, store.left)

    def context(self, w: int) -> tuple[np.ndarray, np.ndarray]:
        """w's (L, R), length C each; views of the rows at a dense level."""
        if self.dense:
            return self.left[w], self.right[w]
        # float64 bincount sums are exact: a word's counts total at most T < 2**53
        dtype = self.store.counts.dtype
        ids, cnts = self.store.succ(w)
        L = np.bincount(self.assignment[ids], cnts, minlength=self.C).astype(dtype)
        ids, cnts = self.store.pred(w)
        R = np.bincount(self.assignment[ids], cnts, minlength=self.C).astype(dtype)
        return L, R

    def cells(self, words: np.ndarray, a: np.ndarray) -> list[tuple]:
        """The words' nonzero context cells off their sibling pair (a, a ^ 1).

        One (k, j, x, at_a, at_b) per side, L then R: x > 0 is words[k]'s
        count at class j, for j other than a[k] and a[k] ^ 1, in row-major
        order of (k, j); at_a and at_b are the words' counts at a and
        a ^ 1.  k and j are int64; x, at_a and at_b have the store's count
        dtype.
        """
        b = a ^ 1
        if self.dense:
            return [_row_context(ctx, words, a, b) for ctx in (self.left, self.right)]
        return [
            _edge_context(edges, words, self.assignment, self.C, a, b)
            for edges in (self.store.succ_edges, self.store.pred_edges)
        ]

    def move(self, w: int, frm: int, to: int) -> None:
        """Record w's move frm -> to: repair its neighbours' rows, set its id."""
        if self.dense:
            # through column views: a 1-D gather and scatter each, cheaper
            # than the same update at index pairs
            ids, cnts = self.store.pred(w)
            self.left[:, frm][ids] -= cnts
            self.left[:, to][ids] += cnts
            ids, cnts = self.store.succ(w)
            self.right[:, frm][ids] -= cnts
            self.right[:, to][ids] += cnts
        self.assignment[w] = to


def _row_context(ctx: np.ndarray, words: np.ndarray, a: np.ndarray, b: np.ndarray):
    """One side's ContextBank.cells, from the dense rows ctx.

    The words' rows are gathered into one flat copy, where word k's cell
    at class j sits at k * C + j; the corners are read from, and zeroed
    in, that copy, never in ctx.  C is a power of two, so a cell's index
    splits into (k, j) by a shift and a mask.
    """
    C = ctx.shape[1]
    flat = ctx[words].ravel()
    base = np.arange(0, len(words) * C, C)
    ia, ib = base + a, base + b
    at_a, at_b = flat[ia], flat[ib]
    flat[ia] = 0
    flat[ib] = 0
    # a bool mask scans faster than the counts themselves
    cell = np.flatnonzero(flat != 0)
    return cell >> (C.bit_length() - 1), cell & (C - 1), flat[cell], at_a, at_b


def _edge_context(edges, words, assignment: np.ndarray, C: int, a: np.ndarray, b: np.ndarray):
    """One side's ContextBank.cells, from the words' bigram edges.

    An edge feeds the cell of its neighbour's class.  Its count is packed
    below its key (k, class) in one int64, which BigramStore bounds V and
    the counts to fit, so one sort puts the cells in np.nonzero's row-major
    order and each run of one key is one cell, whose counts sum exactly.
    """
    k, v, cnt = edges(words)
    dtype = cnt.dtype
    cb = (C - 1).bit_length()
    bits = int(cnt.max(initial=0)).bit_length()
    packed = (k << cb | assignment[v]) << bits | cnt
    packed.sort()
    key, cnt = packed >> bits, packed & ((1 << bits) - 1)
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    start = np.flatnonzero(first)
    x = np.add.reduceat(cnt, start).astype(dtype)
    key = key[start]
    k, j = key >> cb, key & ((1 << cb) - 1)
    at_a, at_b = j == a[k], j == b[k]
    corners = []
    for at in (at_a, at_b):
        corner = np.zeros(len(words), dtype=dtype)
        corner[k[at]] = x[at]
        corners.append(corner)
    keep = ~(at_a | at_b)
    return k[keep], j[keep], x[keep], *corners


def apply_move(
    matrix: ClassMatrix, bank: ContextBank, w: int, frm: int, to: int
) -> tuple[np.ndarray, np.ndarray]:
    """Shift word w's bigram mass from class frm to class to, in place.

    w's row and column mass per class, L and R, are bank.context(w), read
    before the move (w still in frm).  Equivalent to deleting the word's
    mass under frm and re-inserting it under to; the result is
    integer-identical to a from-scratch rebuild under the post-move
    assignment.  Returns (L, R), views of bank's rows at a dense level, so
    read them before bank.move, which the caller then calls.
    """
    if frm == to:
        raise ValueError("apply_move requires frm != to")
    N = matrix.counts
    L, R = bank.context(w)
    f = bank.store.self_count[w]
    N[frm, :] -= L
    N[to, :] += L
    N[:, frm] -= R
    N[:, to] += R
    # the row/column updates park the (w,w) mass on the off-diagonal
    # intersections; land it on (to,to) exactly once
    N[to, to] += f
    N[to, frm] -= f
    N[frm, to] -= f
    N[frm, frm] += f
    sL, sR = bank.store.succ_total[w], bank.store.pred_total[w]
    matrix.row[frm] -= sL
    matrix.row[to] += sL
    matrix.col[frm] -= sR
    matrix.col[to] += sR
    # only row frm and column frm lose counts; the cells (to, frm) and
    # (frm, to), which give up f, lie in them
    if N[frm, :].min() < 0 or N[:, frm].min() < 0:
        raise ConsistencyError(
            f"apply_move drove a count negative (word {w}, {frm}->{to}); "
            "the class ids do not match the matrix"
        )
    return L, R
