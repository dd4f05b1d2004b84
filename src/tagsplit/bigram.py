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
are at most EDGE_FACTOR cells per bigram pair, else the bigram edges and
the class ids, so deep levels hold no V x C state.

All counts are int64; probabilities appear only in the objective module.
"""

from __future__ import annotations

import numpy as np

from .corpus import TokenStream
from .errors import ConsistencyError

MAX_LEVELS = 10  # class ids fit a 10-bit path
MAX_CLASSES = 1 << MAX_LEVELS  # dense storage bound


class BigramStore:
    """Immutable sparse adjacency counts plus the total bigram count T."""

    def __init__(self, V: int, left: np.ndarray, right: np.ndarray, counts: np.ndarray):
        self.V = V
        self.T = int(counts.sum())
        if self.T >= 2**53:
            raise ValueError("more than 2**53 bigrams: float64 sums of counts would round")
        # _edge_context packs (word, class, count) into one int64 to sort edge cells
        if V * MAX_CLASSES << int(counts.max(initial=0)).bit_length() > 2**63:
            raise ValueError(
                f"a bigram count too large for {V} words: (word, class, count) "
                "would not fit in 63 bits"
            )
        # flat unique triples (left word, right word, count), lex-sorted
        order = np.lexsort((right, left))
        self.left, self.right, self.counts = left[order], right[order], counts[order]
        self._succ_bounds = np.searchsorted(self.left, np.arange(V + 1))
        order_p = np.lexsort((self.left, self.right))
        self._pred_left = self.left[order_p]
        self._pred_right = self.right[order_p]
        self._pred_counts = self.counts[order_p]
        self._pred_bounds = np.searchsorted(self._pred_right, np.arange(V + 1))
        self.succ_total = np.zeros(V, dtype=np.int64)
        np.add.at(self.succ_total, self.left, self.counts)
        self.pred_total = np.zeros(V, dtype=np.int64)
        np.add.at(self.pred_total, self.right, self.counts)
        self.self_count = np.zeros(V, dtype=np.int64)
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
    if V is None:
        V = int(ids.max()) + 1 if len(ids) else 0
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
    cnt = np.diff(starts, append=len(key))
    return BigramStore(V, uniq // V, uniq % V, cnt.astype(np.int64))


class ClassMatrix:
    """Dense C x C class-bigram counts with row/column marginals."""

    def __init__(self, C: int, counts: np.ndarray | None = None):
        if C < 1 or C > MAX_CLASSES:
            raise ValueError(f"class count must be in 1..{MAX_CLASSES}, got {C}")
        self.C = C
        self.counts = np.zeros((C, C), dtype=np.int64) if counts is None else counts
        self.row = self.counts.sum(axis=1)
        self.col = self.counts.sum(axis=0)
        self.T = int(self.counts.sum())


def class_matrix(store: BigramStore, assignment: np.ndarray, C: int) -> ClassMatrix:
    """Tally the class-bigram table from scratch under an assignment."""
    assignment = np.asarray(assignment)
    if len(assignment) < store.V:
        raise ValueError("assignment shorter than vocabulary")
    if len(assignment) and not 0 <= int(assignment.min()) <= int(assignment.max()) < C:
        raise ValueError(f"assignment contains a class id outside 0..{C - 1}")
    # one flat tally: np.add.at is faster on flat indices than on an index
    # pair; intp keys, so no narrow integer dtype can overflow
    counts = np.zeros((C, C), dtype=np.int64)
    keys = np.multiply(assignment[store.left], C, dtype=np.intp) + assignment[store.right]
    np.add.at(counts.ravel(), keys, store.counts)
    return ClassMatrix(C, counts)


# A level keeps dense context rows, and ContextBank reads its counts from
# them, only while C * V is at most EDGE_FACTOR times the pair count; above
# that the counts come from the bigram edges and the class ids.  The factor
# is a memory bound: the rows hold 2 * V * C int64 cells, so at most 64
# bytes per bigram pair.  Timed per level on the final class ids of the
# novel benchmark runs (batch_deltas over every eligible word, 2-vCPU x86
# host, numpy 2.4.6, median of 7 alternating rounds), edge time over row
# time is, by C * V / pairs:
#   znrp, V=503:  2.53 -> 2.17,  5.06 -> 1.61,  10.1 -> 1.27,  20.2 -> 0.90
#   znr,  V=253:  2.26 -> 2.31,  4.52 -> 1.87,  9.05 -> 1.41,  18.1 -> 1.21
# so the rows, whose cells a bool-mask scan lists, stay faster up to about
# 15-35 times the pair count, and at factor 4 the first two edge levels
# pay 27-87% over rows for not holding them.  The factor stays at 4
# all the same: a larger one keeps banks of 1-4 MB more per level on these
# runs, and so raises peak RSS.
EDGE_FACTOR = 4


class ContextBank:
    """A level's class ids and every word's class-context counts.

    A word w's context is L[c], the count of bigrams (w, v), and R[c], that
    of bigrams (v, w), with v in class c; f(w, w) = store.self_count[w] is
    in both at w's class.  `assignment` is the caller's class id array,
    which only move writes.  While C * V is at most EDGE_FACTOR times the
    pair count, left and right hold every word's L and R as dense V x C
    rows, and a move repairs only its word's neighbours' rows; above that
    they have no rows, and the counts come from the bigram edges and the
    class ids, which give the same counts and cells in the same order.
    """

    def __init__(self, store: BigramStore, assignment: np.ndarray, C: int):
        if C < 1 or C & (C - 1):
            # cells and batch_deltas address a class by its bits
            raise ValueError(f"class count must be a power of two, got {C}")
        self.store = store
        self.assignment = np.asarray(assignment)  # the caller's array itself
        self.C = C
        V = store.V
        self.dense = C * V <= EDGE_FACTOR * len(store.counts)
        if not self.dense:
            self.left = self.right = np.zeros((0, C), dtype=np.int64)
            return

        def tally(word: np.ndarray, neighbour: np.ndarray) -> np.ndarray:
            # one bincount keyed word * C + class; its float64 sums are
            # exact, as every count totals at most T < 2**53
            key = word * C + self.assignment[neighbour]
            cells = np.bincount(key, store.counts, minlength=V * C)
            return cells.astype(np.int64).reshape(V, C)

        self.left = tally(store.left, store.right)
        self.right = tally(store.right, store.left)

    def context(self, w: int) -> tuple[np.ndarray, np.ndarray]:
        """w's (L, R), length C each; views of the rows at a dense level."""
        if self.dense:
            return self.left[w], self.right[w]
        # float64 bincount sums are exact: a word's counts total at most T < 2**53
        ids, cnts = self.store.succ(w)
        L = np.bincount(self.assignment[ids], cnts, minlength=self.C).astype(np.int64)
        ids, cnts = self.store.pred(w)
        R = np.bincount(self.assignment[ids], cnts, minlength=self.C).astype(np.int64)
        return L, R

    def cells(self, words: np.ndarray, a: np.ndarray) -> list[tuple]:
        """The words' nonzero context cells off their sibling pair (a, a ^ 1).

        One (k, j, x, at_a, at_b) per side, L then R: x > 0 is words[k]'s
        count at class j, for j other than a[k] and a[k] ^ 1, in row-major
        order of (k, j); at_a and at_b are the words' counts at a and
        a ^ 1.
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
    # a bool mask scans faster than the int64 counts themselves
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
    cb = (C - 1).bit_length()
    bits = int(cnt.max(initial=0)).bit_length()
    packed = (k << cb | assignment[v]) << bits | cnt
    packed.sort()
    key, cnt = packed >> bits, packed & ((1 << bits) - 1)
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    start = np.flatnonzero(first)
    x = np.add.reduceat(cnt, start)
    key = key[start]
    k, j = key >> cb, key & ((1 << cb) - 1)
    at_a, at_b = j == a[k], j == b[k]
    corners = []
    for at in (at_a, at_b):
        corner = np.zeros(len(words), dtype=np.int64)
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
