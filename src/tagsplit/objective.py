"""Average class mutual information (ACMI) and its incremental delta.

ACMI is the mutual information, in bits, between the class of a token and
the class of its successor:

    sum over cells with N(i,j) > 0 of  p(i,j) * log2(p(i,j) / (pl(i)*pr(j)))

with p(i,j) = N(i,j)/T and directional (left/right) marginals.  Zero cells
contribute nothing, so empty classes are representable.  Equivalently,
with h(n) = n lg n and row/column totals r and c,

    ACMI = lg T + (1/T) [sum h(N) - sum h(r) - sum h(c)].

Moving one word between classes changes only two rows and two columns of
the matrix, and within them only the cells where the word's context is
nonzero, plus the four corner cells and four marginals.  Both scorers take
(matrix, bank, word(s), frm) and read the context from the ContextBank.
batch_deltas scores every candidate move of a search pass at once on that
identity: 4 h-terms per nonzero off-corner context entry plus 16 for the
corners and marginals, in one vectorised pass.  It finds the nonzero
context cells of the n scored words by scanning their dense bank rows
while C * n is at most EDGE_FACTOR (4) times the number of bigram pairs,
and above that from their bigram edges mapped through the bank's class
ids, so deep levels cost O(edges), not O(n C); both give the same cells
in the same order.  line_terms sums the h-terms of a set of rows and columns, so a
commit confined to them is booked exactly.  delta_acmi is the scalar
reference: it re-evaluates the two rows and columns before and after the
move, at most 8(C-1) log terms, and an optional counter counts them.
"""

from __future__ import annotations

import math

import numpy as np

from .bigram import ClassMatrix, ContextBank
from .errors import ConsistencyError, UndefinedObjectiveError

# Improvement threshold: deltas in (-EPSILON, EPSILON] are non-improving,
# so floating-point noise can never drive the search loops.
EPSILON = 1e-12

# batch_deltas reads context cells from the bigram edges once C * n exceeds
# EDGE_FACTOR times the pair count.  The dense scan costs about C per word,
# the edge cells about a sort of the words' edges; timed per level on
# novel-znrp (V=503, 10 levels, final class ids) the edges win from
# C * n near 3-5 times the pair count: 1.1-1.2x slower at 2.4, 0.85x at 4.6.
EDGE_FACTOR = 4


class LogEvalCounter:
    """Counts log-term evaluations inside delta_acmi."""

    __slots__ = ("last_call", "total", "calls")

    def __init__(self) -> None:
        self.last_call = 0
        self.total = 0
        self.calls = 0

    def _begin(self) -> None:
        self.last_call = 0
        self.calls += 1

    def _add(self, n: int) -> None:
        self.last_call += n
        self.total += n


def acmi(matrix: ClassMatrix) -> float:
    """Full-matrix ACMI in bits; requires at least one bigram."""
    if matrix.T == 0:
        raise UndefinedObjectiveError("ACMI is undefined on an empty matrix (T = 0)")
    N = matrix.counts
    i, j = np.nonzero(N)
    x = N[i, j].astype(np.float64)
    T = float(matrix.T)
    ratio = (x * T) / (matrix.row[i].astype(np.float64) * matrix.col[j].astype(np.float64))
    value = float(np.dot(x / T, np.log2(ratio)))
    if value < 0.0:
        if value < -1e-9:
            raise ConsistencyError(f"ACMI evaluated to {value}, below zero")
        value = 0.0
    return value


def _cell_term(x: int, rm: int, cm: int, T: float, counter: LogEvalCounter | None) -> float:
    if x <= 0:
        return 0.0
    if counter is not None:
        counter._add(1)
    return (x / T) * math.log2((x * T) / (float(rm) * float(cm)))


def _lines_sum(
    row_a, row_b, rm_a, rm_b,
    col_a, col_b, cm_a, cm_b,
    rows_marg, cols_marg, a, b, T,
    counter: LogEvalCounter | None,
) -> float:
    """Term sum over rows {a, b} and columns {a, b} of one matrix state.

    The four intersection cells are evaluated exactly once, from the
    explicit corner values in row_a/row_b.  One fused masked pass covers
    the remaining 4C - 8 cells, so a call evaluates at most 4(C - 1)
    log terms.
    """
    C = len(row_a)
    vals = np.concatenate((row_a, row_b, col_a, col_b)).astype(np.float64)
    # zero the corners inside every block; they get scalar treatment below
    for base in (0, C, 2 * C, 3 * C):
        vals[base + a] = 0.0
        vals[base + b] = 0.0
    line = np.repeat(np.array([rm_a, rm_b, cm_a, cm_b], dtype=np.float64), C)
    cross = np.concatenate((cols_marg, cols_marg, rows_marg, rows_marg)).astype(np.float64)
    m = vals > 0.0
    s = 0.0
    if m.any():
        x = vals[m]
        if counter is not None:
            counter._add(int(m.sum()))
        s = float(np.dot(x, np.log2((x * T) / (line[m] * cross[m])))) / T
    s += _cell_term(int(row_a[a]), rm_a, cm_a, T, counter)
    s += _cell_term(int(row_a[b]), rm_a, cm_b, T, counter)
    s += _cell_term(int(row_b[a]), rm_b, cm_a, T, counter)
    s += _cell_term(int(row_b[b]), rm_b, cm_b, T, counter)
    return s


def pair_before_sum(
    matrix: ClassMatrix, a: int, b: int, counter: LogEvalCounter | None = None
) -> float:
    """Term sum over rows {a, b} and columns {a, b} of the current matrix.

    This is the "before" half of delta_acmi; it depends only on the class
    pair, not on the word being moved.
    """
    N = matrix.counts
    return _lines_sum(
        N[a, :], N[b, :], int(matrix.row[a]), int(matrix.row[b]),
        N[:, a], N[:, b], int(matrix.col[a]), int(matrix.col[b]),
        matrix.row, matrix.col, a, b, float(matrix.T),
        counter,
    )


def delta_acmi(
    matrix: ClassMatrix,
    bank: ContextBank,
    w: int,
    frm: int,
    to: int,
    counter: LogEvalCounter | None = None,
) -> float:
    """Change in ACMI if word w moved frm -> to; matrix and bank are untouched.

    Only cells in rows {frm, to} and columns {frm, to} can change, so the
    sum of their terms is evaluated under the current counts and under the
    post-move counts; everything else cancels exactly.  At most 8(C-1) log
    terms are taken per call.  This is the scalar reference that
    batch_deltas is tested against.
    """
    if frm == to:
        raise ValueError("delta_acmi requires frm != to")
    if matrix.T == 0:
        raise UndefinedObjectiveError("ACMI is undefined on an empty matrix (T = 0)")
    if counter is not None:
        counter._begin()
    N = matrix.counts
    row, col = matrix.row, matrix.col
    T = float(matrix.T)
    a, b = frm, to
    L, R, f = bank.left[w], bank.right[w], int(bank.store.self_count[w])
    sL = int(L.sum())
    sR = int(R.sum())

    before_sum = pair_before_sum(matrix, a, b, counter)

    row_a2 = N[a, :] - L
    row_b2 = N[b, :] + L
    col_a2 = N[:, a] - R
    col_b2 = N[:, b] + R
    # exact post-move corner cells; the (w,w) mass lands on (to,to)
    row_a2[a] = col_a2[a] = N[a, a] - L[a] - R[a] + f
    row_a2[b] = col_b2[a] = N[a, b] - L[b] + R[a] - f
    row_b2[a] = col_a2[b] = N[b, a] + L[a] - R[b] - f
    row_b2[b] = col_b2[b] = N[b, b] + L[b] + R[b] + f
    rm_a2, rm_b2 = int(row[a]) - sL, int(row[b]) + sL
    cm_a2, cm_b2 = int(col[a]) - sR, int(col[b]) + sR

    if min(row_a2.min(), row_b2.min(), col_a2.min(), col_b2.min()) < 0:
        raise ConsistencyError(
            f"negative post-move count for word {w} ({frm}->{to}); "
            "context vectors are stale"
        )

    row2 = row.copy()
    col2 = col.copy()
    row2[a], row2[b] = rm_a2, rm_b2
    col2[a], col2[b] = cm_a2, cm_b2
    after = _lines_sum(
        row_a2, row_b2, rm_a2, rm_b2,
        col_a2, col_b2, cm_a2, cm_b2,
        row2, col2, a, b, T,
        counter,
    )
    return after - before_sum


def _h(n: np.ndarray) -> np.ndarray:
    # n lg n with h(0) = 0; counts are non-negative integers
    n = n.astype(np.float64)
    return n * np.log2(np.maximum(n, 1.0))


def line_terms(matrix: ClassMatrix, classes: np.ndarray) -> float:
    """T * ACMI's share from rows and columns `classes` (distinct ids).

    sum h(N) over their cells, each intersection once, minus h of their
    row and column marginals.  An update confined to those lines changes
    ACMI by exactly (after - before) / T.
    """
    N = matrix.counts
    s = -float(_h(np.concatenate((matrix.row[classes], matrix.col[classes]))).sum())
    for lines, counted in ((N, []), (N.T, classes)):
        block = lines[classes]
        block[:, counted] = 0  # each intersection once, in the rows
        # only the nonzero cells go to float; one block alive at a time
        x = block[block > 0].astype(np.float64)
        del block
        s += float(np.dot(x, np.log2(x)))
    return s


def _check_counts(what: str, values: np.ndarray, owners: np.ndarray) -> None:
    bad = np.flatnonzero(values < 0)
    if len(bad):
        raise ConsistencyError(
            f"negative post-move {what} count for word {int(owners[bad[0]])}; "
            "context vectors are stale"
        )


def batch_deltas(
    matrix: ClassMatrix, bank: ContextBank, words: np.ndarray, frm: np.ndarray
) -> np.ndarray:
    """Change in ACMI for moving each words[k] from frm[k] to its sibling frm[k]^1.

    All moves are scored against the same matrix state, which is untouched.
    With x = L[w, j] for each nonzero entry of w's left context row outside
    columns a and b, word w moving a -> b changes T * ACMI by

      sum of  h(N[a,j] - x) - h(N[a,j]) + h(N[b,j] + x) - h(N[b,j]),
      the same over w's right context row in columns a and b,
      the h-changes of the four corner cells,
      minus the h-changes of r[a], r[b], c[a], c[b].

    The context cells come from the words' bigram edges when C * len(words)
    exceeds EDGE_FACTOR times the number of bigram pairs, else from the
    dense bank rows; both give the same cells in the same order, so the
    same deltas.  Equals delta_acmi move for move to floating-point
    rounding, and raises ConsistencyError where the bank no longer matches
    the matrix.
    """
    words = np.asarray(words, dtype=np.int64)
    from_edges = matrix.C * len(words) > EDGE_FACTOR * len(bank.store.counts)
    return _batch_deltas(matrix, bank, words, frm, from_edges)


def _batch_deltas(
    matrix: ClassMatrix,
    bank: ContextBank,
    words: np.ndarray,
    frm: np.ndarray,
    from_edges: bool,
) -> np.ndarray:
    """batch_deltas with its context cells read from the edges or not."""
    if matrix.T == 0:
        raise UndefinedObjectiveError("ACMI is undefined on an empty matrix (T = 0)")
    a = np.asarray(frm, dtype=np.int64)
    b = a ^ 1
    store = bank.store
    N = matrix.counts
    total = np.zeros(len(words), dtype=np.float64)

    # off-corner cells: rows a and b at w's successor classes, then
    # columns a and b (rows of N.T) at w's predecessor classes
    for ctx, lines, edges in (
        (bank.left, N, store.succ_edges),
        (bank.right, N.T, store.pred_edges),
    ):
        if from_edges:
            # an edge feeds the cell of its neighbour's class; sorting the
            # keys k*C + class and keeping the first of each run gives
            # np.nonzero's row-major order (np.unique would import numpy.ma)
            k, v = edges(words)
            keys = k * matrix.C + bank.assignment[v]
            keys.sort()
            first = np.ones(len(keys), dtype=bool)
            first[1:] = keys[1:] != keys[:-1]
            k, j = np.divmod(keys[first], matrix.C)
        else:
            k, j = np.nonzero(ctx[words])
        keep = (j != a[k]) & (j != b[k])
        k, j = k[keep], j[keep]
        x = ctx[words[k], j]
        # an edge into a class where the bank holds nothing: the bank lags
        # the class ids (np.nonzero cannot list such a cell)
        if from_edges and not (x > 0).all():
            raise ConsistencyError(
                f"word {int(words[k[x <= 0][0]])} has a bigram into a class where "
                "its context count is not positive; context vectors are stale"
            )
        na = lines[a[k], j]
        nb = lines[b[k], j]
        _check_counts("cell", na - x, words[k])
        total += np.bincount(
            k, _h(na - x) - _h(na) + _h(nb + x) - _h(nb), minlength=len(words)
        )

    # corner cells; the (w,w) mass lands on (b,b)
    f = store.self_count[words]
    La, Lb = bank.left[words, a], bank.left[words, b]
    Ra, Rb = bank.right[words, a], bank.right[words, b]
    for before, after in (
        (N[a, a], N[a, a] - La - Ra + f),
        (N[a, b], N[a, b] - Lb + Ra - f),
        (N[b, a], N[b, a] + La - Rb - f),
        (N[b, b], N[b, b] + Lb + Rb + f),
    ):
        _check_counts("corner", after, words)
        total += _h(after) - _h(before)

    # marginals: w's successor mass leaves row a for row b, its
    # predecessor mass column a for column b
    for marg, moved in (
        (matrix.row, store.succ_total[words]),
        (matrix.col, store.pred_total[words]),
    ):
        total -= _h(marg[a] - moved) - _h(marg[a]) + _h(marg[b] + moved) - _h(marg[b])
    return total / float(matrix.T)
