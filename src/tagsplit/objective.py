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
nonzero, plus the four corner cells and four marginals.  batch_deltas
scores every candidate move of a search pass at once on that identity: 4
h-terms per nonzero off-corner context cell plus 16 for the corners and
marginals.  Every count whose h-term a move changes goes into one array,
which is checked for negative post-move counts in the order successor
cells, predecessor cells, corners, and passed through h once; views of it
are then summed per word, so a search step costs a small, fixed number
of numpy calls whatever the number of words.  The cells come from
ContextBank.cells, which lists them from dense rows or from bigram edges
in the same order, so both give the same deltas to the bit.  The per-step
kernels address the C x C table by flat index, cell (i, j) at i*C + j,
with one 1-D gather per set of cells and no index pairs; as C is a power
of two and b = a ^ 1, the line-b cell beside a line-a cell and the four
corners are bit flips of one index.  Nonzero cells are listed by scanning
a bool mask (np.flatnonzero(x != 0)), which is cheaper than scanning the
counts themselves.  Every count has the store's one count dtype (see
bigram.BigramStore), so no kernel mixes int32 and int64 counts; h takes
them to float64.  The splitter books a committed move set with h over
the cells and marginals it changed.  delta_acmi is the scalar
reference: it re-evaluates the two rows and columns before and after the
move from the word's ContextBank.context, one masked p lg(p / (pl pr))
pass over the nonzero cells of each state, at most 8(C-1) log terms in
all.
"""

from __future__ import annotations

import numpy as np

from .bigram import ClassMatrix, ContextBank
from .errors import ConsistencyError, UndefinedObjectiveError

# Improvement threshold: deltas in (-EPSILON, EPSILON] are non-improving,
# so floating-point noise can never drive the search loops.
EPSILON = 1e-12


def acmi(matrix: ClassMatrix) -> float:
    """Full-matrix ACMI in bits; requires at least one bigram."""
    if matrix.T == 0:
        raise UndefinedObjectiveError("ACMI is undefined on an empty matrix (T = 0)")
    N = matrix.counts
    # one scan of a bool mask of the flat table, cheaper than of the
    # counts; the cells come in row-major order
    flat = np.flatnonzero(N != 0)
    i, j = flat // matrix.C, flat % matrix.C
    x = N.ravel()[flat].astype(np.float64)
    T = float(matrix.T)
    ratio = (x * T) / (matrix.row[i].astype(np.float64) * matrix.col[j].astype(np.float64))
    value = float(np.dot(x / T, np.log2(ratio)))
    if value < 0.0:
        if value < -1e-9:
            raise ConsistencyError(f"ACMI evaluated to {value}, below zero")
        value = 0.0
    return value


def _plogp(x: np.ndarray, line: np.ndarray, cross: np.ndarray, T: float) -> float:
    # sum of p lg(p / (pl pr)) over cells of counts x, where line and cross
    # are the marginals of each cell's own line and of the line crossing it
    return float(np.dot(x, np.log2((x * T) / (line * cross)))) / T


def _lines_sum(row_a, row_b, col_a, col_b, row, col, a, b, T) -> float:
    """Term sum over rows {a, b} and columns {a, b} of one matrix state.

    row_a and row_b are whole rows; col_a and col_b are the columns without
    rows a and b, so each intersection cell counts once, in its row.  row
    and col are the state's marginals.  One masked pass over the nonzero
    cells takes at most 2C + 2(C - 2) = 4(C - 1) log terms.
    """
    vals = np.concatenate((row_a, row_b, col_a, col_b)).astype(np.float64)
    line = np.repeat(
        np.array([row[a], row[b], col[a], col[b]], dtype=np.float64),
        [len(row_a), len(row_b), len(col_a), len(col_b)],
    )
    other = np.delete(row, (a, b))
    cross = np.concatenate((col, col, other, other)).astype(np.float64)
    m = vals > 0.0
    return _plogp(vals[m], line[m], cross[m], T)


def pair_before_sum(matrix: ClassMatrix, a: int, b: int) -> float:
    """Term sum over rows {a, b} and columns {a, b} of the current matrix.

    This is the "before" half of delta_acmi; it depends only on the class
    pair, not on the word being moved.
    """
    N = matrix.counts
    return _lines_sum(
        N[a], N[b], np.delete(N[:, a], (a, b)), np.delete(N[:, b], (a, b)),
        matrix.row, matrix.col, a, b, float(matrix.T),
    )


def delta_acmi(matrix: ClassMatrix, bank: ContextBank, w: int, frm: int, to: int) -> float:
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
    N = matrix.counts
    a, b = frm, to
    L, R = bank.context(w)
    f = int(bank.store.self_count[w])

    row_a2 = N[a] - L
    row_b2 = N[b] + L
    # exact post-move corner cells; the (w,w) mass lands on (to,to)
    row_a2[a] = N[a, a] - L[a] - R[a] + f
    row_a2[b] = N[a, b] - L[b] + R[a] - f
    row_b2[a] = N[b, a] + L[a] - R[b] - f
    row_b2[b] = N[b, b] + L[b] + R[b] + f
    col_a2 = np.delete(N[:, a] - R, (a, b))
    col_b2 = np.delete(N[:, b] + R, (a, b))
    if min(row_a2.min(), row_b2.min(), col_a2.min(initial=0), col_b2.min(initial=0)) < 0:
        raise ConsistencyError(
            f"negative post-move count for word {w} ({frm}->{to}); "
            "context vectors are stale"
        )

    # w's successor mass leaves row a for row b, its predecessor mass
    # column a for column b
    sL, sR = int(L.sum()), int(R.sum())
    row2, col2 = matrix.row.copy(), matrix.col.copy()
    row2[a], row2[b] = row2[a] - sL, row2[b] + sL
    col2[a], col2[b] = col2[a] - sR, col2[b] + sR
    after = _lines_sum(row_a2, row_b2, col_a2, col_b2, row2, col2, a, b, float(matrix.T))
    return after - pair_before_sum(matrix, a, b)


def _h(n: np.ndarray) -> np.ndarray:
    # n lg n with h(0) = 0; counts are non-negative integers
    n = n.astype(np.float64)
    return n * np.log2(np.maximum(n, 1.0))


def batch_deltas(
    matrix: ClassMatrix, bank: ContextBank, words: np.ndarray, frm: np.ndarray
) -> np.ndarray:
    """Change in ACMI for moving each words[k] from frm[k] to its sibling frm[k]^1.

    words are distinct.  All moves are scored against the same matrix
    state and bank; neither is touched.  With x = L[w, j] for each nonzero
    cell of w's left context outside columns a and b, word w moving
    a -> b changes T * ACMI by

      sum of  h(N[a,j] - x) - h(N[a,j]) + h(N[b,j] + x) - h(N[b,j]),
      the same over w's right context in columns a and b,
      the h-changes of the four corner cells,
      minus the h-changes of r[a], r[b], c[a], c[b].

    The context cells, corners included, come from bank.cells.  Every
    count whose h-term a move changes goes into one array and through one
    h pass; the terms are then summed per word in the order above.  Equals
    delta_acmi move for move to floating-point rounding.  Where a
    post-move count would go negative, i.e. where the context no longer
    matches the matrix, raises ConsistencyError naming the word of the
    first such count, taken in the order successor cells, predecessor
    cells, corners.
    """
    if matrix.T == 0:
        raise UndefinedObjectiveError("ACMI is undefined on an empty matrix (T = 0)")
    words = np.asarray(words, dtype=np.int64)
    a = np.asarray(frm, dtype=np.int64)
    C = matrix.C
    N = matrix.counts.ravel()
    n = len(words)

    # off-corner cells: rows a and b at w's successor classes, then
    # columns a and b at w's predecessor classes.  Cell (i, j) is N[i*C + j]
    # and b = a ^ 1, so line b's cell is line a's with one bit flipped
    (k1, j1, x1, La, Lb), (k2, j2, x2, Ra, Rb) = bank.cells(words, a)
    i1 = a[k1] * C + j1
    i2 = j2 * C + a[k2]
    na1, nb1 = N[i1], N[i1 ^ C]
    na2, nb2 = N[i2], N[i2 ^ 1]
    m1, m = len(k1), len(k1) + len(k2)

    f = bank.store.self_count[words]
    ia = a * (C + 1)
    aa, ab, ba, bb = N[ia], N[ia ^ 1], N[ia ^ C], N[ia ^ (C + 1)]
    b = a ^ 1
    sL, sR = bank.store.succ_total[words], bank.store.pred_total[words]
    ra, rb, ca, cb = matrix.row[a], matrix.row[b], matrix.col[a], matrix.col[b]
    counts = np.concatenate((
        # post-move counts in line a, then corners; the (w,w) mass lands on (b,b)
        na1 - x1, na2 - x2,
        aa - La - Ra + f, ab - Lb + Ra - f, ba + La - Rb - f, bb + Lb + Rb + f,
        # their pre-move counts
        na1, na2, aa, ab, ba, bb,
        # line b after and before
        nb1 + x1, nb2 + x2, nb1, nb2,
        # marginals: w's successor mass leaves row a for row b, its
        # predecessor mass column a for column b
        ra - sL, ca - sR, ra, ca, rb + sL, cb + sR, rb, cb,
    ))
    p = m + 4 * n
    if counts[:p].min(initial=0) < 0:
        bad = int(np.flatnonzero(counts[:p] < 0)[0])
        if bad < m:
            what, owner = "cell", np.concatenate((k1, k2))[bad]
        else:
            what, owner = "corner", (bad - m) % n
        raise ConsistencyError(
            f"negative post-move {what} count for word {int(words[owner])}; "
            "its context counts do not match the matrix"
        )

    h = _h(counts)
    # after minus before: line a's cells, then the corners
    d = h[:p] - h[p:2 * p]
    cells = d[:m] + h[2 * p:2 * p + m] - h[2 * p + m:2 * (p + m)]
    # float zeros first: np.bincount over no cells returns int64
    total = np.zeros(n, dtype=np.float64)
    total += np.bincount(k1, cells[:m1], minlength=n)
    total += np.bincount(k2, cells[m1:], minlength=n)
    for corner in d[m:].reshape(4, n):
        total += corner
    hm = h[2 * (p + m):].reshape(4, 2, n)
    for marg in hm[0] - hm[1] + hm[2] - hm[3]:  # rows, then columns
        total -= marg
    return total / float(matrix.T)
