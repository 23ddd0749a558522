"""Hot numeric kernels for the boosted-tree engine: exact split search and
tree prediction.

Training searches splits with the sparsity-aware exact greedy algorithm of
Chen & Guestrin, "XGBoost", KDD 2016 (Alg. 3 and the column blocks of §4.1),
in :class:`ColumnBlocks`. The nonzero entries of the training matrix are
sorted once by (column, value, row); a tree node keeps only the entries of its
own rows, so its cost follows the node's nonzero count, not rows × columns. A
column's zeros form one block whose gradient sums are the node total minus the
column's nonzero sums; the block sits in sorted order between the negative and
the positive values.

:func:`best_split` is the sequential scan over the dense rows of one node,
column by column in sorted order. Training does not use it; the split oracle
tests call it on many tiny instances, where its cost per call is far below
numpy's fixed overhead.

Both scans apply the same rule. A split sends ``x < threshold`` left;
thresholds are midpoints between consecutive distinct values; each side needs
a hessian sum of at least ``min_child_weight``; and in column-major,
ascending-value scan order a candidate replaces the incumbent only when its
gain exceeds it by more than ``GAIN_EPS``.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

# candidate splits must beat the incumbent by this margin; makes the scan
# order-stable under float noise
GAIN_EPS = 1e-12


class ColumnBlocks:
    """The nonzero entries of one tree node, sorted by (column, value, row).

    ``rows`` lists the node's row ids in ascending order; ``row``, ``col`` and
    ``val`` are its nonzero entries. Row ids index the matrix the blocks were
    built from, which has ``n_rows`` rows and ``n_cols`` columns.
    """

    __slots__ = ("rows", "row", "col", "val", "n_rows", "n_cols")

    def __init__(self, rows, row, col, val, n_rows, n_cols):
        self.rows = rows
        self.row = row
        self.col = col
        self.val = val
        self.n_rows = n_rows
        self.n_cols = n_cols

    @classmethod
    def from_dense(cls, X) -> "ColumnBlocks":
        """Blocks of all rows of X, a dense or scipy sparse matrix. Explicitly
        stored zeros are dropped."""
        X = sparse.coo_array(X, dtype=np.float64)
        n, p = X.shape
        nz = X.data != 0
        row = X.row[nz].astype(np.int64)
        col = X.col[nz].astype(np.int64)
        val = X.data[nz]
        order = np.lexsort((row, val, col))
        return cls(np.arange(n), row[order], col[order], val[order], n, p)

    def split(self, col: int, threshold: float
              ) -> tuple["ColumnBlocks", "ColumnBlocks"]:
        """Partition the node by ``x[col] < threshold`` into (left, right)."""
        goes_left = np.zeros(self.n_rows, dtype=bool)
        goes_left[self.rows] = 0.0 < threshold
        lo, hi = np.searchsorted(self.col, (col, col + 1))
        goes_left[self.row[lo:hi]] = self.val[lo:hi] < threshold
        rows_left = goes_left[self.rows]
        entries_left = goes_left[self.row]
        return (self._take(rows_left, entries_left),
                self._take(~rows_left, ~entries_left))

    def _take(self, rows_mask, entries_mask) -> "ColumnBlocks":
        # gathering by index is several times faster than boolean indexing
        # when the mask is irregular
        keep = np.flatnonzero(entries_mask)
        return ColumnBlocks(self.rows[np.flatnonzero(rows_mask)],
                            self.row[keep], self.col[keep], self.val[keep],
                            self.n_rows, self.n_cols)

    def best_split(self, g, h, reg_lambda, min_child_weight):
        """Exact greedy split search over all columns of this node.

        ``g`` and ``h`` are the gradients and hessians indexed by row id.
        Returns (column, threshold, gain); column is -1 when no split
        improves the loss.
        """
        m, p = len(self.rows), self.n_cols
        col, val = self.col, self.val
        if len(col) == 0:
            return -1, 0.0, 0.0
        g_total = float(g[self.rows].sum())
        h_total = float(h[self.rows].sum())
        parent = g_total * g_total / (h_total + reg_lambda)

        # entries of equal (column, value) form one group; their sums are
        # all a candidate split needs
        first = np.flatnonzero(np.concatenate((
            [True], (col[1:] != col[:-1]) | (val[1:] != val[:-1]))))
        gcol, gval = col[first], val[first]
        gsum = np.add.reduceat(g[self.row], first)
        hsum = np.add.reduceat(h[self.row], first)
        nnz = np.bincount(col, minlength=p)
        groups = np.bincount(gcol, minlength=p)

        # one zero group per column that has both zeros and nonzeros in the
        # node, inserted after the column's negative groups
        zcols = np.flatnonzero((nnz > 0) & (nnz < m))
        at = (np.cumsum(groups) - groups)[zcols]
        negative = gval < 0
        if negative.any():
            at += np.bincount(gcol[negative], minlength=p)[zcols]
        at += np.arange(len(zcols))
        is_nonzero = np.ones(len(first) + len(zcols), dtype=bool)
        is_nonzero[at] = False

        def merged(nonzero, zero):
            out = np.empty(len(is_nonzero), dtype=nonzero.dtype)
            out[at] = zero
            out[is_nonzero] = nonzero
            return out

        g_zero = g_total - np.bincount(gcol, weights=gsum, minlength=p)[zcols]
        h_zero = h_total - np.bincount(gcol, weights=hsum, minlength=p)[zcols]
        c = merged(gcol, zcols)
        v = merged(gval, np.zeros(len(zcols)))
        gm = merged(gsum, g_zero)
        hm = merged(hsum, h_zero)

        # candidate boundaries: between consecutive groups of one column
        cand = np.flatnonzero(c[1:] == c[:-1])
        if len(cand) == 0:
            return -1, 0.0, 0.0
        groups[zcols] += 1
        start = (np.cumsum(groups) - groups)[c[cand]]
        hl = _column_prefix(hm, start, cand)
        hr = h_total - hl
        ok = np.flatnonzero((hl >= min_child_weight)
                            & (hr >= min_child_weight))
        if len(ok) == 0:
            return -1, 0.0, 0.0
        cand, hl, hr = cand[ok], hl[ok], hr[ok]
        gl = _column_prefix(gm, start[ok], cand)
        gr = g_total - gl
        gains = 0.5 * (gl * gl / (hl + reg_lambda)
                       + gr * gr / (hr + reg_lambda) - parent)

        # the sequential rule can only move to a strict running maximum, so
        # replay it over those alone (fmax skips NaN, as the comparison does)
        before = np.fmax.accumulate(np.concatenate(([0.0], gains[:-1])))
        best_gain, best = 0.0, -1
        for i in np.flatnonzero(gains > before):
            if gains[i] > best_gain + GAIN_EPS:
                best_gain, best = float(gains[i]), int(i)
        if best < 0:
            return -1, 0.0, 0.0
        k = cand[best]
        return int(c[k]), 0.5 * float(v[k] + v[k + 1]), best_gain


def _column_prefix(x, start, end):
    """``x[start[i]:end[i] + 1].sum()`` for each i, from one running sum.

    The running sum over all columns grows far beyond any one column's sum,
    so plain differences of it would lose digits. The rounding error of each
    step is recovered exactly (Knuth's TwoSum) and added back, which keeps
    every result within a few ulps of its own magnitude.
    """
    run = np.concatenate(([0.0], np.cumsum(x)))
    prev, cur = run[:-1], run[1:]
    part = cur - prev
    err = np.concatenate(([0.0], np.cumsum((prev - (cur - part)) + (x - part))))
    return (run[end + 1] - run[start]) + (err[end + 1] - err[start])


def best_split(Xn, gn, hn, reg_lambda, min_child_weight):
    """Exact greedy split search over the dense rows ``Xn`` of one node.

    Returns (column, threshold, gain) as :meth:`ColumnBlocks.best_split`.
    Works on Python floats: indexing numpy arrays element by element would
    cost more than the arithmetic.
    """
    Xn = np.asarray(Xn, dtype=np.float64)
    m = Xn.shape[0]
    g = np.asarray(gn, dtype=np.float64).tolist()
    h = np.asarray(hn, dtype=np.float64).tolist()
    g_total = 0.0
    h_total = 0.0
    for i in range(m):
        g_total += g[i]
        h_total += h[i]
    parent = g_total * g_total / (h_total + reg_lambda)

    best_gain = 0.0
    best_col = -1
    best_thr = 0.0
    for j, col in enumerate(Xn.T.tolist()):
        # stable sort, so tied values accumulate in row order
        order = sorted(range(m), key=col.__getitem__)
        gl = 0.0
        hl = 0.0
        for idx in range(m - 1):
            r = order[idx]
            gl += g[r]
            hl += h[r]
            v = col[r]
            v_next = col[order[idx + 1]]
            if v_next <= v:
                continue
            hr = h_total - hl
            if hl < min_child_weight or hr < min_child_weight:
                continue
            gr = g_total - gl
            gain = 0.5 * (gl * gl / (hl + reg_lambda)
                          + gr * gr / (hr + reg_lambda) - parent)
            if gain > best_gain + GAIN_EPS:
                best_gain = gain
                best_col = j
                best_thr = 0.5 * (v + v_next)
    return best_col, best_thr, best_gain


def predict_margin(X, feature, threshold, left, right, value):
    """The output of one tree for each row of X, a dense array or a scipy CSR
    array; node 0 is the root."""
    n = X.shape[0]
    rows = np.arange(n)
    nodes = np.zeros(n, dtype=np.int64)
    while True:
        feats = feature[nodes]
        active = feats >= 0
        if not active.any():
            return value[nodes]
        idx = rows[active]
        go_left = X[idx, feats[active]] < threshold[nodes[active]]
        nodes[idx] = np.where(go_left, left[nodes[active]],
                              right[nodes[active]])
