"""Hot numeric kernels for the boosted-tree engine: exact split search and
the logistic function, which Platt calibration shares.

Training searches splits with the sparsity-aware exact greedy algorithm of
Chen & Guestrin, "XGBoost", KDD 2016 (Alg. 3 and the column blocks of §4.1).
The nonzero entries of the training matrix are sorted once by (column, value,
row) in :class:`ColumnBlocks`, and each row carries the id of its tree node.
:func:`level_splits` finds the best split of every open node of one tree
level in one pass over those entries: the entries of one node and one
(column, value) pair are summed into a bin, and bins in (node, column, value)
order give each node's candidate splits. Its cost follows the nonzero count,
not rows × columns, and a level costs one call however many nodes it has. A
column's zeros in a node form one group whose sums are the node's totals
minus the column's nonzero sums; the group sits in sorted order between the
negative and the positive values. :meth:`ColumnBlocks.best_split` is the same
search for one node.

:func:`best_split` is the sequential scan over the dense rows of one node,
column by column in sorted order. Training does not use it; the split oracle
tests call it on many tiny instances, where its cost per call is far below
numpy's fixed overhead.

Both scans apply the same rule. A split sends ``x < threshold`` left;
thresholds are midpoints between consecutive distinct values; each side needs
a hessian sum of at least ``min_child_weight``; and within a node, in
column-major, ascending-value scan order, a candidate replaces the incumbent
only when its gain exceeds it by more than ``GAIN_EPS``.
"""

from __future__ import annotations

import numpy as np

from .csr import as_csr

# candidate splits must beat the incumbent by this margin; makes the scan
# order-stable under float noise
GAIN_EPS = 1e-12


class ColumnBlocks:
    """The nonzero entries of a set of rows, sorted by (column, value, row).

    ``rows`` lists the row ids in ascending order; ``row``, ``col`` and
    ``val`` are their nonzero entries. Row ids index the matrix the blocks were
    built from, which has ``n_rows`` rows and ``n_cols`` columns. Training
    holds the whole training matrix in one instance and the tree node of each
    row beside it (see :func:`level_splits`).
    """

    __slots__ = ("rows", "row", "col", "val", "n_rows", "n_cols", "_groups")

    def __init__(self, rows, row, col, val, n_rows, n_cols):
        self.rows = rows
        self.row = row
        self.col = col
        self.val = val
        self.n_rows = n_rows
        self.n_cols = n_cols
        self._groups = None

    @classmethod
    def from_dense(cls, X) -> "ColumnBlocks":
        """Blocks of all rows of X, a dense or sparse matrix (see
        :func:`~stancelab.csr.as_csr`). Explicitly stored zeros are dropped."""
        X = as_csr(X)
        n, p = X.shape
        row, col, val = X.tocoo()
        nz = val != 0
        row, col, val = row[nz], col[nz], val[nz]
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

    def groups(self):
        """The entries' groups of equal (column, value), numbered in sorted
        order: (group of each entry, column of each group, value of each
        group). Computed once."""
        if self._groups is None:
            col, val = self.col, self.val
            new = np.ones(len(col), dtype=bool)
            new[1:] = (col[1:] != col[:-1]) | (val[1:] != val[:-1])
            first = np.flatnonzero(new)
            self._groups = np.cumsum(new) - 1, col[first], val[first]
        return self._groups

    def best_split(self, g, h, reg_lambda, min_child_weight):
        """Exact greedy split search over all columns of this node.

        ``g`` and ``h`` are the gradients and hessians indexed by row id.
        Returns (column, threshold, gain); column is -1 when no split
        improves the loss.
        """
        rows = self.rows
        feature, threshold, gain = level_splits(
            self, np.zeros(self.n_rows, dtype=np.int64), g[self.row],
            h[self.row], np.array([len(rows)]),
            np.array([float(g[rows].sum())]), np.array([float(h[rows].sum())]),
            reg_lambda, min_child_weight)
        if feature[0] < 0:
            return -1, 0.0, 0.0
        return int(feature[0]), float(threshold[0]), float(gain[0])


def level_splits(blocks, node, g_entry, h_entry, m, g_total, h_total,
                 reg_lambda, min_child_weight):
    """Exact greedy split search for every node of one tree level, in one
    pass over the entries of ``blocks``.

    Row r is in node ``node[r]``, or in none when that is K, the number of
    nodes. Entry i's row has gradient ``g_entry[i]`` and hessian
    ``h_entry[i]``. Node k has ``m[k]`` rows, whose gradient and hessian
    sums are ``g_total[k]`` and ``h_total[k]``. Hessians must not be
    negative.

    Returns the arrays (column, threshold, gain), one value per node; column
    is -1 where no split improves the loss.
    """
    K = len(m)
    feature = np.full(K, -1, dtype=np.int64)
    threshold = np.zeros(K)
    gain = np.zeros(K)
    group, group_col, group_val = blocks.groups()
    n_groups = len(group_col)

    # the entries of one node and group form a bin, numbered in (node,
    # column, value) order; its sums, in row order, are all a candidate
    # split needs
    key = (node * n_groups)[blocks.row]
    key += group
    size = (K + 1) * n_groups
    count = np.bincount(key, minlength=size)[:K * n_groups]
    first = np.flatnonzero(count)
    if len(first) == 0:
        return feature, threshold, gain
    gsum = np.bincount(key, weights=g_entry, minlength=size)[first]
    hsum = np.bincount(key, weights=h_entry, minlength=size)[first]
    gnode, ggroup = np.divmod(first, n_groups)
    gcol, gval = group_col[ggroup], group_val[ggroup]

    # a run is the groups of one column in one node
    is_run = np.empty(len(first), dtype=bool)
    is_run[0] = True
    np.not_equal(gcol[1:], gcol[:-1], out=is_run[1:])
    is_run[1:] |= gnode[1:] != gnode[:-1]
    run = np.cumsum(is_run) - 1
    run_first = np.flatnonzero(is_run)
    rnode = gnode[run_first]
    g_run = np.bincount(run, weights=gsum)
    h_run = np.bincount(run, weights=hsum)
    has_zero = np.add.reduceat(count[first], run_first) < m[rnode]

    # where the column has zeros in the node, every split leaves nonzero
    # groups alone on one side; with hessians >= 0, a run whose nonzero
    # hessian sum is below min_child_weight has no valid split
    keep = ~has_zero | (h_run >= min_child_weight)
    if not keep.any():
        return feature, threshold, gain
    groups = np.flatnonzero(keep[run])
    run = (np.cumsum(keep) - 1)[run[groups]]
    gcol, gval = gcol[groups], gval[groups]
    gsum, hsum = gsum[groups], hsum[groups]
    run_first = np.flatnonzero(np.diff(run, prepend=-1))
    n_runs = len(run_first)
    rnode, g_run, h_run, has_zero = (rnode[keep], g_run[keep], h_run[keep],
                                     has_zero[keep])

    # one zero group per run whose column has zeros in the node, inserted
    # after the run's negative groups
    zruns = np.flatnonzero(has_zero)
    run_start = run_first + (np.cumsum(has_zero) - has_zero)
    at = run_start[zruns]
    negative = gval < 0
    if negative.any():
        at += np.bincount(run[negative], minlength=n_runs)[zruns]
    is_nonzero = np.ones(len(run) + len(zruns), dtype=bool)
    is_nonzero[at] = False

    def merged(nonzero, zero):
        out = np.empty(len(is_nonzero), dtype=nonzero.dtype)
        out[at] = zero
        out[is_nonzero] = nonzero
        return out

    znode = rnode[zruns]
    r = merged(run, zruns)
    v = merged(gval, np.zeros(len(zruns)))
    gm = merged(gsum, g_total[znode] - g_run[zruns])
    hm = merged(hsum, h_total[znode] - h_run[zruns])

    # candidate boundaries: between consecutive groups of one run
    cand = np.flatnonzero(r[1:] == r[:-1])
    crun = r[cand]
    cnode = rnode[crun]
    start = run_start[crun]
    hl = _column_prefix(hm, start, cand)
    hr = h_total[cnode] - hl
    ok = np.flatnonzero((hl >= min_child_weight) & (hr >= min_child_weight))
    if len(ok) == 0:
        return feature, threshold, gain
    cand, crun, cnode, hl, hr = cand[ok], crun[ok], cnode[ok], hl[ok], hr[ok]
    gl = _column_prefix(gm, start[ok], cand)
    gr = g_total[cnode] - gl
    parent = g_total * g_total / (h_total + reg_lambda)
    gains = 0.5 * (gl * gl / (hl + reg_lambda)
                   + gr * gr / (hr + reg_lambda) - parent[cnode])

    # in each node, in column-major, ascending-value order, a candidate
    # replaces the incumbent only when it beats it by more than GAIN_EPS.
    # That rule can only move to a strict running maximum of the node, so
    # replay it over those alone (fmax skips NaN, as the comparison does)
    bounds = np.searchsorted(cnode, np.arange(K + 1))
    best = np.empty(len(gains))
    for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        if a < b:
            np.fmax.accumulate(gains[a:b], out=best[a:b])
    before = np.empty(len(gains))
    before[0] = 0.0
    before[1:] = best[:-1]
    before[bounds[:-1][bounds[:-1] < len(gains)]] = 0.0
    rising = np.flatnonzero(gains > np.fmax(before, 0.0))
    best_gain = [0.0] * K
    winner = {}
    for i, k, gi in zip(rising.tolist(), cnode[rising].tolist(),
                        gains[rising].tolist()):
        if gi > best_gain[k] + GAIN_EPS:
            best_gain[k] = gi
            winner[k] = i
    for k, i in winner.items():
        c = cand[i]
        feature[k] = gcol[run_first[crun[i]]]
        threshold[k] = 0.5 * (v[c] + v[c + 1])
        gain[k] = best_gain[k]
    return feature, threshold, gain


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


def sigmoid(z):
    """The logistic function ``1 / (1 + exp(-z))``, elementwise. Below about
    -709, ``exp(-z)`` overflows to inf and the value is 0.0, without a
    warning."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))
