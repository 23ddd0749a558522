"""Gradient-boosted decision trees for binary classification, from scratch.

Trees are fit to the logistic loss with second-order (gradient/hessian) split
gains, exact greedy split finding, leaf steps capped by ``max_delta_step``,
and early stopping on a held-out validation slice. Sparse-zero feature values
route left by default, which falls out of the `x < threshold` split rule on
non-negative count data.

A tree grows level by level (`_build_tree`): one `_kernels.level_splits` call
per depth searches every open node, and each split relabels the node of its
rows through one column (`_route`). The nodes are then numbered in depth-first
preorder, the order of the model file. Prediction, and the validation loss of
early stopping, walk rows down finished trees the same way (`_leaves`).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field, replace
from multiprocessing import connection
from typing import Optional, Sequence, Union

import numpy as np

from . import _kernels
from .csr import CSR, as_csr
from .features import FeatureMatrix
from .tsv import StancelabError, read_text, repeat

# a FeatureMatrix, or a rows × columns matrix whose columns are identified by
# position: dense or a CSR
MatrixLike = Union[FeatureMatrix, np.ndarray, CSR]


class TrainingError(StancelabError):
    pass


class WorkerTraceback(Exception):
    """The traceback, as text, of an exception raised in a `fit_many`
    worker; attached as the cause of that exception when it is re-raised."""


# A range is (kind, test, what): the type a value must have, the test it must
# pass (None for any) and what that asks for. A bool is not an int; an int is
# a float, and a float must be finite.
COUNT = (int, lambda v: v >= 0, "a non-negative integer")
POSITIVE_COUNT = (int, lambda v: v >= 1, "a positive integer")
FRACTION = (float, lambda v: 0 < v < 1, "a number in (0, 1)")
SIZE = (float, lambda v: v >= 0, "a non-negative number")
POSITIVE = (float, lambda v: v > 0, "a positive number")


def check_value(key: str, value, spec, error=ValueError):
    """``value`` if it has the kind and passes the test of the range
    ``spec``, else ``error`` naming ``key``."""
    kind, test, what = spec
    if kind is float:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and math.isfinite(value))
    else:
        ok = isinstance(value, kind) and (kind is bool
                                          or not isinstance(value, bool))
    if not ok or (test is not None and not test(value)):
        raise error(f"{key} must be {what}, got {value!r}")
    return value


# the range of each BoostParams field; the config's boost.* keys read it too
BOOST_RANGES = {
    "n_estimators": POSITIVE_COUNT,
    "learning_rate": POSITIVE,
    "max_delta_step": SIZE,
    "max_depth": POSITIVE_COUNT,
    "validation_fraction": FRACTION,
    "early_stopping_rounds": POSITIVE_COUNT,
    "reg_lambda": SIZE,
    "min_child_weight": SIZE,
    "rng_seed": COUNT,
}


@dataclass(frozen=True)
class BoostParams:
    n_estimators: int = 300
    learning_rate: float = 0.1
    max_delta_step: float = 1.0
    max_depth: int = 6
    validation_fraction: float = 0.2
    early_stopping_rounds: int = 20
    reg_lambda: float = 1.0
    min_child_weight: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        for name, spec in BOOST_RANGES.items():
            check_value(name, getattr(self, name), spec)


@dataclass
class Tree:
    """Flat-array regression tree; feature == -1 marks a leaf."""
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    gain_by_col: dict[int, float] = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


@dataclass
class BoostedModel:
    trees: list[Tree]
    base_score: float
    columns: list[str]
    params: BoostParams
    stopped_at: int
    best_val_loss: float

    def total_gain(self) -> np.ndarray:
        gains = np.zeros(len(self.columns))
        for tree in self.trees:
            for col, gain in tree.gain_by_col.items():
                gains[col] += gain
        return gains

    # -- serialization: versioned text format, round-trip exact --------------

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("stancelab-model v1\n")
            fh.write("params" + "".join(
                f" {k}={v!r}" for k, v in asdict(self.params).items()) + "\n")
            fh.write(f"base_score {self.base_score!r}\n")
            fh.write(f"stopped_at {self.stopped_at}\n")
            fh.write(f"best_val_loss {self.best_val_loss!r}\n")
            fh.write(f"columns {len(self.columns)}\n")
            for j, ident in enumerate(self.columns):
                fh.write(f"col {j} {ident}\n")
            fh.write(f"trees {len(self.trees)}\n")
            for t, tree in enumerate(self.trees):
                fh.write(f"tree {t} {tree.n_nodes}\n")
                for i in range(tree.n_nodes):
                    if tree.feature[i] >= 0:
                        fh.write(f"n {i} s {int(tree.feature[i])} "
                                 f"{float(tree.threshold[i])!r} "
                                 f"{int(tree.left[i])} {int(tree.right[i])}\n")
                    else:
                        fh.write(f"n {i} l {float(tree.value[i])!r}\n")
                for col in sorted(tree.gain_by_col):
                    fh.write(f"treegain {t} {col} {tree.gain_by_col[col]!r}\n")
            fh.write("end\n")

    @classmethod
    def load(cls, path) -> "BoostedModel":
        """Parse the format written by :meth:`save`.

        A malformed line (a ``params`` line that does not give each field of
        :class:`BoostParams` once, and no other), the second ``col`` line of
        one identifier, a node or child index out of range, a node out of
        order, or a file that ends before its ``end`` line (a file cut off
        anywhere) raises :class:`TrainingError` naming the file and line.
        """
        # a line counts only with its line end: the piece after the last one
        # is empty in a whole file, and never read
        lines = read_text(path, TrainingError).split("\n")
        at = 0  # the 1-based number of the line read last

        def line(tag: str, maxsplit: int = -1) -> list[str]:
            """The fields after ``tag`` of the next line, which must start
            with it."""
            nonlocal at
            at += 1
            if at >= len(lines):
                raise ValueError(f"the file ends before its {tag!r} line")
            text = lines[at - 1]
            fields = text.split(" ", maxsplit)
            if fields[0] != tag:
                raise ValueError(f"expected a {tag!r} line, found {text!r}")
            return fields[1:]

        def index(field: str, stop: int, start: int = 0) -> int:
            i = int(field)
            if not start <= i < stop:
                raise ValueError(f"index {i} out of range [{start}, {stop})")
            return i

        def next_tag() -> str:
            return lines[at].split(" ", 1)[0] if at + 1 < len(lines) else ""

        try:
            if line("stancelab-model") != ["v1"]:
                raise ValueError("unrecognized model file")
            kv: dict[str, str] = {}
            for item in line("params"):
                name, _eq, value = item.partition("=")
                if name in kv:
                    raise ValueError(f"a second {name!r} field")
                kv[name] = value
            params = BoostParams(**{name: kind(kv.pop(name)) for name, (
                kind, _test, _what) in BOOST_RANGES.items()})
            if kv:
                raise ValueError(f"unknown field {next(iter(kv))!r}")
            (base_score,) = map(float, line("base_score"))
            (stopped_at,) = map(int, line("stopped_at"))
            (best_val_loss,) = map(float, line("best_val_loss"))
            (n_cols,) = map(int, line("columns"))
            columns: dict[str, int] = {}  # each identifier's line
            for j in range(n_cols):
                k, ident = line("col", 2)
                index(k, j + 1, j)
                if fault := repeat(columns, ident, at, "column"):
                    raise ValueError(fault)
            (n_trees,) = map(int, line("trees"))
            trees = []
            for t in range(n_trees):
                k, n_nodes = line("tree")
                index(k, t + 1, t)
                n_nodes = int(n_nodes)
                if n_nodes < 1:
                    raise ValueError("a tree needs at least one node")
                if n_nodes >= len(lines) - at:  # a line per node
                    raise ValueError(f"the file ends before the {n_nodes} "
                                     f"nodes of tree {t}")
                # leaves keep feature and children -1, as training makes them
                feature = np.full(n_nodes, -1, dtype=np.int64)
                threshold = np.zeros(n_nodes)
                left = np.full(n_nodes, -1, dtype=np.int64)
                right = np.full(n_nodes, -1, dtype=np.int64)
                value = np.zeros(n_nodes)
                for i in range(n_nodes):
                    k, kind, *rest = line("n")
                    index(k, i + 1, i)
                    if kind == "s":
                        f, thr, lo, hi = rest
                        feature[i] = index(f, n_cols)
                        threshold[i] = float(thr)
                        # children follow their parent, so a walk ends
                        left[i] = index(lo, n_nodes, i + 1)
                        right[i] = index(hi, n_nodes, i + 1)
                    elif kind == "l":
                        (leaf,) = rest
                        value[i] = float(leaf)
                    else:
                        raise ValueError(f"unknown node kind {kind!r}")
                gains: dict[int, float] = {}
                while next_tag() == "treegain":
                    k, col, gain = line("treegain")
                    index(k, t + 1, t)
                    gains[index(col, n_cols)] = float(gain)
                trees.append(Tree(feature, threshold, left, right, value, gains))
            if line("end"):
                raise ValueError("malformed 'end' line")
            if at + 1 != len(lines) or lines[-1]:
                at += 1
                raise ValueError("the file goes on after its 'end' line")
        except (ValueError, KeyError) as exc:
            # a KeyError is a params field left out
            what = f"no {exc} field" if isinstance(exc, KeyError) else exc
            raise TrainingError(f"{path}:{at}: {what}") from None
        return cls(trees=trees, base_score=base_score,
                   columns=list(columns), params=params, stopped_at=stopped_at,
                   best_val_loss=best_val_loss)


def _log_loss(y: np.ndarray, p: np.ndarray) -> float:
    p = np.clip(p, 1e-15, 1 - 1e-15)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


def _as_csr(matrix: MatrixLike) -> tuple[CSR, list[str]]:
    """The input as CSR, with its column identifiers (``f00000``, ... for
    arrays)."""
    if isinstance(matrix, FeatureMatrix):
        return matrix.X, matrix.column_identifiers()
    X = as_csr(matrix)
    return X, [f"f{j:05d}" for j in range(X.shape[1])]


def _route(blocks: _kernels.ColumnBlocks, at, stay, splits):
    """Each row's node in the next level, from ``at``, its node in this one.

    ``splits`` lists (node, column, threshold, left child, right child) for
    each node that splits: a row there goes left where ``x[column] <
    threshold``, a zero as well. ``stay[k]`` is where every row of a node k
    that does not split goes. Only the entries of the split columns are read
    from ``blocks``, which holds all the rows.
    """
    default = stay.copy()
    for k, _col, thr, left, right in splits:
        default[k] = left if 0.0 < thr else right
    nxt = default[at]
    for k, col, thr, left, right in splits:
        lo, hi = np.searchsorted(blocks.col, (col, col + 1))
        rows = blocks.row[lo:hi]
        mine = at[rows] == k
        nxt[rows[mine]] = np.where(blocks.val[lo:hi][mine] < thr, left, right)
    return nxt


def _leaves(blocks: _kernels.ColumnBlocks, tree: Tree) -> np.ndarray:
    """The leaf of ``tree`` that each row of ``blocks`` reaches, found one
    depth at a time by `_route`."""
    # each node as `_route` lists a split
    nodes = list(zip(range(tree.n_nodes), tree.feature.tolist(),
                     tree.threshold.tolist(), tree.left.tolist(),
                     tree.right.tolist()))
    stay = np.arange(tree.n_nodes)  # a leaf keeps its rows
    at = np.zeros(blocks.n_rows, dtype=np.int64)
    level = [nodes[0]]
    while level:
        splits = [node for node in level if node[1] >= 0]
        at = _route(blocks, at, stay, splits)
        level = [nodes[k] for *_, lo, hi in splits for k in (lo, hi)]
    return at


def _build_tree(root: _kernels.ColumnBlocks, g: np.ndarray, h: np.ndarray,
                params: BoostParams, margin_update: np.ndarray) -> Tree:
    """Grow one tree level by level; add each leaf's step to margin_update
    at its rows.

    The open nodes of a level are searched in one `_kernels.level_splits`
    call. The entries stay in ``root``'s order; a split only rewrites the
    node of each of its rows. Nodes are numbered in depth-first preorder at
    the end, and gains are added in that order.
    """
    # each row's node in the level, numbered in level order; K, the number
    # of nodes, marks a row whose node closed before
    at = np.zeros(len(g), dtype=np.int64)
    g_entry, h_entry = g[root.row], h[root.row]
    # per node, in the order the nodes open, level by level; node k of the
    # level is node base + k
    base, K = 0, 1
    feature: list[int] = [-1]
    threshold: list[float] = [0.0]
    left: list[int] = [-1]
    right: list[int] = [-1]
    step: list[float] = [0.0]
    gain: list[float] = [0.0]

    for depth in range(params.max_depth + 1):
        # the rows of each node, ascending; the closed rows come last
        rows = np.argsort(at, kind="stable")
        m = np.bincount(at, minlength=K + 1)[:K]
        bounds = np.concatenate(([0], np.cumsum(m))).tolist()
        g_node, h_node = g[rows], h[rows]
        g_sum = np.array([np.add.reduce(g_node[a:b])
                          for a, b in zip(bounds, bounds[1:])])
        h_sum = np.array([np.add.reduce(h_node[a:b])
                          for a, b in zip(bounds, bounds[1:])])
        if depth < params.max_depth:
            cols, thrs, gains = _kernels.level_splits(
                root, at, g_entry, h_entry, m, g_sum, h_sum,
                params.reg_lambda, params.min_child_weight)
        else:
            cols, thrs, gains = np.full(K, -1), np.zeros(K), np.zeros(K)

        # a node that does not split is a leaf; its rows take its step
        steps = np.zeros(K + 1)
        for k in np.flatnonzero(cols < 0).tolist():
            w = -float(g_sum[k]) / (float(h_sum[k]) + params.reg_lambda)
            if params.max_delta_step > 0:
                w = max(-params.max_delta_step, min(params.max_delta_step, w))
            steps[k] = step[base + k] = params.learning_rate * w
        margin_update += steps[at]

        splits = np.flatnonzero(cols >= 0).tolist()
        if not splits:
            break
        # the next level: the left children in node order, then the right
        # ones; 2 * S marks the closed rows
        S = len(splits)
        splits = [(k, int(cols[k]), float(thrs[k]), j, S + j)
                  for j, k in enumerate(splits)]
        at = _route(root, at, np.full(K + 1, 2 * S), splits)

        children = len(feature)
        for nodes, blank in ((feature, -1), (threshold, 0.0), (left, -1),
                             (right, -1), (step, 0.0), (gain, 0.0)):
            nodes.extend([blank] * (2 * S))
        for k, col, thr, lo, hi in splits:
            node = base + k
            feature[node], threshold[node] = col, thr
            gain[node] = float(gains[k])
            left[node], right[node] = children + lo, children + hi
        base, K = children, 2 * S

    # depth-first preorder: a node, its left subtree, then its right one
    order = []
    stack = [0]
    while stack:
        node = stack.pop()
        order.append(node)
        if feature[node] >= 0:
            stack += (right[node], left[node])
    number = {node: i for i, node in enumerate(order)}
    gains: dict[int, float] = {}
    for node in order:
        if feature[node] >= 0:
            gains[feature[node]] = gains.get(feature[node], 0.0) + gain[node]
    return Tree(np.asarray([feature[i] for i in order], dtype=np.int64),
                np.asarray([threshold[i] for i in order]),
                np.asarray([number.get(left[i], -1) for i in order],
                           dtype=np.int64),
                np.asarray([number.get(right[i], -1) for i in order],
                           dtype=np.int64),
                np.asarray([step[i] for i in order]),
                gains)


def _stratified_split(y: np.ndarray, fraction: float,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Per-class shuffled split; returns (train_idx, val_idx)."""
    train, val = [], []
    for cls in (0, 1):
        idx = np.nonzero(y == cls)[0]
        idx = idx[rng.permutation(len(idx))]
        n_val = max(1, int(round(fraction * len(idx)))) if len(idx) > 1 else 0
        n_val = min(n_val, len(idx) - 1)
        val.extend(idx[:n_val])
        train.extend(idx[n_val:])
    return np.sort(np.asarray(train, dtype=np.int64)), \
        np.sort(np.asarray(val, dtype=np.int64))


def train(matrix: MatrixLike, labels: Sequence[int],
          params: Optional[BoostParams] = None) -> BoostedModel:
    """Fit a boosted-tree classifier with early stopping.

    ``labels`` must contain both classes. Margins start at 0.0, the
    model's ``base_score``. Training is deterministic given
    ``params.rng_seed``. Halts once the validation log-loss has not improved
    for ``early_stopping_rounds`` iterations; the returned model keeps the
    trees up to the best iteration.
    """
    params = params or BoostParams()
    X, columns = _as_csr(matrix)
    y = np.asarray(labels, dtype=np.float64)
    if 0 in X.shape or len(y) == 0:
        raise TrainingError("empty training matrix")
    if len(y) != X.shape[0]:
        raise TrainingError("label count does not match row count")
    classes = set(y.tolist())
    if classes != {0.0, 1.0}:
        raise TrainingError(f"need both binary classes, got {sorted(classes)}")

    rng = np.random.default_rng(params.rng_seed)
    train_idx, val_idx = _stratified_split(y.astype(np.int64),
                                           params.validation_fraction, rng)
    X_tr, y_tr = X.take_rows(train_idx), y[train_idx]
    X_val, y_val = X.take_rows(val_idx), y[val_idx]

    blocks = _kernels.ColumnBlocks.from_dense(X_tr)
    # too few rows may leave no validation slice; then no early stopping
    val = _kernels.ColumnBlocks.from_dense(X_val) if len(y_val) else None
    margin_tr = np.zeros(len(y_tr))
    margin_val = np.zeros(len(y_val))

    trees: list[Tree] = []
    best_loss = math.inf
    best_iter = -1
    for it in range(params.n_estimators):
        p = _kernels.sigmoid(margin_tr)
        g = p - y_tr
        h = np.maximum(p * (1.0 - p), 1e-16)
        trees.append(_build_tree(blocks, g, h, params, margin_tr))
        if val is None:
            best_iter = it
            continue
        margin_val += trees[-1].value[_leaves(val, trees[-1])]
        val_loss = _log_loss(y_val, _kernels.sigmoid(margin_val))
        if val_loss < best_loss:
            best_loss = val_loss
            best_iter = it
        elif it - best_iter >= params.early_stopping_rounds:
            break

    kept = trees[:best_iter + 1]
    return BoostedModel(trees=kept, base_score=0.0, columns=columns,
                        params=params, stopped_at=len(kept),
                        best_val_loss=best_loss)


def fit_single_tree_full_batch(X: np.ndarray, y: Sequence[int],
                               params: Optional[BoostParams] = None) -> Tree:
    """One tree fit on all rows from a zero margin, without a validation
    split. Used for small-instance verification against exhaustive search."""
    params = params or BoostParams()
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    p = np.full(len(y), 0.5)
    g = p - y
    h = p * (1.0 - p)
    update = np.zeros(len(y))
    return _build_tree(_kernels.ColumnBlocks.from_dense(X), g, h, params,
                       update)


def _reconcile(model: BoostedModel, matrix: MatrixLike) -> CSR:
    """The cells in the model's column order. A FeatureMatrix is matched by
    column identifier: model columns it lacks are absent (zero), and its
    extra columns are ignored. Arrays are matched by position."""
    X, idents = _as_csr(matrix)
    if not isinstance(matrix, FeatureMatrix):
        if X.shape[1] != len(model.columns):
            raise TrainingError("column count mismatch for array input")
        return X
    pos = {ident: k for k, ident in enumerate(model.columns)}
    remap = np.array([pos.get(ident, -1) for ident in idents], dtype=np.int64)
    cells = X.tocoo()
    col = remap[cells.col]
    keep = col >= 0
    return CSR.from_triplets(cells.row[keep], col[keep], cells.data[keep],
                             (X.shape[0], len(model.columns)))


def predict_margin(model: BoostedModel, matrix: MatrixLike) -> np.ndarray:
    blocks = _kernels.ColumnBlocks.from_dense(_reconcile(model, matrix))
    out = np.full(blocks.n_rows, model.base_score)
    for tree in model.trees:
        out += tree.value[_leaves(blocks, tree)]
    return out


def predict_confidence(model: BoostedModel, matrix: MatrixLike) -> np.ndarray:
    """Per-row confidence: logistic of the additive ensemble score, in (0,1)."""
    return _kernels.sigmoid(predict_margin(model, matrix))


def feature_importance(model: BoostedModel) -> list[tuple[str, float]]:
    """All columns ranked by total gain, descending; ties broken by name."""
    gains = model.total_gain()
    pairs = [(model.columns[j], float(gains[j])) for j in range(len(gains))]
    return sorted(pairs, key=lambda kv: (-kv[1], kv[0]))


# one call of `train`: (matrix, labels, params)
FitJob = tuple[MatrixLike, Sequence[int], Optional[BoostParams]]


def fit_workers(n_jobs: int) -> int:
    """How many fits `fit_many` runs at once for ``n_jobs`` jobs: one per CPU
    this process may run on, and no more than there are jobs."""
    return min(n_jobs, len(os.sched_getaffinity(0)))


def _exit_when_orphaned(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(0.05)
    os._exit(1)


def _fit_in_child(job: FitJob, send: connection.Connection,
                  parent: int) -> None:
    # a worker left behind by a killed run would fit on for nothing
    threading.Thread(target=_exit_when_orphaned, args=(parent,),
                     daemon=True).start()
    try:
        result = (train(*job), None)
    except Exception as exc:
        result = (exc, WorkerTraceback(traceback.format_exc()))
    send.send(result)


def _start_fit(job: FitJob) -> tuple[connection.Connection, int]:
    """Fork a worker that fits ``job``; its result pipe and its pid."""
    recv, send = multiprocessing.Pipe(duplex=False)
    parent = os.getpid()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            recv.close()
            _fit_in_child(job, send, parent)
            code = 0
        finally:
            os._exit(code)  # never return into the caller's stack
    send.close()
    return recv, pid


def _reap(pid: int) -> int:
    """Wait for worker ``pid``; its exit code, or minus the killing signal."""
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def fit_many(jobs: Sequence[FitJob]) -> list[BoostedModel]:
    """``train(*job)`` for every job, in parallel; the models come back in
    job order.

    Each fit runs in a process forked for it with `os.fork`, at most
    ``fit_workers`` at a time. The child inherits the job's data, sends back
    its model (or the exception ``train`` raised) through a pipe and exits;
    it also exits as soon as this process is gone. Once a fit fails no
    further fit starts, and when the running ones have ended the failure of
    the earliest job is raised, the one a loop over the jobs would have
    raised. A worker that ends without a readable result raises
    `TrainingError` with its exit code.

    A fork copies only the calling thread, and a lock another thread held
    stays locked in the child: call it from a process whose other threads,
    if any, hold no lock that ``train`` needs. numpy's OpenBLAS pool is one
    such thread, and OpenBLAS makes itself safe across a fork. The caller may
    be a daemonic `multiprocessing` worker.
    """
    n_workers = fit_workers(len(jobs))
    models: list[Optional[BoostedModel]] = [None] * len(jobs)
    errors: dict[int, tuple[Exception, Optional[Exception]]] = {}
    running: dict[connection.Connection, tuple[int, int]] = {}
    next_job = 0
    try:
        while True:
            while (not errors and next_job < len(jobs)
                   and len(running) < n_workers):
                recv, pid = _start_fit(jobs[next_job])
                running[recv] = (next_job, pid)
                next_job += 1
            if not running:
                break
            for recv in connection.wait(list(running)):
                i, pid = running[recv]
                try:
                    value, cause = recv.recv()
                except Exception as exc:  # died mid-send, or unreadable
                    value, cause = None, exc
                code = _reap(pid)
                del running[recv]
                recv.close()
                if isinstance(value, BoostedModel):
                    models[i] = value
                else:
                    errors[i] = (value or TrainingError(
                        f"fit {i}: worker exited with code {code} "
                        "without a result"), cause)
    finally:
        for recv, (_i, pid) in running.items():
            os.kill(pid, signal.SIGKILL)
            _reap(pid)
            recv.close()
    if errors:
        error, cause = errors[min(errors)]
        raise error from cause
    return models


@dataclass(frozen=True)
class CVReport:
    k: int
    precision_mean: float
    precision_std: float
    recall_mean: float
    recall_std: float
    # ``train(matrix, labels, params)``, fit in the same pool as the folds
    model: BoostedModel = field(compare=False, repr=False)
    # the fits made (k folds and the model) and the processes run at once
    fits: int = field(compare=False)
    workers: int = field(compare=False)

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")


def _macro_precision_recall(y_true: np.ndarray,
                            y_pred: np.ndarray) -> tuple[float, float]:
    precisions, recalls = [], []
    for cls in (0, 1):
        tp = int(np.sum((y_pred == cls) & (y_true == cls)))
        fp = int(np.sum((y_pred == cls) & (y_true != cls)))
        fn = int(np.sum((y_pred != cls) & (y_true == cls)))
        precisions.append(tp / (tp + fp) if tp + fp else 0.0)
        recalls.append(tp / (tp + fn) if tp + fn else 0.0)
    return float(np.mean(precisions)), float(np.mean(recalls))


def _stratified_folds(y: np.ndarray, k: int,
                      rng: np.random.Generator) -> list[np.ndarray]:
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in (0, 1):
        idx = np.nonzero(y == cls)[0]
        if len(idx) < k:
            raise TrainingError(
                f"class {cls} has only {len(idx)} rows; cannot stratify into "
                f"{k} folds")
        idx = idx[rng.permutation(len(idx))]
        for pos, i in enumerate(idx):
            folds[pos % k].append(int(i))
    return [np.sort(np.asarray(f, dtype=np.int64)) for f in folds]


def cross_validate(matrix: MatrixLike, labels: Sequence[int],
                   params: Optional[BoostParams] = None, k: int = 5) -> CVReport:
    """Stratified k-fold CV; macro precision/recall at threshold 0.5.

    The report also carries ``train(matrix, labels, params)``. That model and
    the k folds, fold ``f`` seeded ``params.rng_seed + f + 1``, are fit in
    parallel by `fit_many`, in processes forked from this one; its docstring
    says from which processes that is safe.
    """
    params = params or BoostParams()
    X, _cols = _as_csr(matrix)
    y = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(params.rng_seed)
    folds = _stratified_folds(y, k, rng)

    # the model on all rows, the largest fit, starts first
    jobs: list[FitJob] = [(matrix, labels, params)]
    for f in range(k):
        train_idx = np.sort(np.concatenate([folds[i] for i in range(k) if i != f]))
        fold_params = replace(params, rng_seed=params.rng_seed + f + 1)
        jobs.append((X.take_rows(train_idx), y[train_idx], fold_params))
    model, *fold_models = fit_many(jobs)

    precisions, recalls = [], []
    for f in range(k):
        conf = predict_confidence(fold_models[f], X.take_rows(folds[f]))
        pred = (conf >= 0.5).astype(np.int64)
        prec, rec = _macro_precision_recall(y[folds[f]], pred)
        precisions.append(prec)
        recalls.append(rec)
    return CVReport(k=k,
                    precision_mean=float(np.mean(precisions)),
                    precision_std=float(np.std(precisions)),
                    recall_mean=float(np.mean(recalls)),
                    recall_std=float(np.std(recalls)),
                    model=model, fits=len(jobs),
                    workers=fit_workers(len(jobs)))


def accept_by_threshold(confidences: Sequence[float],
                        threshold: float) -> list[Optional[int]]:
    """Accept the positive class at ``conf >= t``, the negative class at
    ``conf <= 1 - t``, and reject (None) in between."""
    if not (0.5 < threshold <= 1.0):
        raise ValueError("threshold must be in (0.5, 1]")
    out: list[Optional[int]] = []
    for c in confidences:
        if c >= threshold:
            out.append(1)
        elif c <= 1.0 - threshold:
            out.append(0)
        else:
            out.append(None)
    return out


def train_one_vs_rest(matrix: MatrixLike, labels: Sequence[str],
                      params: Optional[BoostParams] = None
                      ) -> dict[str, BoostedModel]:
    """One binary model per class, for multi-class attributes (age cohorts)."""
    params = params or BoostParams()
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise TrainingError("need at least two classes")
    y = np.asarray(labels)
    models = {}
    for offset, cls in enumerate(classes):
        cls_params = replace(params, rng_seed=params.rng_seed + 101 * offset)
        models[cls] = train(matrix, (y == cls).astype(np.int64), cls_params)
    return models


def predict_one_vs_rest(models: dict[str, BoostedModel], matrix: MatrixLike,
                        threshold: Optional[float] = None
                        ) -> list[Optional[str]]:
    """Argmax over per-class confidences; with a threshold, the winning class
    must reach it or the row is rejected."""
    classes = sorted(models)
    conf = np.column_stack([predict_confidence(models[c], matrix)
                            for c in classes])
    out: list[Optional[str]] = []
    for row in conf:
        best = int(np.argmax(row))
        if threshold is not None and row[best] < threshold:
            out.append(None)
        else:
            out.append(classes[best])
    return out
