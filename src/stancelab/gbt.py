"""Gradient-boosted decision trees for binary classification, from scratch.

Trees are fit to the logistic loss with second-order (gradient/hessian) split
gains, exact greedy split finding, leaf steps capped by ``max_delta_step``,
and early stopping on a held-out validation slice. Sparse-zero feature values
route left by default, which falls out of the `x < threshold` split rule on
non-negative count data.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from multiprocessing import connection
from typing import Optional, Sequence, Union

import numpy as np
from scipy import sparse

from . import _kernels
from .features import FeatureMatrix

# a FeatureMatrix, or a rows × columns array (dense or scipy sparse) whose
# columns are identified by position
MatrixLike = Union[FeatureMatrix, np.ndarray, sparse.sparray]


class TrainingError(Exception):
    pass


class WorkerTraceback(Exception):
    """The traceback, as text, of an exception raised in a `fit_many`
    worker; attached as the cause of that exception when it is re-raised."""


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
        if self.n_estimators < 1 or self.max_depth < 1:
            raise ValueError("n_estimators and max_depth must be positive")
        if not (0.0 < self.validation_fraction < 1.0):
            raise ValueError("validation_fraction must be in (0, 1)")
        if self.learning_rate <= 0 or self.max_delta_step < 0:
            raise ValueError("bad learning_rate / max_delta_step")
        if self.early_stopping_rounds < 1:
            raise ValueError("early_stopping_rounds must be positive")


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
            p = self.params
            fh.write("params"
                     f" n_estimators={p.n_estimators}"
                     f" learning_rate={p.learning_rate!r}"
                     f" max_delta_step={p.max_delta_step!r}"
                     f" max_depth={p.max_depth}"
                     f" validation_fraction={p.validation_fraction!r}"
                     f" early_stopping_rounds={p.early_stopping_rounds}"
                     f" reg_lambda={p.reg_lambda!r}"
                     f" min_child_weight={p.min_child_weight!r}"
                     f" rng_seed={p.rng_seed}\n")
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

        A malformed line, a node or child index out of range, a node out of
        order, or a file that ends before its ``end`` line (a file cut off
        anywhere) raises :class:`TrainingError` naming the file and line.
        """
        with open(path, "rb") as fh:
            # a line counts only with its line end: the piece after the last
            # one is empty in a whole file, and never read
            lines = fh.read().split(b"\n")
        at = 0  # the 1-based number of the line read last

        def line(tag: str, maxsplit: int = -1) -> list[str]:
            """The fields after ``tag`` of the next line, which must start
            with it."""
            nonlocal at
            at += 1
            if at >= len(lines):
                raise ValueError(f"the file ends before its {tag!r} line")
            text = lines[at - 1].decode("utf-8")
            fields = text.split(" ", maxsplit)
            if fields[0] != tag:
                raise ValueError(f"expected a {tag!r} line, found {text!r}")
            return fields[1:]

        def index(field: str, stop: int, start: int = 0) -> int:
            i = int(field)
            if not start <= i < stop:
                raise ValueError(f"index {i} out of range [{start}, {stop})")
            return i

        def next_tag() -> bytes:
            return lines[at].split(b" ", 1)[0] if at + 1 < len(lines) else b""

        try:
            if line("stancelab-model") != ["v1"]:
                raise ValueError("unrecognized model file")
            kv = dict(item.split("=", 1) for item in line("params"))
            params = BoostParams(
                n_estimators=int(kv["n_estimators"]),
                learning_rate=float(kv["learning_rate"]),
                max_delta_step=float(kv["max_delta_step"]),
                max_depth=int(kv["max_depth"]),
                validation_fraction=float(kv["validation_fraction"]),
                early_stopping_rounds=int(kv["early_stopping_rounds"]),
                reg_lambda=float(kv["reg_lambda"]),
                min_child_weight=float(kv["min_child_weight"]),
                rng_seed=int(kv["rng_seed"]),
            )
            (base_score,) = map(float, line("base_score"))
            (stopped_at,) = map(int, line("stopped_at"))
            (best_val_loss,) = map(float, line("best_val_loss"))
            (n_cols,) = map(int, line("columns"))
            columns = []
            for j in range(n_cols):
                k, ident = line("col", 2)
                index(k, j + 1, j)
                columns.append(ident)
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
                while next_tag() == b"treegain":
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
        return cls(trees=trees, base_score=base_score, columns=columns,
                   params=params, stopped_at=stopped_at,
                   best_val_loss=best_val_loss)


def _log_loss(y: np.ndarray, p: np.ndarray) -> float:
    p = np.clip(p, 1e-15, 1 - 1e-15)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


def _as_csr(matrix: MatrixLike) -> tuple[sparse.csr_array, list[str]]:
    """The input as CSR, with its column identifiers (``f00000``, ... for
    arrays)."""
    if isinstance(matrix, FeatureMatrix):
        return matrix.X, matrix.column_identifiers()
    X = sparse.csr_array(matrix, dtype=np.float64, copy=True)
    X.sum_duplicates()  # one entry per cell, as ColumnBlocks needs
    return X, [f"f{j:05d}" for j in range(X.shape[1])]


def _build_tree(root: _kernels.ColumnBlocks, g: np.ndarray, h: np.ndarray,
                params: BoostParams, margin_update: np.ndarray) -> Tree:
    """Grow one tree depth-first; adds each leaf's step to margin_update."""
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []
    gains: dict[int, float] = {}

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    def grow(blocks: _kernels.ColumnBlocks, depth: int) -> int:
        node = new_node()
        node_rows = blocks.rows
        col, thr, gain = -1, 0.0, 0.0
        if depth < params.max_depth and len(node_rows) >= 2:
            col, thr, gain = blocks.best_split(
                g, h, params.reg_lambda, params.min_child_weight)
        if col >= 0:
            gains[col] = gains.get(col, 0.0) + gain
            feature[node] = col
            threshold[node] = thr
            blocks_left, blocks_right = blocks.split(col, thr)
            left[node] = grow(blocks_left, depth + 1)
            right[node] = grow(blocks_right, depth + 1)
        else:
            g_sum = float(g[node_rows].sum())
            h_sum = float(h[node_rows].sum())
            w = -g_sum / (h_sum + params.reg_lambda)
            if params.max_delta_step > 0:
                w = max(-params.max_delta_step, min(params.max_delta_step, w))
            step = params.learning_rate * w
            value[node] = step
            margin_update[node_rows] += step
        return node

    grow(root, 0)
    return Tree(np.asarray(feature, dtype=np.int64),
                np.asarray(threshold),
                np.asarray(left, dtype=np.int64),
                np.asarray(right, dtype=np.int64),
                np.asarray(value),
                gains)


def _tree_margin(tree: Tree, X: sparse.csr_array) -> np.ndarray:
    return _kernels.predict_margin(X, tree.feature, tree.threshold, tree.left,
                                   tree.right, tree.value)


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
    classes = set(np.unique(y))
    if classes != {0.0, 1.0}:
        raise TrainingError(f"need both binary classes, got {sorted(classes)}")

    rng = np.random.default_rng(params.rng_seed)
    train_idx, val_idx = _stratified_split(y.astype(np.int64),
                                           params.validation_fraction, rng)
    if len(set(y[train_idx])) < 2:
        raise TrainingError("training split lost one of the classes")
    X_tr, y_tr = X[train_idx], y[train_idx]
    X_val, y_val = X[val_idx], y[val_idx]

    blocks = _kernels.ColumnBlocks.from_dense(X_tr)
    margin_tr = np.zeros(len(y_tr))
    margin_val = np.zeros(len(y_val))

    trees: list[Tree] = []
    best_loss = math.inf
    best_iter = -1
    for it in range(params.n_estimators):
        p = _kernels.sigmoid(margin_tr)
        g = p - y_tr
        h = np.maximum(p * (1.0 - p), 1e-16)
        update = np.zeros(len(y_tr))
        tree = _build_tree(blocks, g, h, params, update)
        trees.append(tree)
        margin_tr += update
        if len(y_val) == 0:
            # too few rows to hold out a validation slice; no early stopping
            best_iter = it
            continue
        margin_val += _tree_margin(tree, X_val)
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


def _reconcile(model: BoostedModel, matrix: MatrixLike) -> sparse.csr_array:
    """CSR matrix in the model's column order. A FeatureMatrix is matched by
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
    return sparse.csr_array((cells.data[keep], (cells.row[keep], col[keep])),
                            shape=(X.shape[0], len(model.columns)))


def predict_margin(model: BoostedModel, matrix: MatrixLike) -> np.ndarray:
    X = _reconcile(model, matrix)
    out = np.full(X.shape[0], model.base_score)
    for tree in model.trees:
        out += _tree_margin(tree, X)
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
        jobs.append((X[train_idx], y[train_idx], fold_params))
    model, *fold_models = fit_many(jobs)

    precisions, recalls = [], []
    for f in range(k):
        conf = predict_confidence(fold_models[f], X[folds[f]])
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
