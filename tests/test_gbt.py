import multiprocessing
import os
import re
import struct
from dataclasses import replace
from multiprocessing import connection

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from stancelab import _kernels, gbt
from stancelab._kernels import GAIN_EPS
from stancelab.csr import as_csr


def _best_split_loop(Xn, gn, hn, reg_lambda, min_child_weight):
    """Reference split search: every column sorted in full, scanned in scalar
    order, with sequential left-to-right sums."""
    m, p = Xn.shape
    g_total = 0.0
    h_total = 0.0
    for i in range(m):
        g_total += gn[i]
        h_total += hn[i]
    parent = g_total * g_total / (h_total + reg_lambda)

    best_gain = 0.0
    best_col = -1
    best_thr = 0.0
    for j in range(p):
        col = Xn[:, j]
        order = np.argsort(col, kind="mergesort")
        gl = 0.0
        hl = 0.0
        for idx in range(m - 1):
            r = order[idx]
            gl += gn[r]
            hl += hn[r]
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


def _predict_margin_loop(X, feature, threshold, left, right, value):
    """Reference prediction: walk every row down the tree one at a time."""
    out = np.zeros(X.shape[0])
    for i in range(X.shape[0]):
        node = 0
        while feature[node] >= 0:
            if X[i, feature[node]] < threshold[node]:
                node = left[node]
            else:
                node = right[node]
        out[i] = value[node]
    return out


def _build_tree_depth_first(root, g, h, params, margin_update):
    """Reference grower: depth-first, one `ColumnBlocks.best_split` and one
    `ColumnBlocks.split` per node, nodes numbered as they are made."""
    feature, threshold, left, right, value = [], [], [], [], []
    gains = {}

    def grow(blocks, depth):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        col, thr, gain = -1, 0.0, 0.0
        if depth < params.max_depth and len(blocks.rows) >= 2:
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
            g_sum = float(g[blocks.rows].sum())
            h_sum = float(h[blocks.rows].sum())
            w = -g_sum / (h_sum + params.reg_lambda)
            if params.max_delta_step > 0:
                w = max(-params.max_delta_step, min(params.max_delta_step, w))
            value[node] = params.learning_rate * w
            margin_update[blocks.rows] += value[node]
        return node

    grow(root, 0)
    return gbt.Tree(np.asarray(feature, dtype=np.int64),
                    np.asarray(threshold),
                    np.asarray(left, dtype=np.int64),
                    np.asarray(right, dtype=np.int64),
                    np.asarray(value), gains)


def exhaustive_best_gain(X, g, h, reg_lambda=1.0, min_child_weight=1.0):
    """Independent oracle: enumerate every (column, midpoint) candidate and
    return the maximum achievable gain with the set of attaining splits."""
    m, p = X.shape
    g_total, h_total = g.sum(), h.sum()
    parent = g_total ** 2 / (h_total + reg_lambda)
    best = 0.0
    argmax = set()
    for j in range(p):
        values = np.unique(X[:, j])
        for a, b in zip(values[:-1], values[1:]):
            thr = (a + b) / 2
            mask = X[:, j] < thr
            gl, hl = g[mask].sum(), h[mask].sum()
            gr, hr = g[~mask].sum(), h[~mask].sum()
            if hl < min_child_weight or hr < min_child_weight:
                continue
            gain = 0.5 * (gl ** 2 / (hl + reg_lambda)
                          + gr ** 2 / (hr + reg_lambda) - parent)
            if gain > best + 1e-10:
                best = gain
                argmax = {(j, thr)}
            elif abs(gain - best) <= 1e-10:
                argmax.add((j, thr))
    return best, argmax


def _oracle_instance(rng, kind):
    m = int(rng.integers(2, 70))
    p = int(rng.integers(1, 9))
    if kind == 0:    # tie-heavy non-negative integer counts
        X = rng.integers(0, 4, size=(m, p)).astype(float)
    elif kind == 1:  # negative, zero and positive integers
        X = rng.integers(-3, 4, size=(m, p)).astype(float)
    else:            # sparse signed reals
        X = rng.normal(size=(m, p)) * (rng.random((m, p)) < 0.4)
    if rng.random() < 0.3:
        X[:, rng.integers(p)] = 0.0  # an all-zero column
    return X


def test_split_matches_exhaustive_oracle():
    # the dense scan and the column-block scan, each against the oracle
    rng = np.random.default_rng(0)
    for it in range(600):
        X = _oracle_instance(rng, it % 3)
        m = X.shape[0]
        y = rng.integers(0, 2, size=m).astype(float)
        pr = rng.uniform(0.1, 0.9, size=m)
        g, h = pr - y, pr * (1 - pr)
        # up to 4.0, min_child_weight blocks one side of many candidates
        mcw = float(rng.choice([0.0, 0.5, 1.0, 2.0, 4.0]))
        best, argmax = exhaustive_best_gain(X, g, h, min_child_weight=mcw)
        dense = _kernels.best_split(X, g, h, 1.0, mcw)
        blocks = _kernels.ColumnBlocks.from_dense(X).best_split(g, h, 1.0, mcw)
        for col, thr, gain in (dense, blocks):
            if best <= GAIN_EPS:
                assert col == -1
            else:
                assert abs(gain - best) < 1e-9
                assert (col, thr) in argmax
        assert dense[:2] == blocks[:2]


def test_numpy_and_loop_kernels_bitwise_equal():
    # the kernel sums a column's zeros as the node total minus its nonzeros,
    # so its gain may differ from the loop's in the last bits only
    rng = np.random.default_rng(7)
    for _ in range(500):
        m = int(rng.integers(2, 100))
        p = int(rng.integers(1, 10))
        X = rng.poisson(1.0, size=(m, p)).astype(float)
        if p > 1 and rng.random() < 0.5:
            # an exact tie: the earlier column must win
            X[:, -1] = X[:, int(rng.integers(p - 1))]
        g = rng.normal(size=m)
        h = np.abs(rng.normal(size=m)) + 1e-3
        a = _best_split_loop(X, g, h, 1.0, 1.0)
        blocks = _kernels.ColumnBlocks.from_dense(X)
        b = blocks.best_split(g, h, 1.0, 1.0)
        assert a[0] == b[0]
        assert float(a[1]) == float(b[1])
        assert abs(float(a[2]) - float(b[2])) <= 1e-12 * abs(float(a[2]))
        assert blocks.best_split(g, h, 1.0, 1.0) == b


def test_level_wise_tree_equals_depth_first_reference():
    # the level-wise grower against the depth-first one it replaced: same
    # nodes in the same order, same leaves and margins; its gains are summed
    # over other running sums, so they may differ in the last bits only
    rng = np.random.default_rng(12)
    for it in range(360):
        X = _oracle_instance(rng, it % 3)
        m, p = X.shape
        if p > 1 and rng.random() < 0.4:
            # an exact tie: the earlier column must win
            X[:, -1] = X[:, int(rng.integers(p - 1))]
        y = rng.integers(0, 2, size=m).astype(float)
        pr = rng.uniform(0.1, 0.9, size=m)
        g, h = pr - y, pr * (1 - pr)
        params = gbt.BoostParams(
            max_depth=int(rng.integers(1, 7)),
            min_child_weight=float(rng.choice([0.0, 0.5, 1.0, 2.0, 4.0])))
        # validation rows: the training rows shuffled, some cells zeroed
        Xv = X[rng.permutation(m)] * (rng.random((m, p)) < 0.8)
        want_update, got_update = np.zeros(m), np.zeros(m)
        want = _build_tree_depth_first(_kernels.ColumnBlocks.from_dense(X),
                                       g, h, params, want_update)
        got = gbt._build_tree(_kernels.ColumnBlocks.from_dense(X), g, h,
                              params, got_update)
        got_val = got.value[gbt._leaves(_kernels.ColumnBlocks.from_dense(Xv),
                                        got)]
        for name in ("feature", "threshold", "left", "right", "value"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), \
                (it, name)
        assert got.gain_by_col.keys() == want.gain_by_col.keys()
        for col, gain in want.gain_by_col.items():
            assert abs(got.gain_by_col[col] - gain) <= 1e-12 * abs(gain)
        assert np.array_equal(got_update, want_update)
        assert np.array_equal(got_val, _predict_margin_loop(
            Xv, want.feature, want.threshold, want.left, want.right,
            want.value))


def test_train_scans_once_per_depth_and_routes_validation_rows(monkeypatch):
    X, y = separable_data(n=300, seed=8)
    params = gbt.BoostParams(n_estimators=60, max_depth=4,
                             early_stopping_rounds=3)
    scans = []
    level_splits, build_tree = _kernels.level_splits, gbt._build_tree

    def counted(*args):
        scans[-1] += 1
        return level_splits(*args)

    def tree(*args):
        scans.append(0)
        return build_tree(*args)

    def forbidden(*args):
        raise AssertionError("called in training")

    monkeypatch.setattr(_kernels, "level_splits", counted)
    monkeypatch.setattr(gbt, "_build_tree", tree)
    monkeypatch.setattr(_kernels.ColumnBlocks, "split", forbidden)
    model = gbt.train(X, y, params)
    grown = gbt.train(X, y, replace(params, early_stopping_rounds=60))
    monkeypatch.undo()
    assert 0 < max(scans) <= params.max_depth
    assert len(scans) == 60 + len(model.trees) + params.early_stopping_rounds

    # the validation loss of every prefix of trees, from gbt.predict_margin
    _rows, val = gbt._stratified_split(
        y, params.validation_fraction, np.random.default_rng(params.rng_seed))
    losses = [gbt._log_loss(y[val], gbt.predict_confidence(
        replace(grown, trees=grown.trees[:i + 1]), X[val]))
        for i in range(len(grown.trees))]
    assert grown.best_val_loss == min(losses)
    assert grown.stopped_at == losses.index(min(losses)) + 1
    best, best_iter = np.inf, -1
    for i, loss in enumerate(losses):
        if loss < best:
            best, best_iter = loss, i
        elif i - best_iter >= params.early_stopping_rounds:
            break
    assert model.stopped_at == best_iter + 1 < grown.stopped_at
    assert model.best_val_loss == best


def test_predict_kernels_agree():
    # gbt.predict_margin against the row-by-row reference summed over the
    # trees in the same order, bit for bit, whatever form the matrix takes
    from stancelab.features import FeatureColumn, FeatureMatrix
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 6))
    y = (X[:, 0] > 0).astype(int)
    model = gbt.train(X, y, gbt.BoostParams(n_estimators=10))

    def reference(X):
        out = np.full(X.shape[0], model.base_score)
        for t in model.trees:
            out += _predict_margin_loop(X, t.feature, t.threshold, t.left,
                                        t.right, t.value)
        return out

    # negative values, and NaN, which goes right as `x < threshold` fails
    Xn = np.where(rng.random(X.shape) < 0.2, np.nan, X)
    # a CSR array reads the same values, absent cells as zero
    X0 = np.where(np.abs(X) < 0.5, 0.0, X)
    for dense, given in ((X, X), (Xn, Xn), (X0, X0),
                         (X0, as_csr(X0))):
        assert np.array_equal(gbt.predict_margin(model, given),
                              reference(dense))

    # a FeatureMatrix is matched by identifier: its columns permuted, and
    # one the model never saw, change nothing
    Xp = np.abs(X0)
    cols = [FeatureColumn(f"t{j}", "tweet_term", "word")
            for j in range(X.shape[1])]
    named = replace(model, columns=[c.identifier for c in cols])
    perm = [3, 0, 5, 1, 4, 2]
    m = FeatureMatrix(
        rows=tuple(f"u{i}" for i in range(X.shape[0])),
        columns=tuple(cols[j] for j in perm)
        + (FeatureColumn("new", "tweet_term", "word"),),
        X=as_csr(np.column_stack([Xp[:, perm], np.ones(X.shape[0])])))
    assert np.array_equal(gbt.predict_margin(named, m), reference(Xp))


def separable_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.poisson(1.0, size=(n, 10)).astype(float)
    y = (X[:, 0] + 0.5 * X[:, 1] + rng.normal(0, 0.5, n) > 1.5).astype(int)
    return X, y


def test_train_and_predict():
    X, y = separable_data()
    model = gbt.train(X, y)
    conf = gbt.predict_confidence(model, X)
    assert conf.min() > 0 and conf.max() < 1
    acc = float(((conf > 0.5) == y).mean())
    assert acc > 0.85
    assert model.stopped_at == len(model.trees) <= model.params.n_estimators


def test_train_rejects_single_class():
    X = np.ones((20, 2))
    with pytest.raises(gbt.TrainingError):
        gbt.train(X, np.ones(20, dtype=int))


def test_train_deterministic():
    X, y = separable_data(seed=5)
    m1 = gbt.train(X, y)
    m2 = gbt.train(X, y)
    assert np.array_equal(gbt.predict_margin(m1, X), gbt.predict_margin(m2, X))


def test_max_delta_step_caps_leaves():
    X, y = separable_data()
    params = gbt.BoostParams(max_delta_step=1.0, learning_rate=0.1)
    model = gbt.train(X, y, params)
    for t in model.trees:
        leaf_vals = t.value[t.feature < 0]
        assert np.all(np.abs(leaf_vals) <= params.learning_rate * 1.0 + 1e-12)


def test_save_load_round_trip(tmp_path):
    X, y = separable_data(seed=2)
    model = gbt.train(X, y)
    f = tmp_path / "m.txt"
    model.save(f)
    model2 = gbt.BoostedModel.load(f)
    assert np.array_equal(gbt.predict_margin(model, X),
                          gbt.predict_margin(model2, X))
    assert np.array_equal(model.total_gain(), model2.total_gain())
    f2 = tmp_path / "m2.txt"
    model2.save(f2)
    assert f.read_bytes() == f2.read_bytes()
    _assert_same_model(model, model2)  # leaves included, not only bytes
    # \r\n ends a line as \n does
    f2.write_bytes(f.read_bytes().replace(b"\n", b"\r\n"))
    _assert_same_model(model, gbt.BoostedModel.load(f2))


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    """A saved model with a multi-byte column identifier."""
    X, y = separable_data(seed=5)
    model = gbt.train(X, y, gbt.BoostParams(n_estimators=8))
    model.columns = [f"c{j}" for j in range(X.shape[1] - 1)] + ["name:💚"]
    path = tmp_path_factory.mktemp("model") / "model.txt"
    model.save(path)
    return path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cut_model_file_is_a_named_error(saved_model, tmp_path_factory, data):
    cut = data.draw(st.integers(0, len(saved_model) - 1))
    path = tmp_path_factory.mktemp("cut") / "model.txt"
    path.write_bytes(saved_model[:cut])
    with pytest.raises(gbt.TrainingError, match=re.escape(f"{path}:")):
        gbt.BoostedModel.load(path)


@pytest.mark.parametrize("old, new, what", [
    (b"stancelab-model v1", b"stancelab-model v2", "unrecognized"),
    (b" max_depth=", b" depth=", "no 'max_depth' field"),
    (b"stopped_at ", b"stopped_at x", "invalid literal"),
    (b"col 1 ", b"col 2 ", "out of range"),
    (b"\nn 0 s 0 ", b"\nn 0 s 99 ", "out of range"),  # no such column
    (b"\nn 1 s 1 1.5 2 ", b"\nn 1 s 1 1.5 1 ", "out of range"),  # a loop
    (b"\nn 1 s ", b"\nn 2 s ", "out of range"),  # out of order
    (b" l ", b" x ", "unknown node kind"),
    (b"\ntree 0 ", b"\ntree 0 99999999999", "ends before the"),
    (b"\nend\n", b"\nend\nend\n", "goes on after"),
    (b"\nend\n", b"\nend x\n", "malformed 'end' line"),
    (b"\nbase_score ", b"\nbase ", "expected a 'base_score' line"),
    # a tree of no nodes, its node count moved to a line of its own
    (b"\ntree 0 ", b"\ntree 0 0\nx ", "at least one node"),
    (b" learning_rate=0.1 ", b" learning_rate=nan ",
     "learning_rate must be a positive number"),
    (b"\ncol 1 ", b"\ncol 1 \xff", "not UTF-8 text"),
    # each params field once, and no other
    (b"\nbase_score ", b" n_estimators=1\nbase_score ",
     "a second 'n_estimators' field"),
    (b"\nbase_score ", b" bogus=7\nbase_score ", "unknown field 'bogus'"),
    # the second col line of an identifier, named with the first, and
    # before a later fault
    (b"\ncol 1 c1\n", b"\ncol 1 c0\n",
     r"duplicate column identifier 'c0' \(first on line 7\)"),
    (b"\ncol 1 c1\ncol 2 c2\n", b"\ncol 1 c0\ncol 9 c2\n",
     r"duplicate column identifier 'c0' \(first on line 7\)"),
])
def test_malformed_model_file_is_a_named_error(saved_model, tmp_path, old,
                                               new, what):
    assert old in saved_model
    path = tmp_path / "model.txt"
    path.write_bytes(saved_model.replace(old, new, 1))
    with pytest.raises(gbt.TrainingError,
                       match=re.escape(f"{path}:") + r"\d+: .*" + what):
        gbt.BoostedModel.load(path)


def test_column_reconciliation():
    from stancelab.features import FeatureColumn, FeatureMatrix
    X, y = separable_data(seed=4)
    cols = tuple(FeatureColumn(f"t{j}", "tweet_term", "word")
                 for j in range(X.shape[1]))
    m = FeatureMatrix(rows=tuple(f"u{i}" for i in range(X.shape[0])),
                      columns=cols, X=as_csr(X))
    model = gbt.train(m, y)
    base = gbt.predict_margin(model, m)
    assert np.array_equal(base, gbt.predict_margin(model, X))
    # permute columns and add an unseen one: predictions must not change
    perm = (cols[3], cols[0],
            FeatureColumn("new", "tweet_term", "word")) + cols[1:3] + cols[4:]
    remap = {c.identifier: j for j, c in enumerate(perm)}
    X2 = np.zeros((X.shape[0], len(perm)))
    for j, c in enumerate(cols):
        X2[:, remap[c.identifier]] = X[:, j]
    m2 = FeatureMatrix(rows=m.rows, columns=perm, X=as_csr(X2))
    assert np.array_equal(gbt.predict_margin(model, m2), base)


def test_feature_importance_ranked():
    X, y = separable_data()
    model = gbt.train(X, y)
    imp = gbt.feature_importance(model)
    assert len(imp) == X.shape[1]
    gains = [g for _n, g in imp]
    assert gains == sorted(gains, reverse=True)
    assert imp[0][0] in ("f00000", "f00001")  # the informative columns


def test_cross_validate():
    X, y = separable_data(n=300)
    rep = gbt.cross_validate(X, y, gbt.BoostParams(n_estimators=40), k=5)
    assert rep.k == 5
    assert rep.precision_mean > 0.8
    assert rep.recall_mean > 0.8


def test_cv_needs_enough_per_class():
    X = np.ones((10, 2))
    y = np.array([1, 1, 1, 1, 1, 1, 1, 0, 0, 0])
    with pytest.raises(gbt.TrainingError):
        gbt.cross_validate(X, y, k=5)


def _assert_same_model(a, b):
    assert (a.base_score, a.columns, a.params, a.stopped_at) == \
        (b.base_score, b.columns, b.params, b.stopped_at)
    assert a.best_val_loss == b.best_val_loss
    assert len(a.trees) == len(b.trees)
    for ta, tb in zip(a.trees, b.trees):
        for name in ("feature", "threshold", "left", "right", "value"):
            assert np.array_equal(getattr(ta, name), getattr(tb, name))
        assert ta.gain_by_col == tb.gain_by_col


def test_fit_many_matches_in_process_train():
    X, y = separable_data(n=300, seed=3)
    folds = np.arange(300) % 4
    params = gbt.BoostParams(n_estimators=30)
    jobs = [(X, y, params)]
    for f in range(4):
        rows = folds != f
        jobs.append((X[rows], y[rows],
                     gbt.BoostParams(n_estimators=30, rng_seed=f + 1)))
    pooled = gbt.fit_many(jobs)
    assert len(pooled) == len(jobs)
    for job, model in zip(jobs, pooled):
        _assert_same_model(gbt.train(*job), model)


def test_cross_validate_repeatable_and_carries_model():
    X, y = separable_data(n=300)
    params = gbt.BoostParams(n_estimators=40, rng_seed=4)
    first = gbt.cross_validate(X, y, params, k=5)
    again = gbt.cross_validate(X, y, params, k=5)
    assert first == again
    assert (first.fits, first.workers) == (6, gbt.fit_workers(6))
    _assert_same_model(first.model, gbt.train(X, y, params))
    _assert_same_model(again.model, first.model)


def test_cross_validate_in_a_daemonic_process():
    # e.g. a multiprocessing.Pool worker, which may not start Process children
    X, y = separable_data(n=120)
    params = gbt.BoostParams(n_estimators=5)
    recv, send = multiprocessing.Pipe(duplex=False)
    child = multiprocessing.get_context("fork").Process(
        target=lambda: send.send(gbt.cross_validate(X, y, params, k=3)),
        daemon=True)
    child.start()
    send.close()
    try:
        assert recv.poll(60), "no report from the daemonic process"
        assert recv.recv() == gbt.cross_validate(X, y, params, k=3)
    finally:
        child.kill()
        child.join()
        recv.close()


def test_fit_many_raises_worker_errors_in_job_order():
    X, y = separable_data(n=100)
    good = (X, y, gbt.BoostParams(n_estimators=5))
    zeros = (X, np.zeros(100, dtype=int), None)
    ones = (X, np.ones(100, dtype=int), None)
    for jobs, first_bad in (([good, zeros, ones], zeros),
                            ([ones, good, zeros], ones)):
        with pytest.raises(gbt.TrainingError) as want:
            gbt.train(*first_bad)
        with pytest.raises(gbt.TrainingError) as got:
            gbt.fit_many(jobs)
        assert str(got.value) == str(want.value)
        # the worker's traceback comes along as the cause
        assert isinstance(got.value.__cause__, gbt.WorkerTraceback)
        assert "in train" in str(got.value.__cause__)
    assert gbt.fit_many([]) == []


class _NeedsTwoArgs(Exception):
    # pickles, but unpickling calls it with one argument and fails
    def __init__(self, a, b):
        super().__init__(a)


def _raise_needs_two_args(*job):
    raise _NeedsTwoArgs("a", "b")


def _send_part_and_exit(conn, obj):
    # a message header promising more bytes than follow, as when a worker is
    # killed while it sends its model
    os.write(conn.fileno(), struct.pack("!i", 1 << 20) + b"partial")
    os._exit(4)


def test_fit_many_reports_a_worker_that_dies(monkeypatch):
    X, y = separable_data(n=100)
    # forked workers inherit the patched train
    monkeypatch.setattr(gbt, "train", lambda *job: os._exit(3))
    with pytest.raises(gbt.TrainingError, match="fit 0: .* code 3"):
        gbt.fit_many([(X, y, None)])
    # its result cannot be read: cut off mid-message, or not unpickled
    monkeypatch.setattr(gbt, "train", lambda *job: None)
    monkeypatch.setattr(connection.Connection, "send", _send_part_and_exit)
    with pytest.raises(gbt.TrainingError, match="fit 0: .* code 4") as got:
        gbt.fit_many([(X, y, None)])
    assert isinstance(got.value.__cause__, OSError)
    monkeypatch.undo()
    monkeypatch.setattr(gbt, "train", _raise_needs_two_args)
    with pytest.raises(gbt.TrainingError, match="fit 0: .* code 0") as got:
        gbt.fit_many([(X, y, None)])
    assert isinstance(got.value.__cause__, TypeError)


def test_accept_by_threshold():
    out = gbt.accept_by_threshold([0.9, 0.7, 0.5, 0.31, 0.2], 0.7)
    assert out == [1, 1, None, None, 0]
    with pytest.raises(ValueError):
        gbt.accept_by_threshold([0.5], 0.5)


def test_one_vs_rest():
    rng = np.random.default_rng(11)
    n = 240
    X = np.zeros((n, 3))
    labels = []
    for i in range(n):
        k = i % 3
        X[i, k] = 1 + rng.poisson(2)
        labels.append(f"c{k}")
    models = gbt.train_one_vs_rest(X, labels,
                                   gbt.BoostParams(n_estimators=30))
    pred = gbt.predict_one_vs_rest(models, X)
    acc = np.mean([p == t for p, t in zip(pred, labels)])
    assert acc > 0.9
    thresholded = gbt.predict_one_vs_rest(models, np.zeros((1, 3)),
                                          threshold=0.99)
    assert thresholded == [None]


@pytest.mark.parametrize("field", ["n_estimators", "max_depth",
                                   "early_stopping_rounds", "rng_seed"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, "6", -1])
def test_boost_params_take_whole_numbers_only(field, value):
    _kind, _test, what = gbt.BOOST_RANGES[field]
    with pytest.raises(ValueError, match=re.escape(
            f"{field} must be {what}, got {value!r}")):
        gbt.BoostParams(**{field: value})


@pytest.mark.parametrize("field", ["learning_rate", "max_delta_step",
                                   "validation_fraction", "reg_lambda",
                                   "min_child_weight"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf"), -1.0, True, "1"])
def test_boost_params_take_finite_numbers_in_range_only(field, value):
    with pytest.raises(ValueError, match=f"{field} must be "):
        gbt.BoostParams(**{field: value})


def test_boost_params_take_zero_weights_but_not_a_zero_learning_rate():
    params = gbt.BoostParams(max_delta_step=0.0, reg_lambda=0.0,
                             min_child_weight=0.0)
    assert (params.max_delta_step, params.reg_lambda,
            params.min_child_weight) == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError,
                       match="learning_rate must be a positive number"):
        gbt.BoostParams(learning_rate=0.0)


def test_boost_ranges_name_every_boost_param_and_config_key():
    from dataclasses import fields
    from stancelab.config import SCALARS
    names = [f.name for f in fields(gbt.BoostParams)]
    assert sorted(gbt.BOOST_RANGES) == sorted(names)
    boost_keys = {key: spec for key, spec in SCALARS.items()
                  if key.startswith("boost.")}
    assert boost_keys == {f"boost.{name}": gbt.BOOST_RANGES[name]
                          for name in names}
