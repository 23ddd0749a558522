import multiprocessing
import os
import struct
from multiprocessing import connection

import numpy as np
import pytest
from scipy import sparse

from stancelab import _kernels, gbt
from stancelab._kernels import GAIN_EPS


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


def _predict_margin_loop(X, feature, threshold, left, right, value,
                         tree_start, out):
    """Reference prediction: walk every row down every tree one at a time."""
    n = X.shape[0]
    n_trees = tree_start.shape[0]
    for t in range(n_trees):
        root = tree_start[t]
        for i in range(n):
            node = root
            while feature[node] >= 0:
                if X[i, feature[node]] < threshold[node]:
                    node = left[node]
                else:
                    node = right[node]
            out[i] += value[node]
    return out


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
    rng = np.random.default_rng(0)
    vectorized = 0
    for it in range(600):
        X = _oracle_instance(rng, it % 3)
        m = X.shape[0]
        vectorized += X.size > _kernels.SMALL_NODE_CELLS
        y = rng.integers(0, 2, size=m).astype(float)
        pr = rng.uniform(0.1, 0.9, size=m)
        g, h = pr - y, pr * (1 - pr)
        # up to 4.0, min_child_weight blocks one side of many candidates
        mcw = float(rng.choice([0.0, 0.5, 1.0, 2.0, 4.0]))
        col, thr, gain = _kernels.best_split(X, g, h, 1.0, mcw)
        best, argmax = exhaustive_best_gain(X, g, h, min_child_weight=mcw)
        if best <= GAIN_EPS:
            assert col == -1
        else:
            assert abs(gain - best) < 1e-9
            assert (col, thr) in argmax
    assert vectorized >= 100  # both the scalar and the vectorized scan ran


def test_numpy_and_loop_kernels_bitwise_equal():
    # the kernel sums a column's zeros as the node total minus its nonzeros,
    # so its gain may differ from the loop's in the last bits only
    rng = np.random.default_rng(7)
    vectorized = 0
    for _ in range(500):
        m = int(rng.integers(2, 100))
        p = int(rng.integers(1, 10))
        vectorized += m * p > _kernels.SMALL_NODE_CELLS
        X = rng.poisson(1.0, size=(m, p)).astype(float)
        if p > 1 and rng.random() < 0.5:
            # an exact tie: the earlier column must win
            X[:, -1] = X[:, int(rng.integers(p - 1))]
        g = rng.normal(size=m)
        h = np.abs(rng.normal(size=m)) + 1e-3
        a = _best_split_loop(X, g, h, 1.0, 1.0)
        b = _kernels.best_split(X, g, h, 1.0, 1.0)
        assert a[0] == b[0]
        assert float(a[1]) == float(b[1])
        assert abs(float(a[2]) - float(b[2])) <= 1e-12 * abs(float(a[2]))
        assert _kernels.best_split(X, g, h, 1.0, 1.0) == b
    assert vectorized >= 100


def test_predict_kernels_agree():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 6))
    y = (X[:, 0] > 0).astype(int)
    model = gbt.train(X, y, gbt.BoostParams(n_estimators=10))
    # flatten all trees into one kernel call
    feats, thrs, lefts, rights, vals, starts = [], [], [], [], [], []
    off = 0
    for t in model.trees:
        starts.append(off)
        feats.append(t.feature + np.where(t.feature >= 0, 0, 0))
        thrs.append(t.threshold)
        lefts.append(np.where(t.left >= 0, t.left + off, -1))
        rights.append(np.where(t.right >= 0, t.right + off, -1))
        vals.append(t.value)
        off += t.n_nodes
    args = (np.concatenate(feats), np.concatenate(thrs),
            np.concatenate(lefts), np.concatenate(rights),
            np.concatenate(vals), np.asarray(starts, dtype=np.int64))
    out1 = _predict_margin_loop(X, *args, np.zeros(len(X)))
    out2 = _kernels.predict_margin(X, *args, np.zeros(len(X)))
    assert np.array_equal(out1, out2)
    assert np.allclose(out1 + model.base_score, gbt.predict_margin(model, X))
    # a CSR array reads the same values, absent cells as zero
    X0 = np.where(np.abs(X) < 0.5, 0.0, X)
    assert np.array_equal(
        _predict_margin_loop(X0, *args, np.zeros(len(X))),
        _kernels.predict_margin(sparse.csr_array(X0), *args,
                                np.zeros(len(X))))


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


def test_column_reconciliation():
    from stancelab.features import FeatureColumn, FeatureMatrix
    X, y = separable_data(seed=4)
    cols = tuple(FeatureColumn(f"t{j}", "tweet_term", "word")
                 for j in range(X.shape[1]))
    m = FeatureMatrix(rows=tuple(f"u{i}" for i in range(X.shape[0])),
                      columns=cols, X=sparse.csr_array(X))
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
    m2 = FeatureMatrix(rows=m.rows, columns=perm, X=sparse.csr_array(X2))
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
