"""The tracing wrappers return the wrapped functions' results unchanged,
record one span per call at every binding, and are removed afterwards."""

import json
from pathlib import Path

import numpy as np

import run
import tracing
from stancelab import _kernels, calibration, features, gbt, textproc


def test_wrappers_return_results_unchanged(pipeline_run):
    _inputs, out = pipeline_run
    text = "aborto sig01 w002 \U0001F49A #abortolegal @u00001"
    rng = np.random.default_rng(0)
    X = rng.integers(0, 3, size=(40, 6)).astype(float)
    g, h = rng.normal(size=40), rng.uniform(0.1, 1.0, size=40)
    model = gbt.BoostedModel.load(out / "model_stance.txt")
    platt = calibration.PlattModel(slope=2.0, offset=-1.0)

    def calls():
        m = features.FeatureMatrix.load(out / "matrix_full.txt")
        blocks = _kernels.ColumnBlocks.from_dense(X)
        return (textproc.tokenize(text), features.tokenize(text),
                m, m.to_dense(), blocks.best_split(g, h, 1.0, 1.0),
                _kernels.best_split(X, g, h, 1.0, 1.0),
                [b.rows for b in blocks.split(0, 0.5)],
                gbt.predict_margin(model, m),
                calibration.score_users(platt, ["a", "b"], [0.2, 0.9]))

    plain = calls()
    original = textproc.tokenize
    tracer = tracing.Tracer()
    with tracer.installed():
        assert features.tokenize is not original
        assert features.tokenize is textproc.tokenize
        traced = calls()
    assert len(plain) == len(traced)
    for a, b in zip(plain, traced):
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b)
        elif isinstance(a, list) and a and isinstance(a[0], np.ndarray):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))
        else:
            assert a == b
    names = [s[0] for s in tracer.spans]
    assert names.count("textproc.tokenize") == 2
    assert names.count("gbt.split") >= 2
    assert "features.load" in names and "gbt.predict" in names


def test_originals_restored():
    before = (textproc.tokenize, features.tokenize, gbt.train,
              features.FeatureMatrix.__dict__["load"],
              _kernels.ColumnBlocks.best_split)
    with tracing.Tracer().installed():
        assert features.tokenize is not before[1]
    after = (textproc.tokenize, features.tokenize, gbt.train,
             features.FeatureMatrix.__dict__["load"],
             _kernels.ColumnBlocks.best_split)
    assert all(a is b for a, b in zip(before, after))


def test_spans_nest_and_exceptions_close_them():
    tracer = tracing.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x * 2

    inner_t = tracer.wrap(inner, "layer.inner", count=lambda a, r: r)
    outer_t = tracer.wrap(lambda x: inner_t(x) + inner_t(x), "layer.outer")
    assert outer_t(3) == 12
    try:
        inner_t(-1)
    except ValueError:
        pass
    names = [s[0] for s in tracer.spans]
    assert names == ["layer.outer", "layer.inner", "layer.inner",
                     "layer.inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, -1]
    assert all(s[2] >= s[1] > 0 for s in tracer.spans)
    _secs, calls, work = tracing.inclusive(tracer.spans, ["layer.inner"])
    assert (calls, work) == (3, 12)
    assert tracing.inclusive(tracer.spans, ["layer.inner"],
                             outside=["layer.outer"])[1] == 1


def test_benchmark_json_lists_every_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    import workloads
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
