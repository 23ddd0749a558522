"""Spans around calls into stancelab's layers, recorded from outside.

`Tracer.installed()` replaces each function listed in `TARGETS` by a wrapper
that records a span (name, start, end, parent, count) and returns the wrapped
function's result unchanged. A function is replaced at every stancelab module
that binds it by name, so `features.tokenize` is traced as well as
`textproc.tokenize`. Spans stay in memory; `Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager


def _rows(_args, result):
    return len(result)


def _cells(_args, result):
    return int(result.size)


# (module, attribute or Class.method, span name, count of work per call).
# A span name of None names the span after the stage argument.
TARGETS = (
    ("stancelab.pipeline", "Pipeline.run_stage", None, None),
    ("stancelab.corpus", "load_corpus", "corpus.load", None),
    ("stancelab.corpus", "filter_relevant", "corpus.filter", None),
    ("stancelab.corpus", "build_interaction_graph", "corpus.graph", None),
    ("stancelab.corpus", "largest_connected_component", "corpus.lcc", None),
    ("stancelab.corpus", "write_corpus", "corpus.write", None),
    ("stancelab.textproc", "tokenize", "textproc.tokenize", None),
    ("stancelab.textproc", "term_counts", "textproc.term_counts", None),
    ("stancelab.labeling", "apply_rules", "labeling.apply_rules", None),
    ("stancelab.labeling", "load_ruleset", "labeling.load_ruleset", None),
    ("stancelab.features", "build_matrix", "features.build_matrix", None),
    ("stancelab.features", "FeatureMatrix.save", "features.save", None),
    ("stancelab.features", "FeatureMatrix.load", "features.load", None),
    ("stancelab.features", "FeatureMatrix.to_dense", "features.to_dense",
     _cells),
    ("stancelab.features", "drop_columns", "features.reshape", None),
    ("stancelab.features", "align_rows", "features.reshape", None),
    ("stancelab.gbt", "train", "gbt.train", None),
    ("stancelab.gbt", "cross_validate", "gbt.cv", None),
    ("stancelab.gbt", "predict_margin", "gbt.predict", _rows),
    ("stancelab._kernels", "ColumnBlocks.best_split", "gbt.split", None),
    ("stancelab._kernels", "best_split", "gbt.split", None),
    ("stancelab._kernels", "ColumnBlocks.split", "gbt.partition", None),
    ("stancelab.calibration", "fit_platt", "calibration.fit_platt", None),
    ("stancelab.calibration", "score_users", "calibration.score", None),
    ("stancelab.calibration", "calibrate_many", "calibration.score", None),
    ("stancelab.calibration", "calibrate", "calibration.score", None),
    ("stancelab.stats", "log_odds_prior", "stats.log_odds", None),
    ("stancelab.stats", "tukey_hsd", "stats.hsd", None),
    ("stancelab.stats", "group_importance_test", "stats.hsd", None),
    ("stancelab.stats", "ols_regress", "stats.ols", None),
    ("stancelab.synth", "generate", "synth.generate", None),
)

# every module whose namespace may bind a traced function
MODULES = ("stancelab", "stancelab.cli", "stancelab.pipeline",
           "stancelab.corpus", "stancelab.textproc", "stancelab.labeling",
           "stancelab.features", "stancelab.gbt", "stancelab._kernels",
           "stancelab.calibration", "stancelab.stats", "stancelab.synth",
           "stancelab.config")


class Tracer:
    """In-memory span recorder. Each span is [name, start, end, parent,
    count]; parent is the index of the enclosing span or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, count=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name or f"pipeline.{args[1]}", 0.0, 0.0,
                    stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target while the block runs; restore them after."""
        mods = [importlib.import_module(m) for m in MODULES]
        undo = []
        try:
            for mod_name, attr, name, count in TARGETS:
                owner = sys.modules[mod_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(raw.__func__, name, count))
                    else:
                        new = self.wrap(raw, name, count)
                    undo.append((cls, meth, raw))
                    setattr(cls, meth, new)
                    continue
                original = getattr(owner, attr)
                wrapped = self.wrap(original, name, count)
                for mod in mods:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, original))
                            setattr(mod, key, wrapped)
            yield self
        finally:
            for obj, key, value in reversed(undo):
                setattr(obj, key, value)

    def dump(self, path, extra: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        data = dict(extra)
        data["self_s_by_layer"] = self_times(self.spans)
        data["spans"] = [[s[0], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3]]
                         for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def self_times(spans) -> dict[str, float]:
    """Per layer (span name before the dot), time in its spans minus the time
    its spans' children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        layer = s[0].split(".")[0]
        out[layer] = out.get(layer, 0.0) + (s[2] - s[1]) - child[i]
    return out


def inclusive(spans, names, outside=()) -> tuple[float, int, int]:
    """(seconds, calls, counted work) of the outermost spans named in
    `names`: a span inside another span of `names` or of `outside` is not
    counted again."""
    names, stop = set(names), set(names) | set(outside)
    seconds, calls, work = 0.0, 0, 0
    for s in spans:
        if s[0] not in names:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] not in stop:
            p = spans[p][3]
        if p < 0:
            seconds += s[2] - s[1]
            calls += 1
            work += s[4]
    return seconds, calls, work
