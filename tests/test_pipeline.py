import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from stancelab import corpus as cm
from stancelab import labeling, synth
from stancelab.config import PipelineConfig, Thresholds, config_from_dict
from stancelab.gbt import BoostParams
from stancelab.pipeline import (REPORT_FILES, STAGES, Pipeline, StageError,
                                output_lock)


@pytest.fixture(scope="module")
def demo_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("synth") / "corpus.jsonl"
    spec = synth.SynthSpec(
        n_users=150, rng_seed=11,
        turnaround_effects={"gender": {"male": -0.10}})
    corpus, _truth = synth.generate(spec)
    cm.write_corpus(corpus, path)
    return str(path)


def make_config(corpus_path, out_dir, seed=11):
    return PipelineConfig(
        corpus=corpus_path,
        output_dir=str(out_dir),
        thresholds=Thresholds(tweet_min_count=5, bio_min_count=2),
        boost=BoostParams(n_estimators=40, early_stopping_rounds=8,
                          rng_seed=seed),
        min_in_degree=2,
        rng_seed=seed,
    )


def run_all(cfg):
    pipe = Pipeline(cfg)
    with output_lock(pipe.out):
        for stage in STAGES:
            pipe.run_stage(stage)
    return pipe


def test_end_to_end_and_byte_identity(demo_corpus, tmp_path):
    cfg1 = make_config(demo_corpus, tmp_path / "run1")
    cfg2 = make_config(demo_corpus, tmp_path / "run2")
    p1 = run_all(cfg1)
    p2 = run_all(cfg2)
    for name in REPORT_FILES:
        a = (p1.out / name).read_bytes()
        b = (p2.out / name).read_bytes()
        assert a == b, f"report {name} differs between identical runs"
        assert a.startswith(b"# manifest " + p1.digest.encode())


def test_manifest_contents(demo_corpus, tmp_path, monkeypatch):
    loads = []
    load_ruleset = labeling.load_ruleset

    def counted(*args, **kwargs):
        loads.append(args)
        return load_ruleset(*args, **kwargs)

    monkeypatch.setattr(labeling, "load_ruleset", counted)
    cfg = make_config(demo_corpus, tmp_path / "run")
    pipe = run_all(cfg)
    assert len(loads) == 1  # label, train and importance share one parse
    manifest = json.loads((pipe.out / "manifest.json").read_text())
    assert manifest["digest"] == pipe.digest
    assert set(manifest["stages"]) == set(STAGES)
    assert "corpus" in manifest["inputs"]
    assert len(manifest["inputs"]["corpus"]) == 64  # sha256 hex
    for entry in manifest["stages"].values():
        assert entry["seconds"] >= 0
    assert manifest["stages"]["train"]["metrics"] == {
        "fits": 6, "workers": min(6, len(os.sched_getaffinity(0)))}


def test_missing_upstream_stage_fatal(demo_corpus, tmp_path):
    cfg = make_config(demo_corpus, tmp_path / "run")
    pipe = Pipeline(cfg)
    with pytest.raises(StageError, match="missing stage: ingest"):
        pipe.run_stage("label")


def test_skip_fresh(demo_corpus, tmp_path):
    cfg = make_config(demo_corpus, tmp_path / "run")
    pipe = Pipeline(cfg)
    with output_lock(pipe.out):
        pipe.run_stage("ingest")
        before = (pipe.out / "corpus.jsonl").stat().st_mtime_ns
        pipe.run_stage("ingest", skip_fresh=True)
        assert (pipe.out / "corpus.jsonl").stat().st_mtime_ns == before
    # changing the seed invalidates freshness
    cfg2 = make_config(demo_corpus, tmp_path / "run", seed=99)
    pipe2 = Pipeline(cfg2)
    assert not pipe2._is_fresh("ingest")


def test_output_lock(demo_corpus, tmp_path):
    cfg = make_config(demo_corpus, tmp_path / "run")
    pipe = Pipeline(cfg)
    with output_lock(pipe.out):
        with pytest.raises(StageError, match="locked"):
            with output_lock(pipe.out):
                pass
    # released afterwards
    with output_lock(pipe.out):
        pass


# a child that takes the output lock of argv[1], says so, and holds it until
# argv[2] exists; a child that finds the lock taken says "locked"
_LOCK_CHILD = """
import os, sys, time
from pathlib import Path
from stancelab.pipeline import StageError, output_lock
try:
    with output_lock(Path(sys.argv[1])):
        print("held", flush=True)
        while not os.path.exists(sys.argv[2]):
            time.sleep(0.05)
except StageError:
    print("locked", flush=True)
"""


def _child(code, *args, **popen_kw):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cm.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.Popen([sys.executable, "-c", code, *map(str, args)],
                            stdout=subprocess.PIPE, text=True, env=env,
                            **popen_kw)


def _lock_child(out, release):
    return _child(_LOCK_CHILD, out, release)


def test_output_lock_released_when_holder_is_killed(tmp_path):
    out = tmp_path / "run"
    child = _lock_child(out, tmp_path / "never")
    try:
        assert child.stdout.readline().strip() == "held"
        with pytest.raises(StageError, match="locked"):
            with output_lock(out):
                pass
    finally:
        child.kill()
        child.wait()
        child.stdout.close()
    with output_lock(out):
        assert (out / ".lock").read_text() == str(os.getpid())


# a child that takes the output lock of argv[1] and, holding it, fits two
# models that would take hours
_TRAINING_CHILD = """
import sys
from pathlib import Path
import numpy as np
from stancelab import gbt
from stancelab.pipeline import output_lock
rng = np.random.default_rng(0)
X = rng.random((400, 20))
y = rng.integers(0, 2, 400)
params = gbt.BoostParams(n_estimators=10**6, early_stopping_rounds=10**6)
with output_lock(Path(sys.argv[1])):
    print("fitting", flush=True)
    gbt.fit_many([(X, y, params)] * 2)
"""


def _live_members(pgid):
    """Pids of the processes in group ``pgid`` that have not exited."""
    pids = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:  # exited meanwhile
            continue
        state, _ppid, pgrp = stat[stat.rindex(")") + 2:].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            pids.append(int(entry))
    return pids


def _lock_is_free(out):
    try:
        with output_lock(out):
            return True
    except StageError:
        return False


def test_killed_run_leaves_no_worker_and_no_lock(tmp_path):
    out = tmp_path / "run"
    # its own process group, which its fit workers share
    child = _child(_TRAINING_CHILD, out, start_new_session=True)
    try:
        assert child.stdout.readline().strip() == "fitting"
        deadline = time.monotonic() + 30
        while set(_live_members(child.pid)) <= {child.pid}:
            assert time.monotonic() < deadline, "no fit worker started"
            time.sleep(0.05)
        child.kill()
        child.wait()
        deadline = time.monotonic() + 3
        while _live_members(child.pid) or not _lock_is_free(out):
            assert time.monotonic() < deadline, (
                f"workers {_live_members(child.pid)} outlived the killed run, "
                f"lock free: {_lock_is_free(out)}")
            time.sleep(0.05)
    finally:
        child.kill()
        child.wait()
        child.stdout.close()
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def test_forked_child_does_not_hold_output_lock(tmp_path):
    out = tmp_path / "run"
    with output_lock(out):
        child = multiprocessing.get_context("fork").Process(
            target=time.sleep, args=(60,))
        child.start()
    try:
        # the child closes its copy as soon as it runs after the fork
        deadline = time.monotonic() + 5
        while not _lock_is_free(out):
            assert time.monotonic() < deadline, "the forked child holds the lock"
            time.sleep(0.05)
        assert child.is_alive()
    finally:
        child.kill()
        child.join()


def test_output_lock_one_winner_among_racing_runs(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    # a leftover lock file naming a process that has exited
    dead = subprocess.Popen([sys.executable, "-c", "pass"])
    dead.wait()
    (out / ".lock").write_text(str(dead.pid))
    release = tmp_path / "release"
    children = [_lock_child(out, release) for _ in range(2)]
    try:
        # the loser reports at once; the winner holds until released
        for _ in range(600):
            done = [c for c in children if c.poll() is not None]
            if done:
                break
            time.sleep(0.05)
        assert len(done) == 1
        assert done[0].stdout.read().strip() == "locked"
        release.touch()
        winner = next(c for c in children if c is not done[0])
        assert winner.wait(timeout=30) == 0
        assert winner.stdout.read().strip() == "held"
    finally:
        for c in children:
            c.kill()
            c.wait()
            c.stdout.close()


def test_report_files_well_formed(demo_corpus, tmp_path):
    cfg = make_config(demo_corpus, tmp_path / "run")
    pipe = run_all(cfg)
    for name in REPORT_FILES:
        lines = (pipe.out / name).read_text().splitlines()
        assert lines[0].startswith("# manifest ")
        assert len(lines) >= 2
    # stance distribution covers the three bands and sums to the user count
    rows = [l.split("\t") for l in
            (pipe.out / "stance_distribution.tsv").read_text().splitlines()
            if not l.startswith("#")][1:]
    assert {r[0] for r in rows} == {"opposition", "undisclosed", "defense"}
    assert abs(sum(float(r[2]) for r in rows) - 1.0) < 1e-9
    # turnaround deltas equal p1 - p0
    for line in (pipe.out / "turnaround.tsv").read_text().splitlines()[2:]:
        _u, p0, p1, d = line.split("\t")
        assert abs((float(p1) - float(p0)) - float(d)) < 1e-12


def test_drop_collinear_prunes_duplicate_indicator():
    from stancelab.pipeline import _drop_collinear
    from stancelab.stats import Covariate
    rng = __import__("numpy").random.default_rng(0)
    records = []
    for _ in range(60):
        g = "male" if rng.random() < 0.5 else "female"
        records.append({"gender": g, "x": float(rng.normal()),
                        "dup": 1.0 if g == "male" else 0.0})
    covs = [Covariate("gender", "categorical"), Covariate("x", "numeric"),
            Covariate("dup", "numeric")]
    kept, dropped = _drop_collinear(records, covs)
    assert dropped == ["dup"]
    assert [c.name for c in kept] == ["gender", "x"]


def test_config_yaml_round_trip(tmp_path):
    raw = {
        "corpus": "c.jsonl",
        "output_dir": "out",
        "filter": {"include_terms": ["aborto"], "from": "2017-01-01",
                   "to": "2019-01-01"},
        "thresholds": {"tweet_min_count": 7},
        "boost": {"n_estimators": 50},
        "periods": [["2017-05-01", "2017-08-01"],
                    ["2018-05-01", "2018-08-01"]],
        "rng_seed": 3,
    }
    cfg = config_from_dict(raw, base_dir=tmp_path)
    assert cfg.corpus == str(tmp_path / "c.jsonl")
    assert cfg.thresholds.tweet_min_count == 7
    assert cfg.thresholds.bio_min_count == 10  # untouched default
    assert cfg.boost.n_estimators == 50
    assert cfg.boost.learning_rate == 0.1
    assert cfg.rng_seed == 3


def test_config_rejects_overlapping_periods(tmp_path):
    from stancelab.config import ConfigError
    with pytest.raises(ConfigError):
        config_from_dict({"periods": [["2017-05-01", "2018-08-01"],
                                      ["2018-05-01", "2018-09-01"]]},
                         base_dir=tmp_path)


@pytest.mark.parametrize("raw, key", [
    ({"rng_sed": 5}, "rng_sed"),
    ({"filter": {"include_term": ["aborto"]}}, "filter.include_term"),
    ({"rules": {"gazeteer": "g.tsv"}}, "rules.gazeteer"),
    ({"thresholds": {"foo": 1}}, "thresholds.foo"),
    ({"thresholds": {"confidence_gender": 0.7}},
     "thresholds.confidence_gender"),
    ({"thresholds": {"band_lower": 0.3}}, "thresholds.band_lower"),
    ({"boost": {"n_estimator": 5}}, "boost.n_estimator"),
])
def test_config_rejects_unknown_keys(tmp_path, raw, key):
    from stancelab.config import ConfigError
    with pytest.raises(ConfigError, match=re.escape(key)):
        config_from_dict(raw, base_dir=tmp_path)
