import json
import os
import re
import subprocess
import sys
import time

import pytest

from stancelab import corpus as cm
from stancelab import synth
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


def test_manifest_contents(demo_corpus, tmp_path):
    cfg = make_config(demo_corpus, tmp_path / "run")
    pipe = run_all(cfg)
    manifest = json.loads((pipe.out / "manifest.json").read_text())
    assert manifest["digest"] == pipe.digest
    assert set(manifest["stages"]) == set(STAGES)
    assert "corpus" in manifest["inputs"]
    assert len(manifest["inputs"]["corpus"]) == 64  # sha256 hex
    for entry in manifest["stages"].values():
        assert entry["seconds"] >= 0


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


def _lock_child(out, release):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cm.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.Popen(
        [sys.executable, "-c", _LOCK_CHILD, str(out), str(release)],
        stdout=subprocess.PIPE, text=True, env=env)


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
    with output_lock(out):
        assert (out / ".lock").read_text() == str(os.getpid())


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
