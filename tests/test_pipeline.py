import codecs
import dataclasses
import errno
import hashlib
import json
import math
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stancelab import corpus as cm
from stancelab import features, gbt, labeling, pipeline, synth, textproc, tsv
from stancelab.config import (SCALARS, PipelineConfig, RulePaths, Thresholds,
                              config_from_dict)
from stancelab.gbt import BoostParams
from stancelab.pipeline import (_LOADERS, REPORT_FILES, STAGE_TABLE, STAGES,
                                VERSION, Pipeline, StageError, output_lock)


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
    assert len(loads) == 1  # label and train share one parse
    manifest = json.loads((pipe.out / "manifest.json").read_text())
    assert manifest["digest"] == pipe.digest
    assert set(manifest["stages"]) == set(STAGES)
    assert "corpus" in manifest["inputs"]
    assert len(manifest["inputs"]["corpus"]) == 64  # sha256 hex
    for entry in manifest["stages"].values():
        assert entry["seconds"] >= 0
    assert manifest["stages"]["train"]["metrics"] == {
        "fits": 6, "workers": min(6, len(os.sched_getaffinity(0)))}


def _count_loads(monkeypatch):
    """Calls, by the file they load, of the loader table's entries, of
    ``FeatureMatrix.load``, ``BoostedModel.load`` and ``load_corpus``, and
    the stage-table reads of a file (not of text held in memory)."""
    calls = Counter()

    def counted(key, fn):
        def wrapper(path, *args, **kwargs):
            if kwargs.get("contents") is None:
                calls[key, os.path.basename(path)] += 1
            return fn(path, *args, **kwargs)
        return wrapper

    for name, load in _LOADERS.items():
        monkeypatch.setitem(_LOADERS, name, counted("table", load))
    for cls in (features.FeatureMatrix, gbt.BoostedModel):
        monkeypatch.setattr(cls, "load",
                            staticmethod(counted(cls.__name__, cls.load)))
    monkeypatch.setattr(cm, "load_corpus", counted("load_corpus",
                                                   cm.load_corpus))
    monkeypatch.setattr(pipeline, "read_tsv", counted("read_tsv",
                                                      pipeline.read_tsv))
    return calls


def test_run_loads_no_stage_output_and_a_stage_loads_each_input_once(
        demo_corpus, tmp_path, monkeypatch):
    calls = _count_loads(monkeypatch)
    pipe = run_all(make_config(demo_corpus, tmp_path / "run"))
    # the input corpus only: every later stage gets what an earlier one
    # published
    assert calls == {("load_corpus", "corpus.jsonl"): 1}
    assert pipe._held.keys() == _LOADERS.keys()

    calls.clear()
    Pipeline(make_config(demo_corpus, tmp_path / "run")).run_stage(
        "turnaround")
    inputs = ("matrix_p0.txt", "matrix_p1.txt", "model_stance.txt",
              "platt.tsv", "labels.tsv")
    assert calls == {
        **{("table", name): 1 for name in inputs},
        ("FeatureMatrix", "matrix_p0.txt"): 1,
        ("FeatureMatrix", "matrix_p1.txt"): 1,
        ("BoostedModel", "model_stance.txt"): 1,
        ("read_tsv", "platt.tsv"): 1, ("read_tsv", "labels.tsv"): 1}

    # importance reads the model's columns from the full matrix: no rule file
    calls.clear()
    monkeypatch.setattr(labeling, "load_ruleset", lambda *args, **kwargs:
                        pytest.fail("importance parsed the rule files"))
    Pipeline(make_config(demo_corpus, tmp_path / "run")).run_stage(
        "importance")
    assert calls == {
        ("table", "matrix_full.txt"): 1, ("table", "model_stance.txt"): 1,
        ("FeatureMatrix", "matrix_full.txt"): 1,
        ("BoostedModel", "model_stance.txt"): 1}


def _same_model(a, b):
    return (a.base_score, a.columns, a.params, a.stopped_at,
            a.best_val_loss, len(a.trees)) == \
        (b.base_score, b.columns, b.params, b.stopped_at, b.best_val_loss,
         len(b.trees)) and all(
            all(np.array_equal(getattr(ta, f), getattr(tb, f))
                and getattr(ta, f).dtype == getattr(tb, f).dtype
                for f in ("feature", "threshold", "left", "right", "value"))
            and ta.gain_by_col == tb.gain_by_col
            for ta, tb in zip(a.trees, b.trees))


# user ids that no stage file can hold: the train-user list splits on
# whitespace, and a TSV line starting with "#" is a comment
_BAD_USER_IDS = ("", "u 1", "u\t2", "u\r3", "u\u20284", "#u5")


def _data_lines(path: Path) -> list[list[str]]:
    """The fields of each line of a report below its header."""
    lines = [line for line in path.read_text().splitlines()
             if not line.startswith("#")]
    return [line.split("\t") for line in lines[1:]]


def test_each_stage_predicts_only_the_rows_it_writes(demo_corpus, tmp_path,
                                                      monkeypatch):
    predicted = []  # each FeatureMatrix predicted, and its confidences
    predict = gbt.predict_confidence

    def recorded(model, matrix):
        confidence = predict(model, matrix)
        if isinstance(matrix, features.FeatureMatrix):  # not a CV fold
            predicted.append((matrix, confidence))
        return confidence

    monkeypatch.setattr(gbt, "predict_confidence", recorded)
    cfg = make_config(demo_corpus, tmp_path / "run")
    pipe = Pipeline(cfg)
    by_stage = {}
    with output_lock(pipe.out):
        for stage in STAGES:
            predicted.clear()
            pipe.run_stage(stage)
            by_stage[stage] = list(predicted)
    assert {stage for stage, calls in by_stage.items() if calls} == {
        "calibrate", "predict", "turnaround"}

    # calibrate: the stance-labeled matrix users that train left out
    [(calibrated, confidence)] = by_stage["calibrate"]
    full = pipe._held["matrix_full.txt"]
    labels = pipe._held["labels.tsv"]
    held_out = set(labels.users_with("stance")) - \
        pipe._held["model_train_users.txt"]
    assert calibrated.rows == tuple(sorted(held_out & set(full.rows)))
    assert len(calibrated.rows) == sum(
        int(line[-1]) for line in _data_lines(pipe.out / "calibration.tsv"))
    raw = {u: float(c) for u, c, _p, _band in
           _data_lines(pipe.out / "stance_scores.tsv")}
    assert np.array_equal(confidence, [raw[u] for u in calibrated.rows])

    # predict: every row of the full matrix, once
    [(scored, _confidence)] = by_stage["predict"]
    assert scored is full

    # turnaround: the users of turnaround.tsv, from each period matrix
    users = tuple(line[0] for line in
                  _data_lines(pipe.out / "turnaround.tsv"))
    assert [(m.period, m.rows) for m, _c in by_stage["turnaround"]] == [
        (tuple(period), users) for period in cfg.periods]


def test_a_tweet_word_spelled_like_a_profile_column_is_a_column_of_its_own(
        demo_corpus, tmp_path):
    # a user of the largest component of the on-topic posts with an emoji
    # in the bio, and as many posts holding the word `n_emojis_bio` as the
    # tweet-term floor asks
    cfg = make_config(demo_corpus, tmp_path / "run")
    corpus = cm.filter_relevant(cm.load_corpus(demo_corpus),
                                cfg.include_terms)
    user = min(cm.largest_connected_component(
        cm.build_interaction_graph(corpus)))
    lines, stamp = [], None
    with open(demo_corpus, encoding="utf-8") as fh:
        for line in fh:
            post = json.loads(line)
            if post["author_id"] == user and "author" in post:
                bio = post["author"]["bio"] or ""
                post["author"]["bio"] = bio + " \U0001F49A"
                stamp = stamp or post["timestamp"]
                line = json.dumps(post) + "\n"
            lines.append(line)
    lines += [json.dumps({"post_id": f"nb{k}", "author_id": user,
                          "timestamp": stamp,
                          "text": "aborto n_emojis_bio"}) + "\n"
              for k in range(cfg.thresholds.tweet_min_count)]
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    pipe = run_all(make_config(str(path), tmp_path / "run"))
    stages = json.loads((pipe.out / "manifest.json").read_text())["stages"]
    assert sorted(stages) == sorted(STAGES)
    cols = {line.split(" ", 2)[2] for line in
            (pipe.out / "matrix_full.txt").read_text().splitlines()
            if line.startswith("#col ")}
    assert {"n_emojis_bio tweet_term word",
            "meta:n_emojis_bio profile_meta meta"} <= cols


def test_held_outputs_equal_what_reading_the_files_gives(demo_corpus,
                                                         tmp_path):
    # each bad id posts what a user of the demo corpus posts, so it would
    # reach every stage; its lines are malformed
    with open(demo_corpus, encoding="utf-8") as fh:
        lines = fh.readlines()
    posts = [json.loads(line) for line in lines]
    planted = []
    for k, (bad, user) in enumerate(zip(
            _BAD_USER_IDS, sorted({p["author_id"] for p in posts}))):
        for obj in posts:
            if obj["author_id"] == user:
                obj = dict(obj, post_id=f"x{k}{obj['post_id']}",
                           author_id=bad)
                if "author" in obj:
                    obj["author"] = dict(obj["author"], user_id=bad)
                planted.append(json.dumps(obj) + "\n")
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(lines + planted), encoding="utf-8")
    pipe = run_all(make_config(str(path), tmp_path / "run"))
    ingest = json.loads((pipe.out / "manifest.json").read_text())[
        "stages"]["ingest"]["metrics"]
    assert ingest["lines_read"] == len(lines) + len(planted)
    assert ingest["malformed_lines"] == len(planted)
    for name, load in _LOADERS.items():
        held, loaded = pipe._held[name], load(pipe.out / name)
        assert type(held) is type(loaded), name
        if name == "model_stance.txt":
            assert _same_model(held, loaded)
        else:
            assert held == loaded, name


def test_held_stage_table_is_what_its_file_reads_as(tmp_path):
    # the line grammar reads a user id "#u1" as a comment, and "u2\r3" as
    # two lines: the held table reads the text as the file does
    pipe = Pipeline(PipelineConfig(output_dir=str(tmp_path)))
    pipe._write_tsv("turnaround.tsv", pipeline._TURNAROUND_HEADER,
                    [("#u1", 0.25, 0.5, 0.25), ("u2", 0.5, 0.75, 0.25)])
    assert pipe._artifact("turnaround.tsv") == Pipeline(PipelineConfig(
        output_dir=str(tmp_path)))._artifact("turnaround.tsv")
    with pytest.raises(StageError, match=re.escape(
            f"{tmp_path / 'labels.tsv'}:3: ")):
        pipe._write_tsv("labels.tsv", pipeline._LABELS_HEADER,
                        [("u2\r3", "gender", "male", "rule", 1.0)])


def _stages(cfg, stages):
    pipe = Pipeline(cfg)
    with output_lock(pipe.out):
        for stage in stages:
            pipe.run_stage(stage)
    return pipe


def _without_manifest(path):
    return b"".join(line for line in path.read_bytes().splitlines(True)
                    if not line.startswith(b"# manifest "))


# sha256 of the 150-user demo run's outputs, "# manifest" line left out, as
# the Token-keyed counting code wrote them before the corpus encoding
GOLDEN = {
    "matrix_full.txt":
        "f72d37eaa7530dc20f216a933dbf7729527c987dc7a7e1fd98a86478446b3199",
    "matrix_p0.txt":
        "9ded4615d41cf7a6728a9252513c9a15569a6bb436aa16fb261d8daa22ac555f",
    "matrix_p1.txt":
        "41cd71967ed05abacfbbb49da172afb420402211df9c6c4a3952fdb2477caf15",
    "labels.tsv":
        "a954d6e6ae62942533ab4b2ea83c03fc76b4c81e34522748574a354e5c264e0e",
    "terms_by_year.tsv":
        "be09414e33d25561a61803b5920b508395f6e2fb6f5b19b920d43632fb1d81a7",
}


def test_text_stage_outputs_match_golden_digests(demo_corpus, tmp_path):
    pipe = _stages(make_config(demo_corpus, tmp_path / "run"),
                   ("ingest", "label", "featurize"))
    for name, digest in GOLDEN.items():
        got = hashlib.sha256(_without_manifest(pipe.out / name)).hexdigest()
        assert got == digest, name


# runs one stancelab command, then prints the scipy and numpy.ma modules it
# loaded (np.unique imports numpy.ma on its first call)
_SCIPY_AFTER = """\
import sys
from stancelab import cli
try:
    cli.main(sys.argv[1:])
except SystemExit as exc:
    if exc.code:
        raise
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
             or m.split(".")[:2] == ["numpy", "ma"]))
"""


def test_commands_load_no_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(pipeline.__file__)))
    corpus = tmp_path / "corpus.jsonl"
    config = tmp_path / "config.yaml"
    config.write_text(
        f"corpus: {corpus}\noutput_dir: {tmp_path / 'out'}\n"
        "thresholds: {tweet_min_count: 5, bio_min_count: 2}\n"
        "boost: {n_estimators: 20, early_stopping_rounds: 5}\n"
        "min_in_degree: 2\n", encoding="utf-8")
    for args in (["synth", str(corpus), "--n-users", "150", "--seed", "3"],
                 ["run", "--config", str(config)],
                 ["inspect", str(corpus)]):
        done = subprocess.run([sys.executable, "-c", _SCIPY_AFTER, *args],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]", args


def test_a_closed_stdout_stops_the_progress_lines_not_the_run(demo_corpus,
                                                              tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(pipeline.__file__)))
    out = tmp_path / "out"
    config = _config_file(demo_corpus, out, tmp_path / "config.yaml")
    read, write = os.pipe()
    os.close(read)  # no reader from the start: every write fails with EPIPE
    try:
        for command in (["run"], ["stage", "report"]):
            done = subprocess.run(
                [sys.executable, "-m", "stancelab.cli", *command, "--config",
                 config], stdout=write, stderr=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": src})
            assert (done.returncode, done.stderr) == (0, ""), command
            assert set(json.loads((out / "manifest.json").read_text())[
                "stages"]) == set(STAGES), command
    finally:
        os.close(write)


@pytest.mark.parametrize("profiles", ["as made", "with line ends"])
def test_run_writes_what_separate_stage_commands_write(demo_corpus, finished,
                                                        tmp_path, profiles):
    from click.testing import CliRunner
    from stancelab import cli

    if profiles == "with line ends":
        # profile text makes identifiers, each on one line of the matrix and
        # model files: three users of the matrix get line ends in theirs
        corpus = cm.load_corpus(demo_corpus)
        a, b, c = features.FeatureMatrix.load(
            finished / "matrix_full.txt").rows[:3]
        edits = {a: {"timezone": "Santiago\nde Chile"},
                 b: {"timezone": "Santiago\r\nde  Chile"},
                 c: {"url": "http://[x\ny"}}  # a URL that does not parse
        corpus = dataclasses.replace(corpus, users={**corpus.users, **{
            u: dataclasses.replace(corpus.users[u], **edit)
            for u, edit in edits.items()}})
        demo_corpus = str(tmp_path / "corpus.jsonl")
        cm.write_corpus(corpus, demo_corpus)

    def config(out):
        path = tmp_path / f"{out}.yaml"
        path.write_text(
            f"corpus: {demo_corpus}\noutput_dir: {tmp_path / out}\n"
            "thresholds: {tweet_min_count: 5, bio_min_count: 2}\n"
            "boost: {n_estimators: 40, early_stopping_rounds: 8}\n"
            "min_in_degree: 2\nrng_seed: 11\n", encoding="utf-8")
        return str(path)

    runner = CliRunner()
    done = runner.invoke(cli.main, ["run", "--config", config("run")])
    assert done.exit_code == 0, done.output
    for stage in STAGES:
        done = runner.invoke(cli.main,
                             ["stage", stage, "--config", config("stages")])
        assert done.exit_code == 0, done.output
    # summary.txt names the output directory, which differs
    outputs = [name for stage in STAGE_TABLE for name in stage.writes
               if name != "summary.txt"]
    assert len(outputs) == 17
    for name in outputs:
        assert (tmp_path / "run" / name).read_bytes() == \
            (tmp_path / "stages" / name).read_bytes(), name
    if profiles == "with line ends":
        idents = features.FeatureMatrix.load(
            tmp_path / "stages" / "matrix_full.txt").column_identifiers()
        assert {"timezone:Santiago de Chile",
                "home_domain:http://[x y"} <= set(idents)


def test_ingest_replaces_the_cached_corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    outputs = [name for stage in STAGE_TABLE for name in stage.writes
               if name != "summary.txt"]
    text_outputs = ("matrix_full.txt", "matrix_p0.txt", "matrix_p1.txt",
                    "labels.tsv", "terms_by_year.tsv")

    def write(seed):
        corpus, _truth = synth.generate(synth.SynthSpec(
            n_users=150, rng_seed=seed,
            turnaround_effects={"gender": {"male": -0.10}}))
        cm.write_corpus(corpus, path)

    write(1)
    pipe = Pipeline(make_config(str(path), tmp_path / "one"))
    with output_lock(pipe.out):
        for stage in STAGES:
            pipe.run_stage(stage)
        before = {n: _without_manifest(pipe.out / n) for n in text_outputs}
        write(2)
        for stage in STAGES:
            pipe.run_stage(stage)
    fresh = _stages(make_config(str(path), tmp_path / "fresh"), STAGES)
    for name in text_outputs:
        assert _without_manifest(pipe.out / name) != before[name], name
    for name in outputs:
        assert _without_manifest(pipe.out / name) == \
            _without_manifest(fresh.out / name), name


def test_a_run_tokenizes_the_corpus_once(demo_corpus, tmp_path, monkeypatch):
    encoded = []
    encode = textproc.encode

    def counted(corpus):
        encoded.append(corpus.n_posts)
        return encode(corpus)

    monkeypatch.setattr(textproc, "encode", counted)
    run_all(make_config(demo_corpus, tmp_path / "run"))
    assert len(encoded) == 1


def test_ingest_and_featurize_report_counts(tmp_path):
    from datetime import datetime, timezone
    from stancelab import features
    corpus, _truth = synth.generate(synth.SynthSpec(
        n_users=60, rng_seed=3, topic_term_rate=1.0))
    path = tmp_path / "corpus.jsonl"
    cm.write_corpus(corpus, path)
    t0 = int(datetime(2017, 1, 1, tzinfo=timezone.utc).timestamp())
    t1 = int(datetime(2019, 1, 1, tzinfo=timezone.utc).timestamp())
    inside = corpus.posts[0].timestamp
    some_user = corpus.posts[0].author_id

    def line(pid, user, ts, text, author=True):
        obj = {"post_id": pid, "author_id": user, "timestamp": ts,
               "text": text}
        if author:
            obj["author"] = {"user_id": user}
        return json.dumps(obj) + "\n"

    planted = [
        "{broken\n", '{"post_id": "m1"}\n',
        line("m2", "ghost", inside, "aborto", author=False),
        line("t1", some_user, t0 - 5, "aborto"),
        line("t2", some_user, t1, "aborto"),
        line("o1", "zz_off", inside, "hola mundo"),
        line("o2", "zz_off", inside + 1, "otro tema"),
        line("i1", "zz_iso1", inside, "aborto sí"),
        line("i2", "zz_iso2", inside, "aborto no"),
        line("w1", "zz_late", t1 + 7, "aborto"),  # only outside the window
    ]
    with open(path, "a", encoding="utf-8") as fh:
        fh.writelines(planted)

    cfg = make_config(str(path), tmp_path / "run")
    cfg = dataclasses.replace(cfg, time_from=t0, time_to=t1)
    pipe = _stages(cfg, ("ingest", "label", "featurize"))
    stages = json.loads((pipe.out / "manifest.json").read_text())["stages"]

    # the largest component, by union-find over the kept posts
    kept = [p for p in corpus.posts] + [
        cm.MicroPost("i1", "zz_iso1", inside, ""),
        cm.MicroPost("i2", "zz_iso2", inside, "")]
    authors = {p.author_id for p in kept}
    parent = {u: u for u in authors}

    def find(u):
        while parent[u] != u:
            u = parent[u]
        return u

    for p in kept:
        for target in [p.retweet_of] + [t for t, _k in p.directed_at]:
            if target in authors:
                parent[find(p.author_id)] = find(target)
    sizes = Counter(find(u) for u in authors)
    root, size = sizes.most_common(1)[0]
    outside = {u for u in authors if find(u) != root}
    assert {"zz_iso1", "zz_iso2"} <= outside
    assert stages["ingest"]["metrics"] == {
        "lines_read": len(corpus.posts) + len(planted),
        "malformed_lines": 3,
        "posts_outside_time_range": 3, "users_outside_time_range": 1,
        "posts_off_topic": 2, "users_off_topic": 1,
        "posts_outside_lcc": sum(p.author_id in outside for p in kept),
        "users_outside_lcc": len(outside),
        "posts": sum(p.author_id not in outside for p in kept),
        "users": size,
    }

    ingested = cm.load_corpus(pipe.out / "corpus.jsonl")
    texts = [p.text for p in ingested.posts] + [
        t for prof in ingested.users.values()
        for t in (prof.full_name, prof.bio or "")]
    vocab = {tok for t in texts for tok in textproc.tokenize(t)}
    vocab |= {textproc.Token(textproc.registrable_domain(tok.surface), "url")
              for tok in vocab if tok.kind == "url"}
    want = {"texts_encoded": len(texts),
            "vocabulary": len(vocab)}
    for name in ("full", "p0", "p1"):
        data = [line for line in (pipe.out / f"matrix_{name}.txt")
                .read_text().splitlines() if not line.startswith("#")]
        want[f"nonzeros_{name}"] = len(data)
    assert stages["featurize"]["metrics"] == want


def _iso_weeks(start: int, end: int) -> list[str]:
    """The ISO week labels of the days in the half-open [start, end)."""
    from datetime import datetime, timedelta, timezone
    day = datetime.fromtimestamp(start, timezone.utc).date()
    day -= timedelta(days=day.weekday())
    last = datetime.fromtimestamp(end - 1, timezone.utc).date()
    weeks = []
    while day <= last:
        year, week, _ = day.isocalendar()
        weeks.append(f"{year}-W{week:02d}")
        day += timedelta(days=7)
    return weeks


@pytest.fixture(scope="module")
def seed7_corpus(tmp_path_factory):
    """The corpus of `stancelab synth --n-users 300 --seed 7`."""
    from click.testing import CliRunner
    from stancelab import cli
    path = tmp_path_factory.mktemp("seed7") / "corpus.jsonl"
    done = CliRunner().invoke(cli.main, ["synth", str(path), "--n-users",
                                         "300", "--seed", "7"])
    assert done.exit_code == 0, done.output
    return str(path)


@pytest.mark.parametrize("case", ["topic", "window"])
def test_weekly_volume_spans_the_window_or_else_every_post_read(
        seed7_corpus, tmp_path, case):
    from stancelab.config import parse_date
    read = cm.load_corpus(seed7_corpus)
    if case == "topic":  # "w400" is in one post only, of 2018
        cfg = PipelineConfig(corpus=seed7_corpus, output_dir=str(tmp_path),
                             include_terms=["w400"])
        span = (read.posts[0].timestamp, read.posts[-1].timestamp + 1)
    else:
        span = (parse_date("2017-06-01"), parse_date("2018-07-01"))
        cfg = PipelineConfig(corpus=seed7_corpus, output_dir=str(tmp_path),
                             time_from=span[0], time_to=span[1])
    pipe = Pipeline(cfg)
    pipe.run_stage("ingest")
    rows = [line.split("\t") for line in (tmp_path / "volume_weekly.tsv")
            .read_text(encoding="utf-8").splitlines()[2:]]
    kept = pipe._artifact("corpus.jsonl")
    assert [week for week, _n in rows] == _iso_weeks(*span)
    assert sum(int(n) for _week, n in rows) == kept.n_posts
    if case == "topic":
        assert kept.n_posts == 1
        assert len(rows) == 66 and rows[0] == ["2017-W18", "0"]


def test_a_url_that_does_not_parse_is_its_own_domain(tmp_path):
    # an unclosed IPv6 bracket, in post texts and in a profile URL
    from dataclasses import replace
    corpus, _truth = synth.generate(synth.SynthSpec(n_users=60, rng_seed=3))
    user = corpus.posts[0].author_id
    corpus = replace(
        corpus,
        posts=tuple(p._replace(text=p.text + " http://[x")
                    for p in corpus.posts),
        users={**corpus.users,
               user: replace(corpus.users[user], url="http://[x")})
    path = tmp_path / "corpus.jsonl"
    cm.write_corpus(corpus, path)
    pipe = _stages(make_config(str(path), tmp_path / "run"),
                   ("ingest", "label", "featurize"))
    m = features.FeatureMatrix.load(pipe.out / "matrix_full.txt")
    idents = m.column_identifiers()
    assert "home_domain:http://[x" in idents
    assert any(i.endswith("http://[x") and not i.startswith("home_domain:")
               for i in idents), idents


def test_a_url_spelled_like_an_edge_column_has_a_column_of_its_own(
        demo_corpus, tmp_path):
    # every post cites http://rt:<the most retweeted user>, whose retweet
    # column is rt:<that user>
    corpus = cm.load_corpus(demo_corpus)
    target = Counter(p.retweet_of for p in corpus.posts
                     if p.retweet_of).most_common(1)[0][0]
    url = f"http://rt:{target}"
    corpus = dataclasses.replace(corpus, posts=tuple(
        p._replace(text=f"{p.text} {url}") for p in corpus.posts))
    path = tmp_path / "corpus.jsonl"
    cm.write_corpus(corpus, path)
    pipe = _stages(make_config(str(path), tmp_path / "run"), STAGES)
    m = features.FeatureMatrix.load(pipe.out / "matrix_full.txt")
    index = m.column_index()
    assert m.columns[index[url]] == features.FeatureColumn(
        url, "tweet_term", "url")
    assert m.columns[index[f"rt:{target}"]] == features.FeatureColumn(
        f"rt:{target}", "retweet_edge", "network")
    # one citation per post that ingest kept
    kept = cm.load_corpus(pipe.out / "corpus.jsonl")
    cited = m.to_dense()[:, index[url]]
    assert dict(zip(m.rows, cited.tolist())) == Counter(
        p.author_id for p in kept.posts)


_LABELS = "user_id\tattribute\tvalue\tprovenance\tconfidence"
_TURNAROUND = "user_id\tp_t0\tp_t1\tdelta"


@pytest.mark.parametrize("name, header, good, bad", [
    ("labels.tsv", _LABELS, "u1\tgender\tmale\trule\t1.0",
     "u2\tgender\tfemale"),
    ("labels.tsv", _LABELS, "u1\tgender\tmale\trule\t1.0",
     "u2\tgender\tfemale\trule\tsure"),
    ("labels.tsv", _LABELS, "u1\tgender\tmale\trule\t1.0",
     "u2\tshoe_size\t38\trule\t1.0"),
    ("labels.tsv", _LABELS, "u1\tgender\tmale\trule\t1.0",
     "u2\tgender\tfemale\tguess\t7.5"),
    ("labels.tsv", _LABELS, "u1\tgender\tmale\trule\t1.0",
     "u2\tstance\tdefense\tpredicted\t7.5"),
    ("labels.tsv", _LABELS, "u1\tgender\tmale\trule\t1.0",
     "u2\tstance\tdefense\tpredicted\tnan"),
    ("labels.tsv", _LABELS, "u1\tgender\tmale\trule\t1.0",
     "u2\tstance\tdefence\trule\t1.0"),
    ("labels.tsv", _LABELS, "u1\tgender\tmale\trule\t1.0",
     "u2\tage_cohort\t17\trule\t1.0"),
    ("platt.tsv", "slope\toffset", "1.5\t-0.25", "1.5"),
    ("platt.tsv", "slope\toffset", "1.5\t-0.25", "nan\t0.5"),
    ("platt.tsv", "slope\toffset", "1.5\t-0.25", "1.5\t-inf"),
    ("turnaround.tsv", _TURNAROUND, "u1\t0.25\t0.5\t0.25", "u2\t0.25\t0.5"),
    ("turnaround.tsv", _TURNAROUND, "u1\t0.25\t0.5\t0.25",
     "u2\t0.25\thalf\t0.25"),
    # probabilities in [0, 1] and a finite delta
    ("turnaround.tsv", _TURNAROUND, "u1\t0.25\t0.5\t0.25",
     "u2\tnan\t0.5\t0.25"),
    ("turnaround.tsv", _TURNAROUND, "u1\t0.25\t0.5\t0.25",
     "u2\t0.25\t1.5\t1.25"),
    ("turnaround.tsv", _TURNAROUND, "u1\t0.25\t0.5\t0.25",
     "u2\t-0.25\t0.5\t0.75"),
    ("turnaround.tsv", _TURNAROUND, "u1\t0.25\t0.5\t0.25",
     "u2\t0.25\tinf\tinf"),
    ("turnaround.tsv", _TURNAROUND, "u1\t0.25\t0.5\t0.25",
     "u2\t0.25\t0.5\tnan"),
    ("turnaround.tsv", _TURNAROUND, "u1\t0.25\t0.5\t0.25",
     "u2\t0.25\t0.5\t-inf"),
    # a delta is exactly p_t1 - p_t0
    ("turnaround.tsv", _TURNAROUND, "u1\t0.25\t0.5\t0.25",
     "u2\t0.25\t0.5\t0.3"),
    # one user id a line, as the corpus takes it, and no header
    ("model_train_users.txt", "", "u1", "u2 u3"),
    ("model_train_users.txt", "", "u1", "u2\tu3"),
    # a byte that is not UTF-8 (0xff, written from its surrogate escape)
    ("labels.tsv", _LABELS, "u1\tgender\tmale\trule\t1.0",
     "u2\tgender\tfemale\udcff\trule\t1.0"),
    ("platt.tsv", "slope\toffset", "1.5\t-0.25", "1.5\udcff\t-0.25"),
    ("turnaround.tsv", _TURNAROUND, "u1\t0.25\t0.5\t0.25",
     "u\udcff2\t0.25\t0.5\t0.25"),
    ("model_train_users.txt", "", "u1", "u\udcff2"),
])
def test_stage_readers_name_file_and_line(tmp_path, name, header, good, bad):
    # a fresh pipeline each time: one loads each file once
    def load():
        return Pipeline(PipelineConfig(output_dir=str(tmp_path)))._artifact(
            name)

    path = tmp_path / name
    path.write_text(f"# manifest x\n{header}\n{good}\n", encoding="utf-8")
    load()
    path.write_text(f"# manifest x\n{header}\n{good}\n{bad}\n",
                    encoding="utf-8", errors="surrogateescape")
    with pytest.raises(StageError, match=re.escape(f"{path}:4: ")):
        load()


@pytest.mark.parametrize("name, header, line, key", [
    ("labels.tsv", _LABELS, "u1\tage_cohort\t18-29\trule\t1.0",
     "(user, attribute) identifier ('u1', 'age_cohort')"),
    ("turnaround.tsv", _TURNAROUND, "u1\t0.25\t0.5\t0.25",
     "user identifier 'u1'"),
    ("model_train_users.txt", "", "u1", "user identifier 'u1'"),
])
def test_a_repeated_key_in_a_stage_table_is_a_named_error(tmp_path, name,
                                                          header, line, key):
    path = tmp_path / name
    path.write_text(f"# manifest x\n{header}\n{line}\n{line}\n",
                    encoding="utf-8")
    with pytest.raises(StageError, match=re.escape(
            f"{path}:4: duplicate {key} (first on line 3)")):
        Pipeline(PipelineConfig(output_dir=str(tmp_path)))._artifact(name)


def test_numpy_floats_are_written_as_python_floats(tmp_path):
    pipe = Pipeline(PipelineConfig(output_dir=str(tmp_path)))
    top = np.nextafter(1.0, 0.0)
    pipe._write_tsv("turnaround.tsv", pipeline._TURNAROUND_HEADER,
                    [("u1", np.float64(0.5), top, top - 0.5)])
    assert "np.float64" not in (tmp_path / "turnaround.tsv").read_text()
    assert Pipeline(PipelineConfig(output_dir=str(tmp_path)))._artifact(
        "turnaround.tsv") == [("u1", 0.5, float(top), float(top - 0.5))]


def test_stage_tables_keep_rows_that_start_like_the_header(tmp_path):
    pipe = Pipeline(PipelineConfig(output_dir=str(tmp_path)))
    (tmp_path / "turnaround.tsv").write_text(
        f"# manifest x\n{_TURNAROUND}\nuser_idol\t0.25\t0.5\t0.25\n",
        encoding="utf-8")
    assert pipe._artifact("turnaround.tsv") == [
        ("user_idol", 0.25, 0.5, 0.25)]
    (tmp_path / "labels.tsv").write_text(
        f"# manifest x\n{_LABELS}\nuser_id\tgender\tmale\trule\t1.0\n",
        encoding="utf-8")
    assert pipe._artifact("labels.tsv").get("user_id", "gender").value == \
        "male"


def _rule_loader(role):
    """Loads a file in the place of the shipped rule file ``role``."""
    def load(path):
        if role == "lexicon":
            return textproc.Lexicon.from_file(path)
        if role == "stopwords":
            return textproc.load_stopwords(path)
        if role == "manual_labels":
            return labeling.import_manual_labels(labeling.LabelSet(), path)
        r = RulePaths(**{role: str(path)})
        return labeling.load_ruleset(r.gazetteer, r.names, r.patterns,
                                     r.stance_seeds, reference_year=2017)
    return load


@pytest.mark.parametrize("role, good, bad", [
    ("gazetteer", "santiago\tChile", "santiago"),
    ("gazetteer", "santiago\tChile", "santiago\tChile\tExtra"),
    ("gazetteer", "santiago\tChile", "santiago\t "),
    ("names", "ana\tfemale", "ana"),
    ("names", "ana\tfemale", "ana\tfemale\tmale"),
    ("patterns", "gender\tfemale\t\\bmadre\\b", "gender\tfemale"),
    ("patterns", "gender\tfemale\t\\bmadre\\b",
     "gender\tfemale\t\\bmadre\\b\textra"),
    ("patterns", "gender\tfemale\t\\bmadre\\b", "gender\tfemale\t(madre"),
    ("patterns", "gender\tfemale\t\\bmadre\\b", "shoe_size\t38\t\\bpie\\b"),
    ("patterns", "gender\tfemale\t\\bmadre\\b", "age\tdecade\t\\d0s\\b"),
    ("stance_seeds", "defense\tbio\t#abortolegal", "defense\tbio"),
    ("stance_seeds", "defense\tbio\t#abortolegal",
     "defense\tbio\t#abortolegal\textra"),
    ("stance_seeds", "defense\tbio\t#abortolegal", "defence\tbio\t#vida"),
    ("stance_seeds", "defense\tbio\t#abortolegal", "defense\tname\t#vida"),
    ("lexicon", "family\tmadre", "family"),
    ("lexicon", "family\tmadre", "family\tmadre\tpadre"),
    ("stopwords", "de", "de\tla"),
    ("manual_labels", "u1\tgender\tfemale", "u1\tgender"),
    ("manual_labels", "u1\tgender\tfemale", "u1\tgender\tfemale\textra"),
    ("manual_labels", "u1\tgender\tfemale", "u1\tshoe_size\t38"),
    ("manual_labels", "u1\tgender\tfemale", "u3\tstance\tdefence"),
    ("manual_labels", "u1\tgender\tfemale", "u3\tage_cohort\t17"),
    # a byte that is not UTF-8, written from its surrogate escape: Latin-1
    # "bogotá" (0xe1), and 0xff
    ("gazetteer", "santiago\tChile", "bogot\udce1\tColombia"),
    ("names", "ana\tfemale", "ana\udcff\tfemale"),
    ("patterns", "gender\tfemale\t\\bmadre\\b",
     "gender\tfemale\t\\bmadre\udcff\\b"),
    ("stance_seeds", "defense\tbio\t#abortolegal",
     "defense\tbio\t#aborto\udcfflegal"),
    ("lexicon", "family\tmadre", "family\tmadre\udcff"),
    ("stopwords", "de", "l\udcffa"),
    ("manual_labels", "u1\tgender\tfemale", "u1\tgender\tfemale\udcff"),
])
def test_rule_readers_name_file_and_line(tmp_path, role, good, bad):
    # a comment may be indented; blank lines are skipped
    loader = _rule_loader(role)
    path = tmp_path / "rules.tsv"
    path.write_text(f"# comment\n  # indented comment\n\n{good}\n",
                    encoding="utf-8")
    loaded = loader(path)
    # \r\n ends a line as \n does, and a leading byte-order mark is no data
    data = path.read_bytes()
    for copy in (data.replace(b"\n", b"\r\n"), codecs.BOM_UTF8 + data):
        path.write_bytes(copy)
        assert loader(path) == loaded
    path.write_text(f"# comment\n  # indented comment\n\n{good}\n{bad}\n",
                    encoding="utf-8", errors="surrogateescape")
    with pytest.raises(tsv.RuleFileError,
                       match=re.escape(f"{path}:5: ")):
        loader(path)
    # after a byte-order mark, a bad line or byte still names its own line
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    with pytest.raises(tsv.RuleFileError,
                       match=re.escape(f"{path}:5: ")):
        loader(path)


@pytest.mark.parametrize("name", sorted(pipeline._TABLES))
def test_a_stage_table_needs_its_header(tmp_path, name):
    def load():
        return Pipeline(PipelineConfig(output_dir=str(tmp_path)))._artifact(
            name)

    path = tmp_path / name
    header = "\t".join(pipeline._TABLES[name][0])
    path.write_text("# manifest x\n# no header\n\n", encoding="utf-8")
    with pytest.raises(StageError, match=re.escape(
            f"{path}: no header line {header!r}")):
        load()
    short = header.rpartition("\t")[0]  # without its last column
    path.write_text(f"# manifest x\n{short}\n", encoding="utf-8")
    with pytest.raises(StageError, match=re.escape(
            f"{path}:2: expected header")):
        load()


def test_platt_file_without_values_is_a_named_error(tmp_path):
    pipe = Pipeline(PipelineConfig(output_dir=str(tmp_path)))
    (tmp_path / "platt.tsv").write_text("# manifest x\nslope\toffset\n",
                                        encoding="utf-8")
    with pytest.raises(StageError, match="platt.tsv: no slope and offset"):
        pipe._artifact("platt.tsv")
    # nor may a second line of values follow the first
    (tmp_path / "platt.tsv").write_text(
        "# manifest x\nslope\toffset\n1.5\t-0.25\n9.0\t3.0\n",
        encoding="utf-8")
    with pytest.raises(StageError, match=re.escape(
            f"{tmp_path / 'platt.tsv'}: 2 slope and offset lines")):
        pipe._artifact("platt.tsv")


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


def test_the_same_inputs_from_another_place_make_the_same_run(
        demo_corpus, finished, tmp_path):
    from click.testing import CliRunner
    from stancelab import cli

    # the corpus and every rule file copied to another directory
    moved = tmp_path / "moved"
    moved.mkdir()
    rules = {key: str(shutil.copy(path, moved))
             for key, path in dataclasses.asdict(RulePaths()).items() if path}
    corpus = str(shutil.copy(demo_corpus, moved))
    cfg = dataclasses.replace(make_config(corpus, tmp_path / "run"),
                              rules=RulePaths(**rules))
    run_all(cfg)
    for name in REPORT_FILES:
        assert (tmp_path / "run" / name).read_bytes() == \
            (finished / name).read_bytes(), name
    # and every stage over the moved inputs reads as fresh
    out = _copy_of(finished, tmp_path)
    config = tmp_path / "moved.yaml"
    _config_file(corpus, out, config)
    with open(config, "a", encoding="utf-8") as fh:
        fh.write(f"rules: {json.dumps(rules)}\n")
    done = CliRunner().invoke(cli.main, ["run", "--config", str(config),
                                         "--skip-fresh"])
    assert done.exit_code == 0, done.output
    assert done.output.splitlines()[:len(STAGES)] == [
        f"{stage}: fresh, skipped" for stage in STAGES]


def test_editing_manual_labels_makes_label_stale(demo_corpus, tmp_path):
    manual = tmp_path / "manual.tsv"
    manual.write_text("u00001\tgender\tfemale\n", encoding="utf-8")
    cfg = make_config(demo_corpus, tmp_path / "run")
    cfg = dataclasses.replace(cfg, rules=dataclasses.replace(
        cfg.rules, manual_labels=str(manual)))
    _stages(cfg, ("ingest", "label"))
    assert Pipeline(cfg)._is_fresh("label")
    manual.write_text("u00001\tgender\tmale\n", encoding="utf-8")
    assert not Pipeline(cfg)._is_fresh("label")


def _config_file(corpus_path, out, path):
    """Write the config of ``make_config`` (seed 11) to ``path``, with
    ``out`` as its output directory; returns the path as a string."""
    path.write_text(
        f"corpus: {corpus_path}\noutput_dir: {out}\n"
        "thresholds: {tweet_min_count: 5, bio_min_count: 2}\n"
        "boost: {n_estimators: 40, early_stopping_rounds: 8, rng_seed: 11}\n"
        "min_in_degree: 2\nrng_seed: 11\n", encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def finished(demo_corpus, tmp_path_factory):
    """The output directory of a finished run of all ten stages."""
    out = tmp_path_factory.mktemp("finished") / "out"
    run_all(make_config(demo_corpus, out))
    return out


def _copy_of(finished, tmp_path, name="out"):
    """A copy of the finished run's output directory."""
    shutil.copytree(finished, tmp_path / name)
    return tmp_path / name


def test_a_writer_that_raises_leaves_no_tmp_file(tmp_path):
    path = tmp_path / "table.tsv"
    path.write_text("old\n", encoding="utf-8")

    def write(tmp):
        tmp.write_text("half a fi", encoding="utf-8")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        pipeline._publish(path, write)
    assert os.listdir(tmp_path) == ["table.tsv"]
    assert path.read_text(encoding="utf-8") == "old\n"


def test_each_stage_publishes_its_declared_outputs(demo_corpus, tmp_path,
                                                   monkeypatch):
    published = []
    publish = pipeline._publish

    def recorded(path, write):
        published.append(path.name)
        return publish(path, write)

    monkeypatch.setattr(pipeline, "_publish", recorded)
    pipe = Pipeline(make_config(demo_corpus, tmp_path / "run"))
    with output_lock(pipe.out):
        for stage in STAGE_TABLE:
            published.clear()
            pipe.run_stage(stage.name)
            assert published[-1] == "manifest.json", stage.name
            assert sorted(published[:-1]) == sorted(stage.writes), stage.name
    assert sorted(p.name for p in pipe.out.iterdir()) == sorted(
        [".lock", "manifest.json",
         *(name for stage in STAGE_TABLE for name in stage.writes)])


def test_a_missing_stage_input_is_one_error_naming_its_stage(
        demo_corpus, finished, tmp_path, monkeypatch):
    from click.testing import CliRunner
    from stancelab import cli

    # the stage files each stage loads, found by running it alone, are the
    # ones the table declares, in its order
    calls = _count_loads(monkeypatch)
    for stage in STAGE_TABLE:
        out = _copy_of(finished, tmp_path, stage.name)
        calls.clear()
        Pipeline(make_config(demo_corpus, out)).run_stage(stage.name)
        assert [name for key, name in calls if key == "table"] == [
            name for name in stage.reads if name in _LOADERS], stage.name
    # every stage but report reads stage outputs, each through its loader
    assert _LOADERS.keys() == {name for stage in STAGE_TABLE[:-1]
                               for name in stage.reads}
    # report checks the report files that summary.txt lists
    listed = (finished / "summary.txt").read_text().split(
        "report files:\n")[1].split()
    assert tuple(listed) == REPORT_FILES

    for stage, name in ((s, name) for s in STAGE_TABLE for name in s.reads):
        out = _copy_of(finished, tmp_path, f"{stage.name}-{name}")
        config = _config_file(demo_corpus, out, tmp_path / f"{out.name}.yaml")
        (out / name).unlink()
        outputs = {f: (out / f).read_bytes() for f in stage.writes}
        entry = json.loads((out / "manifest.json").read_text())[
            "stages"][stage.name]
        done = CliRunner().invoke(cli.main,
                                  ["stage", stage.name, "--config", config])
        producer = next(s.name for s in STAGE_TABLE if name in s.writes)
        case = (stage.name, name)
        assert done.exit_code == 1, (*case, done.output)
        assert isinstance(done.exception, SystemExit), case
        assert done.output == (f"Error: missing stage: {producer} "
                               f"(expected outputs: {name})\n"), case
        assert outputs == {f: (out / f).read_bytes()
                           for f in stage.writes}, case
        assert entry == json.loads((out / "manifest.json").read_text())[
            "stages"][stage.name], case


@pytest.mark.parametrize("stage, name", [
    ("train", "manifest.json"), ("train", "labels.tsv"),
    ("train", "matrix_full.txt"), ("turnaround", "matrix_p0.txt"),
    ("turnaround", "matrix_p1.txt"), ("calibrate", "model_stance.txt"),
    ("calibrate", "model_train_users.txt"), ("predict", "platt.tsv"),
    ("regress", "turnaround.tsv"), ("report", "turnaround.tsv")])
def test_a_stage_file_that_is_not_utf8_is_one_error_naming_its_line(
        demo_corpus, finished, tmp_path, stage, name):
    from click.testing import CliRunner
    from stancelab import cli

    out = _copy_of(finished, tmp_path)
    config = _config_file(demo_corpus, out, tmp_path / "config.yaml")
    lines = (out / name).read_bytes().splitlines(True)
    k = len(lines) // 2
    lines[k] = lines[k].replace(b"\n", b"\xff\n")
    (out / name).write_bytes(b"".join(lines))
    before = {path.name: path.read_bytes() for path in out.iterdir()
              if path.name != ".lock"}  # which holds the last pid to lock
    done = CliRunner().invoke(cli.main, ["stage", stage, "--config", config])
    assert done.exit_code == 1, done.output
    assert isinstance(done.exception, SystemExit)  # not an uncaught error
    assert done.output == (f"Error: {out / name}:{k + 1}: not UTF-8 text: "
                           "invalid start byte\n")
    # nothing written: no stage output, no .tmp file, the manifest as it was
    assert before == {path.name: path.read_bytes() for path in out.iterdir()
                      if path.name != ".lock"}


def test_a_stage_that_runs_makes_every_later_stage_stale(
        demo_corpus, finished, tmp_path):
    out = _copy_of(finished, tmp_path)
    cfg = make_config(demo_corpus, out)
    labels_before = (out / "labels.tsv").read_bytes()
    corpus = out / "corpus.jsonl"
    lines = corpus.read_text(encoding="utf-8").splitlines(True)
    corpus.write_text("".join(lines[:len(lines) // 4]), encoding="utf-8")

    # each step a pipeline of its own, as one CLI command each: label reads
    # the cut corpus, and ingest still reads as fresh over it
    assert Pipeline(cfg).run_stage("label")
    assert (out / "labels.tsv").read_bytes() != labels_before
    pipe = Pipeline(cfg)
    assert [pipe.run_stage(stage, skip_fresh=True) for stage in STAGES] == [
        stage not in ("ingest", "label") for stage in STAGES]
    # train and calibrate were built from the new labels
    assert Pipeline(cfg).run_stage("calibrate")


def test_each_record_states_the_version_that_wrote_it(
        demo_corpus, finished, tmp_path):
    out = _copy_of(finished, tmp_path)
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    assert manifest["version"] == VERSION
    manifest["version"] = "stancelab 0.0.1"
    path.write_text(json.dumps(manifest))
    assert Pipeline(make_config(demo_corpus, out)).run_stage("label")
    assert json.loads(path.read_text())["version"] == VERSION


def test_a_stage_runs_only_after_every_earlier_stage(
        demo_corpus, finished, tmp_path):
    from click.testing import CliRunner
    from stancelab import cli

    out = _copy_of(finished, tmp_path)
    cfg = make_config(demo_corpus, out)
    corpus = out / "corpus.jsonl"
    lines = corpus.read_text(encoding="utf-8").splitlines(True)
    corpus.write_text("".join(lines[:len(lines) // 4]), encoding="utf-8")
    # label drops the records of every later stage
    assert Pipeline(cfg).run_stage("label")
    manifest = (out / "manifest.json").read_bytes()
    assert set(json.loads(manifest)["stages"]) == {"ingest", "label"}
    before = {name: (out / name).read_bytes()
              for stage in STAGE_TABLE for name in stage.writes}

    config = _config_file(demo_corpus, out, tmp_path / "config.yaml")
    done = CliRunner().invoke(cli.main,
                              ["stage", "predict", "--config", config])
    assert done.exit_code == 1
    assert done.output == ("Error: missing stage: featurize "
                           "(not recorded in manifest.json)\n")
    for stage in STAGES[3:]:
        for skip_fresh in (False, True):
            with pytest.raises(StageError, match=re.escape(
                    "missing stage: featurize (not recorded in "
                    "manifest.json)")):
                Pipeline(cfg).run_stage(stage, skip_fresh=skip_fresh)
    assert (out / "manifest.json").read_bytes() == manifest
    assert before == {name: (out / name).read_bytes() for name in before}

    # each stage in turn may run
    for stage in STAGES[2:]:
        assert Pipeline(cfg).run_stage(stage)


@pytest.mark.parametrize("text, fault", [
    ("{not json", ": not JSON: Expecting property name enclosed in double "
     "quotes: line 1 column 2 (char 1)"),
    ("[]", ": not a JSON object with a stages object"),
    ("{}", ": not a JSON object with a stages object"),
    ('{"stages": []}', ": not a JSON object with a stages object"),
    ('{"stages": {"ingest": [1]}}', ": stage 'ingest' is not a JSON object"),
    ('{"stages": {"ingest": {}, "label": null}}',
     ": stage 'label' is not a JSON object"),
])
def test_a_manifest_that_is_not_an_object_of_stages_is_a_named_error(
        demo_corpus, tmp_path, text, fault):
    out = tmp_path / "out"
    out.mkdir()
    manifest = out / "manifest.json"
    manifest.write_text(text, encoding="utf-8")
    with pytest.raises(StageError, match=re.escape(f"{manifest}{fault}")):
        Pipeline(make_config(demo_corpus, out)).run_stage("ingest")
    assert os.listdir(out) == ["manifest.json"]
    assert manifest.read_text(encoding="utf-8") == text


def test_skip_fresh_over_a_stage_entry_that_is_not_an_object(demo_corpus,
                                                           tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    manifest = out / "manifest.json"
    manifest.write_text('{"stages": {"ingest": [1]}}', encoding="utf-8")
    with pytest.raises(StageError, match=re.escape(
            f"{manifest}: stage 'ingest' is not a JSON object")):
        Pipeline(make_config(demo_corpus, out)).run_all(skip_fresh=True)
    assert sorted(os.listdir(out)) == [".lock", "manifest.json"]


def test_turnaround_refuses_period_matrices_with_different_rows(
        demo_corpus, finished, tmp_path):
    out = _copy_of(finished, tmp_path)
    path = out / "matrix_p1.txt"
    lines = path.read_text(encoding="utf-8").splitlines(True)
    last = max(i for i, line in enumerate(lines) if line.startswith("#row "))
    _tag, k, user = lines[last].split()
    lines[last] = f"#row {k} x{user}\n"  # a user that is not in matrix_p0
    path.write_text("".join(lines), encoding="utf-8")
    before = (out / "turnaround.tsv").read_bytes()
    with pytest.raises(StageError, match=re.escape(
            f"{out / 'matrix_p0.txt'} and {path} have different rows")):
        Pipeline(make_config(demo_corpus, out)).run_stage("turnaround")
    assert (out / "turnaround.tsv").read_bytes() == before


def test_importance_refuses_a_model_column_the_matrix_lacks(
        demo_corpus, finished, tmp_path):
    out = _copy_of(finished, tmp_path)
    cut = gbt.BoostedModel.load(out / "model_stance.txt").columns[-1]
    full = features.FeatureMatrix.load(out / "matrix_full.txt")
    features.drop_columns(full, {cut}).save(out / "matrix_full.txt")
    before = (out / "importance_hsd.tsv").read_bytes()
    with pytest.raises(StageError, match=re.escape(
            f"{out / 'matrix_full.txt'} lacks column {cut!r} of "
            f"{out / 'model_stance.txt'}")):
        Pipeline(make_config(demo_corpus, out)).run_stage("importance")
    assert (out / "importance_hsd.tsv").read_bytes() == before


@pytest.mark.parametrize("output_dir", ["", ".", "sub/.."])
def test_ingest_never_writes_over_its_input(demo_corpus, tmp_path,
                                            output_dir):
    corpus = tmp_path / "corpus.jsonl"
    shutil.copyfile(demo_corpus, corpus)
    before = corpus.read_bytes()
    error = _cli_error(f"corpus: corpus.jsonl\noutput_dir: '{output_dir}'\n",
                       tmp_path)
    written = Path(tmp_path, output_dir, "corpus.jsonl")
    assert error == (f"Error: corpus: {corpus} is the file ingest writes "
                     f"({written}); choose another output_dir")
    assert corpus.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml",
                                                          "corpus.jsonl"]


def _turnaround_user(out):
    return (out / "turnaround.tsv").read_text().splitlines()[2].split("\t")[0]


@pytest.mark.parametrize("name, cut, missing", [
    ("corpus.jsonl", lambda line, u: json.loads(line)["author_id"] == u,
     "is not in"),
    ("labels.tsv", lambda line, u: line.startswith(f"{u}\tgender\t"),
     "has no gender or age_cohort in"),
], ids=["corpus", "labels"])
def test_regress_names_a_turnaround_user_it_cannot_describe(
        demo_corpus, finished, tmp_path, name, cut, missing):
    out = _copy_of(finished, tmp_path)
    user = _turnaround_user(out)
    lines = (out / name).read_text(encoding="utf-8").splitlines(True)
    kept = [line for line in lines if not cut(line, user)]
    assert len(kept) < len(lines)
    (out / name).write_text("".join(kept), encoding="utf-8")
    with pytest.raises(StageError, match=re.escape(
            f"turnaround user {user!r} {missing} {out / name}")):
        Pipeline(make_config(demo_corpus, out)).run_stage("regress")


@pytest.mark.parametrize("stage, name, drop, error", [
    ("train", "labels.tsv", lambda line, train: "\tstance\t" in line,
     "no stance-labeled users to train on"),
    # the stance labels of every user that train left out
    ("calibrate", "labels.tsv",
     lambda line, train: "\tstance\t" in line
     and line.split("\t")[0] not in train,
     "calibration set too small (<10 labeled users)"),
    ("turnaround", "labels.tsv", lambda line, train: "\tgender\t" in line,
     "no users with known gender and age among the "),
    ("regress", "turnaround.tsv",
     lambda line, train: not line.startswith(("#", "user_id\t")),
     "turnaround table is empty"),
], ids=["train", "calibrate", "turnaround", "regress"])
def test_a_stage_without_the_users_it_needs_is_a_named_error(
        demo_corpus, finished, tmp_path, stage, name, drop, error):
    out = _copy_of(finished, tmp_path)
    train = set((out / "model_train_users.txt").read_text().split())
    lines = (out / name).read_text(encoding="utf-8").splitlines(True)
    kept = [line for line in lines if not drop(line, train)]
    assert len(kept) < len(lines)
    (out / name).write_text("".join(kept), encoding="utf-8")
    with pytest.raises(StageError, match=re.escape(error)):
        Pipeline(make_config(demo_corpus, out)).run_stage(stage)


def test_calibrate_takes_the_stance_users_that_train_left_out(
        demo_corpus, finished, tmp_path):
    # another seed would draw another split; calibrate reads train's from
    # model_train_users.txt, so its set and its outputs stay the same
    out = _copy_of(finished, tmp_path)
    cfg = dataclasses.replace(make_config(demo_corpus, out), rng_seed=12)
    Pipeline(cfg).run_stage("calibrate")
    for name in ("platt.tsv", "calibration.tsv"):
        assert _without_manifest(out / name) == \
            _without_manifest(finished / name)
    # its set is every stance-labeled user of the matrix that train left
    # out: disjoint from the training set, and no smaller
    train = pipeline._read_users(out / "model_train_users.txt")
    rows = set(features.FeatureMatrix.load(out / "matrix_full.txt").rows)
    left_out = [u for u in pipeline._read_table(out / "labels.tsv")
                .users_with("stance") if u in rows and u not in train]
    counts = [line.split("\t")[2] for line in (out / "calibration.tsv")
              .read_text(encoding="utf-8").splitlines()[3:]]
    assert sum(map(int, counts)) == len(left_out) >= 10


def test_regress_measures_account_age_from_the_period_of_matrix_p0(
        demo_corpus, finished, tmp_path):
    # a period edited after featurize is not the one the matrices were built
    # over; regress takes period 0 from matrix_p0.txt
    out = _copy_of(finished, tmp_path)
    cfg = make_config(demo_corpus, out)
    (start, end), p1 = cfg.periods
    cfg = dataclasses.replace(cfg, periods=((start - 31 * 86400, end), p1))
    Pipeline(cfg).run_stage("regress")
    assert _without_manifest(out / "regression.tsv") == \
        _without_manifest(finished / "regression.tsv")
    # and a matrix_p0.txt without a period is a named error
    path = out / "matrix_p0.txt"
    lines = path.read_text(encoding="utf-8").splitlines(True)
    path.write_text("".join(line for line in lines
                            if not line.startswith("#period ")),
                    encoding="utf-8")
    with pytest.raises(StageError, match=re.escape(
            f"{path} has no #period line")):
        Pipeline(cfg).run_stage("regress")


@pytest.mark.parametrize("args, config, error", [
    (["run", "--seed", "-1"], "", "--seed"),
    (["stage", "ingest", "--seed", "-1"], "", "--seed"),
    (["run"], "rng_seed: -1\n", "rng_seed"),
    (["run"], "boost: {rng_seed: -1}\n", "boost.rng_seed"),
    (["synth", "--seed", "-1"], None, "rng_seed"),
], ids=["run --seed", "stage --seed", "rng_seed", "boost.rng_seed",
        "synth --seed"])
def test_cli_rejects_a_negative_seed_before_writing(demo_corpus, tmp_path,
                                                    args, config, error):
    from click.testing import CliRunner
    from stancelab import cli

    out = tmp_path / "out"
    if config is None:  # synth writes a corpus file
        args = [args[0], str(out / "corpus.jsonl"), *args[1:]]
    else:
        config_path = tmp_path / "config.yaml"
        config_path.write_text(f"corpus: {demo_corpus}\noutput_dir: {out}\n"
                               + config, encoding="utf-8")
        args = [*args, "--config", str(config_path)]
    done = CliRunner().invoke(cli.main, args)
    assert done.exit_code == 1
    assert isinstance(done.exception, SystemExit)  # not an uncaught error
    assert done.output == \
        f"Error: {error} must be a non-negative integer, got -1\n"
    assert not out.exists()


def _raw_config(key, value):
    """The config mapping that sets ``key`` (``section.name`` or ``name``)."""
    section, _, name = key.rpartition(".")
    return {section: {name: value}} if section else {name: value}


@pytest.mark.parametrize("key, value", [
    ("include_retweets", "no"), ("calibration_fraction", "abc"),
    ("calibration_fraction", 1.5), ("min_in_degree", "2"),
    ("thresholds.tweet_min_count", "x"), ("alpha0", -1),
    ("reference_year", 2017.5), ("boost.max_depth", 2.5),
    ("boost.max_depth", True), ("boost.max_depth", "6"),
    ("boost.min_child_weight", "1"), ("boost.n_estimators", 10.0),
    ("boost.learning_rate", float("nan")), ("corpus", 5),
    ("rules", 5), ("rules.names", 3), ("rules.gazetteer", ""),
    ("filter.include_terms", "aborto"),
    ("filter.from", "2017-13-01"),
    ("filter.from", "2018-01-01"), ("filter.from", 0),
    ("filter.to", "2018-01-01"),
    # a mapping for "filter" is the whole section
    ("filter.to", {"from": "2018-01-01", "to": "2018-01-01"}),
    ("filter.to", {"from": 0, "to": "1969-12-31"}),
    # not a regular expression
    ("filter.exclude_patterns", ["("]),
    # Encoding.term_counts takes a floor of 1 or more
    ("thresholds.tweet_min_count", 0),
])
def test_config_refuses_a_bad_value_naming_its_key(tmp_path, key, value):
    from stancelab.config import ConfigError
    raw = ({"filter": value} if isinstance(value, dict)
           else _raw_config(key, value))
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be "):
        config_from_dict(raw, base_dir=tmp_path)


_ANY_VALUE = st.one_of(st.none(), st.booleans(), st.integers(-10, 10),
                       st.floats(-3, 3), st.sampled_from(
                           [float("nan"), float("inf"), 2017.0]),
                       st.text(max_size=3), st.lists(st.integers(), max_size=2))


@settings(max_examples=400, deadline=None)
@given(key=st.sampled_from(sorted(SCALARS)), value=_ANY_VALUE)
def test_config_takes_a_scalar_only_of_its_type_and_range(key, value):
    from stancelab.config import ConfigError
    kind, test, _what = SCALARS[key]
    if kind is float:
        right_type = (type(value) in (int, float)
                      and math.isfinite(value))
    else:
        right_type = type(value) is kind
    ok = right_type and (test is None or test(value))
    if value is None and key in ("alpha0", "corpus", "output_dir"):
        ok = True  # the default stays
    try:
        config_from_dict(_raw_config(key, value), base_dir=Path("/cfg"))
    except ConfigError as exc:
        assert not ok, exc
        assert str(exc).startswith(f"{key} must be ")
    else:
        assert ok, (key, value)


@settings(max_examples=400, deadline=None)
@given(key=st.sampled_from(sorted(SCALARS)), value=_ANY_VALUE)
def test_config_built_in_python_takes_what_yaml_takes(key, value):
    from stancelab.config import ConfigError

    def error(build, kind=ConfigError):
        try:
            build()
        except kind as exc:
            return str(exc)
        return None

    from_yaml = error(lambda: config_from_dict(_raw_config(key, value),
                                               base_dir=Path("/cfg")))
    section, _, name = key.rpartition(".")
    if section == "boost":
        direct = error(lambda: BoostParams(**{name: value}), ValueError)
        direct = direct and f"boost.{direct}"
    elif section == "thresholds":
        direct = error(lambda: PipelineConfig(
            thresholds=Thresholds(**{name: value})))
    else:
        direct = error(lambda: PipelineConfig(**{key: value}))
    if value is None and key in ("corpus", "output_dir"):
        # a YAML null keeps the default; only an Optional field takes None
        assert from_yaml is None
        assert direct == f"{key} must be a path, got None"
    else:
        assert (direct is None) == (from_yaml is None), (direct, from_yaml)
    for message in (direct, from_yaml):
        assert message is None or message.startswith(f"{key} must be ")


@pytest.mark.parametrize("build, error", [
    (lambda: PipelineConfig(calibration_fraction=5.0),
     "calibration_fraction must be a number in (0, 1), got 5.0"),
    (lambda: PipelineConfig(min_in_degree=-3),
     "min_in_degree must be a non-negative integer, got -3"),
    (lambda: PipelineConfig(exclude_patterns=["("]),
     "filter.exclude_patterns must be regular expressions, got '(': "),
    (lambda: PipelineConfig(thresholds=Thresholds(tweet_min_count="x")),
     "thresholds.tweet_min_count must be a positive integer, got 'x'"),
    (lambda: PipelineConfig(rng_seed=-1),
     "rng_seed must be a non-negative integer, got -1"),
    (lambda: PipelineConfig(include_terms="aborto"),
     "filter.include_terms must be a list of strings, got 'aborto'"),
    (lambda: PipelineConfig(time_from="2017", time_to="2018"),
     "filter.from must be a YYYY-MM-DD date, got '2017'"),
    (lambda: PipelineConfig(time_from=0, time_to="2018"),
     "filter.to must be a YYYY-MM-DD date, got '2018'"),
    (lambda: config_from_dict({"filter": {"from": 1, "to": 99999999999999}}),
     "filter.to must be a YYYY-MM-DD date, got 99999999999999"),
    (lambda: PipelineConfig(rules=RulePaths(gazetteer="")),
     "rules.gazetteer must be a non-empty path, got ''"),
    (lambda: PipelineConfig(periods=((1, 2),)),
     "periods must be two [from, to] pairs of dates"),
    (lambda: PipelineConfig(boost={"n_estimators": 5}),
     "boost must be a BoostParams, got {'n_estimators': 5}"),
    (lambda: PipelineConfig(thresholds={"tweet_min_count": 5}),
     "thresholds must be a Thresholds, got {'tweet_min_count': 5}"),
    (lambda: PipelineConfig(rules="x"), "rules must be a RulePaths, got 'x'"),
], ids=["calibration_fraction", "min_in_degree", "exclude_patterns",
        "thresholds", "rng_seed", "include_terms", "time_from", "time_to",
        "time_to_beyond_9999", "rules", "periods", "boost_section", "thresholds_section",
        "rules_section"])
def test_config_built_in_python_refuses_a_bad_value_naming_its_key(build,
                                                                  error):
    from stancelab.config import ConfigError
    with pytest.raises(ConfigError, match=f"^{re.escape(error)}"):
        build()


def test_config_classes_are_frozen():
    cfg = PipelineConfig()
    for obj, name, value in ((cfg, "rng_seed", -1),
                             (cfg.thresholds, "tweet_min_count", 0),
                             (cfg.rules, "gazetteer", "")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, value)
    # the filter lists are held as tuples, whatever the caller passed
    cfg = PipelineConfig(exclude_patterns=["x"])
    assert cfg.exclude_patterns == ("x",)
    for terms in (cfg.include_terms, cfg.exclude_patterns):
        with pytest.raises(AttributeError):
            terms.append("(")


def test_shipped_demo_config_loads():
    from stancelab.config import PERIODS, load_config
    configs = Path(__file__).resolve().parents[1] / "configs"
    cfg = load_config(configs / "demo.yaml")
    assert cfg.corpus == str(configs / "../demo/corpus.jsonl")
    assert cfg.output_dir == str(configs / "../demo/out")
    assert cfg.include_terms == ("aborto",)
    assert (cfg.thresholds.tweet_min_count, cfg.thresholds.bio_min_count) \
        == (5, 3)
    assert (cfg.boost.n_estimators, cfg.boost.early_stopping_rounds) \
        == (60, 10)
    assert (cfg.min_in_degree, cfg.rng_seed) == (2, 7)
    assert cfg.periods == PERIODS
    # and every value the file does not set keeps its default
    assert cfg == PipelineConfig(
        corpus=cfg.corpus, output_dir=cfg.output_dir,
        thresholds=Thresholds(5, 3), min_in_degree=2, rng_seed=7,
        boost=BoostParams(n_estimators=60, early_stopping_rounds=10))


@pytest.mark.parametrize("kind", ["directory", "latin-1"])
def test_cli_names_a_config_file_it_cannot_read(tmp_path, monkeypatch, kind):
    from click.testing import CliRunner
    from stancelab import cli

    monkeypatch.chdir(tmp_path)  # where the default output_dir would land
    config = tmp_path / "config.yaml"
    if kind == "directory":
        config.mkdir()
        error = f"Error: {config}: cannot read: Is a directory\n"
    else:
        config.write_bytes("output_dir: año\n".encode("latin-1"))
        error = (f"Error: {config}:1: not UTF-8 text: "
                 "invalid continuation byte\n")
    done = CliRunner().invoke(cli.main, ["run", "--config", str(config)])
    assert done.exit_code == 1
    assert isinstance(done.exception, SystemExit)  # not an uncaught error
    assert done.output == error
    assert [p.name for p in tmp_path.iterdir()] == ["config.yaml"]
    assert kind == "latin-1" or not any(config.iterdir())


def test_pipeline_refuses_a_corpus_that_is_not_a_file(tmp_path):
    from stancelab.config import ConfigError
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    corpus.mkdir()
    with pytest.raises(ConfigError,
                       match=f"^corpus: not a file: {re.escape(str(corpus))}$"):
        Pipeline(PipelineConfig(corpus=str(corpus), output_dir=str(out)))
    assert not out.exists()


def test_cli_names_a_bad_config_value_before_writing(demo_corpus, tmp_path):
    from click.testing import CliRunner
    from stancelab import cli

    out = tmp_path / "out"
    config_path = tmp_path / "config.yaml"
    config_path.write_text(f"corpus: {demo_corpus}\noutput_dir: {out}\n"
                           "boost: {max_depth: '6'}\n", encoding="utf-8")
    done = CliRunner().invoke(cli.main, ["run", "--config", str(config_path)])
    assert done.exit_code == 1
    assert done.output == \
        "Error: boost.max_depth must be a positive integer, got '6'\n"
    assert not out.exists()


def test_cli_inspect_prints_the_corpus_summary(demo_corpus):
    from click.testing import CliRunner
    from stancelab import cli

    done = CliRunner().invoke(cli.main, ["inspect", demo_corpus])
    assert done.exit_code == 0, done.output
    corpus = cm.load_corpus(demo_corpus)
    graph = cm.build_interaction_graph(corpus)
    assert done.output.splitlines() == [
        f"posts: {corpus.n_posts}",
        f"users: {corpus.n_users}",
        f"relevant posts: {cm.filter_relevant(corpus, ['aborto']).n_posts}",
        f"interaction edges: {len(graph.edges)}",
        f"largest component: "
        f"{len(cm.largest_connected_component(graph))} users"]


def test_cli_inspect_names_a_corpus_with_too_many_malformed_lines(
        demo_corpus, tmp_path):
    from click.testing import CliRunner
    from stancelab import cli

    lines = open(demo_corpus, encoding="utf-8").readlines()
    broken = len(lines) // 9 + 1  # more than 10% of all lines
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(lines) + "{broken\n" * broken, encoding="utf-8")
    done = CliRunner().invoke(cli.main, ["inspect", str(path)])
    assert done.exit_code == 1
    assert isinstance(done.exception, SystemExit)  # not an uncaught error
    assert done.output.startswith(
        f"Error: {broken}/{len(lines) + broken} malformed lines in {path} ")
    assert len(done.output.splitlines()) == 1


def test_cli_prints_rule_file_error_as_one_line(demo_corpus, tmp_path):
    from click.testing import CliRunner
    from stancelab import cli

    gazetteer = tmp_path / "gazetteer.tsv"
    gazetteer.write_text("santiago\tChile\nmendoza\n", encoding="utf-8")
    config = tmp_path / "config.yaml"
    config.write_text(
        f"corpus: {demo_corpus}\noutput_dir: {tmp_path / 'out'}\n"
        f"rules: {{gazetteer: {gazetteer}}}\n", encoding="utf-8")
    done = CliRunner().invoke(cli.main, ["run", "--config", str(config)])
    assert done.exit_code == 1
    assert isinstance(done.exception, SystemExit)  # not an uncaught error
    assert f"Error: {gazetteer}:2: " in done.output
    assert "Traceback" not in done.output


def test_cli_prints_synth_error_as_one_line(tmp_path):
    from click.testing import CliRunner
    from stancelab import cli

    out = tmp_path / "corpus.jsonl"
    done = CliRunner().invoke(cli.main, ["synth", str(out), "--n-users", "0"])
    assert done.exit_code == 1
    assert isinstance(done.exception, SystemExit)  # not an uncaught error
    assert done.output == "Error: n_users must be a positive integer, got 0\n"
    assert not out.exists()


def test_cli_prints_an_output_dir_that_is_a_file_as_one_line(demo_corpus,
                                                             tmp_path):
    outfile = tmp_path / "outfile"
    outfile.write_text("kept\n", encoding="utf-8")
    error = _cli_error(f"corpus: {demo_corpus}\noutput_dir: {outfile}\n",
                       tmp_path)
    assert error == (f"Error: [Errno {errno.EEXIST}] "
                     f"{os.strerror(errno.EEXIST)}: '{outfile}'")
    assert outfile.read_text(encoding="utf-8") == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml",
                                                          "outfile"]


def test_cli_prints_synth_into_a_directory_as_one_line(tmp_path):
    from click.testing import CliRunner
    from stancelab import cli

    done = CliRunner().invoke(cli.main, ["synth", str(tmp_path),
                                         "--n-users", "5"])
    assert done.exit_code == 1
    assert isinstance(done.exception, SystemExit)  # not an uncaught error
    assert done.output == (f"Error: [Errno {errno.EISDIR}] "
                           f"{os.strerror(errno.EISDIR)}: '{tmp_path}'\n")
    assert not any(tmp_path.iterdir())


def _cli_error(config_text, tmp_path):
    """The output of ``stancelab run`` on a config file holding
    ``config_text``, which must end in one ``Error:`` line."""
    from click.testing import CliRunner
    from stancelab import cli

    config = tmp_path / "config.yaml"
    config.write_text(config_text, encoding="utf-8")
    done = CliRunner().invoke(cli.main, ["run", "--config", str(config)])
    assert done.exit_code == 1
    assert isinstance(done.exception, SystemExit)  # not an uncaught error
    assert "Traceback" not in done.output
    errors = [line for line in done.output.splitlines()
              if line.startswith("Error:")]
    assert len(errors) == 1, done.output
    return errors[0]


@pytest.mark.parametrize("key", ["gazetteer", "lexicon", "manual_labels"])
def test_cli_names_a_missing_rule_file(demo_corpus, tmp_path, key):
    missing = tmp_path / "missing.tsv"
    error = _cli_error(f"corpus: {demo_corpus}\noutput_dir: "
                       f"{tmp_path / 'out'}\nrules: {{{key}: {missing}}}\n",
                       tmp_path)
    assert error == f"Error: rules.{key}: no such file: {missing}"
    assert not (tmp_path / "out" / "corpus.jsonl").exists()


def test_cli_names_a_config_without_a_corpus(tmp_path):
    error = _cli_error(f"output_dir: {tmp_path / 'out'}\n", tmp_path)
    assert error == "Error: config has no corpus path"
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_cli_names_file_and_line_of_bad_yaml(demo_corpus, tmp_path):
    error = _cli_error(f"output_dir: {tmp_path / 'out'}\n"
                       "corpus: [unclosed\n", tmp_path)
    assert error.startswith(f"Error: {tmp_path / 'config.yaml'}:")
    assert re.match(r"Error: \S+:\d+: ", error)


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


def test_config_yaml_round_trip(tmp_path):
    raw = {
        "corpus": "c.jsonl",
        "output_dir": "out",
        "filter": {"include_terms": ["aborto"], "from": 0,
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
    assert (cfg.time_from, cfg.time_to) == (0, 1546300800)  # epoch 0 counts


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


# the five numeric fields of a corpus line, each with its rule (FORMATS.md)
_NUMERIC_FIELDS = {
    "timestamp": cm.is_time, "author.account_created": cm.is_time,
    **dict.fromkeys(("author.n_posts", "author.n_followers",
                     "author.n_friends"), lambda v: 0 <= v < 2**63)}


@settings(max_examples=50, deadline=None)
@given(field=st.sampled_from(sorted(_NUMERIC_FIELDS)),
       value=st.integers(-2**80, 2**80) | st.integers(-2**40, 2**40)
       | st.sampled_from([*(t + d for t in cm.TIME_RANGE for d in (-1, 0, 1)),
                          -1, 2**63 - 1, 2**63]))
def test_a_numeric_corpus_value_loads_by_its_rule_and_ingests(field, value):
    import tempfile

    start = PipelineConfig().periods[0][0]

    def line(pid, uid, day, target, **author):
        obj = {"post_id": pid, "author_id": uid, "timestamp": start + day,
               "text": f"aborto @{target}",
               "directed_at": [{"user": target, "kind": "mention"}]}
        if author:
            obj["author"] = {"user_id": uid, **author}
        return obj

    # users a and b post five times each; c, once, on the line drawn for
    last = line("c0", "c", 9, "a", full_name="C", n_posts=1)
    where, _dot, key = field.rpartition(".")
    (last[where] if where else last)[key] = value
    lines = [line(f"{u}{i}", u, i, "b" if u == "a" else "a",
                  **({"full_name": u.upper()} if i == 0 else {}))
             for u in "ab" for i in range(5)] + [last]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines),
                        encoding="utf-8")
        counts = {}
        corpus = cm.load_corpus(path, counts)
        kept = _NUMERIC_FIELDS[field](value)
        assert counts == {"lines_read": 11, "malformed_lines": int(not kept)}
        assert ("c" in corpus.users) == kept
        Pipeline(make_config(str(path), Path(tmp) / "out")).run_stage("ingest")


def test_every_error_is_a_stancelab_error_and_one_version_is_stated():
    import importlib
    import pkgutil

    import stancelab
    from click.testing import CliRunner
    from stancelab import cli

    errors = [cls for info in pkgutil.iter_modules(stancelab.__path__)
              for cls in vars(importlib.import_module(
                  f"stancelab.{info.name}")).values()
              if isinstance(cls, type) and cls.__name__.endswith("Error")
              and cls.__module__ == f"stancelab.{info.name}"]
    assert len(errors) >= 9
    for cls in errors:
        assert issubclass(cls, tsv.StancelabError), cls
    done = CliRunner().invoke(cli.main, ["--version"])
    assert done.output == f"stancelab, version {stancelab.__version__}\n"
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    [version] = re.findall(r'^version = "([^"]*)"$', pyproject.read_text(
        encoding="utf-8"), re.MULTILINE)
    assert version == stancelab.__version__
