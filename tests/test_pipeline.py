import hashlib
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest

from stancelab import corpus as cm
from stancelab import features, gbt, labeling, pipeline, synth, textproc
from stancelab.config import (PipelineConfig, RulePaths, Thresholds,
                              config_from_dict)
from stancelab.gbt import BoostParams
from stancelab.pipeline import (_LOADERS, _STAGE_OUTPUTS, REPORT_FILES, STAGES,
                                Pipeline, StageError, output_lock)


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


def test_run_writes_what_separate_stage_commands_write(demo_corpus, tmp_path):
    from click.testing import CliRunner
    from stancelab import cli

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
    outputs = [name for names in _STAGE_OUTPUTS.values() for name in names
               if name != "summary.txt"]
    assert len(outputs) == 17
    for name in outputs:
        assert (tmp_path / "run" / name).read_bytes() == \
            (tmp_path / "stages" / name).read_bytes(), name


def test_ingest_replaces_the_cached_corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    outputs = [name for names in _STAGE_OUTPUTS.values() for name in names
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
    ]
    with open(path, "a", encoding="utf-8") as fh:
        fh.writelines(planted)

    cfg = make_config(str(path), tmp_path / "run")
    cfg.time_from, cfg.time_to = t0, t1
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
        "posts_outside_time_range": 2, "users_outside_time_range": 0,
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


_LABELS = "user_id\tattribute\tvalue\tprovenance\tconfidence"
_TURNAROUND = "user_id\tp_t0\tp_t1\tdelta"


@pytest.mark.parametrize("name, header, good, bad", [
    ("labels.tsv", _LABELS, "u1\tgender\tmale\trule\t1.0",
     "u2\tgender\tfemale"),
    ("labels.tsv", _LABELS, "u1\tgender\tmale\trule\t1.0",
     "u2\tgender\tfemale\trule\tsure"),
    ("labels.tsv", _LABELS, "u1\tgender\tmale\trule\t1.0",
     "u2\tshoe_size\t38\trule\t1.0"),
    ("platt.tsv", "slope\toffset", "1.5\t-0.25", "1.5"),
    ("platt.tsv", "slope\toffset", "1.5\t-0.25", "nan\t0.5"),
    ("platt.tsv", "slope\toffset", "1.5\t-0.25", "1.5\t-inf"),
    ("turnaround.tsv", _TURNAROUND, "u1\t0.25\t0.5\t0.25", "u2\t0.25\t0.5"),
    ("turnaround.tsv", _TURNAROUND, "u1\t0.25\t0.5\t0.25",
     "u2\t0.25\thalf\t0.25"),
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
                    encoding="utf-8")
    with pytest.raises(StageError, match=re.escape(f"{path}:4: ")):
        load()


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
                                     r.stance_seeds)
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
    ("stance_seeds", "defense\tbio\t#abortolegal", "defense\tbio"),
    ("stance_seeds", "defense\tbio\t#abortolegal",
     "defense\tbio\t#abortolegal\textra"),
    ("lexicon", "family\tmadre", "family"),
    ("lexicon", "family\tmadre", "family\tmadre\tpadre"),
    ("stopwords", "de", "de\tla"),
    ("manual_labels", "u1\tgender\tfemale", "u1\tgender"),
    ("manual_labels", "u1\tgender\tfemale", "u1\tgender\tfemale\textra"),
    ("manual_labels", "u1\tgender\tfemale", "u1\tshoe_size\t38"),
])
def test_rule_readers_name_file_and_line(tmp_path, role, good, bad):
    # a comment may be indented; blank lines are skipped
    loader = _rule_loader(role)
    path = tmp_path / "rules.tsv"
    path.write_text(f"# comment\n  # indented comment\n\n{good}\n",
                    encoding="utf-8")
    loader(path)
    path.write_text(f"# comment\n  # indented comment\n\n{good}\n{bad}\n",
                    encoding="utf-8")
    with pytest.raises(labeling.RuleFileError,
                       match=re.escape(f"{path}:5: ")):
        loader(path)


def test_platt_file_without_values_is_a_named_error(tmp_path):
    pipe = Pipeline(PipelineConfig(output_dir=str(tmp_path)))
    (tmp_path / "platt.tsv").write_text("# manifest x\nslope\toffset\n",
                                        encoding="utf-8")
    with pytest.raises(StageError, match="platt.tsv: no slope and offset"):
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


def test_editing_manual_labels_makes_label_stale(demo_corpus, tmp_path):
    manual = tmp_path / "manual.tsv"
    manual.write_text("u00001\tgender\tfemale\n", encoding="utf-8")
    cfg = make_config(demo_corpus, tmp_path / "run")
    cfg.rules.manual_labels = str(manual)
    _stages(cfg, ("ingest", "label"))
    assert Pipeline(cfg)._is_fresh("label")
    manual.write_text("u00001\tgender\tmale\n", encoding="utf-8")
    assert not Pipeline(cfg)._is_fresh("label")


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
    assert done.output == "Error: n_users must be positive\n"
    assert not out.exists()


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
