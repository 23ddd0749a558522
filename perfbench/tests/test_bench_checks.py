"""Each output check holds on real outputs and fails on a copy with one
deliberate fault."""

import json
import shutil

import pytest

import checks
import workloads
from run import STOPWORDS


@pytest.fixture
def out(pipeline_run, tmp_path):
    """A private copy of the run's output directory, free to corrupt."""
    _inputs, src = pipeline_run
    return shutil.copytree(src, tmp_path / "out")


def _rewrite(path, edit):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8")


def test_checks_hold_on_real_outputs(pipeline_run):
    inputs, out = pipeline_run
    workloads.check_command(workloads.WORKLOADS["run_2k"], inputs, out,
                            STOPWORDS)
    ref = checks.snapshot(out, checks.REPORT_FILES)
    checks.check_identical(ref, out)


def test_tweet_terms_detects_changed_cell(pipeline_run, out):
    _rows, cols, cells = checks.read_matrix(out / "matrix_full.txt")
    i, j = min(k for k in cells if cols[k[1]][1] == "tweet_term")
    target = f"{i} {j} {cells[(i, j)]!r}\n"

    def edit(lines):
        assert target in lines
        return [f"{i} {j} {cells[(i, j)] + 1.0!r}\n" if l == target else l
                for l in lines]

    args = (out / "corpus.jsonl", out / "matrix_full.txt", STOPWORDS, 5)
    assert checks.check_tweet_terms(*args) > 0
    _rewrite(out / "matrix_full.txt", edit)
    with pytest.raises(checks.CheckFailed, match="tweet_term cell"):
        checks.check_tweet_terms(*args)


def test_bands_detect_flipped_band(pipeline_run, out):
    inputs, _ = pipeline_run
    path = out / "stance_scores.tsv"
    checks.check_bands(path, inputs.stance, 0.9)

    def edit(lines):
        head, row = lines[:2], lines[2].rstrip("\n").split("\t")
        row[3] = "opposition" if row[3] == "defense" else "defense"
        return head + ["\t".join(row) + "\n"] + lines[3:]

    _rewrite(path, edit)
    with pytest.raises(checks.CheckFailed, match="band"):
        checks.check_bands(path, inputs.stance, 0.9)


def test_bands_detect_low_planted_share(pipeline_run):
    inputs, out = pipeline_run
    flipped = {u: "defense" if s == "opposition" else "opposition"
               for u, s in inputs.stance.items()}
    with pytest.raises(checks.CheckFailed, match="planted band"):
        checks.check_bands(out / "stance_scores.tsv", flipped, 0.9)


def test_turnaround_detects_altered_delta(out):
    path = out / "turnaround.tsv"
    assert checks.check_turnaround(path) > 0

    def edit(lines):
        row = lines[2].rstrip("\n").split("\t")
        row[3] = repr(float(row[3]) + 1e-12)
        return lines[:2] + ["\t".join(row) + "\n"] + lines[3:]

    _rewrite(path, edit)
    with pytest.raises(checks.CheckFailed, match="delta"):
        checks.check_turnaround(path)


def test_ingest_detects_disconnected_user(pipeline_run, out):
    inputs, _ = pipeline_run
    raw, path = inputs.dir / "corpus.jsonl", out / "corpus.jsonl"
    checks.check_ingest(raw, path, "aborto")
    stray = {"author": {"user_id": "x99999", "screen_name": "x99999"},
             "author_id": "x99999", "directed_at": [], "post_id": "px1",
             "retweet_of": None, "text": "aborto w001", "timestamp": 1500000000}
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(stray) + "\n")
    with pytest.raises(checks.CheckFailed, match="2 weakly connected"):
        checks.check_ingest(raw, path, "aborto")


def test_ingest_detects_dropped_post(pipeline_run, out):
    inputs, _ = pipeline_run
    path = out / "corpus.jsonl"
    # drop a post whose author keeps others, so the profile stays embedded
    posts, _ = checks.read_corpus(path)
    seen, victim = set(), None
    for p in posts:
        if p["author_id"] in seen and "author" not in p:
            victim = p["post_id"]
            break
        seen.add(p["author_id"])
    _rewrite(path, lambda lines: [l for l in lines
                                  if json.loads(l)["post_id"] != victim])
    with pytest.raises(checks.CheckFailed, match="1 relevant posts dropped"):
        checks.check_ingest(inputs.dir / "corpus.jsonl", path, "aborto")


def test_totals_detect_changed_count(out):
    checks.check_totals(out)

    def edit(lines):
        row = lines[2].rstrip("\n").split("\t")
        row[1] = str(int(row[1]) + 1)
        return lines[:2] + ["\t".join(row) + "\n"] + lines[3:]

    _rewrite(out / "stance_distribution.tsv", edit)
    with pytest.raises(checks.CheckFailed, match="stance_distribution"):
        checks.check_totals(out)


def test_identical_detects_changed_report(pipeline_run, out):
    ref = checks.snapshot(pipeline_run[1], checks.REPORT_FILES)
    checks.check_identical(ref, out)
    _rewrite(out / "regression.tsv", lambda lines: lines[:-1])
    with pytest.raises(checks.CheckFailed, match="regression.tsv"):
        checks.check_identical(ref, out)


def test_cv_bound(out):
    path = out / "cv_metrics.tsv"
    prec, rec = checks.check_cv(path, 0.5, 0.5)
    with pytest.raises(checks.CheckFailed, match="below"):
        checks.check_cv(path, prec + 1e-9, 0.5)


def _model(path, idents_by_gain):
    lines = [f"col {j} {ident}\n" for j, ident in enumerate(idents_by_gain)]
    lines += [f"treegain 0 {j} {100.0 - j!r}\n"
              for j in range(len(idents_by_gain))]
    path.write_text("".join(lines), encoding="utf-8")
    return path


def test_top_gain_needs_planted_signal(tmp_path):
    green, blue = checks.SIGNAL_EMOJI
    sig = [f"sig{k:02d}" for k in range(12)]
    good = _model(tmp_path / "a.txt", [blue, *sig[:4], green, *sig[4:6],
                                       "w001", "w002", *sig[6:]])
    assert checks.check_top_gain(good, 8)[:2] == [blue, "sig00"]
    noise = _model(tmp_path / "b.txt",
                   [blue, green, "w001", "w002", "w003", *sig])
    with pytest.raises(checks.CheckFailed, match="only 7 of"):
        checks.check_top_gain(noise, 8)
