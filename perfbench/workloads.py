"""The benchmark's workloads: how each builds its inputs, which stancelab
command it repeats, and which checks that command's outputs must pass.

Inputs come from `stancelab.synth` with the workload seed; the program sees
only the generated corpus and config files.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

# what `stancelab synth` plants, so that turnaround and regression have work
TURNAROUND_EFFECTS = {"gender": {"male": -0.10},
                      "age_cohort": {"18-29": 0.25},
                      "location": {"Chile": -0.15}}

# tweet_min_count 5, bio_min_count 3 and min_in_degree 2, as in ROADMAP
# "Recent"; the boost section is added per workload
CONFIG = """\
corpus: corpus.jsonl
output_dir: {out}
filter:
  include_terms: [aborto]
thresholds:
  tweet_min_count: 5
  bio_min_count: 3
min_in_degree: 2
rng_seed: 7
periods:
  - ["2017-05-01", "2017-08-01"]
  - ["2018-05-01", "2018-08-01"]
"""
RECENT_BOOST = "boost:\n  n_estimators: 60\n  early_stopping_rounds: 10\n"
# the library's boost defaults (300 trees, depth 6, learning rate 0.1, ...)
# with early stopping off, so every model, CV folds included, grows exactly
# 300 trees: with early stopping the tree count, and the command time with
# it, followed the seed
FIXED_TREES_BOOST = "boost:\n  early_stopping_rounds: 300\n"
TWEET_MIN_COUNT = 5
INCLUDE_TERM = "aborto"

# bounds set below what the planted signal gives on every seed tried; see
# README.md for the observed values
MIN_BAND_SHARE = 0.97
MIN_CV = 0.85
MIN_TOP_SIGNAL = 8

# a run sets up this many times (setup_s is their median) and repeats rounds
# of this many commands; the commands use the first set-up
SETUPS = 2
ROUND = 2


@dataclass(frozen=True)
class Workload:
    name: str
    n_users: int
    synth: dict = field(default_factory=dict)
    boost: str = ""
    # "run" (all stages, fresh output directory per command) or "train"
    # (`stage train` again and again on one featurized output directory)
    command: str = "run"


# A run repeats rounds for `--seconds` (20 in BENCHMARK.json); today one
# round of two commands outlasts that on both workloads. A 5,000-user full
# run was left out: see README.md.
WORKLOADS = {w.name: w for w in (
    Workload("run_2k", 2000, boost=RECENT_BOOST),
    Workload("train_weak", 2000,
             synth={"signal_word_rate": 0.04, "signal_emoji_rate": 0.08},
             boost=FIXED_TREES_BOOST, command="train"),
)}


@dataclass
class Inputs:
    """One set-up: its directory and the planted stance per user."""
    dir: Path
    stance: dict
    seconds: float


def setup(w: Workload, seed: int, where: Path) -> Inputs:
    """Generate and write the corpus and config; for `train` workloads also
    run ingest, label and featurize. Timed as set-up."""
    from stancelab import corpus, synth
    started = time.perf_counter()
    where.mkdir(parents=True)
    spec = synth.SynthSpec(n_users=w.n_users, rng_seed=seed,
                           turnaround_effects=TURNAROUND_EFFECTS, **w.synth)
    data, truth = synth.generate(spec)
    corpus.write_corpus(data, where / "corpus.jsonl")
    (where / "config.yaml").write_text(CONFIG.format(out="out") + w.boost,
                                       encoding="utf-8")
    if w.command == "train":
        from stancelab.config import load_config
        from stancelab.pipeline import Pipeline
        pipe = Pipeline(load_config(where / "config.yaml"))
        for stage in ("ingest", "label", "featurize"):
            pipe.run_stage(stage)
    return Inputs(where, truth.stance, time.perf_counter() - started)


def command(w: Workload, inputs: Inputs, k: int) -> tuple[list[str], Path]:
    """CLI arguments of the workload's k-th command and its output directory.
    """
    if w.command == "train":
        return (["stage", "train", "--config", str(inputs.dir / "config.yaml")],
                inputs.dir / "out")
    cfg = inputs.dir / f"cmd{k}.yaml"
    cfg.write_text(CONFIG.format(out=f"cmd{k}") + w.boost, encoding="utf-8")
    return ["run", "--config", str(cfg)], inputs.dir / f"cmd{k}"


def check_command(w: Workload, inputs: Inputs, out: Path,
                  stopwords: Path) -> dict:
    """Checks on one command's outputs; raises `checks.CheckFailed`.
    Returns the figures the checks saw."""
    if w.command == "train":
        prec, rec = checks.check_cv(out / "cv_metrics.tsv", MIN_CV, MIN_CV)
        top = checks.check_top_gain(out / "model_stance.txt", MIN_TOP_SIGNAL)
        return {"cv_precision": prec, "cv_recall": rec, "top_gain": top}
    checks.check_ingest(inputs.dir / "corpus.jsonl", out / "corpus.jsonl",
                        INCLUDE_TERM)
    cells = checks.check_tweet_terms(out / "corpus.jsonl",
                                     out / "matrix_full.txt", stopwords,
                                     TWEET_MIN_COUNT)
    share = checks.check_bands(out / "stance_scores.tsv", inputs.stance,
                               MIN_BAND_SHARE)
    rows = checks.check_turnaround(out / "turnaround.tsv")
    checks.check_totals(out)
    return {"tweet_term_cells": cells, "planted_band_share": share,
            "turnaround_rows": rows}


def repeated_files(w: Workload) -> tuple[str, ...]:
    """Files that every command of a run must write with the same bytes: the
    report files of a full run, or the model of a training."""
    return ("model_stance.txt",) if w.command == "train" else checks.REPORT_FILES
