"""Benchmark of stancelab commands on synthetic corpora.

Run from the root of a checkout:

    python3 perfbench/run.py --workload run_2k --seed 1 --seconds 20 --trace 0

Each operation is one stancelab command in its own child process, one at a
time (a closed loop with one client). A run sets up its inputs, then repeats
rounds of two commands until `--seconds` have passed, at
least one round. Every command's outputs are checked (checks.py); a command
that exits non-zero or fails a check counts as failed. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`.

With `--trace 1` the command runs twice inside this process through
`stancelab.cli.main`, first plain and then with the wrappers of tracing.py
installed; the spans go to `.perfbench/traces/`.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

import checks
import workloads
from tracing import Tracer, inclusive

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
STOPWORDS = SRC / "stancelab" / "rules" / "stopwords_es.txt"
# a run must end within 180 s; no command is started that cannot end by this
DEADLINE_S = 170.0
IMPORT_REPEATS = 3

STAGES = ("ingest", "label", "featurize", "train", "calibrate", "predict",
          "importance", "turnaround", "regress", "report")

END_TO_END = (("command_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

# (name, unit, better); BENCHMARK.json lists the same
PER_LAYER = (
    *((f"pipeline.{s}_s", "s", "lower") for s in STAGES),
    ("cli.import_s", "s", "lower"),
    ("corpus.load_s", "s", "lower"),
    ("corpus.load_calls", "count", "lower"),
    ("corpus.filter_s", "s", "lower"),
    ("corpus.graph_s", "s", "lower"),
    ("corpus.lcc_s", "s", "lower"),
    ("corpus.write_s", "s", "lower"),
    ("textproc.tokenize_s", "s", "lower"),
    ("textproc.tokenize_calls", "count", "lower"),
    ("textproc.tokenize_calls_per_text", "count", "lower"),
    ("textproc.term_counts_s", "s", "lower"),
    ("textproc.texts_per_s", "1/s", "higher"),
    ("labeling.apply_rules_s", "s", "lower"),
    ("labeling.ruleset_loads", "count", "lower"),
    ("features.build_matrix_s", "s", "lower"),
    ("features.save_s", "s", "lower"),
    ("features.load_s", "s", "lower"),
    ("features.load_calls", "count", "lower"),
    ("features.reshape_s", "s", "lower"),
    ("features.dense_cells", "count", "lower"),
    ("gbt.train_s", "s", "lower"),
    ("gbt.cv_s", "s", "lower"),
    ("gbt.split_s", "s", "lower"),
    ("gbt.split_nodes", "count", "lower"),
    ("gbt.split_ms_per_node", "ms", "lower"),
    ("gbt.partition_s", "s", "lower"),
    ("gbt.predict_s", "s", "lower"),
    ("gbt.predict_rows_per_s", "1/s", "higher"),
    ("calibration.fit_platt_s", "s", "lower"),
    ("calibration.score_s", "s", "lower"),
    ("stats.log_odds_s", "s", "lower"),
    ("stats.hsd_s", "s", "lower"),
    ("stats.ols_s", "s", "lower"),
    ("synth.generate_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(args: list[str], log: Path, timeout: float):
    """Run `python -m stancelab.cli ARGS`; (wall seconds, peak RSS in MB of
    that child alone, exit code). The child is killed after `timeout`."""
    argv = [sys.executable, "-m", "stancelab.cli", *args]
    started = time.perf_counter()
    with open(log, "wb") as fh:
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    seconds = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode


def check_outputs(w, inputs, out: Path, reference: dict,
                  figures: list) -> str | None:
    """Run the workload's checks on one command's outputs and append what
    they saw to `figures`. The first command's repeated files become
    `reference`; later ones must match it. Returns a description of the
    first failure, or None."""
    try:
        figures.append(workloads.check_command(w, inputs, out, STOPWORDS))
        if reference:
            checks.check_identical(reference, out)
        else:
            reference.update(checks.snapshot(out, workloads.repeated_files(w)))
    except checks.CheckFailed as exc:
        return str(exc)
    except Exception:
        # a missing or malformed output file is a failed command too
        return traceback.format_exc()
    return None


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def measured_run(w, seed: int, seconds: float, t0: float):
    """Set up, then run rounds of commands for `seconds`; (result, detail)."""
    work = WORK / "work" / w.name
    shutil.rmtree(work, ignore_errors=True)
    setups = [workloads.setup(w, seed, work / f"setup{k}")
              for k in range(workloads.SETUPS)]
    inputs = setups[0]

    times, rss, problems, reference, figures = [], [], [], {}, []
    started = time.perf_counter()
    k = 0
    while True:
        for _ in range(workloads.ROUND):
            args, out = workloads.command(w, inputs, k)
            log = work / f"cmd{k}.log"
            k += 1
            secs, mb, code = spawn(args, log, DEADLINE_S
                                   - (time.perf_counter() - t0))
            times.append(secs)
            rss.append(mb)
            problem = (f"exit code {code}, see {log}" if code != 0
                       else check_outputs(w, inputs, out, reference, figures))
            if problem:
                problems.append(problem)
                print(f"{w.name} command {k}: {problem}", file=sys.stderr)
        now = time.perf_counter()
        round_s = sum(times[-workloads.ROUND:])
        if now - started >= seconds or now - t0 + round_s > DEADLINE_S:
            break

    metrics = {
        "command_s": statistics.median(times),
        "peak_rss_mb": max(rss),
        "setup_s": statistics.median(s.seconds for s in setups),
    }
    detail = {"command_s": times, "peak_rss_mb": rss,
              "setup_s": [s.seconds for s in setups], "checks": figures,
              "problems": problems}
    return result(not problems, len(times), len(problems),
                  {name: {"value": metrics[name], "unit": unit}
                   for name, unit in END_TO_END}), detail


def import_seconds() -> float:
    """Median time to import stancelab.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import stancelab.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                             cwd=ROOT, capture_output=True, text=True,
                             check=True, timeout=60)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def in_process(args: list[str]) -> tuple[float, str | None]:
    """Run one command through `stancelab.cli.main` in this process."""
    from stancelab import cli
    started = time.perf_counter()
    problem = None
    try:
        with redirect_stdout(io.StringIO()):
            cli.main(args, standalone_mode=False)
    except Exception:
        problem = traceback.format_exc()
    return time.perf_counter() - started, problem


def manifest_disagreement(spans, out: Path) -> str | None:
    """Stage spans must match the seconds stancelab wrote to manifest.json
    (to 10 ms plus 2%: the span also covers the manifest write)."""
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    for name, start, end, _parent, _count in spans:
        if name.startswith("pipeline."):
            have = stages[name.split(".", 1)[1]]["seconds"]
            if abs((end - start) - have) > 0.01 + 0.02 * have:
                return (f"span {name} took {end - start:.3f} s, manifest "
                        f"says {have} s")
    return None


def layer_metrics(spans, setup_spans, n_texts: int, import_s: float,
                  overhead_s: float) -> dict:
    def t(*names, outside=()):
        return inclusive(spans, names, outside)

    def per(a, b):
        return a / b if b else 0.0

    tok, load, mload = t("textproc.tokenize"), t("corpus.load"), t("features.load")
    split, predict = t("gbt.split"), t("gbt.predict")
    m = {f"pipeline.{s}_s": t(f"pipeline.{s}")[0] for s in STAGES}
    m.update({
        "cli.import_s": import_s,
        "corpus.load_s": load[0],
        "corpus.load_calls": load[1],
        "corpus.filter_s": t("corpus.filter")[0],
        "corpus.graph_s": t("corpus.graph")[0],
        "corpus.lcc_s": t("corpus.lcc")[0],
        "corpus.write_s": t("corpus.write")[0],
        "textproc.tokenize_s": tok[0],
        "textproc.tokenize_calls": tok[1],
        "textproc.tokenize_calls_per_text": per(tok[1], n_texts),
        "textproc.term_counts_s": t("textproc.term_counts")[0],
        "textproc.texts_per_s": per(tok[1], tok[0]),
        "labeling.apply_rules_s": t("labeling.apply_rules")[0],
        "labeling.ruleset_loads": t("labeling.load_ruleset")[1],
        "features.build_matrix_s": t("features.build_matrix")[0],
        "features.save_s": t("features.save")[0],
        "features.load_s": mload[0],
        "features.load_calls": mload[1],
        "features.reshape_s": t("features.reshape")[0],
        "features.dense_cells": t("features.to_dense")[2],
        "gbt.train_s": t("gbt.train", outside=("gbt.cv",))[0],
        "gbt.cv_s": t("gbt.cv")[0],
        "gbt.split_s": split[0],
        "gbt.split_nodes": split[1],
        "gbt.split_ms_per_node": per(1000.0 * split[0], split[1]),
        "gbt.partition_s": t("gbt.partition")[0],
        "gbt.predict_s": predict[0],
        "gbt.predict_rows_per_s": per(predict[2], predict[0]),
        "calibration.fit_platt_s": t("calibration.fit_platt")[0],
        "calibration.score_s": t("calibration.score")[0],
        "stats.log_odds_s": t("stats.log_odds")[0],
        "stats.hsd_s": t("stats.hsd")[0],
        "stats.ols_s": t("stats.ols")[0],
        "synth.generate_s": inclusive(setup_spans, ["synth.generate"])[0],
        "trace.overhead_s": overhead_s,
    })
    return m


def traced_run(w, seed: int):
    """Set up once, then run the command in-process plain and traced;
    (result, detail)."""
    work = WORK / "work" / w.name
    shutil.rmtree(work, ignore_errors=True)
    setup_trace, trace = Tracer(), Tracer()
    with setup_trace.installed():
        inputs = workloads.setup(w, seed, work / "setup0")
    import_s = import_seconds()

    problems, reference, figures = [], {}, []
    args, out = workloads.command(w, inputs, 0)
    plain_s, problem = in_process(args)
    problems.append(problem or check_outputs(w, inputs, out, reference,
                                             figures))
    args, out = workloads.command(w, inputs, 1)
    with trace.installed():
        traced_s, problem = in_process(args)
    problems.append(problem or check_outputs(w, inputs, out, reference,
                                             figures)
                    or manifest_disagreement(trace.spans, out))
    problems = [p for p in problems if p]
    for p in problems:
        print(f"{w.name} traced run: {p}", file=sys.stderr)

    posts, authors = checks.read_corpus(out / "corpus.jsonl")
    metrics = layer_metrics(trace.spans, setup_trace.spans,
                            len(posts) + len(authors), import_s,
                            traced_s - plain_s)
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    trace.dump(WORK / "traces" / f"{w.name}-seed{seed}.json",
               {"workload": w.name, "seed": seed, "plain_s": plain_s,
                "traced_s": traced_s, "metrics": metrics})
    return result(not problems, 2, len(problems),
                  {name: {"value": metrics[name], "unit": unit}
                   for name, unit, _better in PER_LAYER}), \
        {"checks": figures, "problems": problems}


def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if not (SRC / "stancelab" / "__init__.py").is_file():
        print(f"stancelab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    w = workloads.WORKLOADS[opts.workload]
    seed = opts.seed % 2**32
    if opts.trace:
        res, detail = traced_run(w, seed)
    else:
        res, detail = measured_run(w, seed, opts.seconds, t0)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    with open(WORK / "results" / f"{w.name}-seed{opts.seed}-trace{opts.trace}"
              ".json", "w", encoding="utf-8") as fh:
        json.dump({**res, "detail": detail}, fh, indent=1)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
