"""Byte identity of two fixed runs against recorded sha256 digests.

The demo run (`stancelab synth --n-users 300 --seed 7`, then `stancelab run`
on `configs/demo.yaml`) and `stancelab stage train` on a small weak-signal
corpus with early stopping off, whose deep trees carry the last bits of the
gains. Every output file is hashed; `manifest.json` without its timings, its
paths and `workers` (which follows the CPU count), and `summary.txt` without
its output-directory line.

The digests in `byte_identity.json` were made in the environment recorded
there; floats may differ in their last bits on another Python, numpy or
machine. A change that alters output bytes on purpose writes the file anew,
and says why:

    PYTHONPATH=src python tests/test_byte_identity.py
"""

from __future__ import annotations

import hashlib
import json
import platform
import shutil
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from stancelab import cli, synth
from stancelab.corpus import write_corpus

RECORD = Path(__file__).with_name("byte_identity.json")
DEMO_CONFIG = Path(__file__).parents[1] / "configs" / "demo.yaml"

# as perfbench's train_weak: a weak stance signal, and as many rounds without
# improvement as there are trees, so that early stopping never stops a fit
WEAK_CONFIG = """\
corpus: corpus.jsonl
output_dir: out
thresholds: {tweet_min_count: 5, bio_min_count: 3}
boost: {n_estimators: 40, early_stopping_rounds: 40}
min_in_degree: 2
rng_seed: 7
"""


def environment() -> dict:
    return {"numpy": np.__version__,
            "platform": f"{platform.system()} {platform.machine()}",
            "python": platform.python_version()}


def _cli(*args: str) -> None:
    done = CliRunner().invoke(cli.main, list(args))
    assert done.exit_code == 0, done.output


def _comparable(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        for key in ("corpus", "output_dir", "rules"):
            del manifest["config"][key]
        for entry in manifest["stages"].values():
            del entry["seconds"]
            entry["metrics"].pop("workers", None)
        return json.dumps(manifest, indent=2, sort_keys=True).encode()
    if path.name == "summary.txt":
        return b"".join(line for line in data.splitlines(True)
                        if not line.startswith(b"output directory: "))
    return data


def _digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root`` but the output lock, by path
    relative to ``root``."""
    return {path.relative_to(root).as_posix():
            hashlib.sha256(_comparable(path)).hexdigest()
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name != ".lock"}


def demo_run(where: Path) -> dict[str, str]:
    (where / "configs").mkdir(parents=True)
    config = shutil.copy(DEMO_CONFIG, where / "configs")
    _cli("synth", str(where / "demo" / "corpus.jsonl"), "--n-users", "300",
         "--seed", "7")
    _cli("run", "--config", str(config))
    return _digests(where / "demo")


def weak_train(where: Path) -> dict[str, str]:
    where.mkdir(parents=True)
    corpus, _truth = synth.generate(synth.SynthSpec(
        n_users=300, rng_seed=7, signal_word_rate=0.04,
        signal_emoji_rate=0.08))
    write_corpus(corpus, where / "corpus.jsonl")
    config = where / "config.yaml"
    config.write_text(WEAK_CONFIG, encoding="utf-8")
    for stage in ("ingest", "label", "featurize", "train"):
        _cli("stage", stage, "--config", str(config))
    return _digests(where / "out")


def runs(where: Path) -> dict:
    return {"demo": demo_run(where / "demo"),
            "train_weak": weak_train(where / "train_weak")}


def _by_file(runs: dict) -> dict[str, str]:
    return {f"{run}/{name}": digest for run, files in runs.items()
            if run != "environment" for name, digest in files.items()}


def test_outputs_match_the_recorded_digests(tmp_path):
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    want, got = _by_file(record), _by_file(runs(tmp_path))
    differ = sorted(name for name in want.keys() | got.keys()
                    if want.get(name) != got.get(name))
    assert not differ, (
        f"outputs differ from {RECORD.name} (recorded with "
        f"{record['environment']}, this is {environment()}): "
        + ", ".join(differ))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {"environment": environment(), **runs(Path(tmp))}
    RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
