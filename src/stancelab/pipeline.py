"""File-mediated pipeline stages.

Every stage writes its outputs atomically into the output directory and
appends an entry to ``manifest.json``. Report files start with a ``# manifest
<digest>`` line tying them to the config and inputs that produced them.
``STAGE_TABLE`` declares the files each stage reads and writes, and a stage
receives exactly its reads, each through :meth:`Pipeline._artifact`: the
object the same pipeline published, which is what reading the file back
gives, or else the file, loaded once. A missing file is a
:class:`StageError` naming the stage that writes it.
"""

from __future__ import annotations

import dataclasses
import fcntl
import functools
import hashlib
import json
import os
import time
from collections import Counter, namedtuple
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from . import calibration as calib
from . import corpus as corpus_mod
from . import features as features_mod
from . import gbt, labeling, stats, textproc
from .config import ConfigError, PipelineConfig
from .tsv import StancelabError, read_text, read_tsv

VERSION = f"stancelab {__version__}"

# The stages in run order: each one's name, the files it reads, in the order
# it loads them, and the files it writes. ``run_stage`` calls
# ``_stage_<name>`` with each file of ``reads`` as ``_artifact`` gives it.
Stage = namedtuple("Stage", "name reads writes")
STAGE_TABLE = (
    Stage("ingest", (), ("corpus.jsonl", "volume_weekly.tsv",
                         "terms_by_year.tsv")),
    Stage("label", ("corpus.jsonl",), ("labels.tsv",)),
    Stage("featurize", ("corpus.jsonl",),
          ("matrix_full.txt", "matrix_p0.txt", "matrix_p1.txt")),
    Stage("train", ("labels.tsv", "matrix_full.txt"),
          ("model_stance.txt", "model_train_users.txt", "cv_metrics.tsv")),
    Stage("calibrate", ("labels.tsv", "matrix_full.txt",
                        "model_train_users.txt", "model_stance.txt"),
          ("platt.tsv", "calibration.tsv")),
    Stage("predict", ("matrix_full.txt", "platt.tsv", "model_stance.txt"),
          ("stance_scores.tsv", "stance_distribution.tsv")),
    Stage("importance", ("matrix_full.txt", "model_stance.txt"),
          ("importance_hsd.tsv",)),
    Stage("turnaround", ("matrix_p0.txt", "matrix_p1.txt", "model_stance.txt",
                         "platt.tsv", "labels.tsv"), ("turnaround.tsv",)),
    Stage("regress", ("corpus.jsonl", "labels.tsv", "turnaround.tsv",
                      "matrix_p0.txt"), ("regression.tsv",)),
    Stage("report", ("volume_weekly.tsv", "terms_by_year.tsv",
                     "cv_metrics.tsv", "calibration.tsv",
                     "stance_distribution.tsv", "importance_hsd.tsv",
                     "turnaround.tsv", "regression.tsv"), ("summary.txt",)),
)
STAGES = tuple(stage.name for stage in STAGE_TABLE)
REPORT_FILES = STAGE_TABLE[-1].reads
_WRITER = {name: stage.name for stage in STAGE_TABLE for name in stage.writes}


class StageError(StancelabError):
    pass


# The stage tables that a later stage reads, by file name: the header, the
# parse of one data line's fields (a ValueError names the fault), the key
# that no two lines share (see `read_tsv`) and what the parsed lines make.
_LABELS_HEADER = ("user_id", "attribute", "value", "provenance", "confidence")
_PLATT_HEADER = ("slope", "offset")
_TURNAROUND_HEADER = ("user_id", "p_t0", "p_t1", "delta")


def _label_line(user_id, attribute, value, provenance, confidence):
    label = labeling.Label(value, provenance, float(confidence))
    labeling.LabelSet.check(attribute, label)
    return user_id, attribute, label


def _label_set(lines) -> labeling.LabelSet:
    labels = labeling.LabelSet()
    for line in lines:
        labels.set(*line)
    return labels


def _platt_line(slope, offset) -> calib.PlattModel:
    try:
        return calib.PlattModel(slope=float(slope), offset=float(offset))
    except calib.CalibrationError as exc:  # non-finite values
        raise ValueError(exc) from None


def _one_platt(models: list) -> calib.PlattModel:
    if len(models) != 1:
        raise ValueError(f"{len(models) or 'no'} slope and offset lines")
    return models[0]


def _turnaround_line(user_id, p_t0, p_t1, delta):
    p0, p1, d = float(p_t0), float(p_t1), float(delta)
    # turnaround refuses a p_t0 or p_t1 outside [0, 1], NaN included
    if d != stats.turnaround(p0, p1):
        raise ValueError("delta must be p_t1 - p_t0")
    return user_id, p0, p1, d


_TABLES = {
    "labels.tsv": (_LABELS_HEADER, _label_line,
                   ("(user, attribute)", lambda line: line[:2]), _label_set),
    "platt.tsv": (_PLATT_HEADER, _platt_line, None, _one_platt),
    "turnaround.tsv": (_TURNAROUND_HEADER, _turnaround_line,
                       ("user", lambda line: line[0]), list),
}


def _read_table(path: Path, text: str | None = None):
    """The stage table at ``path``, or what the file holding ``text`` would
    read as; a fault raises :class:`StageError` naming the file and, for a
    fault in one line, the line."""
    header, parse, key, collect = _TABLES[path.name]
    lines = read_tsv(path, len(header), parse, header="\t".join(header),
                     key=key, error=StageError, contents=text)
    try:
        return collect(lines)
    except ValueError as exc:
        raise StageError(f"{path}: {exc}") from None


def _read_users(path: Path, text: str | None = None) -> set[str]:
    """The user ids of ``model_train_users.txt``, one a line, each a user id
    as the corpus takes it, and none twice; or those of the file holding
    ``text``."""
    return set(read_tsv(path, 1, corpus_mod.user_id,
                        key=("user", lambda user: user), error=StageError,
                        contents=text))


# How each stage output that a later stage reads is loaded from its file. An
# entry looks its function up when called, so that a wrapper put on the
# module or class (a tracer's, a test's) sees the call.
_LOADERS: dict[str, Callable[[Path], object]] = {
    "corpus.jsonl": lambda path: corpus_mod.load_corpus(path),
    **dict.fromkeys(("matrix_full.txt", "matrix_p0.txt", "matrix_p1.txt"),
                    lambda path: features_mod.FeatureMatrix.load(path)),
    "model_stance.txt": lambda path: gbt.BoostedModel.load(path),
    "model_train_users.txt": lambda path: _read_users(path),
    **dict.fromkeys(_TABLES, _read_table),
}


# descriptors of the output locks this process holds
_LOCK_FDS: set[int] = set()


def _close_inherited_locks() -> None:
    # a forked child (a training worker) shares the lock with its parent
    # until it closes its copy, and would keep the directory locked if it
    # outlived a killed parent
    for fd in _LOCK_FDS:
        os.close(fd)
    _LOCK_FDS.clear()


os.register_at_fork(after_in_child=_close_inherited_locks)


@contextmanager
def output_lock(out_dir: Path):
    """One pipeline instance per output directory.

    The run holds an exclusive ``flock`` on ``.lock``, which also records its
    pid. The kernel drops the lock when the process exits, however it exits,
    so a killed run never blocks a later one; forked children close their
    copy of the descriptor, so they cannot hold it either. The file stays in
    place: removing it would let a run that had opened it lock a file that is
    no longer the one at the path.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    fd = os.open(out_dir / ".lock", os.O_CREAT | os.O_RDWR)
    _LOCK_FDS.add(fd)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise StageError(f"output directory {out_dir} is locked by "
                             "another run") from None
        os.ftruncate(fd, 0)
        os.write(fd, str(os.getpid()).encode())
        yield
    finally:
        if fd in _LOCK_FDS:  # not closed already by _close_inherited_locks
            _LOCK_FDS.remove(fd)
            os.close(fd)


def _publish(path: Path, write) -> None:
    """``write(tmp)`` a sibling of ``path``, then rename it onto ``path``, so
    that a reader sees either the old file or the whole new one. If
    ``write`` raises, the sibling is removed."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        write(tmp)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _writes(text: str):
    """A ``write`` for :func:`_publish` that writes ``text``."""
    return lambda tmp: tmp.write_text(text, encoding="utf-8")


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Pipeline:
    """Stage runner bound to one config and output directory."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        rules = {k: v for k, v in dataclasses.asdict(config.rules).items() if v}
        for key, path in rules.items():
            if not Path(path).is_file():
                raise ConfigError(f"rules.{key}: no such file: {path}")
        corpus = Path(config.corpus)
        if config.corpus and corpus.exists() and not corpus.is_file():
            raise ConfigError(f"corpus: not a file: {config.corpus}")
        self.out = Path(config.output_dir)
        written = self.out / "corpus.jsonl"
        if config.corpus and corpus.resolve() == written.resolve():
            raise ConfigError(f"corpus: {config.corpus} is the file ingest "
                              f"writes ({written}); choose another output_dir")
        self._manifest = self.out / "manifest.json"
        # the corpus and every rule file, the manual labels among them
        inputs = {"corpus": config.corpus, **rules}
        self._input_digests = {name: _sha256_file(path)
                               for name, path in inputs.items()
                               if path and Path(path).exists()}
        self.digest = config.digest(self._input_digests)
        # the stage outputs held for later stages, by file name
        self._held: dict[str, object] = {}
        self._predicted = (None, None, None)  # see _confidence
        # created only once the config has passed every check above
        self.out.mkdir(parents=True, exist_ok=True)

    # -- manifest ------------------------------------------------------------

    def _load_manifest(self) -> dict:
        path = self._manifest
        if not path.exists():
            return {"stages": {}}
        try:  # a JSON error names the line and column
            manifest = json.loads(read_text(path, StageError))
        except ValueError as exc:
            raise StageError(f"{path}: not JSON: {exc}") from None
        stages = manifest.get("stages") if type(manifest) is dict else None
        if type(stages) is not dict:
            raise StageError(f"{path}: not a JSON object with a stages object")
        for stage, entry in stages.items():
            if type(entry) is not dict:
                raise StageError(f"{path}: stage {stage!r} is not a JSON "
                                 "object")
        return manifest

    def _record(self, stage: str, seconds: float, metrics: dict) -> None:
        """Record ``stage`` as run, and every later stage as not run: their
        outputs were made from what ``stage`` has just replaced."""
        manifest = self._load_manifest()
        manifest.update(version=VERSION, digest=self.digest,
                        config=self.config.snapshot(),
                        inputs=self._input_digests)
        i = STAGES.index(stage)
        for later in STAGES[i + 1:]:
            manifest["stages"].pop(later, None)
        manifest["stages"][stage] = {
            "seconds": round(seconds, 3),
            "digest": self.digest,
            "outputs": list(STAGE_TABLE[i].writes),
            "metrics": metrics,
        }
        _publish(self._manifest, _writes(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"))

    def _is_fresh(self, stage: str) -> bool:
        entry = self._load_manifest()["stages"].get(stage)
        if not entry or entry.get("digest") != self.digest:
            return False
        return all((self.out / f).exists()
                   for f in STAGE_TABLE[STAGES.index(stage)].writes)

    def _report_header(self) -> str:
        return f"# manifest {self.digest}\n"

    def _write_tsv(self, name: str, header, rows, before=(),
                   after=()) -> None:
        """Publish the report or stage table ``name``: the manifest line, the
        ``before`` lines, the header, the rows, then the ``after`` lines
        (``before`` and ``after`` are ``#`` lines, without line ends). A stage
        table is held as what its text reads as."""
        lines = [*before, _tsv_line(header), *map(_tsv_line, rows), *after]
        text = self._report_header() + "".join(line + "\n" for line in lines)
        path = self.out / name
        if name in _TABLES:
            self._put(name, _writes(text), _read_table(path, text))
        else:
            _publish(path, _writes(text))

    # -- stage dispatch ------------------------------------------------------

    def run_stage(self, stage: str, skip_fresh: bool = False) -> bool:
        """Run ``stage`` unless ``skip_fresh`` and it is fresh; True if run.
        Every earlier stage must be recorded as run, so that the recorded
        stages are always the first ones of ``STAGES``."""
        recorded = self._load_manifest()["stages"]
        i = STAGES.index(stage)
        for earlier in STAGES[:i]:
            if earlier not in recorded:
                raise StageError(f"missing stage: {earlier} "
                                 "(not recorded in manifest.json)")
        if skip_fresh and self._is_fresh(stage):
            return False
        started = time.monotonic()
        metrics = getattr(self, f"_stage_{stage}")(
            *map(self._artifact, STAGE_TABLE[i].reads))
        self._record(stage, time.monotonic() - started, metrics or {})
        return True

    def run_all(self, skip_fresh=False, done=lambda stage, ran: None) -> None:
        """Every stage in order, under the output lock; ``done(stage, ran)``
        follows each."""
        with output_lock(self.out):
            for stage in STAGES:
                done(stage, self.run_stage(stage, skip_fresh=skip_fresh))

    # -- stage outputs and shared inputs -------------------------------------

    def _put(self, name: str, write, value) -> None:
        """Publish the stage output ``name`` through ``write(tmp)``; hold
        ``value``, what reading the file back gives, for later stages."""
        _publish(self.out / name, write)
        self._held[name] = value

    def _artifact(self, name: str):
        """The stage output ``name``, as a later stage reads it: the object
        this pipeline published or loaded before, else the file, loaded once
        (see ``_LOADERS``). A file with no loader is its path."""
        if name not in _LOADERS:
            return self._stage_file(name)
        if name not in self._held:
            self._held[name] = _LOADERS[name](self._stage_file(name))
        return self._held[name]

    def _stage_file(self, name: str) -> Path:
        """The path of the stage output ``name``; if there is no such file,
        :class:`StageError` names the stage that writes it."""
        path = self.out / name
        if not path.is_file():
            raise StageError(f"missing stage: {_WRITER[name]} "
                             f"(expected outputs: {name})")
        return path

    @functools.cached_property
    def _ruleset(self) -> labeling.RuleSet:
        """The rule files, parsed once per pipeline."""
        r = self.config.rules
        return labeling.load_ruleset(r.gazetteer, r.names, r.patterns,
                                     r.stance_seeds,
                                     reference_year=self.config.reference_year)

    def _confidence(self, model, full) -> np.ndarray:
        """The confidence of ``model`` for each row of the full matrix
        ``full``: the last result while both are the objects it was
        computed from, so calibrate and predict share one prediction."""
        last_model, last_full, confidence = self._predicted
        if model is not last_model or full is not last_full:
            confidence = gbt.predict_confidence(model, full)
            self._predicted = (model, full, confidence)
        return confidence

    @functools.cached_property
    def _stopwords(self) -> set[str]:
        """The stopword file, read once per pipeline."""
        return textproc.load_stopwords(self.config.rules.stopwords)

    # -- stages --------------------------------------------------------------

    def _stage_ingest(self) -> dict:
        cfg = self.config
        if not cfg.corpus:
            raise StageError("config has no corpus path")
        metrics: dict = {}
        corpus = corpus_mod.load_corpus(cfg.corpus, metrics)

        def dropped(step: str, kept: corpus_mod.Corpus) -> corpus_mod.Corpus:
            metrics[f"posts_{step}"] = corpus.n_posts - kept.n_posts
            metrics[f"users_{step}"] = corpus.n_users - kept.n_users
            return kept

        # the window (the config sets both ends or neither), else the span
        # of the posts read; also the weeks of volume_weekly.tsv
        window = (cfg.time_from, cfg.time_to)
        if cfg.time_from is None:
            window = ((corpus.posts[0].timestamp,
                       corpus.posts[-1].timestamp + 1) if corpus.posts
                      else (0, 0))
        corpus = dropped("outside_time_range",
                         corpus.select(corpus.in_period(*window)))
        relevant = corpus
        if cfg.include_terms:
            relevant = corpus_mod.filter_relevant(corpus, cfg.include_terms,
                                                  cfg.exclude_patterns)
        corpus = dropped("off_topic", relevant)
        graph = corpus_mod.build_interaction_graph(corpus)
        lcc = corpus_mod.largest_connected_component(graph)
        corpus = dropped("outside_lcc", corpus.select(
            [p.author_id in lcc for p in corpus.posts]))
        metrics.update(posts=corpus.n_posts, users=corpus.n_users)
        self._put("corpus.jsonl",
                  lambda tmp: corpus_mod.write_corpus(corpus, tmp), corpus)

        self._write_tsv("volume_weekly.tsv", ["week", "posts"],
                        corpus_mod.weekly_volume(corpus, window))

        # yearly relevant terms: each year against the total less that year
        by_year = corpus.encoding.counts_by_year(self._stopwords)
        total = sum(map(Counter, by_year.values()), Counter())
        rows = []
        for year in sorted(by_year):
            rest = total - Counter(by_year[year])
            if not rest:
                continue
            scores = stats.log_odds_prior(by_year[year], rest,
                                          alpha0=cfg.alpha0)
            top = sorted(scores, key=lambda t: (-abs(t.z), t.term))[:15]
            rows += [(year, t.term, t.delta, t.z) for t in top]
        self._write_tsv("terms_by_year.tsv", ["year", "term", "delta", "z"],
                        rows)
        return metrics

    def _stage_label(self, corpus) -> None:
        labels = labeling.apply_rules(corpus, self._ruleset)
        if self.config.rules.manual_labels:
            labeling.import_manual_labels(labels,
                                          self.config.rules.manual_labels)
        rows = [(user_id, attribute, lab.value, lab.provenance, lab.confidence)
                for user_id in sorted(labels.labels)
                for attribute in labeling.LabelSet.ATTRIBUTES
                if (lab := labels.get(user_id, attribute)) is not None]
        self._write_tsv("labels.tsv", _LABELS_HEADER, rows)

    def _stage_featurize(self, corpus) -> dict:
        cfg = self.config
        encoding, stop = corpus.encoding, self._stopwords
        bio = encoding.term_counts("bio", cfg.thresholds.bio_min_count, stop)
        profile = features_mod.profile_blocks(
            corpus, bio, textproc.Lexicon.from_file(cfg.rules.lexicon))
        metrics = {"texts_encoded": encoding.n_texts,
                   "vocabulary": len(encoding.terms)}
        for name, period in (("full", None), ("p0", cfg.periods[0]),
                             ("p1", cfg.periods[1])):
            posts = None if period is None else corpus.in_period(*period)
            tweet = encoding.term_counts(
                "tweet", cfg.thresholds.tweet_min_count, stop,
                include_retweets=cfg.include_retweets, posts=posts)
            graph = corpus_mod.build_interaction_graph(corpus, posts)
            m = features_mod.build_matrix(
                corpus, tweet, profile, graph, period=period,
                min_in_degree=cfg.min_in_degree)
            self._put(f"matrix_{name}.txt", m.save, m)
            metrics[f"nonzeros_{name}"] = int(m.X.nnz)
        return metrics

    def _train_users(self, labels: labeling.LabelSet) -> list[str]:
        """The stance-labeled users that the classifier is trained on: all
        but a ``calibration_fraction`` of them, drawn with ``rng_seed``.
        Calibrate takes the others, those that ``model_train_users.txt``
        does not hold, so the two sets are disjoint by construction."""
        users = labels.users_with("stance")
        rng = np.random.default_rng(self.config.rng_seed)
        users = [users[i] for i in rng.permutation(len(users))]
        n_cal = int(round(self.config.calibration_fraction * len(users)))
        return sorted(users[n_cal:])

    def _stance_rows(self, users: list[str], matrix, labels
                     ) -> tuple[list[str], list[int], list[int]]:
        """The ``users`` that ``matrix`` has a row for, their row indices and
        their stance labels: 1 for defense, else 0."""
        ridx = matrix.row_index()
        kept = [u for u in users if u in ridx]
        y = [int(labels.get(u, "stance").value == "defense") for u in kept]
        return kept, [ridx[u] for u in kept], y

    def _stage_train(self, labels, full) -> dict:
        matrix = features_mod.drop_columns(full, labeling.leakage_columns(
            self._ruleset, full.columns))
        train_users = self._train_users(labels)
        if not train_users:
            raise StageError("no stance-labeled users to train on")
        kept_users, rows, y = self._stance_rows(train_users, matrix, labels)
        # the model and the CV folds are fit together, in parallel
        report = gbt.cross_validate(matrix.X.take_rows(rows), y,
                                    self.config.boost)
        model = report.model
        model.columns = matrix.column_identifiers()
        self._put("model_stance.txt", model.save, model)
        users = "".join(u + "\n" for u in kept_users)
        path = self.out / "model_train_users.txt"
        self._put(path.name, _writes(users), _read_users(path, users))
        self._write_tsv("cv_metrics.tsv",
                        ["attribute", "k", "precision_mean", "precision_std",
                         "recall_mean", "recall_std"],
                        [("stance", report.k, report.precision_mean,
                          report.precision_std, report.recall_mean,
                          report.recall_std)])
        return {"fits": report.fits, "workers": report.workers}

    def _stage_calibrate(self, labels, full, train_users, model) -> None:
        # train users without a matrix row, not in that file, have none here
        calib_users, rows, y = self._stance_rows(
            [u for u in labels.users_with("stance") if u not in train_users],
            full, labels)
        if len(calib_users) < calib.MIN_PAIRS:
            raise StageError(f"calibration set too small "
                             f"(<{calib.MIN_PAIRS} labeled users)")
        c = self._confidence(model, full)[rows]
        platt = calib.fit_platt(c, y)
        self._write_tsv("platt.tsv", _PLATT_HEADER,
                        [(platt.slope, platt.offset)])
        probs = calib.calibrate_many(platt, c)
        self._write_tsv(
            "calibration.tsv",
            ("mean_confidence", "empirical_rate", "count"),
            calib.calibration_table(probs, y),
            before=[f"# platt slope={platt.slope!r} offset={platt.offset!r}"])

    def _stage_predict(self, full, platt, model) -> None:
        scores = calib.score_users(platt, full.rows,
                                   self._confidence(model, full))
        self._write_tsv("stance_scores.tsv",
                        ["user_id", "raw_confidence", "probability", "band"],
                        [(s.user_id, s.raw_confidence, s.probability, s.band)
                         for s in scores])
        counts = Counter(s.band for s in scores)
        total = max(len(scores), 1)
        self._write_tsv("stance_distribution.tsv",
                        ["band", "users", "share"],
                        [(b, counts[b], counts[b] / total) for b in (
                            calib.BAND_OPPOSITION, calib.BAND_UNDISCLOSED,
                            calib.BAND_DEFENSE)])

    def _stage_importance(self, full, model) -> None:
        # the model's columns are the full matrix's without the leakage
        # columns that train dropped
        col_by_id = {c.identifier: c for c in full.columns}
        try:
            pairs = [(col_by_id[ident], gain)
                     for ident, gain in gbt.feature_importance(model)]
        except KeyError as exc:
            raise StageError(f"{self.out / 'matrix_full.txt'} lacks column "
                             f"{exc.args[0]!r} of "
                             f"{self.out / 'model_stance.txt'}") from None
        try:
            comparisons = stats.group_importance_test(pairs)
            hsd = [("group_a", "group_b", "mean_diff", "q", "p_adjusted",
                    "significant_at_05")]
            hsd += [(c.group_a, c.group_b, c.mean_diff, c.q_statistic,
                     c.p_adjusted, c.significant_at_05) for c in comparisons]
            after = ["#hsd " + _tsv_line(row) for row in hsd]
        except stats.StatsError as exc:
            after = [f"#hsd skipped: {exc}"]
        self._write_tsv("importance_hsd.tsv",
                        ("column", "feature_type", "total_gain"),
                        [(col.identifier, col.feature_type, gain)
                         for col, gain in pairs], after=after)

    def _stage_turnaround(self, p0, p1, model, platt, labels) -> None:
        # demographics come from labels.tsv (rule and manual labels only), so
        # that the selection is reproducible from that file; both matrices
        # have a row per corpus user
        if set(p0.rows) != set(p1.rows):
            raise StageError(f"{self.out / 'matrix_p0.txt'} and "
                             f"{self.out / 'matrix_p1.txt'} have different rows")
        users = [u for u in sorted(p0.rows)
                 if labels.get(u, "gender") and labels.get(u, "age_cohort")]
        if not users:
            raise StageError(f"no users with known gender and age among the "
                             f"{len(p0.rows)} matrix rows")

        def calibrated(m):  # a row's prediction ignores the other rows
            ridx = m.row_index()
            return calib.calibrate_many(platt, gbt.predict_confidence(
                model, m)[[ridx[u] for u in users]]).tolist()
        self._write_tsv("turnaround.tsv", _TURNAROUND_HEADER, [
            (u, a, b, stats.turnaround(a, b))
            for u, a, b in zip(users, calibrated(p0), calibrated(p1))])

    def _stage_regress(self, corpus, labels, turn, first) -> None:
        if not turn:
            raise StageError("turnaround table is empty")
        defense = _users_with(first, features_mod.DEFENSE_EMOJI)
        opposition = _users_with(first, features_mod.OPPOSITION_EMOJI)

        records, response = [], []
        # account ages count from the start of matrix_p0.txt's period
        if first.period is None:
            raise StageError(f"{self.out / 'matrix_p0.txt'} has no #period "
                             "line")
        t0_start = first.period[0]
        for u, p0, _p1, delta in turn:
            prof = corpus.users.get(u)
            if prof is None:
                raise StageError(f"turnaround user {u!r} is not in "
                                 f"{self.out / 'corpus.jsonl'}")
            gender, age = labels.get(u, "gender"), labels.get(u, "age_cohort")
            if not (gender and age):
                raise StageError(f"turnaround user {u!r} has no gender or "
                                 f"age_cohort in {self.out / 'labels.tsv'}")
            age_days = max((t0_start - prof.account_created) / 86400.0, 0.0)
            location = labels.get(u, "location")
            rec = {
                "gender": gender.value,
                "age_cohort": age.value,
                "country": location.value if location else "unknown",
                "followers": prof.n_followers,
                "friends": prof.n_friends,
                "activity_ratio": prof.n_posts / age_days if age_days else 0.0,
                "account_age_years": age_days / 365.25,
                "stance_t0": calib.stance_band(p0),
                "uses_defense_emoji": float(u in defense),
                "uses_opposition_emoji": float(u in opposition),
            }
            records.append(rec)
            response.append(delta)

        covariates = [stats.Covariate(name, kind) for name, kind in (
            ("gender", "categorical"), ("age_cohort", "categorical"),
            ("country", "categorical"), ("followers", "count"),
            ("friends", "count"), ("activity_ratio", "count"),
            ("account_age_years", "numeric"), ("stance_t0", "categorical"),
            ("uses_defense_emoji", "numeric"),
            ("uses_opposition_emoji", "numeric"))]
        covariates, dropped = stats.drop_collinear(records, covariates)
        result = stats.ols_regress(records, response, covariates)
        before = [f"# n={result.n} adjusted_r2={_fmt(result.adjusted_r2)} "
                  f"mse={_fmt(result.mse)} f={_fmt(result.f_statistic)} "
                  f"f_p={_fmt(result.f_pvalue)} "
                  f"loglik={_fmt(result.log_likelihood)}"]
        before += [f"# reference {cov}={ref}"
                   for cov, ref in sorted(result.dummy_map.items())]
        before += [f"# dropped collinear covariate {name}" for name in dropped]
        self._write_tsv("regression.tsv",
                        ("coefficient", "estimate", "stderr", "ci_low",
                         "ci_high"), result.to_rows(), before=before)

    def _stage_report(self, *_checked) -> None:
        # run_stage has found each report file, and read turnaround.tsv
        lines = [self._report_header(), f"{VERSION}\n",
                 f"output directory: {self.out}\n", "report files:\n",
                 *(f"  {name}\n" for name in REPORT_FILES)]
        _publish(self.out / "summary.txt", _writes("".join(lines)))


def _fmt(v) -> str:
    # a numpy float is a float whose repr names its type
    return repr(float(v)) if isinstance(v, float) else str(v)


def _tsv_line(row) -> str:
    return "\t".join(_fmt(v) for v in row)


def _users_with(matrix: features_mod.FeatureMatrix, ident: str) -> set[str]:
    """The users with a stored cell in column ``ident`` (none if absent)."""
    j = matrix.column_index().get(ident)
    if j is None:
        return set()
    return {matrix.rows[i]
            for i in matrix.X.take_columns([j]).tocoo().row.tolist()}
