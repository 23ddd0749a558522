"""File-mediated pipeline stages.

Every stage reads artifacts from earlier stages out of the output directory
and writes its own atomically, appending an entry to ``manifest.json``. Report
files start with a ``# manifest <digest>`` line tying them to the config and
inputs that produced them.
"""

from __future__ import annotations

import fcntl
import functools
import hashlib
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

import numpy as np

from . import calibration as calib
from . import corpus as corpus_mod
from . import features as features_mod
from . import gbt, labeling, stats, textproc
from .config import PipelineConfig

VERSION = "stancelab 0.1.0"

STAGES = ("ingest", "label", "featurize", "train", "calibrate", "predict",
          "importance", "turnaround", "regress", "report")

REPORT_FILES = ("volume_weekly.tsv", "terms_by_year.tsv", "cv_metrics.tsv",
                "calibration.tsv", "stance_distribution.tsv",
                "importance_hsd.tsv", "turnaround.tsv", "regression.tsv")

_STAGE_OUTPUTS = {
    "ingest": ("corpus.jsonl", "volume_weekly.tsv", "terms_by_year.tsv"),
    "label": ("labels.tsv",),
    "featurize": ("matrix_full.txt", "matrix_p0.txt", "matrix_p1.txt"),
    "train": ("model_stance.txt", "model_train_users.txt", "cv_metrics.tsv"),
    "calibrate": ("platt.tsv", "calibration.tsv"),
    "predict": ("stance_scores.tsv", "stance_distribution.tsv"),
    "importance": ("importance_hsd.tsv",),
    "turnaround": ("turnaround.tsv",),
    "regress": ("regression.tsv",),
    "report": ("summary.txt",),
}

_STAGE_NEEDS = {
    "ingest": (),
    "label": ("ingest",),
    "featurize": ("ingest",),
    "train": ("label", "featurize"),
    "calibrate": ("train",),
    "predict": ("calibrate",),
    "importance": ("train",),
    "turnaround": ("predict",),
    "regress": ("turnaround",),
    "report": ("ingest", "train", "calibrate", "predict", "importance",
               "turnaround", "regress"),
}


class StageError(Exception):
    pass


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


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


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
        self.out = Path(config.output_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self._input_digests = {}
        if config.corpus and Path(config.corpus).exists():
            self._input_digests["corpus"] = _sha256_file(config.corpus)
        for name in ("gazetteer", "names", "patterns", "stance_seeds",
                     "stopwords", "lexicon"):
            path = getattr(config.rules, name)
            if path and Path(path).exists():
                self._input_digests[name] = _sha256_file(path)
        self.digest = config.digest(self._input_digests)

    # -- manifest ------------------------------------------------------------

    def _manifest_path(self) -> Path:
        return self.out / "manifest.json"

    def _load_manifest(self) -> dict:
        path = self._manifest_path()
        if path.exists():
            return json.loads(path.read_text(encoding="utf-8"))
        return {"version": VERSION, "digest": self.digest,
                "config": self.config.snapshot(),
                "inputs": self._input_digests, "stages": {}}

    def _record(self, stage: str, seconds: float, metrics: dict) -> None:
        manifest = self._load_manifest()
        manifest["digest"] = self.digest
        manifest["config"] = self.config.snapshot()
        manifest["inputs"] = self._input_digests
        manifest["stages"][stage] = {
            "seconds": round(seconds, 3),
            "digest": self.digest,
            "outputs": list(_STAGE_OUTPUTS[stage]),
            "metrics": metrics,
        }
        _atomic_write(self._manifest_path(),
                      json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    def _is_fresh(self, stage: str) -> bool:
        manifest = self._load_manifest()
        entry = manifest["stages"].get(stage)
        if not entry or entry.get("digest") != self.digest:
            return False
        return all((self.out / f).exists() for f in _STAGE_OUTPUTS[stage])

    def _require(self, stage: str) -> None:
        for dep in _STAGE_NEEDS[stage]:
            missing = [f for f in _STAGE_OUTPUTS[dep]
                       if not (self.out / f).exists()]
            if missing:
                raise StageError(f"missing stage: {dep} "
                                 f"(expected outputs: {', '.join(missing)})")

    def _report_header(self) -> str:
        return f"# manifest {self.digest}\n"

    def _write_tsv(self, name: str, header: list[str],
                   rows: list[tuple]) -> None:
        lines = [self._report_header(), "\t".join(header) + "\n"]
        for row in rows:
            lines.append("\t".join(_fmt(v) for v in row) + "\n")
        _atomic_write(self.out / name, "".join(lines))

    # -- stage dispatch ------------------------------------------------------

    def run_stage(self, stage: str, skip_fresh: bool = False) -> None:
        if stage not in STAGES:
            raise StageError(f"unknown stage {stage!r}")
        self._require(stage)
        if skip_fresh and self._is_fresh(stage):
            return
        started = time.monotonic()
        metrics = getattr(self, f"_stage_{stage}")()
        self._record(stage, time.monotonic() - started, metrics or {})

    def run_all(self, skip_fresh: bool = False) -> None:
        with output_lock(self.out):
            for stage in STAGES:
                self.run_stage(stage, skip_fresh=skip_fresh)

    # -- shared loaders ------------------------------------------------------

    @functools.cached_property
    def _ruleset(self) -> labeling.RuleSet:
        """The rule files, parsed once per pipeline."""
        r = self.config.rules
        return labeling.load_ruleset(r.gazetteer, r.names, r.patterns,
                                     r.stance_seeds,
                                     reference_year=self.config.reference_year)

    def _corpus(self) -> corpus_mod.Corpus:
        return corpus_mod.load_corpus(self.out / "corpus.jsonl")

    def _stopwords(self) -> set[str]:
        return textproc.load_stopwords(self.config.rules.stopwords)

    def _labels(self) -> labeling.LabelSet:
        out = labeling.LabelSet()
        with open(self.out / "labels.tsv", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("#") or line.startswith("user_id\t"):
                    continue
                user_id, attribute, value, prov, conf = line.rstrip("\n").split("\t")
                out.set(user_id, attribute,
                        labeling.Label(value, prov, float(conf)))
        return out

    def _matrix(self, name: str) -> features_mod.FeatureMatrix:
        """Load ``matrix_<name>.txt`` (full, p0 or p1)."""
        return features_mod.FeatureMatrix.load(self.out / f"matrix_{name}.txt")

    def _build_matrix_for(self, corpus: corpus_mod.Corpus,
                          period: Optional[tuple[int, int]]
                          ) -> features_mod.FeatureMatrix:
        cfg = self.config
        stop = self._stopwords()
        sub = corpus if period is None else corpus.restrict_period(*period)
        tweet_counts = textproc.term_counts(
            sub, "tweet", cfg.thresholds.tweet_min_count, stop,
            include_retweets=cfg.include_retweets)
        bio_counts = textproc.term_counts(
            sub, "bio", cfg.thresholds.bio_min_count, stop)
        lex = textproc.Lexicon.from_file(cfg.rules.lexicon)
        lex_counts = textproc.lexicon_counts(textproc.bio_tokens(sub), lex)
        graph = corpus_mod.build_interaction_graph(sub)
        return features_mod.build_matrix(sub, tweet_counts, bio_counts,
                                         lex_counts, graph, period=period,
                                         min_in_degree=cfg.min_in_degree)

    # -- stages --------------------------------------------------------------

    def _stage_ingest(self) -> None:
        cfg = self.config
        if not cfg.corpus:
            raise StageError("config has no corpus path")
        time_range = None
        if cfg.time_from is not None and cfg.time_to is not None:
            time_range = (cfg.time_from, cfg.time_to)
        corpus = corpus_mod.load_corpus(cfg.corpus, time_range)
        if cfg.include_terms:
            corpus = corpus_mod.filter_relevant(corpus, cfg.include_terms,
                                                cfg.exclude_patterns)
        graph = corpus_mod.build_interaction_graph(corpus)
        lcc = corpus_mod.largest_connected_component(graph)
        if lcc:
            corpus = corpus_mod.restrict_users(corpus, lcc)
        tmp = self.out / "corpus.jsonl.tmp"
        corpus_mod.write_corpus(corpus, tmp)
        os.replace(tmp, self.out / "corpus.jsonl")

        self._write_tsv("volume_weekly.tsv", ["week", "posts"],
                        corpus_mod.weekly_volume(corpus))

        # yearly relevant terms: each year against all the others
        stop = self._stopwords()
        by_year: dict[int, dict[str, int]] = {}
        from datetime import datetime, timezone
        for p in corpus.posts:
            year = datetime.fromtimestamp(p.timestamp, tz=timezone.utc).year
            counts = by_year.setdefault(year, {})
            for tok in textproc.tokenize(p.text):
                if tok.kind == "word" and tok.surface in stop:
                    continue
                counts[tok.surface] = counts.get(tok.surface, 0) + 1
        rows = []
        for year in sorted(by_year):
            rest: dict[str, int] = {}
            for other, counts in by_year.items():
                if other == year:
                    continue
                for term, c in counts.items():
                    rest[term] = rest.get(term, 0) + c
            if not rest:
                continue
            scores = stats.log_odds_prior(by_year[year], rest,
                                          alpha0=cfg.alpha0)
            top = sorted(scores, key=lambda t: (-abs(t.z), t.term))[:15]
            for t in top:
                rows.append((year, t.term, t.delta, t.z))
        self._write_tsv("terms_by_year.tsv", ["year", "term", "delta", "z"],
                        rows)

    def _stage_label(self) -> None:
        corpus = self._corpus()
        rules = self._ruleset
        labels = labeling.apply_rules(corpus, rules)
        if self.config.rules.manual_labels:
            labeling.import_manual_labels(labels,
                                          self.config.rules.manual_labels)
        rows = []
        for user_id in sorted(labels.labels):
            for attribute in labeling.LabelSet.ATTRIBUTES:
                lab = labels.get(user_id, attribute)
                if lab is not None:
                    rows.append((user_id, attribute, lab.value,
                                 lab.provenance, lab.confidence))
        self._write_tsv("labels.tsv",
                        ["user_id", "attribute", "value", "provenance",
                         "confidence"], rows)

    def _stage_featurize(self) -> None:
        corpus = self._corpus()
        full = self._build_matrix_for(corpus, None)
        p0 = self._build_matrix_for(corpus, self.config.periods[0])
        p1 = self._build_matrix_for(corpus, self.config.periods[1])
        for name, m in (("matrix_full.txt", full), ("matrix_p0.txt", p0),
                        ("matrix_p1.txt", p1)):
            tmp = self.out / (name + ".tmp")
            m.save(tmp)
            os.replace(tmp, self.out / name)

    def _split_stance_labels(self, labels: labeling.LabelSet
                             ) -> tuple[list[str], list[str]]:
        """Deterministic split of stance-labeled users into classifier
        training and calibration sets (disjoint by construction)."""
        users = labels.users_with("stance")
        rng = np.random.default_rng(self.config.rng_seed)
        users = [users[i] for i in rng.permutation(len(users))]
        n_cal = int(round(self.config.calibration_fraction * len(users)))
        calib_users = sorted(users[:n_cal])
        train_users = sorted(users[n_cal:])
        return train_users, calib_users

    def _leakage_dropped(self, matrix: features_mod.FeatureMatrix
                         ) -> features_mod.FeatureMatrix:
        rules = self._ruleset
        leaks = labeling.leakage_columns(rules, matrix.column_identifiers())
        return features_mod.drop_columns(matrix, leaks)

    def _stage_train(self) -> dict:
        labels = self._labels()
        matrix = self._leakage_dropped(self._matrix("full"))
        train_users, _calib_users = self._split_stance_labels(labels)
        if not train_users:
            raise StageError("no stance-labeled users to train on")
        ridx = matrix.row_index()
        rows = [ridx[u] for u in train_users if u in ridx]
        kept_users = [u for u in train_users if u in ridx]
        X = matrix.X[rows]
        y = [1 if labels.get(u, "stance").value == "defense" else 0
             for u in kept_users]
        # the model and the CV folds are fit together, in parallel
        report = gbt.cross_validate(X, y, self.config.boost, k=5)
        model = report.model
        model.columns = matrix.column_identifiers()
        tmp = self.out / "model_stance.txt.tmp"
        model.save(tmp)
        os.replace(tmp, self.out / "model_stance.txt")
        _atomic_write(self.out / "model_train_users.txt",
                      "".join(u + "\n" for u in kept_users))
        self._write_tsv("cv_metrics.tsv",
                        ["attribute", "k", "precision_mean", "precision_std",
                         "recall_mean", "recall_std"],
                        [("stance", report.k, report.precision_mean,
                          report.precision_std, report.recall_mean,
                          report.recall_std)])
        return {"fits": report.fits, "workers": report.workers}

    def _stage_calibrate(self) -> None:
        labels = self._labels()
        full = self._matrix("full")
        model = gbt.BoostedModel.load(self.out / "model_stance.txt")
        train_users = set((self.out / "model_train_users.txt")
                          .read_text(encoding="utf-8").split())
        _train, calib_users = self._split_stance_labels(labels)
        ridx = full.row_index()
        calib_users = [u for u in calib_users if u in ridx]
        if len(calib_users) < 10:
            raise StageError("calibration set too small (<10 labeled users)")
        conf = gbt.predict_confidence(model, full)
        c = [float(conf[ridx[u]]) for u in calib_users]
        y = [1 if labels.get(u, "stance").value == "defense" else 0
             for u in calib_users]
        platt = calib.fit_platt(c, y, user_ids=calib_users,
                                training_user_ids=train_users)
        self._write_tsv("platt.tsv", ["slope", "offset"],
                        [(platt.slope, platt.offset)])
        probs = calib.calibrate_many(platt, c)
        rows = calib.calibration_table(probs, y)
        table = [(mean_c, emp, cnt) for (mean_c, emp, cnt) in rows]
        header = ["mean_confidence", "empirical_rate", "count"]
        lines = [self._report_header(),
                 f"# platt slope={platt.slope!r} offset={platt.offset!r}\n",
                 "\t".join(header) + "\n"]
        for row in table:
            lines.append("\t".join(_fmt(v) for v in row) + "\n")
        _atomic_write(self.out / "calibration.tsv", "".join(lines))

    def _load_platt(self) -> calib.PlattModel:
        with open(self.out / "platt.tsv", encoding="utf-8") as fh:
            rows = [l for l in fh if not l.startswith("#")
                    and not l.startswith("slope")]
        slope, offset = rows[0].split("\t")
        return calib.PlattModel(slope=float(slope), offset=float(offset))

    def _stage_predict(self) -> None:
        full = self._matrix("full")
        model = gbt.BoostedModel.load(self.out / "model_stance.txt")
        platt = self._load_platt()
        conf = gbt.predict_confidence(model, full)
        scores = calib.score_users(platt, list(full.rows), conf)
        self._write_tsv("stance_scores.tsv",
                        ["user_id", "raw_confidence", "probability", "band"],
                        [(s.user_id, s.raw_confidence, s.probability, s.band)
                         for s in scores])
        counts = {b: 0 for b in (calib.BAND_OPPOSITION, calib.BAND_UNDISCLOSED,
                                 calib.BAND_DEFENSE)}
        for s in scores:
            counts[s.band] += 1
        total = max(len(scores), 1)
        self._write_tsv("stance_distribution.tsv",
                        ["band", "users", "share"],
                        [(b, c, c / total) for b, c in counts.items()])

    def _stage_importance(self) -> None:
        matrix = self._leakage_dropped(self._matrix("full"))
        model = gbt.BoostedModel.load(self.out / "model_stance.txt")
        ranked = gbt.feature_importance(model)
        col_by_id = {c.identifier: c for c in matrix.columns}
        pairs = [(col_by_id[ident], gain) for ident, gain in ranked
                 if ident in col_by_id]
        lines = [self._report_header(),
                 "column\tfeature_type\ttotal_gain\n"]
        for col, gain in pairs:
            lines.append(f"{col.identifier}\t{col.feature_type}\t{_fmt(gain)}\n")
        try:
            comparisons = stats.group_importance_test(pairs)
            lines.append("#hsd group_a\tgroup_b\tmean_diff\tq\tp_adjusted"
                         "\tsignificant_at_05\n")
            for c in comparisons:
                lines.append(f"#hsd {c.group_a}\t{c.group_b}"
                             f"\t{_fmt(c.mean_diff)}\t{_fmt(c.q_statistic)}"
                             f"\t{_fmt(c.p_adjusted)}\t{c.significant_at_05}\n")
        except stats.StatsError as exc:
            lines.append(f"#hsd skipped: {exc}\n")
        _atomic_write(self.out / "importance_hsd.tsv", "".join(lines))

    def _accepted_demographics(self) -> dict[str, dict[str, str]]:
        """gender/location/age per user: rule or manual labels only.

        Predicted demographic attributes flow through the library API
        (train/accept_by_threshold); the file pipeline keeps the high-trust
        labels so downstream selection is reproducible from labels.tsv alone.
        """
        labels = self._labels()
        out: dict[str, dict[str, str]] = {}
        for user_id, attrs in labels.labels.items():
            for attribute, lab in attrs.items():
                if attribute in ("gender", "age_cohort", "location"):
                    out.setdefault(user_id, {})[attribute] = lab.value
        return out

    def _stage_turnaround(self) -> None:
        p0, p1 = self._matrix("p0"), self._matrix("p1")
        model = gbt.BoostedModel.load(self.out / "model_stance.txt")
        platt = self._load_platt()
        demo = self._accepted_demographics()
        a, b = features_mod.align_rows(p0, p1)
        users = [u for u in a.rows
                 if "gender" in demo.get(u, {}) and "age_cohort" in demo.get(u, {})]
        if not users:
            raise StageError(
                f"no users overlap both periods with known gender and age "
                f"(period intersection: {len(a.rows)} users)")
        ridx = a.row_index()
        rows = [ridx[u] for u in users]
        conf0 = gbt.predict_confidence(model, a)
        conf1 = gbt.predict_confidence(model, b)
        out_rows = []
        for u, i in zip(users, rows):
            prob0 = calib.calibrate(platt, float(conf0[i]))
            prob1 = calib.calibrate(platt, float(conf1[i]))
            out_rows.append((u, prob0, prob1, stats.turnaround(prob0, prob1)))
        self._write_tsv("turnaround.tsv",
                        ["user_id", "p_t0", "p_t1", "delta"], out_rows)

    def _read_turnaround(self) -> list[tuple[str, float, float, float]]:
        rows = []
        with open(self.out / "turnaround.tsv", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("#") or line.startswith("user_id"):
                    continue
                u, p0, p1, d = line.rstrip("\n").split("\t")
                rows.append((u, float(p0), float(p1), float(d)))
        return rows

    def _stage_regress(self) -> None:
        corpus = self._corpus()
        demo = self._accepted_demographics()
        turn = self._read_turnaround()
        if not turn:
            raise StageError("turnaround table is empty")
        emoji_usage = _emoji_usage(self._matrix("p0"))
        platt_band = {u: calib.stance_band(p0) for u, p0, _p1v, _d in turn}

        records, response = [], []
        t0_start = self.config.periods[0][0]
        for u, _p0v, _p1v, delta in turn:
            prof = corpus.users.get(u)
            if prof is None:
                continue
            age_days = max((t0_start - prof.account_created) / 86400.0, 0.0)
            rec = {
                "gender": demo[u]["gender"],
                "age_cohort": demo[u]["age_cohort"],
                "country": demo.get(u, {}).get("location", "unknown"),
                "followers": prof.n_followers,
                "friends": prof.n_friends,
                "activity_ratio": prof.n_posts / age_days if age_days else 0.0,
                "account_age_years": age_days / 365.25,
                "stance_t0": platt_band[u],
                "uses_defense_emoji": emoji_usage.get(u, (0.0, 0.0))[0],
                "uses_opposition_emoji": emoji_usage.get(u, (0.0, 0.0))[1],
            }
            records.append(rec)
            response.append(delta)

        covariates = [
            stats.Covariate("gender", "categorical"),
            stats.Covariate("age_cohort", "categorical"),
            stats.Covariate("country", "categorical"),
            stats.Covariate("followers", "count"),
            stats.Covariate("friends", "count"),
            stats.Covariate("activity_ratio", "count"),
            stats.Covariate("account_age_years", "numeric"),
            stats.Covariate("stance_t0", "categorical"),
            stats.Covariate("uses_defense_emoji", "numeric"),
            stats.Covariate("uses_opposition_emoji", "numeric"),
        ]
        covariates = _drop_constant(records, covariates)
        covariates, dropped = _drop_collinear(records, covariates)
        result = stats.ols_regress(records, response, covariates)
        lines = [self._report_header(),
                 f"# n={result.n} adjusted_r2={_fmt(result.adjusted_r2)} "
                 f"mse={_fmt(result.mse)} f={_fmt(result.f_statistic)} "
                 f"f_p={_fmt(result.f_pvalue)} "
                 f"loglik={_fmt(result.log_likelihood)}\n"]
        for cov, ref in sorted(result.dummy_map.items()):
            lines.append(f"# reference {cov}={ref}\n")
        for name in dropped:
            lines.append(f"# dropped collinear covariate {name}\n")
        lines.append("coefficient\testimate\tstderr\tci_low\tci_high\n")
        for name, est, se, lo, hi in result.to_rows():
            lines.append(f"{name}\t{_fmt(est)}\t{_fmt(se)}\t{_fmt(lo)}"
                         f"\t{_fmt(hi)}\n")
        _atomic_write(self.out / "regression.tsv", "".join(lines))

    def _stage_report(self) -> None:
        missing = [f for f in REPORT_FILES if not (self.out / f).exists()]
        if missing:
            raise StageError(f"missing report inputs: {', '.join(missing)}")
        lines = [self._report_header(), f"{VERSION}\n",
                 f"output directory: {self.out}\n", "report files:\n"]
        for f in REPORT_FILES:
            lines.append(f"  {f}\n")
        _atomic_write(self.out / "summary.txt", "".join(lines))


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emoji_usage(p0_matrix) -> dict[str, tuple[float, float]]:
    """Per-user (green, blue) heart usage flags in the first period."""
    cidx = p0_matrix.column_index()
    out: dict[str, tuple[float, float]] = {}
    for ident, slot in ((features_mod.DEFENSE_EMOJI, 0),
                        (features_mod.OPPOSITION_EMOJI, 1)):
        j = cidx.get(ident)
        if j is None:
            continue
        for i in p0_matrix.X[:, [j]].nonzero()[0]:
            u = p0_matrix.rows[i]
            flags = list(out.get(u, (0.0, 0.0)))
            flags[slot] = 1.0
            out[u] = tuple(flags)
    return out


def _owns(cov, design_name) -> bool:
    if cov.kind == "categorical":
        return design_name.startswith(cov.name + "[")
    if cov.kind == "count":
        return design_name == f"log1p_{cov.name}"
    return design_name == cov.name


def _drop_collinear(records, covariates):
    """Prune covariates until the design matrix has full rank.

    Exact linear dependence does occur in practice (an indicator that
    coincides with a stance band on the accepted subsample, say); later
    covariates are sacrificed so the core demographics stay in the model.
    Returns (kept covariates, dropped design-column names).
    """
    covs = list(covariates)
    dropped: list[str] = []
    while covs:
        X, names, _ = stats._design_matrix(records, covs)
        diag = np.abs(np.diag(np.linalg.qr(X, mode="r")))
        tol = max(X.shape) * np.finfo(float).eps * (diag.max() if diag.size else 0.0)
        bad = [names[i] for i in range(len(names)) if diag[i] <= tol]
        if not bad:
            break
        name = bad[-1]
        owner = next(c for c in covs if _owns(c, name))
        covs.remove(owner)
        dropped.append(name)
    return covs, dropped


def _drop_constant(records, covariates):
    """Remove covariates with a single observed level/value (they would be
    collinear with the intercept)."""
    kept = []
    for cov in covariates:
        values = {str(r[cov.name]) for r in records}
        if len(values) > 1:
            kept.append(cov)
    return kept
