"""Output checks for the benchmark, computed apart from stancelab.

Every check reads the files a command wrote with its own small parser and
compares them with a value recomputed here from the inputs, or with a property
the method must have. None of them compares against a stored copy of earlier
output. A check returns nothing when it holds and raises `CheckFailed`
naming the file and the first difference otherwise.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

# the pipeline's report files (stancelab.pipeline.REPORT_FILES); summary.txt
# is left out because it names the output directory
REPORT_FILES = ("volume_weekly.tsv", "terms_by_year.tsv", "cv_metrics.tsv",
                "calibration.tsv", "stance_distribution.tsv",
                "importance_hsd.tsv", "turnaround.tsv", "regression.tsv")

# planted signal columns of stancelab.synth: the two hearts and sig00..sigNN
SIGNAL_EMOJI = ("\U0001F49A", "\U0001F499")
BAND_LOWER, BAND_UPPER = 0.4, 0.6


class CheckFailed(Exception):
    pass


# -- readers -----------------------------------------------------------------

def read_corpus(path) -> tuple[list[dict], set[str]]:
    """Posts of a line-delimited corpus file and the set of their authors."""
    posts = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                posts.append(json.loads(line))
    return posts, {p["author_id"] for p in posts}


def read_tsv(path) -> list[list[str]]:
    """Data rows of a report TSV: comment lines and the header are skipped."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        lines = [l.rstrip("\n") for l in fh if not l.startswith("#")]
    for line in lines[1:]:
        rows.append(line.split("\t"))
    return rows


def read_matrix(path):
    """(row ids, [(identifier, block)], {(i, j): value}) of a matrix file."""
    rows, cols, cells = [], [], {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split(" ")
            if parts[0] == "#row":
                rows.append(parts[2])
            elif parts[0] == "#col":
                cols.append((" ".join(parts[2:-2]), parts[-2]))
            elif not parts[0].startswith("#"):
                cells[(int(parts[0]), int(parts[1]))] = float(parts[2])
    return rows, cols, cells


def read_stopwords(path) -> set[str]:
    with open(path, encoding="utf-8") as fh:
        return {l.strip().lower() for l in fh
                if l.strip() and not l.startswith("#")}


# -- run checks --------------------------------------------------------------

def check_tweet_terms(corpus_path, matrix_path, stopwords_path,
                      min_count: int) -> int:
    """The `tweet_term` block equals per-user counts of the whitespace-split
    post texts, less stopwords and terms seen fewer than `min_count` times.

    Synthetic posts are lowercase words and single emoji separated by single
    spaces, so the split is exactly the tokenizer's output on them. Returns
    the number of cells compared.
    """
    posts, _authors = read_corpus(corpus_path)
    stop = read_stopwords(stopwords_path)
    counts: Counter = Counter()
    for p in posts:
        for tok in p["text"].split():
            if tok not in stop:
                counts[(p["author_id"], tok)] += 1
    totals: Counter = Counter()
    for (_u, tok), c in counts.items():
        totals[tok] += c
    expected = {key: float(c) for key, c in counts.items()
                if totals[key[1]] >= min_count}

    rows, cols, cells = read_matrix(matrix_path)
    got = {(rows[i], cols[j][0]): v for (i, j), v in cells.items()
           if cols[j][1] == "tweet_term"}
    want_cols = {tok for (_u, tok) in expected}
    have_cols = {ident for ident, block in cols if block == "tweet_term"}
    if want_cols != have_cols:
        diff = sorted(want_cols ^ have_cols)[:3]
        raise CheckFailed(f"{matrix_path}: tweet_term columns differ from "
                          f"the recount, e.g. {diff}")
    if got != expected:
        key = sorted(set(got) ^ set(expected)
                     or {k for k in got if got[k] != expected[k]})[0]
        raise CheckFailed(f"{matrix_path}: tweet_term cell {key} is "
                          f"{got.get(key)}, recount gives {expected.get(key)}")
    return len(expected)


def _band(p: float) -> str:
    if p < BAND_LOWER:
        return "opposition"
    if p < BAND_UPPER:
        return "undisclosed"
    return "defense"


def check_bands(scores_path, planted: dict[str, str],
                min_share: float) -> float:
    """Each band follows from its probability, and at least `min_share` of
    the scored users sit in the band of their planted stance. Returns the
    share."""
    rows = read_tsv(scores_path)
    if not rows:
        raise CheckFailed(f"{scores_path}: no scored users")
    hits = 0
    for user, _conf, prob, band in rows:
        p = float(prob)
        if not 0.0 < p < 1.0 or band != _band(p):
            raise CheckFailed(f"{scores_path}: {user} has probability {prob} "
                              f"but band {band}")
        hits += band == planted[user]
    share = hits / len(rows)
    if share < min_share:
        raise CheckFailed(f"{scores_path}: only {share:.4f} of users in their "
                          f"planted band (bound {min_share})")
    return share


def _mentions_term(text: str, term: str) -> bool:
    return any(tok.casefold().lstrip("#") == term for tok in text.split())


def check_ingest(raw_path, ingested_path, term: str) -> None:
    """The ingested corpus is one weakly connected component of the
    interaction graph, every post carries the include term, and no post on
    the term by a kept user was dropped."""
    posts, users = read_corpus(ingested_path)
    if not posts:
        raise CheckFailed(f"{ingested_path}: empty corpus")
    for p in posts:
        if not _mentions_term(p["text"], term):
            raise CheckFailed(f"{ingested_path}: post {p['post_id']} lacks "
                              f"{term!r}")

    parent = {u: u for u in users}

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for p in posts:
        targets = [d["user"] for d in p.get("directed_at") or []]
        if p.get("retweet_of"):
            targets.append(p["retweet_of"])
        for t in targets:
            if t in parent:
                parent[find(p["author_id"])] = find(t)
    roots = {find(u) for u in users}
    if len(roots) != 1:
        raise CheckFailed(f"{ingested_path}: {len(roots)} weakly connected "
                          f"components, expected 1")

    raw_posts, _ = read_corpus(raw_path)
    want = {p["post_id"] for p in raw_posts
            if p["author_id"] in users and _mentions_term(p["text"], term)}
    have = {p["post_id"] for p in posts}
    if want != have:
        raise CheckFailed(f"{ingested_path}: {len(want - have)} relevant "
                          f"posts dropped, {len(have - want)} extra")


def check_turnaround(path) -> int:
    """`delta` is exactly `p_t1 - p_t0` and both lie in (0, 1). Returns the
    row count."""
    rows = read_tsv(path)
    if not rows:
        raise CheckFailed(f"{path}: no rows")
    for user, p0, p1, delta in rows:
        a, b = float(p0), float(p1)
        if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
            raise CheckFailed(f"{path}: {user} probability outside (0, 1)")
        if float(delta) != b - a:
            raise CheckFailed(f"{path}: {user} delta {delta} != {b - a!r}")
    return len(rows)


def check_totals(out_dir) -> None:
    """Band counts match the scored users band by band, and weekly volume
    sums to the ingested post count."""
    out = Path(out_dir)
    bands = Counter(r[3] for r in read_tsv(out / "stance_scores.tsv"))
    dist = {r[0]: int(r[1]) for r in read_tsv(out / "stance_distribution.tsv")}
    if sum(dist.values()) != sum(bands.values()) or any(
            dist.get(b, 0) != c for b, c in bands.items()):
        raise CheckFailed(f"{out}/stance_distribution.tsv: {dist} does not "
                          f"match stance_scores.tsv {dict(bands)}")
    posts, _ = read_corpus(out / "corpus.jsonl")
    weekly = sum(int(r[1]) for r in read_tsv(out / "volume_weekly.tsv"))
    if weekly != len(posts):
        raise CheckFailed(f"{out}/volume_weekly.tsv: sums to {weekly}, "
                          f"corpus has {len(posts)} posts")


def snapshot(out_dir, names) -> dict[str, bytes]:
    """The bytes of the named files of one output directory."""
    return {name: (Path(out_dir) / name).read_bytes() for name in names}


def check_identical(reference: dict[str, bytes], out_dir) -> None:
    """The files of `out_dir` have the bytes of the reference snapshot."""
    for name, data in reference.items():
        if (Path(out_dir) / name).read_bytes() != data:
            raise CheckFailed(f"{out_dir}/{name} differs from the same file "
                              f"of the run's first command")


# -- training checks ---------------------------------------------------------

def check_cv(path, min_precision: float, min_recall: float) -> tuple:
    """Cross-validated precision and recall stay above their bounds."""
    (_attr, _k, prec, _ps, rec, _rs), = read_tsv(path)
    prec, rec = float(prec), float(rec)
    if prec < min_precision or rec < min_recall:
        raise CheckFailed(f"{path}: precision {prec:.4f} recall {rec:.4f} "
                          f"below {min_precision}/{min_recall}")
    return prec, rec


def top_gain_columns(model_path, n: int = 10) -> list[str]:
    """Column identifiers with the largest total gain, summed from the
    model file's `treegain` lines."""
    cols, gain = {}, Counter()
    with open(model_path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split(" ")
            if parts[0] == "col":
                cols[int(parts[1])] = parts[2].rstrip("\n")
            elif parts[0] == "treegain":
                gain[int(parts[2])] += float(parts[3])
    ranked = sorted(gain, key=lambda j: (-gain[j], cols[j]))
    return [cols[j] for j in ranked[:n]]


def is_signal(ident: str) -> bool:
    return ident in SIGNAL_EMOJI or (ident.startswith("sig")
                                     and ident[3:].isdigit())


def check_top_gain(model_path, min_signal: int) -> list[str]:
    """At least `min_signal` of the ten columns of largest total gain are
    planted signal columns (a heart or a sig term)."""
    top = top_gain_columns(model_path)
    n_signal = sum(map(is_signal, top))
    if n_signal < min_signal:
        raise CheckFailed(f"{model_path}: only {n_signal} of the top-gain "
                          f"columns {top} are planted signal columns, "
                          f"expected {min_signal}")
    return top
