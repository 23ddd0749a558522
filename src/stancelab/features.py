"""Sparse user-by-feature matrix assembly.

The matrix is a horizontal concatenation of five blocks, in fixed order:
tweet terms, bio terms (including lexicon categories), profile meta features,
retweet edges, and directed (mention/reply/quote) edges. Rows and columns are
sorted by identifier so construction is deterministic.

In memory the values are one ``scipy.sparse.csr_array`` of float64, rows ×
columns, in canonical form: within each row the column indices are sorted and
unique, and every stored value is positive and finite. ``X.indptr[i]`` to
``X.indptr[i + 1]`` delimits row i's entries in ``X.indices`` (columns) and
``X.data`` (values). Absent cells are zero; no dense rows × columns copy is
made except by :meth:`FeatureMatrix.to_dense`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from .corpus import Corpus, InteractionGraph
from .textproc import EMOJI, TermCounts, Token, registrable_domain, tokenize

BLOCKS = ("tweet_term", "bio_term", "profile_meta", "retweet_edge", "directed_edge")
FEATURE_TYPES = ("emoji", "hashtag", "mention", "url", "word",
                 "lexicon_category", "meta", "network")

# the two stance signal emoji
DEFENSE_EMOJI = "\U0001F49A"     # green heart
OPPOSITION_EMOJI = "\U0001F499"  # blue heart

_KIND_TO_TYPE = {"emoji": "emoji", "hashtag": "hashtag", "mention": "mention",
                 "url": "url", "word": "word"}

_FORMAT_LINE = "#format stancelab-matrix v1"


class MatrixError(Exception):
    pass


@dataclass(frozen=True)
class FeatureColumn:
    identifier: str
    block: str
    feature_type: str

    def __post_init__(self):
        if self.block not in BLOCKS:
            raise ValueError(f"unknown block {self.block!r}")
        if self.feature_type not in FEATURE_TYPES:
            raise ValueError(f"unknown feature type {self.feature_type!r}")
        if self.feature_type == "network" and not self.block.endswith("_edge"):
            raise ValueError("network features only allowed in edge blocks")


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    rows: tuple[str, ...]
    columns: tuple[FeatureColumn, ...]
    X: sparse.csr_array   # canonical CSR, positive finite values only
    period: Optional[tuple[int, int]] = None

    def __post_init__(self):
        ids = [c.identifier for c in self.columns]
        if len(set(ids)) != len(ids):
            raise MatrixError("duplicate column identifiers")
        X = self.X
        if not isinstance(X, sparse.csr_array) or X.dtype != np.float64:
            raise MatrixError("values must be a float64 scipy.sparse.csr_array")
        if X.shape != self.shape:
            raise MatrixError(f"values have shape {X.shape}, "
                              f"rows × columns is {self.shape}")
        if not X.has_canonical_format:
            raise MatrixError("column indices must be sorted and unique "
                              "within each row")
        if not np.all((X.data > 0) & (X.data < np.inf)):
            raise MatrixError("stored cells must be positive and finite")

    def __eq__(self, other):
        if not isinstance(other, FeatureMatrix):
            return NotImplemented
        a, b = self.X, other.X
        # canonical form makes equal matrices store equal arrays
        return (self.rows == other.rows and self.columns == other.columns
                and self.period == other.period
                and np.array_equal(a.indptr, b.indptr)
                and np.array_equal(a.indices, b.indices)
                and np.array_equal(a.data, b.data))

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.columns))

    def row_index(self) -> dict[str, int]:
        return {u: i for i, u in enumerate(self.rows)}

    def column_index(self) -> dict[str, int]:
        return {c.identifier: j for j, c in enumerate(self.columns)}

    def to_dense(self) -> np.ndarray:
        return self.X.toarray()

    def column_identifiers(self) -> list[str]:
        return [c.identifier for c in self.columns]

    def save(self, path) -> None:
        """Write the documented text format: `#col` header lines, then
        `row col value` triplets in deterministic order."""
        cells = self.X.tocoo()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_FORMAT_LINE + "\n")
            if self.period is not None:
                fh.write(f"#period {self.period[0]} {self.period[1]}\n")
            for i, u in enumerate(self.rows):
                fh.write(f"#row {i} {u}\n")
            for j, c in enumerate(self.columns):
                fh.write(f"#col {j} {c.identifier} {c.block} {c.feature_type}\n")
            fh.writelines(f"{i} {j} {v!r}\n" for i, j, v in zip(
                cells.row.tolist(), cells.col.tolist(), cells.data.tolist()))

    @classmethod
    def load(cls, path) -> "FeatureMatrix":
        """Parse the text format written by :meth:`save`.

        Raises :class:`MatrixError` naming the file and line of the first
        malformed header or data line, out-of-range or out-of-sequence index,
        non-positive or non-finite value, or duplicate or out-of-order
        ``(row, col)`` pair.
        """
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        if lines[-1] == "":
            lines.pop()
        if not lines or lines[0].strip() != _FORMAT_LINE:
            raise MatrixError(f"{path}:1: unrecognized matrix file")
        rows: list[str] = []
        cols: list[FeatureColumn] = []
        period = None
        n = 1
        while n < len(lines) and lines[n].startswith("#"):
            line = lines[n]
            n += 1
            tag = line.split(" ", 1)[0]
            try:
                if tag == "#period":
                    _tag, a, b = line.split(" ")
                    period = (int(a), int(b))
                elif tag == "#row":
                    _tag, idx, user = line.split(" ", 2)
                    _in_sequence(path, n, tag, idx, len(rows))
                    rows.append(user)
                elif tag == "#col":
                    head, block, ftype = line.rsplit(" ", 2)
                    _tag, idx, ident = head.split(" ", 2)
                    _in_sequence(path, n, tag, idx, len(cols))
                    cols.append(FeatureColumn(ident, block, ftype))
                else:
                    raise MatrixError(f"{path}:{n}: unrecognized header line "
                                      f"{line!r}")
            except ValueError as exc:
                raise MatrixError(f"{path}:{n}: malformed {tag} line "
                                  f"{line!r}: {exc}") from None

        # data lines: `row col value`; data[k] is line first + k of the file
        data, first = lines[n:], n + 1
        _check(path, first, data, [line.count(" ") != 2 for line in data],
               "data line must have 3 fields 'row col value'")
        fields = " ".join(data).split(" ") if data else []
        try:
            i, j, v = _parse_triplets(fields[0::3], fields[1::3], fields[2::3])
        except (ValueError, OverflowError):
            _check(path, first, data, [not _parses(line) for line in data],
                   "row and column must be integers and value a number")
            raise
        n_rows, n_cols = len(rows), len(cols)
        _check(path, first, data, (i < 0) | (i >= n_rows),
               f"row index out of range [0, {n_rows})")
        _check(path, first, data, (j < 0) | (j >= n_cols),
               f"column index out of range [0, {n_cols})")
        _check(path, first, data, ~((v > 0) & (v < np.inf)),
               "value must be positive and finite")
        step = np.diff(i * n_cols + j)
        _check(path, first + 1, data[1:], step == 0, "duplicate (row, col)")
        _check(path, first + 1, data[1:], step < 0,
               "(row, col) out of order; data lines are sorted by row, "
               "then column")
        X = sparse.csr_array((v, (i, j)), shape=(n_rows, n_cols))
        try:
            return cls(tuple(rows), tuple(cols), X, period)
        except MatrixError as exc:
            raise MatrixError(f"{path}: {exc}") from None


def _in_sequence(path, line_no: int, tag: str, idx: str, expected: int) -> None:
    if int(idx) != expected:
        raise MatrixError(f"{path}:{line_no}: {tag} index {idx} out of "
                          f"sequence (expected {expected})")


def _parse_triplets(i, j, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (np.array(i, dtype=np.int64), np.array(j, dtype=np.int64),
            np.array(v, dtype=np.float64))


def _parses(line: str) -> bool:
    try:
        _parse_triplets(*([f] for f in line.split(" ")))
    except (ValueError, OverflowError):
        return False
    return True


def _check(path, first: int, data: list[str], bad, what: str) -> None:
    """Raise for the first data line flagged in ``bad``; ``data[k]`` is line
    ``first + k`` of the file."""
    hits = np.flatnonzero(bad)
    if len(hits):
        k = int(hits[0])
        raise MatrixError(f"{path}:{first + k}: {what}: {data[k]!r}")


def build_matrix(corpus: Corpus,
                 tweet_counts: TermCounts,
                 bio_counts: TermCounts,
                 lexicon_cat_counts: dict[str, dict[str, int]],
                 graph: InteractionGraph,
                 period: Optional[tuple[int, int]] = None,
                 min_in_degree: int = 5) -> FeatureMatrix:
    """Assemble the concatenated feature matrix for all corpus users.

    Edge columns are created only for targets with at least ``min_in_degree``
    distinct in-neighbours (per edge block), to bound matrix width. Raises
    :class:`MatrixError` if the graph mentions a user missing from the corpus.
    """
    for node in graph.nodes:
        if node not in corpus.users:
            raise MatrixError(f"graph user {node} not present in corpus")

    rows = tuple(sorted(corpus.users))
    ridx = {u: i for i, u in enumerate(rows)}

    columns: list[FeatureColumn] = []
    cell_row: list[int] = []
    cell_col: list[int] = []
    cell_val: list[float] = []

    def add_block(column_values: dict[str, dict[str, float]], block: str,
                  type_of: dict[str, str]) -> None:
        for ident in sorted(column_values):
            j = len(columns)
            columns.append(FeatureColumn(ident, block, type_of[ident]))
            for user_id, v in column_values[ident].items():
                if v > 0:
                    cell_row.append(ridx[user_id])
                    cell_col.append(j)
                    cell_val.append(float(v))

    # block 1: tweet terms
    vals: dict[str, dict[str, float]] = {}
    types: dict[str, str] = {}
    for (user_id, tok), c in tweet_counts.counts.items():
        types[tok.surface] = _KIND_TO_TYPE[tok.kind]
        vals.setdefault(tok.surface, {})[user_id] = c
    add_block(vals, "tweet_term", types)

    # block 2: bio terms plus lexicon categories
    vals, types = {}, {}
    for (user_id, tok), c in bio_counts.counts.items():
        ident = f"profile:{tok.surface}"
        types[ident] = _KIND_TO_TYPE[tok.kind]
        vals.setdefault(ident, {})[user_id] = c
    for user_id, cats in lexicon_cat_counts.items():
        if user_id not in ridx:
            continue
        for cat, c in cats.items():
            ident = f"lexcat:{cat}"
            types[ident] = "lexicon_category"
            vals.setdefault(ident, {})[user_id] = c
    add_block(vals, "bio_term", types)

    # block 3: one-hot / count profile meta features
    vals, types = {}, {}
    for user_id in rows:
        prof = corpus.users[user_id]
        if prof.url:
            ident = f"home_domain:{registrable_domain(prof.url)}"
            types[ident] = "meta"
            vals.setdefault(ident, {})[user_id] = 1.0
        if prof.timezone:
            ident = f"timezone:{prof.timezone}"
            types[ident] = "meta"
            vals.setdefault(ident, {})[user_id] = 1.0
        n_emojis = sum(1 for t in tokenize(prof.bio or "") if t.kind == EMOJI)
        if n_emojis:
            types["n_emojis_bio"] = "meta"
            vals.setdefault("n_emojis_bio", {})[user_id] = float(n_emojis)
        for t in tokenize(prof.full_name or ""):
            if t.kind == EMOJI:
                ident = f"name:{t.surface}"
                types[ident] = "emoji"
                vals.setdefault(ident, {})[user_id] = 1.0
    add_block(vals, "profile_meta", types)

    # blocks 4 and 5: adjacency columns for well-connected targets
    retweet: dict[tuple[str, str], int] = {}
    directed: dict[tuple[str, str], int] = {}
    for (src, dst, kind), w in graph.edges.items():
        if kind == "retweet":
            retweet[(src, dst)] = retweet.get((src, dst), 0) + w
        else:
            directed[(src, dst)] = directed.get((src, dst), 0) + w

    for block, prefix, pairs in (("retweet_edge", "rt:", retweet),
                                 ("directed_edge", "at:", directed)):
        indeg: dict[str, set[str]] = {}
        for (src, dst) in pairs:
            indeg.setdefault(dst, set()).add(src)
        targets = {t for t, srcs in indeg.items() if len(srcs) >= min_in_degree}
        vals, types = {}, {}
        for (src, dst), w in pairs.items():
            if dst in targets:
                ident = prefix + dst
                types[ident] = "network"
                vals.setdefault(ident, {})[src] = float(w)
        add_block(vals, block, types)

    X = sparse.csr_array(
        (np.array(cell_val, dtype=np.float64),
         (np.array(cell_row, dtype=np.int64),
          np.array(cell_col, dtype=np.int64))),
        shape=(len(rows), len(columns)))
    return FeatureMatrix(rows=rows, columns=tuple(columns), X=X,
                         period=period)


def drop_columns(matrix: FeatureMatrix, drop: set[str]) -> FeatureMatrix:
    """Remove the named columns; rows are preserved even if emptied."""
    keep = np.array([j for j, c in enumerate(matrix.columns)
                     if c.identifier not in drop], dtype=np.int64)
    return FeatureMatrix(rows=matrix.rows,
                         columns=tuple(matrix.columns[j] for j in keep),
                         X=matrix.X[:, keep], period=matrix.period)


def align_rows(a: FeatureMatrix, b: FeatureMatrix) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Restrict both matrices to their common users, in the same sorted order."""
    common = tuple(sorted(set(a.rows) & set(b.rows)))

    def restrict(m: FeatureMatrix) -> FeatureMatrix:
        ridx = m.row_index()
        take = np.array([ridx[u] for u in common], dtype=np.int64)
        return FeatureMatrix(rows=common, columns=m.columns, X=m.X[take],
                             period=m.period)

    return restrict(a), restrict(b)
