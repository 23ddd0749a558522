"""Sparse user-by-feature matrix assembly.

The matrix is a horizontal concatenation of five blocks, in fixed order:
tweet terms, bio terms (including lexicon categories), profile meta features,
retweet edges, and directed (mention/reply/quote) edges. Rows and columns are
sorted by identifier so construction is deterministic.

In memory the values are one :class:`~stancelab.csr.CSR` of float64, rows ×
columns, in canonical form: within each row the column indices are sorted and
unique, and every stored value is positive and finite. ``X.indptr[i]`` to
``X.indptr[i + 1]`` delimits row i's entries in ``X.indices`` (columns) and
``X.data`` (values). Absent cells are zero; no dense rows × columns copy is
made except by :meth:`FeatureMatrix.to_dense`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .corpus import Corpus, InteractionGraph, user_id
from .csr import CSR
from .textproc import (EMOJI, Lexicon, TermCounts, registrable_domain,
                       tokenize)  # noqa: F401  (perfbench's tracing tests
                                  # look up `features.tokenize`)
from .tsv import read_text

BLOCKS = ("tweet_term", "bio_term", "profile_meta", "retweet_edge", "directed_edge")
FEATURE_TYPES = ("emoji", "hashtag", "mention", "url", "word",
                 "lexicon_category", "meta", "network")

# the two stance signal emoji
DEFENSE_EMOJI = "\U0001F49A"     # green heart
OPPOSITION_EMOJI = "\U0001F499"  # blue heart

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
    X: CSR  # canonical, positive finite values only
    period: Optional[tuple[int, int]] = None

    def __post_init__(self):
        for what, ids in (("row", self.rows),
                          ("column", self.column_identifiers())):
            if (repeat := first_repeat(ids)) is not None:
                raise MatrixError(f"duplicate {what} {ids[repeat[1]]!r}")
        X = self.X
        if not isinstance(X, CSR) or X.data.dtype != np.float64:
            raise MatrixError("values must be a float64 CSR")
        if X.shape != self.shape:
            raise MatrixError(f"values have shape {X.shape}, "
                              f"rows × columns is {self.shape}")
        if (bad := _bad_cell(*X.tocoo(), X.shape)) is not None:
            raise MatrixError(f"stored cell {bad[0]}: {bad[1]}")

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
        """Parse the text format written by :meth:`save`. Raises
        :class:`MatrixError` naming the file and the first line at fault: a
        malformed line, a second ``#period`` line or one whose start is not
        before its end, a ``#row`` or ``#col`` index out of sequence, the
        second ``#row`` or ``#col`` line of one identifier
        (:func:`first_repeat`), or a cell that :func:`_bad_cell` refuses."""
        lines = read_text(path, MatrixError).removesuffix("\n").split("\n")
        if lines[0].strip() != _FORMAT_LINE:
            raise MatrixError(f"{path}:1: unrecognized matrix file")
        rows: list[str] = []
        cols: list[FeatureColumn] = []
        period = None
        faults = []  # (line, what): the first line at fault is named
        n = 1
        while n < len(lines) and lines[n].startswith("#"):
            line = lines[n]
            n += 1
            tag = line.split(" ", 1)[0]
            try:
                if tag == "#period":
                    if period is not None:
                        raise ValueError("a second #period line")
                    _tag, a, b = line.split(" ")
                    period = (int(a), int(b))
                    if period[0] >= period[1]:
                        raise ValueError("start must be before end")
                elif tag == "#row":
                    _tag, idx, user = line.split(" ", 2)
                    _in_sequence(idx, len(rows))
                    rows.append(user_id(user))
                elif tag == "#col":
                    head, block, ftype = line.rsplit(" ", 2)
                    _tag, idx, ident = head.split(" ", 2)
                    _in_sequence(idx, len(cols))
                    cols.append(FeatureColumn(ident, block, ftype))
                else:
                    raise ValueError("unknown tag")
            except ValueError as exc:
                faults.append((n, f"malformed {tag} line {line!r}: {exc}"))
                break
        for what, tag, ids in (("row", "#row ", rows), ("column", "#col ", [
                c.identifier for c in cols])):
            if (repeat := first_repeat(ids)) is not None:
                line_of = [m for m, text in enumerate(lines[:n], 1)
                           if text.startswith(tag)]  # of each id, in order
                was, k = repeat
                faults.append((line_of[k], f"duplicate {what} identifier "
                               f"{ids[k]!r} (first on line {line_of[was]})"))
        data, first = lines[n:], n + 1  # data line k is line first + k
        # value v[k] at row i[k], column j[k]: int64, int64 and float64
        i, j, v = (array(code, bytes(8 * len(data))) for code in "qqd")
        for k, line in enumerate(data):
            try:
                a, b, c = line.split(" ")
                i[k], j[k], v[k] = int(a), int(b), float(c)
            except (ValueError, OverflowError) as exc:
                faults.append((first + k, f"malformed line {line!r}: {exc}"))
                del i[k:], j[k:], v[k:]  # keep the cells before it
                break
        i, j, v = map(np.asarray, (i, j, v))
        shape = (len(rows), len(cols))
        if (bad := _bad_cell(i, j, v, shape)) is not None:
            k, what = bad
            faults.append((first + k, f"{what}: {data[k]!r}"))
        if faults:
            at, what = min(faults)
            raise MatrixError(f"{path}:{at}: {what}")
        # the cells are canonical: sorted by row, then column, once each
        X = CSR(np.searchsorted(i, np.arange(shape[0] + 1)), j, v, shape)
        return cls(tuple(rows), tuple(cols), X, period)


def _in_sequence(idx: str, expected: int) -> None:
    if int(idx) != expected:
        raise ValueError(f"index {idx} out of sequence (expected {expected})")


def _bad_cell(row, col, value, shape) -> Optional[tuple[int, str]]:
    """The first cell ``k`` (``value[k]`` at ``row[k]``, ``col[k]``) that is
    out of ``shape``, not positive and finite, or not strictly after cell
    k - 1, and what is wrong with it; None if every cell is canonical."""
    n_rows, n_cols = shape
    rules = (((row < 0) | (row >= n_rows),
              f"row index out of range [0, {n_rows})"),
             ((col < 0) | (col >= n_cols),
              f"column index out of range [0, {n_cols})"),
             (~((value > 0) & (value < np.inf)),
              "value must be positive and finite"),
             (np.diff(row * n_cols + col, prepend=-1) <= 0,
              "(row, col) not after the previous cell's; cells are sorted "
              "by row, then column, once each"))
    bad = np.flatnonzero(np.logical_or.reduce([flags for flags, _ in rules]))
    if not len(bad):
        return None
    k = int(bad[0])
    return k, next(what for flags, what in rules if flags[k])


def first_repeat(ids: Sequence[str]) -> Optional[tuple[int, int]]:
    """``(first, k)`` for the first identifier ``ids[k]`` that an earlier
    ``ids[first]`` equals, or None when the identifiers are unique."""
    seen: dict[str, int] = {}
    for k, ident in enumerate(ids):
        if (first := seen.setdefault(ident, k)) != k:
            return first, k
    return None


class Block(NamedTuple):
    """One block of columns, sorted by identifier, and its cells: row
    ``row[k]``, column ``columns[col[k]]``, value ``val[k] > 0``."""
    columns: tuple[FeatureColumn, ...]
    row: np.ndarray
    col: np.ndarray
    val: np.ndarray


def _block(block: str, idents: list[str], types: list[str], row, col,
           val) -> Block:
    """Block from cells whose ``col`` indexes ``idents``/``types``.

    Columns are sorted by identifier. Terms of two kinds that share an
    identifier (a URL whose registrable domain has no dot, like ``www.foo``,
    and the word ``foo``) become one column, the sum of both, typed by the
    kind that comes first in ``FEATURE_TYPES``.
    """
    order = sorted(range(len(idents)), key=lambda j: (
        idents[j], FEATURE_TYPES.index(types[j])))
    columns: list[FeatureColumn] = []
    new_col = np.empty(len(idents), dtype=np.int64)
    for j in order:
        if not columns or columns[-1].identifier != idents[j]:
            columns.append(FeatureColumn(idents[j], block, types[j]))
        new_col[j] = len(columns) - 1
    return Block(tuple(columns), np.asarray(row, dtype=np.int64),
                 new_col[np.asarray(col, dtype=np.int64)],
                 np.asarray(val, dtype=np.float64))


def _term_cells(counts: TermCounts, prefix: str):
    cells = counts.X.tocoo()
    idents = [prefix + tok.surface for tok in counts.terms]
    types = [tok.kind for tok in counts.terms]
    return idents, types, cells.row, cells.col, cells.data


def profile_blocks(corpus: Corpus, bio_counts: TermCounts,
                   lexicon: Lexicon) -> tuple[Block, Block]:
    """The ``bio_term`` and ``profile_meta`` blocks of every corpus user.

    They read profiles only, so every matrix of the corpus, for any period,
    shares them: bio terms and lexicon categories (whose columns exist for
    every category, zero or not), then home domain, time zone, the bio's
    emoji count and the emoji of the full name.
    """
    rows = tuple(sorted(corpus.users))
    encoding = corpus.encoding

    idents, types, row, col, val = _term_cells(bio_counts, "profile:")
    if rows:
        cats, hits = encoding.lexicon_counts(lexicon)
        hits = hits.tocoo()
        row = np.concatenate([row, hits.row])
        col = np.concatenate([col, len(idents) + hits.col])
        val = np.concatenate([val, hits.data])
        idents += [f"lexcat:{cat}" for cat in cats]
        types += ["lexicon_category"] * len(cats)
    bio = _block("bio_term", idents, types, row, col, val)

    idents, types = [], []
    index: dict[str, int] = {}
    meta_row, meta_col, meta_val = [], [], []

    def cell(i: int, ident: str, ftype: str, value: float) -> None:
        if ident not in index:
            index[ident] = len(idents)
            idents.append(ident)
            types.append(ftype)
        meta_row.append(i)
        meta_col.append(index[ident])
        meta_val.append(value)

    is_emoji = np.array([tok.kind == EMOJI for tok in encoding.terms],
                        dtype=bool)
    bio_users = encoding.token_users(encoding.bio_indptr)
    n_emojis = np.bincount(bio_users[is_emoji[encoding.bio_terms]],
                           minlength=len(rows)).tolist()
    name_users = encoding.token_users(encoding.name_indptr)
    name_emoji = is_emoji[encoding.name_terms]
    # each emoji of a name is one flag, however often it appears
    name_cells = np.unique(np.stack([name_users[name_emoji],
                                     encoding.name_terms[name_emoji]]),
                           axis=1).T.tolist()
    for i, u in enumerate(rows):
        prof = corpus.users[u]
        if prof.url:
            cell(i, "home_domain:" + _one_line(registrable_domain(prof.url)),
                 "meta", 1.0)
        if prof.timezone:
            cell(i, "timezone:" + _one_line(prof.timezone), "meta", 1.0)
        if n_emojis[i]:
            cell(i, "n_emojis_bio", "meta", float(n_emojis[i]))
    for i, t in name_cells:
        cell(i, f"name:{encoding.terms[t].surface}", "emoji", 1.0)
    meta = _block("profile_meta", idents, types, meta_row, meta_col, meta_val)
    return bio, meta


def _one_line(text: str) -> str:
    """``text`` with each run of whitespace, line ends included, one blank:
    an identifier that the matrix and model files can hold on one line."""
    return " ".join(text.split())


def _edge_blocks(graph: InteractionGraph, ridx: dict[str, int],
                 min_in_degree: int) -> list[Block]:
    """Adjacency columns (``rt:``, ``at:``) for targets with at least
    ``min_in_degree`` distinct sources; mention, reply and quote weights
    add up in the directed block."""
    n = len(ridx)
    src, dst, w, retweet = [], [], [], []
    for (s, d, kind), weight in graph.edges.items():
        src.append(ridx[s])
        dst.append(ridx[d])
        w.append(weight)
        retweet.append(kind == "retweet")
    src, dst = np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)
    w, retweet = np.array(w, dtype=np.float64), np.array(retweet, dtype=bool)
    users = sorted(ridx, key=ridx.__getitem__)
    out = []
    for block, prefix, sel in (("retweet_edge", "rt:", retweet),
                               ("directed_edge", "at:", ~retweet)):
        # summed per (source, target); a target's in-degree is its column's
        # count of sources
        A = CSR.from_triplets(src[sel], dst[sel], w[sel], (n, n))
        in_degree = np.bincount(A.indices, minlength=n)
        targets = np.flatnonzero(in_degree >= min_in_degree)
        cells = A.take_columns(targets).tocoo()
        out.append(_block(block, [prefix + users[t] for t in targets],
                          ["network"] * len(targets), cells.row, cells.col,
                          cells.data))
    return out


def build_matrix(corpus: Corpus,
                 tweet_counts: TermCounts,
                 profile: tuple[Block, Block],
                 graph: InteractionGraph,
                 period: Optional[tuple[int, int]] = None,
                 min_in_degree: int = 5) -> FeatureMatrix:
    """Assemble the concatenated feature matrix for all corpus users.

    ``tweet_counts`` gives the tweet-term block and ``profile`` (from
    :func:`profile_blocks`) the bio-term and profile-meta blocks. Edge
    columns are created only for targets with at least ``min_in_degree``
    distinct in-neighbours (per edge block), to bound matrix width.
    """
    rows = tuple(sorted(corpus.users))
    ridx = {u: i for i, u in enumerate(rows)}

    blocks = [_block("tweet_term", *_term_cells(tweet_counts, "")), *profile,
              *_edge_blocks(graph, ridx, min_in_degree)]
    columns: list[FeatureColumn] = []
    row, col, val = [], [], []
    for b in blocks:
        row.append(b.row)
        col.append(len(columns) + b.col)
        val.append(b.val)
        columns.extend(b.columns)
    X = CSR.from_triplets(np.concatenate(row), np.concatenate(col),
                          np.concatenate(val), (len(rows), len(columns)))
    return FeatureMatrix(rows=rows, columns=tuple(columns), X=X,
                         period=period)


def drop_columns(matrix: FeatureMatrix, drop: set[str]) -> FeatureMatrix:
    """Remove the named columns; rows are preserved even if emptied."""
    keep = np.array([j for j, c in enumerate(matrix.columns)
                     if c.identifier not in drop], dtype=np.int64)
    return FeatureMatrix(rows=matrix.rows,
                         columns=tuple(matrix.columns[j] for j in keep),
                         X=matrix.X.take_columns(keep), period=matrix.period)


def align_rows(a: FeatureMatrix, b: FeatureMatrix) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Restrict both matrices to their common users, in the same sorted order."""
    common = tuple(sorted(set(a.rows) & set(b.rows)))

    def restrict(m: FeatureMatrix) -> FeatureMatrix:
        ridx = m.row_index()
        take = np.array([ridx[u] for u in common], dtype=np.int64)
        return FeatureMatrix(rows=common, columns=m.columns,
                             X=m.X.take_rows(take), period=m.period)

    return restrict(a), restrict(b)
