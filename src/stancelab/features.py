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
from typing import NamedTuple, Optional

import numpy as np

from .corpus import TIME_RANGE, Corpus, InteractionGraph, is_time, user_id
from .csr import CSR
from .textproc import (EMOJI, Lexicon, TermCounts, registrable_domain,
                       tokenize)  # noqa: F401  (perfbench's tracing tests
                                  # look up `features.tokenize`)
from .tsv import StancelabError, read_text, repeat

BLOCKS = ("tweet_term", "bio_term", "profile_meta", "retweet_edge", "directed_edge")
FEATURE_TYPES = ("emoji", "hashtag", "mention", "url", "word",
                 "lexicon_category", "meta", "network")

# the two stance signal emoji
DEFENSE_EMOJI = "\U0001F49A"     # green heart
OPPOSITION_EMOJI = "\U0001F499"  # blue heart

_FORMAT_LINE = "#format stancelab-matrix v1"
# cells that FeatureMatrix.save turns into Python numbers at a time; all of
# them at once would cost some 100 bytes per nonzero
_SAVE_CELLS = 4096


class MatrixError(StancelabError):
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
            first: dict = {}
            for k, ident in enumerate(ids):
                if repeat(first, ident, k, what):
                    raise MatrixError(f"duplicate {what} {ident!r}")
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

    def select_users(self, users) -> "FeatureMatrix":
        """The rows of ``users``, in that order, with the same columns and
        period; a user without a row is a KeyError."""
        ridx = self.row_index()
        take = np.array([ridx[u] for u in users], dtype=np.int64)
        return FeatureMatrix(rows=tuple(users), columns=self.columns,
                             X=self.X.take_rows(take), period=self.period)

    def column_index(self) -> dict[str, int]:
        return {c.identifier: j for j, c in enumerate(self.columns)}

    def to_dense(self) -> np.ndarray:
        return self.X.toarray()

    def column_identifiers(self) -> list[str]:
        return [c.identifier for c in self.columns]

    def save(self, path) -> None:
        """Write the documented text format: `#col` header lines, then
        `row col value` triplets in deterministic order, ``_SAVE_CELLS``
        cells at a time."""
        X = self.X
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_FORMAT_LINE + "\n")
            if self.period is not None:
                fh.write(f"#period {self.period[0]} {self.period[1]}\n")
            for i, u in enumerate(self.rows):
                fh.write(f"#row {i} {u}\n")
            for j, c in enumerate(self.columns):
                fh.write(f"#col {j} {c.identifier} {c.block} {c.feature_type}\n")
            for lo in range(0, X.nnz, _SAVE_CELLS):
                k = np.arange(lo, min(lo + _SAVE_CELLS, X.nnz))
                # cell k is in the last row that starts at or before it
                row = np.searchsorted(X.indptr, k, side="right") - 1
                fh.writelines(f"{i} {j} {v!r}\n" for i, j, v in zip(
                    row.tolist(), X.indices[k].tolist(), X.data[k].tolist()))

    @classmethod
    def load(cls, path) -> "FeatureMatrix":
        """Parse the text format written by :meth:`save`. Raises
        :class:`MatrixError` naming the file and the first line at fault: a
        malformed line, a second ``#period`` line or one whose start is not
        before its end or whose times fail :func:`~stancelab.corpus.is_time`,
        a ``#row`` or ``#col`` index out of sequence, the second ``#row`` or
        ``#col`` line of one identifier (:func:`~stancelab.tsv.repeat`), or a
        cell that :func:`_bad_cell` refuses."""
        lines = read_text(path, MatrixError).removesuffix("\n").split("\n")
        if lines[0].strip() != _FORMAT_LINE:
            raise MatrixError(f"{path}:1: unrecognized matrix file")
        rows: list[str] = []
        cols: list[FeatureColumn] = []
        period = None
        first_lines: dict = {"row": {}, "column": {}}  # each id's line
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
                    if not all(map(is_time, period)):
                        raise ValueError(f"a time outside {list(TIME_RANGE)}")
                    if period[0] >= period[1]:
                        raise ValueError("start must be before end")
                    continue
                if tag == "#row":
                    _tag, idx, user = line.split(" ", 2)
                    _in_sequence(idx, len(rows))
                    rows.append(user_id(user))
                    what, ident = "row", rows[-1]
                elif tag == "#col":
                    head, block, ftype = line.rsplit(" ", 2)
                    _tag, idx, ident = head.split(" ", 2)
                    _in_sequence(idx, len(cols))
                    cols.append(FeatureColumn(ident, block, ftype))
                    what = "column"
                else:
                    raise ValueError("unknown tag")
            except ValueError as exc:
                raise MatrixError(f"{path}:{n}: malformed {tag} line "
                                  f"{line!r}: {exc}") from None
            if fault := repeat(first_lines[what], ident, n, what):
                raise MatrixError(f"{path}:{n}: {fault}")
        data, first = lines[n:], n + 1  # data line k is line first + k
        # value v[k] at row i[k], column j[k]: int64, int64 and float64
        i, j, v = (array(code, bytes(8 * len(data))) for code in "qqd")
        fault = None
        for k, line in enumerate(data):
            try:
                a, b, c = line.split(" ")
                i[k], j[k], v[k] = int(a), int(b), float(c)
            except (ValueError, OverflowError) as exc:
                fault = f"{path}:{first + k}: malformed line {line!r}: {exc}"
                del i[k:], j[k:], v[k:]  # keep the cells before it
                break
        i, j, v = map(np.asarray, (i, j, v))
        shape = (len(rows), len(cols))
        if (bad := _bad_cell(i, j, v, shape)) is not None:
            k, what = bad  # a cell before any malformed line
            fault = f"{path}:{first + k}: {what}: {data[k]!r}"
        if fault:
            raise MatrixError(fault)
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


class Block(NamedTuple):
    """One block of columns, sorted by identifier, and its cells: row
    ``row[k]``, column ``columns[col[k]]``, value ``val[k] > 0``."""
    columns: tuple[FeatureColumn, ...]
    row: np.ndarray
    col: np.ndarray
    val: np.ndarray


def _block(block: str, idents: list[str], types: list[str], row, col,
           val) -> Block:
    """Block from cells whose ``col`` indexes ``idents``/``types``, one
    column per identifier, sorted by identifier (no two terms share one:
    see :func:`~stancelab.textproc.registrable_domain`)."""
    order = sorted(range(len(idents)), key=idents.__getitem__)
    new_col = np.empty(len(idents), dtype=np.int64)
    new_col[order] = np.arange(len(idents))
    return Block(tuple(FeatureColumn(idents[j], block, types[j])
                       for j in order),
                 np.asarray(row, dtype=np.int64),
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
    encoding = corpus.encoding
    rows = encoding.users

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
    name_cells = sorted(set(zip(name_users[name_emoji].tolist(),
                                encoding.name_terms[name_emoji].tolist())))
    for i, u in enumerate(rows):
        prof = corpus.users[u]
        if prof.url:
            cell(i, "home_domain:" + _one_line(registrable_domain(prof.url)),
                 "meta", 1.0)
        if prof.timezone:
            cell(i, "timezone:" + _one_line(prof.timezone), "meta", 1.0)
        if n_emojis[i]:
            cell(i, "meta:n_emojis_bio", "meta", float(n_emojis[i]))
    for i, t in name_cells:
        cell(i, f"name:{encoding.terms[t].surface}", "emoji", 1.0)
    meta = _block("profile_meta", idents, types, meta_row, meta_col, meta_val)
    return bio, meta


def _one_line(text: str) -> str:
    """``text`` with each run of whitespace, line ends included, one blank:
    an identifier that the matrix and model files can hold on one line."""
    return " ".join(text.split())


def _edge_blocks(graph: InteractionGraph, users: tuple[str, ...],
                 min_in_degree: int) -> list[Block]:
    """Adjacency columns (``rt:``, ``at:``) for targets with at least
    ``min_in_degree`` distinct sources; mention, reply and quote weights
    add up in the directed block."""
    n = len(users)
    ridx = {u: i for i, u in enumerate(users)}
    src, dst, w, retweet = [], [], [], []
    for (s, d, kind), weight in graph.edges.items():
        src.append(ridx[s])
        dst.append(ridx[d])
        w.append(weight)
        retweet.append(kind == "retweet")
    src, dst = np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)
    w, retweet = np.array(w, dtype=np.float64), np.array(retweet, dtype=bool)
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
                 period: Optional[tuple[int, int]] = None, *,
                 min_in_degree: int) -> FeatureMatrix:
    """Assemble the concatenated feature matrix for all corpus users.

    ``tweet_counts`` gives the tweet-term block and ``profile`` (from
    :func:`profile_blocks`) the bio-term and profile-meta blocks. Edge
    columns are created only for targets with at least ``min_in_degree``
    distinct in-neighbours (per edge block), to bound matrix width.
    """
    rows = corpus.encoding.users

    blocks = [_block("tweet_term", *_term_cells(tweet_counts, "")), *profile,
              *_edge_blocks(graph, rows, min_in_degree)]
    first_col = np.cumsum([0] + [len(b.columns) for b in blocks])
    columns = tuple(c for b in blocks for c in b.columns)
    row = np.concatenate([b.row for b in blocks])
    col = np.concatenate([first + b.col for first, b in zip(first_col, blocks)])
    val = np.concatenate([b.val for b in blocks])
    del blocks  # the cells live on only in the concatenations
    X = CSR.from_triplets(row, col, val, (len(rows), len(columns)))
    del row, col, val  # before the matrix checks its cells
    return FeatureMatrix(rows=rows, columns=columns, X=X, period=period)


def drop_columns(matrix: FeatureMatrix, drop: set[str]) -> FeatureMatrix:
    """Remove the named columns; rows are preserved even if emptied."""
    keep = np.array([j for j, c in enumerate(matrix.columns)
                     if c.identifier not in drop], dtype=np.int64)
    return FeatureMatrix(rows=matrix.rows,
                         columns=tuple(matrix.columns[j] for j in keep),
                         X=matrix.X.take_columns(keep), period=matrix.period)


def align_rows(a: FeatureMatrix, b: FeatureMatrix) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Restrict both matrices to their common users, in the same sorted order."""
    common = sorted(set(a.rows) & set(b.rows))
    return a.select_users(common), b.select_users(common)
