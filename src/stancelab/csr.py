"""The one sparse matrix type: rows × columns in canonical CSR layout.

Row i's cells are ``indices[indptr[i]:indptr[i + 1]]`` (columns, sorted and
unique) and the same slice of ``data`` (values); absent cells are zero.

:meth:`CSR.from_triplets` and :meth:`CSR.count` sort cells by one int64 key,
``row * n_cols + col``, and read each cell's column back from it. Their
docstrings state the temporary arrays they make per entry given, since at
scale those, not the result, set the memory peak.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class COO(NamedTuple):
    """Cells in row-major order: ``row[k]``, ``col[k]``, ``data[k]``."""
    row: np.ndarray
    col: np.ndarray
    data: np.ndarray


class CSR:
    __slots__ = ("indptr", "indices", "data", "shape")

    def __init__(self, indptr, indices, data, shape):
        self.indptr, self.indices, self.data = indptr, indices, data
        self.shape = (int(shape[0]), int(shape[1]))

    @classmethod
    def from_triplets(cls, row, col, data, shape) -> "CSR":
        """Cell ``(row[k], col[k])`` holds ``data[k]``; the values of a cell
        given more than once add up, in the order given.

        Per entry: the key and its stable sort order (int64 each) and the
        key and values gathered through that order; the order is freed
        before one bool per entry marks where each cell's run starts.
        """
        key = _keys(row, col, shape[1])
        order = np.argsort(key, kind="stable")
        key, data = key[order], np.asarray(data)[order]
        del order
        first = _run_starts(key)
        if len(first) < len(key):
            key, data = key[first], np.add.reduceat(data, first)
        return cls._from_keys(key, data, shape)

    @classmethod
    def count(cls, row, col, shape) -> "CSR":
        """Cell ``(r, c)`` holds how many of the pairs ``(row[k], col[k])``
        are ``(r, c)``, as int64.

        Per pair: the key (int64), sorted in place, and one bool marking
        where a run of equal keys starts; the key is freed before the
        counts are taken, and the rest is per stored cell.
        """
        key = _keys(row, col, shape[1])
        key.sort()
        first = _run_starts(key)
        n_pairs, key = len(key), key[first]
        return cls._from_keys(key, np.diff(first, append=n_pairs), shape)

    @classmethod
    def _from_keys(cls, key, data, shape) -> "CSR":
        """The cells of the sorted unique ``key``, holding ``data``."""
        n_rows, n_cols = shape
        indptr = np.searchsorted(key, np.arange(n_rows + 1) * n_cols)
        # with no columns there is no cell, and nothing to divide
        return cls(indptr, key % max(n_cols, 1), data, shape)

    @property
    def nnz(self) -> int:
        return len(self.data)

    def take_rows(self, rows) -> "CSR":
        """The rows ``rows``, in that order (a row may repeat)."""
        rows = np.asarray(rows, dtype=np.int64)
        start, stop = self.indptr[rows], self.indptr[rows + 1]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(stop - start, out=indptr[1:])
        take = (np.repeat(start - indptr[:-1], stop - start)
                + np.arange(indptr[-1]))
        return CSR(indptr, self.indices[take], self.data[take],
                   (len(rows), self.shape[1]))

    def take_columns(self, cols) -> "CSR":
        """The columns ``cols`` (unique), in that order."""
        cols = np.asarray(cols, dtype=np.int64)
        new = np.full(self.shape[1], -1, dtype=np.int64)
        new[cols] = np.arange(len(cols))
        cells = self.tocoo()
        col = new[cells.col]
        keep = col >= 0
        return CSR.from_triplets(cells.row[keep], col[keep], cells.data[keep],
                                 (self.shape[0], len(cols)))

    def tocoo(self) -> COO:
        row = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return COO(row, self.indices, self.data)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        cells = self.tocoo()
        out[cells.row, cells.col] = cells.data
        return out


def _keys(row, col, n_cols: int) -> np.ndarray:
    """``row * n_cols + col`` per entry, in one new int64 array."""
    key = np.array(row, dtype=np.int64)
    key *= n_cols
    # cast ``col`` a buffer at a time as it is added: an int32 ``col`` is not
    # copied whole, and an empty list (numpy reads it as float64) is no error
    np.add(key, col, out=key, casting="unsafe")
    return key


def _run_starts(key: np.ndarray) -> np.ndarray:
    """Where each run of equal values of the sorted ``key`` starts."""
    new = np.empty(len(key), dtype=bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    return np.flatnonzero(new)


def as_csr(X) -> CSR:
    """``X`` as a CSR of float64: a CSR (stored zeros stay stored), or a
    dense rows × columns array, whose nonzero cells are stored."""
    if isinstance(X, CSR):
        return CSR(X.indptr, X.indices,
                   X.data.astype(np.float64, copy=False), X.shape)
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    row, col = np.nonzero(X)
    return CSR.from_triplets(row, col, X[row, col], X.shape)
