"""The one sparse matrix type: rows × columns in canonical CSR layout.

Row i's cells are ``indices[indptr[i]:indptr[i + 1]]`` (columns, sorted and
unique) and the same slice of ``data`` (values); absent cells are zero.
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
        given more than once add up, in the order given."""
        row = np.asarray(row, dtype=np.int64)
        col = np.asarray(col, dtype=np.int64)
        data = np.asarray(data)
        key = row * shape[1] + col
        order = np.argsort(key, kind="stable")
        key, col, data = key[order], col[order], data[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        if len(first) < len(key):
            key, col = key[first], col[first]
            data = np.add.reduceat(data, first)
        indptr = np.searchsorted(key, np.arange(shape[0] + 1) * shape[1])
        return cls(indptr, col, data, shape)

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


def as_csr(X) -> CSR:
    """``X`` as a CSR of float64: a CSR (stored zeros stay stored), or a
    dense rows × columns array, whose nonzero cells are stored."""
    if isinstance(X, CSR):
        return CSR(X.indptr, X.indices,
                   X.data.astype(np.float64, copy=False), X.shape)
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    row, col = np.nonzero(X)
    return CSR.from_triplets(row, col, X[row, col], X.shape)
