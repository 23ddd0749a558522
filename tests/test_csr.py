import numpy as np
from hypothesis import given, settings, strategies as st

from stancelab.csr import CSR, as_csr


def canonical(X: CSR) -> bool:
    cells = X.tocoo()
    key = cells.row * X.shape[1] + cells.col
    return (len(X.indptr) == X.shape[0] + 1 and X.indptr[-1] == X.nnz
            and bool(np.all(np.diff(key) > 0)))


@st.composite
def triplets(draw):
    n, p = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    k = draw(st.integers(0, 25)) if n else 0
    row = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=k,
                        max_size=k))
    col = draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k))
    val = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    return row, col, [float(v) for v in val], (n, p)


@settings(max_examples=150, deadline=None)
@given(triplets(), st.data())
def test_operations_match_a_dense_oracle(cells, data):
    row, col, val, shape = cells
    X = CSR.from_triplets(row, col, val, shape)
    dense = np.zeros(shape)
    np.add.at(dense, (np.array(row, dtype=int), np.array(col, dtype=int)),
              val)
    assert canonical(X)
    assert np.array_equal(X.toarray(), dense)
    # duplicate cells were summed, so every stored cell is distinct
    assert X.nnz == np.count_nonzero(dense)

    rows = data.draw(st.lists(st.integers(0, max(shape[0] - 1, 0)),
                              max_size=8 if shape[0] else 0))
    taken = X.take_rows(rows)
    assert canonical(taken)
    assert np.array_equal(taken.toarray(), dense[rows].reshape(-1, shape[1]))

    cols = data.draw(st.permutations(range(shape[1])))[
        :data.draw(st.integers(0, shape[1]))]
    taken = X.take_columns(cols)
    assert canonical(taken)
    assert np.array_equal(taken.toarray(), dense[:, cols])

    assert np.array_equal(as_csr(dense).toarray(), dense)


def test_coo_view_is_row_major():
    X = CSR.from_triplets([1, 0, 1], [0, 2, 1],
                          np.array([3, 4, 5], dtype=np.int64), (2, 3))
    row, col, data = X.tocoo()
    assert (row.tolist(), col.tolist(), data.tolist()) == \
        ([0, 1, 1], [2, 0, 1], [4, 3, 5])
    assert X.data.dtype == np.int64


@st.composite
def pairs(draw):
    """(row, col, shape) with no pair at all when a side is 0."""
    n, p = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    k = draw(st.integers(0, 30)) if n and p else 0
    row = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=k,
                        max_size=k))
    col = draw(st.lists(st.integers(0, max(p - 1, 0)), min_size=k,
                        max_size=k))
    return row, col, (n, p)


@settings(max_examples=150, deadline=None)
@given(pairs(), st.sampled_from([list, np.int32, np.int64]))
def test_counts_match_a_dense_oracle(cells, kind):
    row, col, shape = cells
    if kind is not list:  # term ids and rows arrive as int32 arrays
        row, col = np.array(row, dtype=kind), np.array(col, dtype=kind)
    dense = np.zeros(shape, dtype=np.int64)
    np.add.at(dense, (np.asarray(row, dtype=np.intp),
                      np.asarray(col, dtype=np.intp)), 1)
    X = CSR.count(row, col, shape)
    assert canonical(X) and X.shape == shape
    assert np.array_equal(X.toarray(), dense)
    assert X.nnz == np.count_nonzero(dense)
    assert X.indptr.dtype == X.indices.dtype == X.data.dtype == np.int64
    # a count is a sum of ones
    Y = CSR.from_triplets(row, col, np.ones(len(row), dtype=np.int64), shape)
    assert canonical(Y) and Y.shape == shape
    for a, b in ((X.indptr, Y.indptr), (X.indices, Y.indices),
                 (X.data, Y.data)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
