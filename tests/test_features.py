import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from stancelab import corpus as cm
from stancelab import features as ft
from stancelab import textproc as tp
from stancelab.csr import CSR, as_csr


def small_corpus():
    users = {
        "a": cm.UserProfile(user_id="a", bio="madre 💚", url="http://blog.cl",
                            timezone="Santiago", full_name="Ana ✨"),
        "b": cm.UserProfile(user_id="b"),
        "c": cm.UserProfile(user_id="c"),
    }
    posts = (
        cm.MicroPost("p1", "a", 1, "aborto legal aborto"),
        cm.MicroPost("p2", "b", 2, "aborto no", retweet_of="a"),
        cm.MicroPost("p3", "c", 3, "hola", directed_at=(("a", "mention"),)),
    )
    return cm.Corpus(posts=posts, users=users)


def build(min_in_degree=1):
    c = small_corpus()
    enc = tp.encode(c)
    profile = ft.profile_blocks(
        c, enc.term_counts("bio", 1),
        tp.Lexicon(categories={"family": frozenset({"madre"})}))
    g = cm.build_interaction_graph(c)
    return ft.build_matrix(c, enc.term_counts("tweet", 1), profile, g,
                           min_in_degree=min_in_degree)


def test_matrix_values_hand_checked():
    m = build()
    dense = m.to_dense()
    ridx, cidx = m.row_index(), m.column_index()
    assert m.rows == ("a", "b", "c")
    assert dense[ridx["a"], cidx["aborto"]] == 2
    assert dense[ridx["b"], cidx["aborto"]] == 1
    assert dense[ridx["a"], cidx["profile:madre"]] == 1
    assert dense[ridx["a"], cidx["profile:💚"]] == 1
    assert dense[ridx["a"], cidx["lexcat:family"]] == 1
    assert dense[ridx["a"], cidx["home_domain:blog.cl"]] == 1
    assert dense[ridx["a"], cidx["timezone:Santiago"]] == 1
    assert dense[ridx["a"], cidx["n_emojis_bio"]] == 1
    assert dense[ridx["a"], cidx["name:✨"]] == 1
    assert dense[ridx["b"], cidx["rt:a"]] == 1
    assert dense[ridx["c"], cidx["at:a"]] == 1


def test_block_order_and_types():
    m = build()
    blocks = [c.block for c in m.columns]
    # blocks appear in the fixed order
    order = {b: i for i, b in enumerate(ft.BLOCKS)}
    assert blocks == sorted(blocks, key=order.__getitem__)
    by_id = {c.identifier: c for c in m.columns}
    assert by_id["aborto"].feature_type == "word"
    assert by_id["profile:💚"].feature_type == "emoji"
    assert by_id["lexcat:family"].feature_type == "lexicon_category"
    assert by_id["rt:a"].feature_type == "network"


def test_min_in_degree_prunes_edges():
    m = build(min_in_degree=2)
    ids = set(m.column_identifiers())
    assert "rt:a" not in ids and "at:a" not in ids


def test_save_load_round_trip(tmp_path):
    m = build()
    f = tmp_path / "m.txt"
    m.save(f)
    m2 = ft.FeatureMatrix.load(f)
    assert m2.rows == m.rows
    assert m2.columns == m.columns
    assert np.array_equal(m2.to_dense(), m.to_dense())
    assert m2 == m
    # \r\n ends a line as \n does
    crlf = tmp_path / "crlf.txt"
    crlf.write_bytes(f.read_bytes().replace(b"\n", b"\r\n"))
    assert ft.FeatureMatrix.load(crlf) == m
    # byte-identical re-save
    f2 = tmp_path / "m2.txt"
    m2.save(f2)
    assert f.read_bytes() == f2.read_bytes()


def test_save_memory_does_not_grow_with_the_nonzeros(tmp_path):
    # 2,000 rows, some empty, and 60 columns: about 24 chunks of cells
    rng = np.random.default_rng(5)
    n_rows, n_cols = 2000, 60
    dense = rng.random((n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < .9)
    dense[rng.random(n_rows) < 0.1] = 0.0
    m = ft.FeatureMatrix(
        rows=tuple(f"u{i:05d}" for i in range(n_rows)),
        columns=tuple(ft.FeatureColumn(f"t{j}", "tweet_term", "word")
                      for j in range(n_cols)),
        X=as_csr(dense))
    assert m.X.nnz > 20 * ft._SAVE_CELLS
    path = tmp_path / "m.txt"
    tracemalloc.start()
    try:
        m.save(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a chunk's cells as Python numbers, at some 100 bytes a cell
    assert peak < 200 * ft._SAVE_CELLS, peak
    assert ft.FeatureMatrix.load(path) == m
    lines = path.read_text(encoding="utf-8").splitlines()[-m.X.nnz:]
    cells = m.X.tocoo()
    assert lines == [f"{i} {j} {v!r}" for i, j, v in zip(
        cells.row.tolist(), cells.col.tolist(), cells.data.tolist())]


def test_drop_columns():
    m = build()
    dropped = ft.drop_columns(m, {"aborto"})
    assert "aborto" not in dropped.column_identifiers()
    assert dropped.shape[0] == m.shape[0]
    assert dropped.shape[1] == m.shape[1] - 1
    # remaining values survive the remap
    cidx = dropped.column_index()
    ridx = dropped.row_index()
    assert dropped.to_dense()[ridx["a"], cidx["legal"]] == 1


def test_align_rows():
    m = build()
    X = np.zeros((2, m.shape[1]))
    X[0, 0] = 1.0
    other = ft.FeatureMatrix(rows=("b", "z"), columns=m.columns,
                             X=as_csr(X))
    a, b = ft.align_rows(m, other)
    assert a.rows == b.rows == ("b",)
    assert a.columns == m.columns
    assert np.array_equal(a.to_dense(), m.to_dense()[[1]])
    assert np.array_equal(b.to_dense(), X[[0]])


def test_positive_cell_contract():
    explicit_zero = CSR(np.array([0, 1]), np.array([0]), np.array([0.0]),
                        (1, 1))
    with pytest.raises(ft.MatrixError):
        ft.FeatureMatrix(rows=("a",),
                         columns=(ft.FeatureColumn("x", "tweet_term", "word"),),
                         X=explicit_zero)


def test_row_ids_and_column_identifiers_are_unique():
    x = ft.FeatureColumn("x", "tweet_term", "word")
    with pytest.raises(ft.MatrixError, match="duplicate row 'a'"):
        ft.FeatureMatrix(rows=("a", "b", "a"), columns=(x,),
                         X=as_csr(np.ones((3, 1))))
    with pytest.raises(ft.MatrixError, match="duplicate column 'x'"):
        ft.FeatureMatrix(rows=("a",), columns=(x, x),
                         X=as_csr(np.ones((1, 2))))


def _set(lines, k, text):
    return lines[:k] + [text] + lines[k + 1:], k


def _value(lines, k, value):
    i, j, _v = lines[k].split(" ")
    return _set(lines, k, f"{i} {j} {value}")


def _first(lines, prefix):
    return next(k for k, line in enumerate(lines) if line.startswith(prefix))


def _repeat_then_bad_col(lines, d):
    bad, _k = _set(lines, _first(lines, "#col "), "#col 0")
    return _set(bad, _first(lines, "#row ") + 2, "#row 2 a")


# each edit takes the saved file's lines and the index of its first data
# line, and returns the corrupted lines and the index of the line to blame
CORRUPTIONS = {
    "two_fields": lambda ls, d: _set(ls, d + 1, "0 1"),
    "four_fields": lambda ls, d: _set(ls, d + 1, "0 1 2.0 3"),
    "non_integer_index": lambda ls, d: _set(ls, d, "0 x 1.0"),
    "non_numeric_value": lambda ls, d: _value(ls, d, "abc"),
    "row_out_of_range": lambda ls, d: _set(ls, d, "3 0 1.0"),
    "negative_row": lambda ls, d: _set(ls, d, "-1 0 1.0"),
    "col_out_of_range": lambda ls, d: _set(ls, d, "0 999 1.0"),
    "row_out_of_sequence":
        lambda ls, d: _set(ls, _first(ls, "#row ") + 1, "#row 5 b"),
    "col_out_of_sequence":
        lambda ls, d: _set(ls, _first(ls, "#col "),
                           "#col 1 aborto tweet_term word"),
    "zero_value": lambda ls, d: _value(ls, d, "0.0"),
    "negative_value": lambda ls, d: _value(ls, d, "-2.0"),
    "nan_value": lambda ls, d: _value(ls, d, "nan"),
    "inf_value": lambda ls, d: _value(ls, d, "inf"),
    "duplicate": lambda ls, d: (ls[:d + 1] + ls[d:], d + 1),
    "out_of_order":
        lambda ls, d: (ls[:d] + [ls[d + 1], ls[d]] + ls[d + 2:], d + 1),
    # the second #col (or #row) line of an identifier
    "duplicate_column":
        lambda ls, d: _set(ls, _first(ls, "#col ") + 1,
                           "#col 1 aborto tweet_term word"),
    "duplicate_row": lambda ls, d: _set(ls, _first(ls, "#row ") + 2,
                                        "#row 2 a"),
    # a repeat is named before a malformed line after it
    "duplicate_row_before_bad_col": _repeat_then_bad_col,
    "row_id_with_blank": lambda ls, d: _set(ls, _first(ls, "#row ") + 1,
                                            "#row 1 b x"),
    "index_beyond_int64":
        lambda ls, d: _set(ls, d + 1, "99999999999999999999 0 1.0"),
    # a matrix has at most one #period line, and its start is before its end
    "second_period":
        lambda ls, d: (ls[:1] + ["#period 5 9", "#period 5 9"] + ls[1:], 2),
    "period_start_not_before_end":
        lambda ls, d: (ls[:1] + ["#period 9 9"] + ls[1:], 1),
    # a #period time is a corpus time
    "period_time_out_of_range":
        lambda ls, d: (ls[:1] + [f"#period {'1' * 400} {'2' * 400}"] + ls[1:],
                       1),
    "no_format_line": lambda ls, d: (ls[1:], 0),
    "unknown_tag": lambda ls, d: _set(ls, _first(ls, "#row "), "#rows 0 a"),
    "col_two_fields":
        lambda ls, d: _set(ls, _first(ls, "#col "), "#col 0"),
    "unknown_block":
        lambda ls, d: _set(ls, _first(ls, "#col "),
                           "#col 0 aborto tweet_terms word"),
    "unknown_feature_type":
        lambda ls, d: _set(ls, _first(ls, "#col "),
                           "#col 0 aborto tweet_term words"),
    "network_outside_edge_block":
        lambda ls, d: _set(ls, _first(ls, "#col "),
                           "#col 0 aborto tweet_term network"),
    # 0xff, written from its surrogate escape
    "not_utf8": lambda ls, d: _value(ls, d + 1, "1.\udcff0"),
    "not_utf8_header":
        lambda ls, d: _set(ls, _first(ls, "#col "),
                           "#col 0 abort\udcffo tweet_term word"),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_load_rejects_corruption_with_file_and_line(tmp_path, case):
    good = tmp_path / "good.txt"
    build().save(good)
    lines = good.read_text(encoding="utf-8").splitlines()
    data_at = next(k for k, line in enumerate(lines)
                   if not line.startswith("#"))
    bad_lines, blame = CORRUPTIONS[case](lines, data_at)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(bad_lines) + "\n", encoding="utf-8",
                   errors="surrogateescape")
    with pytest.raises(ft.MatrixError, match=re.escape(f"{bad}:{blame + 1}:")):
        ft.FeatureMatrix.load(bad)


def _first_bad_cell(cells, n_rows, n_cols):
    """The index of the first cell out of range, not positive and finite, or
    not after the cell before it; None if there is none."""
    for k, (i, j, v) in enumerate(cells):
        if not (0 <= i < n_rows and 0 <= j < n_cols and 0 < v < math.inf):
            return k
        if k and (i, j) <= cells[k - 1][:2]:
            return k
    return None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_load_agrees_with_a_plain_oracle(tmp_path_factory, data):
    n_rows, n_cols = 3, 4
    if data.draw(st.booleans(), label="wild"):
        index = st.integers(-1, 5) | st.sampled_from([2**63, -2**63 - 1])
        value = st.floats() | st.sampled_from([0.0, -1.0])
    else:
        index = st.integers(0, 2)
        value = st.floats(1e-300, 1e300)
    cells = data.draw(st.lists(st.tuples(index, index, value), max_size=10))
    if data.draw(st.booleans(), label="sorted"):
        cells = sorted({(i, j): (i, j, v) for i, j, v in cells}.values())
    header = (["#format stancelab-matrix v1"]
              + [f"#row {i} u{i}" for i in range(n_rows)]
              + [f"#col {j} t{j} tweet_term word" for j in range(n_cols)])
    path = tmp_path_factory.mktemp("oracle") / "m.txt"
    path.write_text("\n".join(header + [f"{i} {j} {v!r}" for i, j, v in cells])
                    + "\n", encoding="utf-8")
    bad = _first_bad_cell(cells, n_rows, n_cols)
    if bad is None:
        dense = np.zeros((n_rows, n_cols))
        for i, j, v in cells:
            dense[i, j] = v
        assert np.array_equal(ft.FeatureMatrix.load(path).X.toarray(), dense)
    else:
        line = len(header) + 1 + bad
        with pytest.raises(ft.MatrixError,
                           match=re.escape(f"{path}:{line}:")):
            ft.FeatureMatrix.load(path)
