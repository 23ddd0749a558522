import codecs
import json

import pytest

from stancelab import corpus as cm


def _post(pid, uid, ts, text, author=None, retweet_of=None, directed=None):
    obj = {"post_id": pid, "author_id": uid, "timestamp": ts, "text": text}
    if retweet_of:
        obj["retweet_of"] = retweet_of
    if directed:
        obj["directed_at"] = [{"user": u, "kind": k} for u, k in directed]
    if author is not None:
        obj["author"] = {"user_id": uid, **author}
    return json.dumps(obj)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_small_corpus(tmp_path):
    f = tmp_path / "c.jsonl"
    write_lines(f, [
        _post("p1", "a", 100, "hola aborto", author={"bio": "madre"}),
        _post("p2", "b", 50, "otro tema", author={}),
        _post("p3", "a", 200, "mas aborto"),
    ])
    c = cm.load_corpus(f)
    assert c.n_posts == 3
    assert c.n_users == 2
    # posts sorted by timestamp
    assert [p.post_id for p in c.posts] == ["p2", "p1", "p3"]
    assert c.users["a"].bio == "madre"


def test_profile_required_on_first_occurrence(tmp_path):
    f = tmp_path / "c.jsonl"
    write_lines(f, [_post("p1", "a", 1, "x")] * 1)  # no embedded author
    with pytest.raises(cm.CorpusError):
        cm.load_corpus(f)


def test_malformed_tolerance(tmp_path):
    f = tmp_path / "c.jsonl"
    good = [_post(f"p{i}", "a", i, "t", author={} if i == 0 else None)
            for i in range(20)]
    # 2 bad lines out of 22 records is under the 10% ceiling
    write_lines(f, good + ["{broken", "also broken"])
    c = cm.load_corpus(f)
    assert c.n_posts == 20

    # 3 bad out of 23 crosses it; message lists offender line numbers
    write_lines(f, good + ["{broken", "also broken", "{nope"])
    with pytest.raises(cm.CorpusError) as err:
        cm.load_corpus(f)
    assert "21" in str(err.value)


def test_duplicate_post_id_is_malformed(tmp_path):
    f = tmp_path / "c.jsonl"
    good = [_post(f"p{i}", "a", i, "x", author={} if i == 0 else None)
            for i in range(10)]
    write_lines(f, good + [_post("p0", "a", 99, "dup")])
    c = cm.load_corpus(f)  # 1 of 11 bad: under the ceiling, duplicate dropped
    assert c.n_posts == 10
    assert sum(1 for p in c.posts if p.post_id == "p0") == 1


def test_time_range_half_open(tmp_path):
    f = tmp_path / "c.jsonl"
    write_lines(f, [
        _post("p1", "a", 10, "x", author={}),
        _post("p2", "a", 20, "y"),
        _post("p3", "a", 30, "z"),
    ])
    c = cm.load_corpus(f)
    c = c.select(c.in_period(10, 30))
    assert [p.post_id for p in c.posts] == ["p1", "p2"]


def test_filter_relevant_word_boundaries():
    users = {"a": cm.UserProfile(user_id="a")}
    posts = (
        cm.MicroPost("p1", "a", 1, "el aborto libre"),
        cm.MicroPost("p2", "a", 2, "abortowski no cuenta"),
        cm.MicroPost("p3", "a", 3, "marcha #Aborto hoy"),
        cm.MicroPost("p4", "a", 4, "nada que ver"),
    )
    c = cm.Corpus(posts=posts, users=users)
    kept = cm.filter_relevant(c, ["aborto"])
    assert [p.post_id for p in kept.posts] == ["p1", "p3"]


def test_filter_relevant_exclude_patterns():
    users = {"a": cm.UserProfile(user_id="a")}
    posts = (
        cm.MicroPost("p1", "a", 1, "aborto spam sorteo"),
        cm.MicroPost("p2", "a", 2, "aborto debate"),
    )
    c = cm.Corpus(posts=posts, users=users)
    kept = cm.filter_relevant(c, ["aborto"], ["sorteo"])
    assert [p.post_id for p in kept.posts] == ["p2"]


def _graph(edge_list):
    nodes = set()
    for a, b in edge_list:
        nodes.add(a)
        nodes.add(b)
    return cm.InteractionGraph(
        nodes=frozenset(nodes),
        edges={(a, b, "mention"): 1 for a, b in edge_list})


def test_interaction_graph_ignores_external_targets():
    users = {u: cm.UserProfile(user_id=u) for u in ("a", "b")}
    posts = (
        cm.MicroPost("p1", "a", 1, "x", retweet_of="b"),
        cm.MicroPost("p2", "a", 2, "y", directed_at=(("ghost", "mention"),)),
    )
    c = cm.Corpus(posts=posts, users=users)
    g = cm.build_interaction_graph(c)
    assert g.nodes == frozenset({"a", "b"})
    assert set(g.edges) == {("a", "b", "retweet")}


def test_interaction_graph_of_a_post_mask():
    users = {u: cm.UserProfile(user_id=u) for u in ("a", "b", "c")}
    posts = (
        cm.MicroPost("p1", "a", 1, "x", retweet_of="b"),
        cm.MicroPost("p2", "b", 2, "y", directed_at=(("c", "mention"),)),
        cm.MicroPost("p3", "c", 3, "z", retweet_of="a",
                     directed_at=(("b", "reply"), ("ghost", "quote"))),
        cm.MicroPost("p4", "a", 4, "w", retweet_of="b"),
    )
    c = cm.Corpus(posts=posts, users=users)
    for mask in ([True] * 4, [False] * 4, [True, False, True, True],
                 c.in_period(2, 4)):
        kept = tuple(p for p, keep in zip(posts, mask) if keep)
        want = cm.build_interaction_graph(
            cm.Corpus(posts=kept, users=users))
        got = cm.build_interaction_graph(c, posts=mask)
        assert got.nodes == want.nodes == frozenset(users)
        assert got.edges == want.edges
    assert cm.build_interaction_graph(c, posts=c.in_period(2, 4)).edges == {
        ("b", "c", "mention"): 1, ("c", "a", "retweet"): 1,
        ("c", "b", "reply"): 1}


def test_lcc_simple():
    g = _graph([("a", "b"), ("b", "c"), ("x", "y")])
    assert cm.largest_connected_component(g) == {"a", "b", "c"}


def test_lcc_tie_breaks_by_min_node():
    g = _graph([("b", "c"), ("x", "y")])
    # two components of size 2: the one containing "b" wins
    assert cm.largest_connected_component(g) == {"b", "c"}


class UnionFind:
    """Independent oracle for connected components."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def uf_largest_component(graph):
    uf = UnionFind(graph.nodes)
    for (a, b, _k) in graph.edges:
        uf.union(a, b)
    comps = {}
    for n in graph.nodes:
        comps.setdefault(uf.find(n), set()).add(n)
    if not comps:
        return set()
    return max(comps.values(),
               key=lambda c: (len(c), [-ord(ch) for ch in min(c)]))


def test_lcc_matches_union_find_oracle():
    import numpy as np
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(2, 60))
        nodes = [f"n{i:03d}" for i in range(n)]
        edges = {}
        for _e in range(int(rng.integers(0, 3 * n))):
            a, b = rng.integers(0, n, size=2)
            edges[(nodes[a], nodes[b], "mention")] = 1
        g = cm.InteractionGraph(nodes=frozenset(nodes), edges=edges)
        assert cm.largest_connected_component(g) == uf_largest_component(g)


def test_weekly_volume_zero_weeks():
    users = {"a": cm.UserProfile(user_id="a")}
    # 2021-01-04 (W01) and 2021-01-25 (W04); W02 and W03 have no posts
    t1, t2 = 1609718400, 1611532800
    posts = (cm.MicroPost("p1", "a", t1, "x"), cm.MicroPost("p2", "a", t2, "y"))
    c = cm.Corpus(posts=posts, users=users)
    vol = cm.weekly_volume(c, (t1, t2 + 1))
    assert vol == [("2021-W01", 1), ("2021-W02", 0), ("2021-W03", 0),
                   ("2021-W04", 1)]


def test_write_and_reload_round_trip(tmp_path):
    users = {"a": cm.UserProfile(user_id="a", bio="hola", n_followers=3,
                                 timezone="Santiago")}
    posts = (cm.MicroPost("p1", "a", 1, "x", directed_at=(("a", "reply"),)),)
    c = cm.Corpus(posts=posts, users=users)
    f = tmp_path / "out.jsonl"
    cm.write_corpus(c, f)
    c2 = cm.load_corpus(f)
    assert c2.posts == c.posts
    assert c2.users == c.users


def test_load_reports_what_it_drops(tmp_path):
    f = tmp_path / "c.jsonl"
    write_lines(f, [
        _post("p1", "a", 100, "x", author={}),
        _post("p2", "b", 5, "y", author={}),   # b's only post: out of range
        _post("p3", "a", 300, "z"),           # out of range
        "{broken",
    ] + [_post(f"q{i}", "a", 150, "w") for i in range(9)])
    counts = {}
    read = cm.load_corpus(f, counts=counts)
    c = read.select(read.in_period(100, 200))
    assert c.n_posts == 10 and set(c.users) == {"a"}
    counts.update(posts_outside_time_range=read.n_posts - c.n_posts,
                  users_outside_time_range=read.n_users - c.n_users)
    assert counts == {"lines_read": 13, "malformed_lines": 1,
                      "posts_outside_time_range": 2,
                      "users_outside_time_range": 1}


def test_a_selected_corpus_equals_the_written_file_read_back(tmp_path):
    from stancelab import synth
    corpus, _truth = synth.generate(synth.SynthSpec(n_users=40, rng_seed=5))
    corpus = cm.filter_relevant(corpus, ["aborto"])
    keep = set(sorted(corpus.users)[::2])
    corpus = corpus.select([p.author_id in keep for p in corpus.posts])
    f = tmp_path / "c.jsonl"
    cm.write_corpus(corpus, f)
    assert cm.load_corpus(f) == corpus


def test_select_keeps_the_masked_posts_and_only_their_authors():
    users = {u: cm.UserProfile(user_id=u) for u in "abc"}
    posts = (cm.MicroPost("p1", "a", 1, "x", directed_at=(("b", "reply"),)),
             cm.MicroPost("p2", "b", 2, "y"),
             cm.MicroPost("p3", "a", 3, "z"),
             cm.MicroPost("p4", "c", 4, "w"))
    c = cm.Corpus(posts=posts, users=users)
    kept = c.select([True, False, True, True])
    assert kept.posts == (posts[0], posts[2], posts[3])
    assert list(kept.users) == ["a", "c"]
    # b's reply stays in the record, but is no edge of the selection
    assert cm.build_interaction_graph(kept).edges == {}
    assert c.select(c.in_period(0, 10)) == c
    assert c.select([False] * 4) == cm.Corpus(posts=(), users={})


def test_a_byte_order_mark_is_no_data(tmp_path):
    from stancelab import synth
    corpus, _truth = synth.generate(synth.SynthSpec(n_users=60, rng_seed=3))
    f = tmp_path / "c.jsonl"
    cm.write_corpus(corpus, f)
    f.write_bytes(codecs.BOM_UTF8 + f.read_bytes())
    counts = {}
    assert cm.load_corpus(f, counts=counts) == corpus
    assert counts == {"lines_read": corpus.n_posts, "malformed_lines": 0}


def _ten_posts_by_a():
    return [_post(f"p{i}", "a", i, "t", author={} if i == 0 else None)
            for i in range(10)]


@pytest.mark.parametrize("field, value", [
    ("text", None), ("author.full_name", None), ("author.bio", 5),
    ("timestamp", True), ("timestamp", 1.5), ("author.n_friends", 2.9),
    ("author.n_posts", "12"), ("post_id", [1]),
    ("directed_at", [{"user": "a", "kind": "retweet"}]),
    # an embedded author is the post's, and a count is not negative
    ("author.user_id", "c"), ("author.n_followers", -1),
])
def test_a_value_not_of_its_fields_type_makes_its_line_malformed(
        tmp_path, field, value):
    f = tmp_path / "c.jsonl"
    line = {"post_id": "q1", "author_id": "b", "timestamp": 50, "text": "t",
            "author": {"user_id": "b", "full_name": "B", "bio": "hola",
                       "n_posts": 3, "n_friends": 2},
            "directed_at": [{"user": "a", "kind": "reply"}]}
    # the line as it is loads
    write_lines(f, _ten_posts_by_a() + [json.dumps(line)])
    assert cm.load_corpus(f).n_posts == 11
    where, _dot, key = field.rpartition(".")
    (line[where] if where else line)[key] = value
    write_lines(f, _ten_posts_by_a() + [json.dumps(line)])
    counts = {}
    c = cm.load_corpus(f, counts=counts)
    assert counts["lines_read"] == 11 and counts["malformed_lines"] == 1
    assert [p.post_id for p in c.posts] == [f"p{i}" for i in range(10)]
    assert set(c.users) == {"a"}


def test_integer_ids_are_read_as_their_digits(tmp_path):
    f = tmp_path / "c.jsonl"
    write_lines(f, [json.dumps({
        "post_id": 12, "author_id": 7, "timestamp": 1, "text": "x",
        "retweet_of": 8, "directed_at": [{"user": 9, "kind": "mention"}],
        "author": {"user_id": 7}})])
    c = cm.load_corpus(f)
    assert c.posts == (cm.MicroPost("12", "7", 1, "x", retweet_of="8",
                                    directed_at=(("9", "mention"),)),)
    assert c.users == {"7": cm.UserProfile(user_id="7")}


@pytest.mark.parametrize("bad", [
    b'{"post_id": "q1", "author_id": "a", "timestamp": 1, "text": "\xff"}',
    b"[]", b"5",
    b'{"post_id": "q1", "author_id": "a", "timestamp": 1, '
    b'"text": "aborto \\ud800"}',
    b'{"post_id": "q1", "author_id": "b", "timestamp": 1, "text": "t", '
    b'"author": {"user_id": "b", "bio": "\\uDFFF"}}',
], ids=["not utf-8", "a list", "a number", "a lone surrogate in a text",
        "a lone surrogate in a profile"])
def test_a_line_that_is_not_a_utf8_json_object_is_malformed(tmp_path, bad):
    f = tmp_path / "c.jsonl"
    good = [line.encode() + b"\n" for line in _ten_posts_by_a()]
    f.write_bytes(b"".join(good[:5]) + bad + b"\n" + b"".join(good[5:]))
    counts = {}
    c = cm.load_corpus(f, counts=counts)
    assert counts["lines_read"] == 11 and counts["malformed_lines"] == 1
    assert c.n_posts == 10
    cm.write_corpus(c, tmp_path / "back.jsonl")
    assert cm.load_corpus(tmp_path / "back.jsonl") == c


def test_an_escaped_surrogate_pair_is_one_character(tmp_path):
    f = tmp_path / "c.jsonl"
    f.write_bytes(b'{"post_id": "q1", "author_id": "a", "timestamp": 1, '
                  b'"text": "\\ud83d\\udc9a", "author": {"user_id": "a"}}\n')
    [post] = cm.load_corpus(f).posts
    assert post.text == "\U0001F49A"


def test_the_posts_of_an_author_hold_one_id_string(tmp_path):
    f = tmp_path / "c.jsonl"
    uid = "user_0042"
    write_lines(f, [_post(f"p{i}", uid, i, "t", author={} if i == 0 else None)
                    for i in range(3)])
    c = cm.load_corpus(f)
    assert len(c.posts) == 3
    for p in c.posts:
        assert p.author_id is c.users[uid].user_id


def test_an_unreadable_corpus_is_a_named_error(tmp_path):
    with pytest.raises(cm.CorpusError, match="cannot read corpus file"):
        cm.load_corpus(tmp_path)
