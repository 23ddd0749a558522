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
    c = cm.load_corpus(f, time_range=(10, 30))
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
    c = cm.load_corpus(f, time_range=(100, 200), counts=counts)
    assert c.n_posts == 10 and set(c.users) == {"a"}
    assert counts == {"lines_read": 13, "malformed_lines": 1,
                      "posts_outside_time_range": 2,
                      "users_outside_time_range": 1}


def test_a_selected_corpus_equals_the_written_file_read_back(tmp_path):
    from stancelab import synth
    corpus, _truth = synth.generate(synth.SynthSpec(n_users=40, rng_seed=5))
    corpus = cm.filter_relevant(corpus, ["aborto"])
    keep = set(sorted(corpus.users)[::2])
    corpus = cm.restrict_users(corpus, keep)
    f = tmp_path / "c.jsonl"
    cm.write_corpus(corpus, f)
    assert cm.load_corpus(f) == corpus
