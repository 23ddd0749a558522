from collections import Counter
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stancelab import corpus as cm
from stancelab import textproc as tp


def kinds(text):
    return [(t.kind, t.surface) for t in tp.tokenize(text)]


def test_basic_token_kinds():
    assert kinds("Hola #AbortoLegal @Alguien http://t.co/x y 💚") == [
        ("word", "hola"), ("hashtag", "#abortolegal"), ("mention", "@alguien"),
        ("url", "http://t.co/x"), ("word", "y"), ("emoji", "💚")]


def test_accents_preserved():
    assert kinds("Años DESPUÉS") == [("word", "años"), ("word", "después")]


def test_zwj_emoji_is_one_token():
    family = "👨‍👩‍👧"
    toks = tp.tokenize(f"mi familia {family} feliz")
    emo = [t for t in toks if t.kind == "emoji"]
    assert len(emo) == 1 and emo[0].surface == family


def test_skin_tone_stays_attached():
    toks = tp.tokenize("hola 👍🏽 chau")
    emo = [t for t in toks if t.kind == "emoji"]
    assert emo[0].surface == "👍🏽"


def test_flag_pairs():
    toks = tp.tokenize("vamos 🇦🇷 ahora")
    assert [t.surface for t in toks if t.kind == "emoji"] == ["🇦🇷"]


def test_url_trailing_punctuation_stripped():
    toks = tp.tokenize("mira https://example.com/a.")
    urls = [t for t in toks if t.kind == "url"]
    assert urls[0].surface == "https://example.com/a"


def test_registrable_domain():
    assert tp.registrable_domain("https://www.Example.com/p?q=1") == "example.com"
    assert tp.registrable_domain("http://t.co/abc") == "t.co"
    assert tp.registrable_domain("www.foo.org") == "foo.org"
    # a host that does not parse (an unclosed IPv6 bracket) is the URL itself
    assert tp.registrable_domain("http://[X") == "http://[x"
    assert tp.registrable_domain("[x") == "http://[x"


@given(st.text(max_size=200))
def test_tokenize_total_and_typed(text):
    for tok in tp.tokenize(text):
        assert tok.kind in ("word", "hashtag", "mention", "url", "emoji")
        assert tok.surface
        if tok.kind == "word":
            assert tok.surface == tok.surface.lower()


def _corpus():
    users = {
        "a": cm.UserProfile(user_id="a", bio="madre feminista 💚"),
        "b": cm.UserProfile(user_id="b", bio=None),
    }
    posts = (
        cm.MicroPost("p1", "a", 1, "aborto legal ya"),
        cm.MicroPost("p2", "a", 2, "aborto libre"),
        cm.MicroPost("p3", "b", 3, "no al aborto", retweet_of="a"),
    )
    return cm.Corpus(posts=posts, users=users)


def test_term_counts_hand_tally():
    tc = tp.term_counts(_corpus(), "tweet", min_count=1, stopwords={"al"})
    tok = tp.Token("aborto", "word")
    assert tc.counts[("a", tok)] == 2
    assert tc.counts[("b", tok)] == 1
    assert ("b", tp.Token("al", "word")) not in tc.counts


def test_term_counts_min_count_floor():
    tc = tp.term_counts(_corpus(), "tweet", min_count=2)
    vocab = {t.surface for t in tc.vocabulary()}
    assert "aborto" in vocab
    assert "legal" not in vocab  # total frequency 1


def test_term_counts_exclude_retweets():
    tc = tp.term_counts(_corpus(), "tweet", min_count=1,
                        include_retweets=False)
    assert not any(u == "b" for (u, _t) in tc.counts)


def test_bio_scope():
    tc = tp.term_counts(_corpus(), "bio", min_count=1)
    assert tc.counts[("a", tp.Token("madre", "word"))] == 1
    assert tc.counts[("a", tp.Token("💚", "emoji"))] == 1


def test_term_counts_rejects_bad_args():
    with pytest.raises(ValueError):
        tp.term_counts(_corpus(), "dm", 1)
    with pytest.raises(ValueError):
        tp.term_counts(_corpus(), "tweet", 0)


def test_lexicon_counts(tmp_path):
    f = tmp_path / "lex.tsv"
    f.write_text("family\tmadre\nfamily\tpadre\npolitics\tfeminista\n")
    lex = tp.Lexicon.from_file(f)
    enc = tp.encode(_corpus())
    cats, hits = enc.lexicon_counts(lex)
    counts = {u: dict(zip(cats, row.tolist()))
              for u, row in zip(enc.users, hits.toarray())}
    assert counts["a"] == {"family": 1, "politics": 1}
    assert counts["b"] == {"family": 0, "politics": 0}


def test_stopword_loader(tmp_path):
    f = tmp_path / "stop.txt"
    f.write_text("# comment\nDe\nla\n\n")
    assert tp.load_stopwords(f) == {"de", "la"}


# -- the encoding against a direct tally of tokenize output ------------------

_FRAGMENTS = (
    "Aborto", "aborto", "de", "la", "LEGAL", "a\u0301rbol", "árbol", "foo",
    "#AbortoLegal", "#provida", "@Ana", "@ana_b", "madre", "feminista",
    "instagram", "2017", "x_1",
    # URLs with trailing punctuation, and ones whose domain has no dot
    "http://t.co/x.", "https://www.Example.com/a?b=1!", "www.foo.org/p),",
    "www.foo", "http://localhost/",
    # plain, skin-toned, ZWJ and flag emoji
    "💚", "💙", "👍🏽", "👨‍👩‍👧", "🇦🇷", "✨",
)
_SEPS = (" ", " ", ", ", "", "\n", "! ")
_text = st.lists(st.tuples(st.sampled_from(_FRAGMENTS), st.sampled_from(_SEPS)),
                 max_size=7).map(lambda parts: "".join(f + s for f, s in parts))
# both sides of the 2017/2018 year boundary and of the two periods
_TIMES = (1496275200, 1514764799, 1514764800, 1527811200, 1533081600)
_PERIODS = ((1493596800, 1501545600), (1525132800, 1533081600))
_STOP = {"de", "la"}


@st.composite
def _corpora(draw):
    n_users = draw(st.integers(1, 4))
    users = {f"u{i}": cm.UserProfile(
        user_id=f"u{i}", bio=draw(st.one_of(st.none(), _text)),
        full_name=draw(_text)) for i in range(n_users)}
    posts = tuple(
        cm.MicroPost(f"p{k}", f"u{draw(st.integers(0, n_users - 1))}",
                     draw(st.sampled_from(_TIMES)), draw(_text),
                     retweet_of=draw(st.sampled_from((None, "u0"))))
        for k in range(draw(st.integers(0, 8))))
    return cm.Corpus(posts=posts, users=users)


def _counted(tok):
    if tok.kind == "url":
        return tp.Token(tp.registrable_domain(tok.surface), "url")
    return tok


def _tally(texts, min_count):
    """{(user, term): count} over (user, text) pairs, as term_counts
    defines it: stopwords out, URLs by domain, then the floor."""
    counts = Counter()
    for user, text in texts:
        for tok in tp.tokenize(text):
            if not (tok.kind == "word" and tok.surface in _STOP):
                counts[(user, _counted(tok))] += 1
    totals = Counter()
    for (_u, tok), c in counts.items():
        totals[tok] += c
    return {k: c for k, c in counts.items() if totals[k[1]] >= min_count}


@settings(max_examples=150, deadline=None)
@given(_corpora(), st.integers(1, 3), st.booleans())
def test_encoding_counts_equal_a_direct_tally(corpus, min_count, retweets):
    enc = tp.encode(corpus)
    for period in (None, *_PERIODS):
        want = _tally([(p.author_id, p.text) for p in corpus.posts
                       if (retweets or not p.retweet_of)
                       and (period is None
                            or period[0] <= p.timestamp < period[1])],
                      min_count)
        posts = None if period is None else np.array(
            corpus.in_period(*period), dtype=bool)
        got = enc.term_counts("tweet", min_count, _STOP,
                              include_retweets=retweets, posts=posts)
        assert got.counts == want
    # the module-level function is a view of the same encoding
    assert tp.term_counts(corpus, "tweet", min_count, _STOP,
                          include_retweets=retweets).counts == \
        enc.term_counts("tweet", min_count, _STOP,
                        include_retweets=retweets).counts
    bios = [(u, prof.bio or "") for u, prof in corpus.users.items()]
    assert enc.term_counts("bio", min_count, _STOP).counts == \
        _tally(bios, min_count)

    by_year = {}
    for p in corpus.posts:
        year = datetime.fromtimestamp(p.timestamp, tz=timezone.utc).year
        counts = by_year.setdefault(year, Counter())
        for tok in tp.tokenize(p.text):
            if not (tok.kind == "word" and tok.surface in _STOP):
                counts[tok.surface] += 1
    assert enc.counts_by_year(_STOP) == {y: dict(c)
                                         for y, c in by_year.items()}


@settings(max_examples=100, deadline=None)
@given(_corpora())
def test_profile_columns_equal_a_direct_tally(corpus):
    from stancelab import features as ft
    lex = tp.Lexicon({"family": frozenset({"madre", "foo"}),
                      "politics": frozenset({"feminista", "madre"})})
    enc = tp.encode(corpus)
    tweet = enc.term_counts("tweet", 1, _STOP)
    m = ft.build_matrix(
        corpus, tweet,
        ft.profile_blocks(corpus, enc, enc.term_counts("bio", 1, _STOP), lex),
        cm.build_interaction_graph(corpus), min_in_degree=1)
    got = {(m.rows[i], m.columns[j].identifier): v
           for i, j, v in zip(*m.X.nonzero(), m.X.data)}

    want = Counter()
    for u, prof in corpus.users.items():
        bio = tp.tokenize(prof.bio or "")
        for cat, terms in lex.categories.items():
            hits = sum(tok.surface.lower() in terms for tok in bio)
            if hits:
                want[(u, f"lexcat:{cat}")] = hits
        n_emojis = sum(tok.kind == "emoji" for tok in bio)
        if n_emojis:
            want[(u, "n_emojis_bio")] = n_emojis
        for tok in tp.tokenize(prof.full_name or ""):
            if tok.kind == "emoji":
                want[(u, f"name:{tok.surface}")] = 1
    # tweet terms by surface: a domain spelled like a word shares its column
    for (u, tok), c in _tally([(p.author_id, p.text) for p in corpus.posts],
                              1).items():
        want[(u, tok.surface)] += c
    prefixes = ("lexcat:", "n_emojis_bio", "name:")
    tweet_ids = {c.identifier for c in m.columns if c.block == "tweet_term"}
    assert {k: v for k, v in got.items()
            if k[1].startswith(prefixes) or k[1] in tweet_ids} == want
    assert {f"lexcat:{cat}" for cat in lex.categories} <= \
        {c.identifier for c in m.columns}
