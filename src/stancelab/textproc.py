"""Typed tokenization of micro-post and biography text, and the corpus
encoding that every per-user count is derived from.

Tokens are words, hashtags, mentions, URLs, and emoji. An emoji token is one
extended grapheme cluster (skin tones and ZWJ sequences stay together), so
each pictograph counts as a single feature.

:func:`encode` tokenizes each text of a corpus once into int32 ids over one
vocabulary of ``(surface, kind)`` terms, in CSR layout (the ``CountVectorizer``
idiom of Pedregosa et al., "Scikit-learn", JMLR 2011). Term counts, lexicon
hits, yearly terms and stance-seed hits are all read from it.
"""

from __future__ import annotations

import functools
import unicodedata
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import TYPE_CHECKING, NamedTuple, Optional
from urllib.parse import urlparse

import numpy as np
import regex

from .csr import CSR
from .tsv import read_tsv

if TYPE_CHECKING:  # corpus imports this module for Corpus.encoding
    from .corpus import Corpus

WORD, HASHTAG, MENTION, URL, EMOJI = "word", "hashtag", "mention", "url", "emoji"

# one pictographic base, optional variation selector / skin tone, optionally
# chained through ZWJ into a single family-style cluster
_EMOJI_SEQ = (
    r"\p{Extended_Pictographic}[️]?\p{Emoji_Modifier}?"
    r"(?:‍\p{Extended_Pictographic}[️]?\p{Emoji_Modifier}?)*"
)

_TOKEN_RE = regex.compile(
    r"""
      (?P<url>https?://[^\s]+|www\.[^\s]+)
    | (?P<mention>@\w+)
    | (?P<hashtag>\#\w+)
    | (?P<emoji>%s|\p{Regional_Indicator}{2})
    | (?P<word>[\p{L}\p{M}\p{N}_]+)
    """ % _EMOJI_SEQ,
    regex.VERBOSE,
)


class Token(NamedTuple):
    """One token: its surface form and its kind (``WORD``, ``HASHTAG``,
    ``MENTION``, ``URL`` or ``EMOJI``)."""
    surface: str
    kind: str


@dataclass(frozen=True)
class Lexicon:
    """Mapping of semantic category name to its set of trigger terms."""
    categories: dict[str, frozenset[str]]

    def __post_init__(self):
        for name, terms in self.categories.items():
            if not terms:
                raise ValueError(f"lexicon category {name!r} is empty")

    @classmethod
    def from_file(cls, path) -> "Lexicon":
        """Read `category<TAB>term` lines, UTF-8."""
        cats: dict[str, set[str]] = {}
        for cat, term in read_tsv(path, 2, lambda cat, term: (
                cat.strip(), term.strip().lower())):
            cats.setdefault(cat, set()).add(term)
        return cls({c: frozenset(t) for c, t in cats.items()})


@dataclass(frozen=True, eq=False)
class TermCounts:
    """Per-user term counts: ``X[i, j]`` is how often user ``users[i]`` used
    term ``terms[j]`` (an int64 CSR array; absent cells are zero). URLs are
    counted by registrable domain, and every term passed the corpus-wide
    count floor of :meth:`Encoding.term_counts`."""
    users: tuple[str, ...]
    terms: tuple[Token, ...]
    X: CSR

    @property
    def counts(self) -> dict[tuple[str, Token], int]:
        """``{(user, term): count}`` over the nonzero cells."""
        cells = self.X.tocoo()
        return {(self.users[i], self.terms[j]): c for i, j, c in zip(
            cells.row.tolist(), cells.col.tolist(), cells.data.tolist())}

    def vocabulary(self) -> set[Token]:
        return set(self.terms)


def registrable_domain(url: str) -> str:
    """Approximate registrable domain of a URL (netloc minus 'www.')."""
    if "://" not in url:
        url = "http://" + url
    try:
        netloc = urlparse(url).netloc.lower()
    except ValueError:  # a host that does not parse, like "http://[x"
        netloc = ""
    if netloc.startswith("www."):
        netloc = netloc[4:]
    return netloc or url.lower()


def tokenize(text: str) -> list[Token]:
    """Split text into typed tokens, in order of appearance.

    Words are lowercased and NFC-normalized; accents are preserved.
    Punctuation is dropped. Hashtags and mentions keep their sigil.
    """
    if not text:
        return []
    text = unicodedata.normalize("NFC", text)
    out: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        surface = m.group()
        if kind == URL:
            out.append(Token(surface.rstrip(".,;:!?)…"), URL))
        elif kind == EMOJI:
            out.append(Token(surface, EMOJI))
        else:
            out.append(Token(surface.lower(), kind))
    return out


def load_stopwords(path) -> set[str]:
    """Read one stopword per line, UTF-8."""
    return set(read_tsv(path, 1, lambda word: word.strip().lower()))


@dataclass(frozen=True, eq=False)
class Encoding:
    """Every text of a corpus, tokenized once, as int32 term ids.

    Term ``t`` is ``terms[t]``. Post ``p`` (in corpus order) reads
    ``post_terms[post_indptr[p]:post_indptr[p + 1]]`` in order of
    appearance, and user ``i`` (``users`` is sorted) reads
    ``bio_terms[bio_indptr[i]:bio_indptr[i + 1]]`` and the same slice of
    ``name_terms`` for the full name: three CSR layouts over one vocabulary.
    ``count_term[t]`` is the term that ``t`` is counted as: a URL's
    registrable domain (added to the vocabulary), else ``t`` itself.
    ``post_user`` is the author's row, ``post_time`` the timestamp and
    ``post_retweet`` whether the post is a retweet.
    """
    users: tuple[str, ...]
    terms: tuple[Token, ...]
    count_term: np.ndarray   # int32
    post_user: np.ndarray    # int32
    post_time: np.ndarray    # int64
    post_retweet: np.ndarray  # bool
    post_indptr: np.ndarray
    post_terms: np.ndarray   # int32
    bio_indptr: np.ndarray
    bio_terms: np.ndarray    # int32
    name_indptr: np.ndarray
    name_terms: np.ndarray   # int32

    @property
    def n_texts(self) -> int:
        """Texts encoded: the post texts, full names and bios."""
        return len(self.post_user) + 2 * len(self.users)

    def term_id(self, token: Token) -> Optional[int]:
        return self._index.get(token)

    @functools.cached_property
    def _index(self) -> dict[Token, int]:
        return {tok: t for t, tok in enumerate(self.terms)}

    def token_users(self, indptr: np.ndarray) -> np.ndarray:
        """Per token of a per-user layout (bio or name), the user's row."""
        return np.repeat(np.arange(len(self.users), dtype=np.int32),
                         np.diff(indptr))

    def post_tokens(self, posts: Optional[np.ndarray] = None
                    ) -> tuple[np.ndarray, np.ndarray]:
        """(author row, term) of every token of the posts selected by the
        boolean mask ``posts`` (all posts when None), in corpus order."""
        per_post = np.diff(self.post_indptr)
        rows = np.repeat(self.post_user, per_post)
        if posts is None:
            return rows, self.post_terms
        keep = np.repeat(posts, per_post)
        return rows[keep], self.post_terms[keep]

    def _tally(self, rows: np.ndarray, terms: np.ndarray,
              n_rows: int) -> CSR:
        """``X[r, t]``: how many of the (row, term) pairs are ``(r, t)``."""
        return CSR.from_triplets(rows, terms,
                                 np.ones(len(rows), dtype=np.int64),
                                 (n_rows, len(self.terms)))

    def _is_stopword(self, stopwords: Optional[set[str]]) -> np.ndarray:
        """Per term, whether it is a word listed in ``stopwords``."""
        out = np.zeros(len(self.terms), dtype=bool)
        if stopwords:
            out[[t for t, tok in enumerate(self.terms)
                 if tok.kind == WORD and tok.surface in stopwords]] = True
        return out

    def term_counts(self, scope: str, min_count: int,
                    stopwords: Optional[set[str]] = None,
                    include_retweets: bool = True,
                    posts: Optional[np.ndarray] = None) -> TermCounts:
        """Per-user token counts with a corpus-wide frequency floor.

        ``scope`` selects tweet text or profile biographies; tweets may be
        limited to the posts selected by the boolean mask ``posts`` (in
        corpus order, such as :meth:`Corpus.in_period` gives). Stopwords are
        removed before counting; terms whose total frequency is below
        ``min_count`` are removed after counting.
        """
        if scope not in ("tweet", "bio"):
            raise ValueError(f"unknown scope {scope!r}")
        if min_count < 1:
            raise ValueError("min_count must be >= 1")
        if scope == "tweet":
            selected = np.ones(len(self.post_user), dtype=bool)
            if posts is not None:
                selected &= posts
            if not include_retweets:
                selected &= ~self.post_retweet
            rows, terms = self.post_tokens(selected)
        else:
            rows, terms = self.token_users(self.bio_indptr), self.bio_terms
        keep = ~self._is_stopword(stopwords)[terms]
        counted = self.count_term[terms[keep]]
        X = self._tally(rows[keep], counted, len(self.users))
        cols = np.flatnonzero(np.bincount(counted, minlength=len(self.terms))
                              >= min_count)
        return TermCounts(users=self.users,
                          terms=tuple(self.terms[t] for t in cols.tolist()),
                          X=X.take_columns(cols))

    def lexicon_counts(self, lexicon: Lexicon
                       ) -> tuple[tuple[str, ...], CSR]:
        """Trigger-term hits in every bio token, per user (rows) and lexicon
        category (columns, in lexicon order).

        A term listed in two categories increments both.
        """
        cats = tuple(lexicon.categories)
        term, cat = [], []
        for t in np.unique(self.bio_terms).tolist():
            low = self.terms[t].surface.lower()
            for k, name in enumerate(cats):
                if low in lexicon.categories[name]:
                    term.append(t)
                    cat.append(k)
        hits = CSR.from_triplets(term, cat, np.ones(len(term), dtype=np.int64),
                                 (len(self.terms), len(cats)))
        # one row per bio token: the categories of its term
        per_token = hits.take_rows(self.bio_terms).tocoo()
        users = self.token_users(self.bio_indptr)[per_token.row]
        return cats, CSR.from_triplets(users, per_token.col, per_token.data,
                                       (len(self.users), len(cats)))

    def counts_by_year(self, stopwords: Optional[set[str]] = None
                       ) -> dict[int, dict[str, int]]:
        """Token counts by surface per UTC calendar year of the post, over
        all posts; stopwords are left out and URLs keep their full form."""
        years = np.array([datetime.fromtimestamp(ts, tz=timezone.utc).year
                          for ts in self.post_time.tolist()], dtype=np.int64)
        labels, year_of_post = np.unique(years, return_inverse=True)
        rows = np.repeat(year_of_post, np.diff(self.post_indptr))
        keep = ~self._is_stopword(stopwords)[self.post_terms]
        X = self._tally(rows[keep], self.post_terms[keep], len(labels))
        out: dict[int, dict[str, int]] = {}
        for k, year in enumerate(labels.tolist()):
            lo, hi = X.indptr[k], X.indptr[k + 1]
            counts = out.setdefault(year, {})
            for t, c in zip(X.indices[lo:hi].tolist(),
                            X.data[lo:hi].tolist()):
                surface = self.terms[t].surface
                counts[surface] = counts.get(surface, 0) + c
        return out

    def tweet_texts(self) -> list[str]:
        """Per user, the surfaces of all their post tokens in corpus order,
        joined by single spaces."""
        rows, terms = self.post_tokens()
        order = np.argsort(rows, kind="stable")
        surfaces = np.array([tok.surface for tok in self.terms],
                            dtype=object)[terms[order]]
        bounds = np.searchsorted(rows[order],
                                 np.arange(len(self.users) + 1))
        return [" ".join(surfaces[a:b])
                for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())]


def encode(corpus: Corpus) -> Encoding:
    """Tokenize every post text and every profile (full name and bio) of the
    corpus once, into one vocabulary."""
    vocab: dict[Token, int] = {}

    def ids(tokens: list[Token], into: list[int]) -> int:
        into.extend([vocab.setdefault(tok, len(vocab)) for tok in tokens])
        return len(tokens)

    post_terms: list[int] = []
    post_len = [ids(tokenize(p.text), post_terms) for p in corpus.posts]
    users = tuple(sorted(corpus.users))
    bio_terms: list[int] = []
    name_terms: list[int] = []
    bio_len, name_len = [], []
    for u in users:
        prof = corpus.users[u]
        name_len.append(ids(tokenize(prof.full_name or ""), name_terms))
        bio_len.append(ids(tokenize(prof.bio or ""), bio_terms))

    # each URL is counted as its registrable domain, itself a term
    count_term = list(range(len(vocab)))
    for tok, t in list(vocab.items()):
        if tok.kind == URL:
            domain = Token(registrable_domain(tok.surface), URL)
            count_term[t] = vocab.setdefault(domain, len(vocab))
    count_term.extend(range(len(count_term), len(vocab)))

    row = {u: i for i, u in enumerate(users)}
    return Encoding(
        users=users,
        terms=tuple(vocab),
        count_term=np.array(count_term, dtype=np.int32),
        post_user=np.array([row[p.author_id] for p in corpus.posts],
                           dtype=np.int32),
        post_time=np.array([p.timestamp for p in corpus.posts],
                           dtype=np.int64),
        post_retweet=np.array([bool(p.retweet_of) for p in corpus.posts],
                              dtype=bool),
        post_indptr=_indptr(post_len), post_terms=_ids(post_terms),
        bio_indptr=_indptr(bio_len), bio_terms=_ids(bio_terms),
        name_indptr=_indptr(name_len), name_terms=_ids(name_terms))


def _indptr(lengths: list[int]) -> np.ndarray:
    out = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


def _ids(ids: list[int]) -> np.ndarray:
    return np.array(ids, dtype=np.int32)


def term_counts(corpus: Corpus, scope: str, min_count: int,
                stopwords: Optional[set[str]] = None,
                include_retweets: bool = True) -> TermCounts:
    """Per-user token counts of a corpus; see :meth:`Encoding.term_counts`."""
    return corpus.encoding.term_counts(scope, min_count, stopwords,
                                       include_retweets=include_retweets)
