"""Typed tokenization of micro-post and biography text, plus per-user counts.

Tokens are words, hashtags, mentions, URLs, and emoji. An emoji token is one
extended grapheme cluster (skin tones and ZWJ sequences stay together), so
each pictograph counts as a single feature.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional
from urllib.parse import urlparse

import regex

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


@dataclass(frozen=True)
class Token:
    surface: str
    kind: str
    # full form for tokens whose surface is normalized (currently URLs)
    raw: Optional[str] = None


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
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                cat, term = line.split("\t", 1)
                cats.setdefault(cat, set()).add(term.strip().lower())
        return cls({c: frozenset(t) for c, t in cats.items()})


@dataclass(frozen=True)
class TermCounts:
    counts: dict[tuple[str, Token], int]
    scope: str  # "tweet" or "bio"
    min_count: int

    def vocabulary(self) -> set[Token]:
        return {tok for (_u, tok) in self.counts}


def registrable_domain(url: str) -> str:
    """Approximate registrable domain of a URL (netloc minus 'www.')."""
    if "://" not in url:
        url = "http://" + url
    netloc = urlparse(url).netloc.lower()
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
        if kind == "url":
            surface = surface.rstrip(".,;:!?)…")
            out.append(Token(surface=surface, kind=URL, raw=surface))
        elif kind == "emoji":
            out.append(Token(surface=surface, kind=EMOJI))
        else:
            out.append(Token(surface=surface.lower(), kind=kind))
    return out


def load_stopwords(path) -> set[str]:
    """Read one stopword per line, UTF-8; blank lines and '#' comments skipped."""
    words = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                words.add(line.lower())
    return words


def _count_token(tok: Token) -> Token:
    # URLs are counted by their registrable domain; other kinds count as-is
    if tok.kind == URL:
        return Token(surface=registrable_domain(tok.surface), kind=URL)
    return tok


def term_counts(corpus: Corpus, scope: str, min_count: int,
                stopwords: Optional[set[str]] = None,
                include_retweets: bool = True) -> TermCounts:
    """Per-user token counts with a corpus-wide frequency floor.

    ``scope`` selects tweet text or profile biographies. Stopwords are removed
    before counting; tokens whose total frequency is below ``min_count`` are
    removed after counting.
    """
    if scope not in ("tweet", "bio"):
        raise ValueError(f"unknown scope {scope!r}")
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    stop = stopwords or set()

    counts: Counter = Counter()
    if scope == "tweet":
        for p in corpus.posts:
            if not include_retweets and p.retweet_of:
                continue
            for tok in tokenize(p.text):
                if tok.kind == WORD and tok.surface in stop:
                    continue
                counts[(p.author_id, _count_token(tok))] += 1
    else:
        for user_id, prof in corpus.users.items():
            for tok in tokenize(prof.bio or ""):
                if tok.kind == WORD and tok.surface in stop:
                    continue
                counts[(user_id, _count_token(tok))] += 1

    totals: Counter = Counter()
    for (_u, tok), c in counts.items():
        totals[tok] += c
    kept = {key: c for key, c in counts.items() if totals[key[1]] >= min_count}
    return TermCounts(counts=kept, scope=scope, min_count=min_count)


def lexicon_counts(bio_tokens: dict[str, list[Token]],
                   lexicon: Lexicon) -> dict[str, dict[str, int]]:
    """Trigger-term hits per lexicon category per user.

    A term listed in two categories increments both. Every category appears in
    every user's result, with zero for no hits.
    """
    out: dict[str, dict[str, int]] = {}
    for user_id, tokens in bio_tokens.items():
        row = {cat: 0 for cat in lexicon.categories}
        for tok in tokens:
            surf = tok.surface.lower()
            for cat, terms in lexicon.categories.items():
                if surf in terms:
                    row[cat] += 1
        out[user_id] = row
    return out


def bio_tokens(corpus: Corpus) -> dict[str, list[Token]]:
    """Tokenized biography per user (empty list for missing bios)."""
    return {u: tokenize(prof.bio or "") for u, prof in corpus.users.items()}
