"""Corpus loading, relevance filtering, and interaction-graph reduction.

The corpus file format is line-delimited JSON, one post per line, with the
author profile embedded on its first occurrence (see FORMATS.md).
"""

from __future__ import annotations

import codecs
import functools
import itertools
import json
import sys
from collections import Counter, deque
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from typing import Iterable, NamedTuple, Optional

import numpy as np
import regex

from . import textproc, tsv

# a JSON escape of a UTF-16 surrogate, \uD800 to \uDFFF, in a line's bytes
_SURROGATE_ESCAPE = regex.compile(rb"\\u[dD][89a-fA-F]")

# the kinds of a `directed_at` entry; a retweet has its own field
DIRECTED_KINDS = ("mention", "reply", "quote")

# at most this fraction of lines may be malformed before loading aborts
MALFORMED_TOLERANCE = 0.10


class CorpusError(tsv.StancelabError):
    """Fatal problem with a corpus file or its contents."""


class MicroPost(NamedTuple):
    post_id: str
    author_id: str
    timestamp: int
    text: str
    retweet_of: Optional[str] = None
    # (target user id, interaction kind) pairs: mentions, reply and quote targets
    directed_at: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class UserProfile:
    user_id: str
    screen_name: str = ""
    full_name: str = ""
    location_text: Optional[str] = None
    bio: Optional[str] = None
    url: Optional[str] = None
    n_posts: int = 0
    n_followers: int = 0
    n_friends: int = 0
    account_created: int = 0
    timezone: Optional[str] = None


@dataclass(frozen=True)
class Corpus:
    posts: tuple[MicroPost, ...]
    users: dict[str, UserProfile]

    def __post_init__(self):
        for p in self.posts:
            if p.author_id not in self.users:
                raise CorpusError(f"post {p.post_id}: unknown author {p.author_id}")

    @property
    def n_posts(self) -> int:
        return len(self.posts)

    @property
    def n_users(self) -> int:
        return len(self.users)

    @functools.cached_property
    def encoding(self) -> textproc.Encoding:
        """Every text of the corpus, tokenized once per corpus."""
        return textproc.encode(self)

    def in_period(self, start: int, end: int) -> np.ndarray:
        """Per post, whether start <= timestamp < end, as a boolean mask: the
        one rule that every period view of the corpus applies."""
        return np.array([start <= p.timestamp < end for p in self.posts], bool)

    def select(self, keep) -> "Corpus":
        """The posts that the boolean mask ``keep`` keeps, in corpus order,
        and the profiles of their authors only: the one rule of every
        selection of a corpus. A user left with no posts goes.

        Interaction targets outside the selection stay in the post records;
        a graph built on it ignores them, as they are no longer corpus users.
        """
        posts = tuple(itertools.compress(self.posts, keep))
        authors = {p.author_id for p in posts}
        return Corpus(posts=posts, users={u: prof for u, prof
                                          in self.users.items()
                                          if u in authors})


@dataclass(frozen=True)
class InteractionGraph:
    nodes: frozenset[str]
    # (source, target, kind) -> weight
    edges: dict[tuple[str, str, str], int]

    def undirected_adjacency(self) -> dict[str, set[str]]:
        """Neighbour map ignoring direction, weights, and self loops."""
        adj: dict[str, set[str]] = {n: set() for n in self.nodes}
        for (src, dst, _kind) in self.edges:
            if src != dst:
                adj[src].add(dst)
                adj[dst].add(src)
        return adj


def _id(value) -> str:
    """A post or user id: a JSON string, or an integer read as its digits."""
    if type(value) is str or type(value) is int:  # a bool is no id
        return str(value)
    raise ValueError(f"id {value!r} is neither a string nor an integer")


def user_id(value) -> str:
    """``value`` as a user id that every stage file can hold: not empty, no
    whitespace (a TSV line splits on tabs and line ends) and no leading
    ``#`` (a comment line in TSV files). Interned, so that all the posts of
    an author hold one string."""
    uid = _id(value)
    if uid.split() != [uid] or uid.startswith("#"):
        raise ValueError(f"user id {uid!r} is empty, holds whitespace or "
                         "starts with '#'")
    return sys.intern(uid)


# the times that every stage can hold: whole UTC epoch seconds from 0001-01-01
# to 9999-12-31, the dates of `datetime`
TIME_RANGE = (-62135596800, 253402300799)


def is_time(value) -> bool:
    """Whether ``value`` is a time: an integer within ``TIME_RANGE``."""
    return type(value) is int and TIME_RANGE[0] <= value <= TIME_RANGE[1]


# what JSON may give for a profile field of each annotation
_OF_TYPE = {"str": lambda v: type(v) is str,
            "Optional[str]": lambda v: v is None or type(v) is str,
            "int": lambda v: type(v) is int}
# the profile fields after user_id: (name, default, check of a value)
_PROFILE_FIELDS = [(f.name, f.default, _OF_TYPE[f.type])
                   for f in fields(UserProfile)[1:]]


def _parse_post(obj: dict) -> tuple[MicroPost, Optional[UserProfile]]:
    if type(obj) is not dict:
        raise ValueError("a line is not a JSON object")
    directed = []
    for item in obj.get("directed_at") or ():
        kind = item["kind"]
        if kind not in DIRECTED_KINDS:
            raise ValueError(f"bad interaction kind {kind!r}")
        directed.append((_id(item["user"]), kind))
    timestamp, text = obj["timestamp"], obj["text"]
    if not is_time(timestamp) or type(text) is not str:
        raise ValueError("timestamp is not a time or text not a string")
    retweet_of = obj.get("retweet_of")
    post = MicroPost(
        post_id=_id(obj["post_id"]),
        author_id=user_id(obj["author_id"]),
        timestamp=timestamp,
        text=text,
        retweet_of=None if retweet_of in (None, "") else _id(retweet_of),
        directed_at=tuple(directed),
    )
    author = obj.get("author")
    if author is None:
        return post, None
    if _id(author["user_id"]) != post.author_id:
        raise ValueError("embedded author does not match author_id")
    # each field by name, its dataclass default if absent
    values = {"user_id": post.author_id}
    for name, default, of_type in _PROFILE_FIELDS:
        value = values[name] = author.get(name, default)
        if not of_type(value):
            raise ValueError(f"author {name} {value!r} is not of its type")
    if not is_time(values["account_created"]):
        raise ValueError("author account_created is not a time")
    # a count fits an int64, as a matrix index does
    if not all(0 <= values[n] < 2**63
               for n in ("n_posts", "n_followers", "n_friends")):
        raise ValueError("profile counts must be in [0, 2**63)")
    return post, UserProfile(**values)


def load_corpus(path, counts: Optional[dict] = None) -> Corpus:
    """Load a line-delimited corpus file, reading it once, line by line; its
    posts in ``(timestamp, post_id)`` order.

    A leading UTF-8 byte-order mark is not data. A line is malformed when it
    is not UTF-8, does not parse (a value not of its field's type included),
    holds a time outside ``TIME_RANGE`` or a profile count outside [0,
    2**63), holds a string with a lone surrogate (which UTF-8 cannot write
    back), repeats a post id, has an ``author_id`` that is empty, holds
    whitespace or starts with ``#``, or has an author whose profile no
    earlier line embedded. Raises :class:`CorpusError` if the file is unreadable or more
    than 10% of non-empty lines are malformed. A ``counts`` dict receives
    what was read: ``lines_read`` (non-empty lines) and ``malformed_lines``.
    """
    posts: list[MicroPost] = []
    users: dict[str, UserProfile] = {}
    seen_ids: set[str] = set()
    bad_lines: list[int] = []
    n_records = 0
    try:
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                if lineno == 1:
                    line = line.removeprefix(codecs.BOM_UTF8)
                if not line.strip():
                    continue
                n_records += 1
                try:
                    post, profile = _parse_post(json.loads(line.decode()))
                    # only an escaped surrogate can give a lone one, which
                    # UTF-8 cannot encode (UnicodeEncodeError, a ValueError)
                    if _SURROGATE_ESCAPE.search(line):
                        json.dumps([post, profile and vars(profile)],
                                   ensure_ascii=False).encode()
                    if post.post_id in seen_ids:
                        raise ValueError(f"duplicate post_id {post.post_id}")
                except (ValueError, KeyError, TypeError):
                    bad_lines.append(lineno)
                    continue
                if profile is not None and profile.user_id not in users:
                    users[profile.user_id] = profile
                if post.author_id not in users:
                    # profile must be embedded on first occurrence
                    bad_lines.append(lineno)
                    continue
                seen_ids.add(post.post_id)
                posts.append(post)
    except OSError as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from exc

    if n_records and len(bad_lines) / n_records > MALFORMED_TOLERANCE:
        head = ", ".join(str(n) for n in bad_lines[:10])
        raise CorpusError(
            f"{len(bad_lines)}/{n_records} malformed lines in {path} "
            f"(first offenders at lines: {head})"
        )

    if counts is not None:
        counts.update(lines_read=n_records, malformed_lines=len(bad_lines))
    posts.sort(key=lambda p: (p.timestamp, p.post_id))
    return Corpus(posts=tuple(posts), users=users)


def _term_matcher(terms: Iterable[str]) -> "regex.Pattern":
    """Word-boundary matcher over case-folded text; every term matches with
    and without a leading '#', so a topic keyword also hits its hashtag."""
    alts = [r"\#?" + regex.escape(term.casefold().lstrip("#"))
            for term in terms]
    body = "|".join(alts)
    return regex.compile(r"(?<![\w#])(?:%s)(?!\w)" % body)


def filter_relevant(corpus: Corpus, include_terms: list[str],
                    exclude_patterns: Optional[list[str]] = None) -> Corpus:
    """Keep posts matching at least one include term and no exclude pattern.

    Matching is case-folded on token boundaries. Users left with zero posts
    are removed.
    """
    inc = _term_matcher(include_terms)
    exc = [regex.compile(p, regex.IGNORECASE) for p in (exclude_patterns or [])]

    texts = (p.text.casefold() for p in corpus.posts)
    return corpus.select([bool(inc.search(t)) and
                          not any(e.search(t) for e in exc) for t in texts])


def build_interaction_graph(corpus: Corpus,
                            posts: Optional[np.ndarray] = None
                            ) -> InteractionGraph:
    """Aggregate retweet/mention/reply/quote interactions between corpus users.

    Counts all posts, or those selected by the boolean mask ``posts`` (in
    corpus order, such as :meth:`Corpus.in_period` gives). Targets that are
    not corpus users are ignored, so the node set is always the corpus user
    set.
    """
    selected = (corpus.posts if posts is None
                else itertools.compress(corpus.posts, posts))
    weights: Counter = Counter()
    for p in selected:
        if p.retweet_of and p.retweet_of in corpus.users:
            weights[(p.author_id, p.retweet_of, "retweet")] += 1
        for target, kind in p.directed_at:
            if target in corpus.users:
                weights[(p.author_id, target, kind)] += 1
    return InteractionGraph(nodes=frozenset(corpus.users), edges=dict(weights))


def largest_connected_component(graph: InteractionGraph) -> set[str]:
    """Node set of the largest weakly connected component.

    Size ties are broken by the smallest minimum node identifier, for
    determinism. Empty graph gives an empty set.
    """
    adj = graph.undirected_adjacency()
    seen: set[str] = set()
    best: set[str] = set()
    for start in sorted(adj):
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        seen.add(start)
        while queue:
            node = queue.popleft()
            for nb in adj[node]:
                if nb not in seen:
                    seen.add(nb)
                    comp.add(nb)
                    queue.append(nb)
        if len(comp) > len(best) or (len(comp) == len(best) and comp and
                                     min(comp) < min(best)):
            best = comp
    return best


def _monday(ts: int) -> int:
    """The day number (``toordinal``) of the Monday of ``ts``'s UTC week."""
    day = datetime.fromtimestamp(ts, tz=timezone.utc)
    return day.toordinal() - day.weekday()


def weekly_volume(corpus: Corpus,
                  time_range: tuple[int, int]) -> list[tuple[str, int]]:
    """Per-ISO-week post counts over the half-open ``time_range``, plus
    any week outside it that has posts.

    Weeks without posts inside the range are emitted as explicit zeros, so
    crawl gaps are visible downstream.
    """
    counts = Counter(_monday(p.timestamp) for p in corpus.posts)
    start, end = time_range
    weeks = (range(_monday(start), _monday(end - 1) + 1, 7) if end > start
             else ())
    return [(f"{iso.year}-W{iso.week:02d}", counts[monday])
            for monday in sorted(set(weeks) | set(counts))
            for iso in [datetime.fromordinal(monday).isocalendar()]]


def write_corpus(corpus: Corpus, path) -> None:
    """Write a corpus back to the line-delimited format: each post by its
    field names, with its author's profile, every field of it, embedded on
    first occurrence."""
    written: set[str] = set()
    with open(path, "w", encoding="utf-8") as fh:
        for p in corpus.posts:
            obj = p._asdict()
            obj["directed_at"] = [{"user": u, "kind": k}
                                  for u, k in p.directed_at]
            if p.author_id not in written:
                obj["author"] = vars(corpus.users[p.author_id])
                written.add(p.author_id)
            fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n")
