"""Corpus loading, relevance filtering, and interaction-graph reduction.

The corpus file format is line-delimited JSON, one post per line, with the
author profile embedded on its first occurrence (see FORMATS.md).
"""

from __future__ import annotations

import itertools
import json
from collections import Counter, deque
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Optional, Sequence

import regex

INTERACTION_KINDS = ("retweet", "mention", "reply", "quote")

# at most this fraction of lines may be malformed before loading aborts
MALFORMED_TOLERANCE = 0.10


class CorpusError(Exception):
    """Fatal problem with a corpus file or its contents."""


@dataclass(frozen=True)
class MicroPost:
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

    def posts_by_user(self) -> dict[str, list[MicroPost]]:
        out: dict[str, list[MicroPost]] = {u: [] for u in self.users}
        for p in self.posts:
            out[p.author_id].append(p)
        return out

    def in_period(self, start: int, end: int) -> list[bool]:
        """Per post, whether start <= timestamp < end: the one rule that
        every period view of the corpus applies."""
        return [start <= p.timestamp < end for p in self.posts]


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


def _user_id(value) -> str:
    """``value`` as a user id that every stage file can hold: not empty, no
    whitespace (the train-user list splits on it, a TSV line on tabs and
    line ends) and no leading ``#`` (a comment line in TSV files)."""
    uid = str(value)
    if uid.split() != [uid] or uid.startswith("#"):
        raise ValueError(f"user id {uid!r} is empty, holds whitespace or "
                         "starts with '#'")
    return uid


def _parse_post(obj: dict) -> tuple[MicroPost, Optional[UserProfile]]:
    directed = []
    for item in obj.get("directed_at") or []:
        kind = item["kind"]
        if kind not in INTERACTION_KINDS:
            raise ValueError(f"bad interaction kind {kind!r}")
        directed.append((str(item["user"]), kind))
    post = MicroPost(
        post_id=str(obj["post_id"]),
        author_id=_user_id(obj["author_id"]),
        timestamp=int(obj["timestamp"]),
        text=str(obj["text"]),
        retweet_of=(str(obj["retweet_of"]) if obj.get("retweet_of") else None),
        directed_at=tuple(directed),
    )
    profile = None
    if "author" in obj and obj["author"] is not None:
        a = obj["author"]
        profile = UserProfile(
            user_id=str(a["user_id"]),
            screen_name=str(a.get("screen_name", "")),
            full_name=str(a.get("full_name", "")),
            location_text=a.get("location_text"),
            bio=a.get("bio"),
            url=a.get("url"),
            n_posts=int(a.get("n_posts", 0)),
            n_followers=int(a.get("n_followers", 0)),
            n_friends=int(a.get("n_friends", 0)),
            account_created=int(a.get("account_created", 0)),
            timezone=a.get("timezone"),
        )
        if profile.user_id != post.author_id:
            raise ValueError("embedded author does not match author_id")
        if min(profile.n_posts, profile.n_followers, profile.n_friends) < 0:
            raise ValueError("negative profile counts")
    return post, profile


def load_corpus(path, time_range: Optional[tuple[int, int]] = None,
                counts: Optional[dict] = None) -> Corpus:
    """Load a line-delimited corpus file.

    Posts outside ``time_range`` (half-open ``[start, end)``) are dropped after
    parsing. A line is malformed when it does not parse, repeats a post id,
    has an ``author_id`` that is empty, holds whitespace or starts with
    ``#``, or has an author whose profile no earlier line embedded.
    Raises :class:`CorpusError` if the file is unreadable or more than
    10% of non-empty lines are malformed. A ``counts`` dict receives what was
    read and dropped: ``lines_read`` (non-empty lines), ``malformed_lines``,
    ``posts_outside_time_range`` and ``users_outside_time_range``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from exc

    posts: list[MicroPost] = []
    users: dict[str, UserProfile] = {}
    seen_ids: set[str] = set()
    bad_lines: list[int] = []
    n_records = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        n_records += 1
        try:
            obj = json.loads(line)
            post, profile = _parse_post(obj)
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

    if n_records and len(bad_lines) / n_records > MALFORMED_TOLERANCE:
        head = ", ".join(str(n) for n in bad_lines[:10])
        raise CorpusError(
            f"{len(bad_lines)}/{n_records} malformed lines in {path} "
            f"(first offenders at lines: {head})"
        )

    n_parsed, n_users = len(posts), len(users)
    if time_range is not None:
        start, end = time_range
        posts = [p for p in posts if start <= p.timestamp < end]
    corpus = _assemble(posts, users)
    if counts is not None:
        counts.update(lines_read=n_records, malformed_lines=len(bad_lines),
                      posts_outside_time_range=n_parsed - corpus.n_posts,
                      users_outside_time_range=n_users - corpus.n_users)
    return corpus


def _assemble(posts: Iterable[MicroPost],
              users: dict[str, UserProfile]) -> Corpus:
    """The corpus of ``posts``, in ``(timestamp, post_id)`` order, and the
    profiles of their authors only: the one rule of every post selection."""
    posts = sorted(posts, key=lambda p: (p.timestamp, p.post_id))
    authors = {p.author_id for p in posts}
    return Corpus(posts=tuple(posts),
                  users={u: prof for u, prof in users.items() if u in authors})


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
    if not include_terms:
        raise ValueError("include_terms must be non-empty")
    inc = _term_matcher(include_terms)
    exc = [regex.compile(p, regex.IGNORECASE) for p in (exclude_patterns or [])]

    kept = []
    for p in corpus.posts:
        text = p.text.casefold()
        if not inc.search(text):
            continue
        if any(e.search(text) for e in exc):
            continue
        kept.append(p)
    return _assemble(kept, corpus.users)


def build_interaction_graph(corpus: Corpus,
                            posts: Optional[Sequence[bool]] = None
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


def restrict_users(corpus: Corpus, keep: set[str]) -> Corpus:
    """Drop posts authored by users outside ``keep``; a user left with no
    posts goes too.

    Interaction targets outside ``keep`` stay in the post records; subsequent
    graph builds exclude them because they are no longer corpus users.
    """
    return _assemble((p for p in corpus.posts if p.author_id in keep),
                     corpus.users)


def _iso_week(ts: int) -> tuple[int, int]:
    d = datetime.fromtimestamp(ts, tz=timezone.utc)
    iso = d.isocalendar()
    return (iso.year, iso.week)


def _week_label(year: int, week: int) -> str:
    return f"{year}-W{week:02d}"


def weekly_volume(corpus: Corpus,
                  time_range: tuple[int, int]) -> list[tuple[str, int]]:
    """Per-ISO-week post counts over the half-open ``time_range``, plus
    any week outside it that has posts.

    Weeks without posts inside the range are emitted as explicit zeros, so
    crawl gaps are visible downstream.
    """
    counts: Counter = Counter(_iso_week(p.timestamp) for p in corpus.posts)
    start, end = time_range
    weeks: list[tuple[int, int]] = []
    if end > start:
        y, w = _iso_week(start)
        last = _iso_week(end - 1)
        while True:
            weeks.append((y, w))
            if (y, w) >= last:
                break
            monday = datetime.fromisocalendar(y, w, 1)
            iso = datetime.fromordinal(monday.toordinal() + 7).isocalendar()
            y, w = iso.year, iso.week
    all_weeks = sorted(set(weeks) | set(counts))
    return [(_week_label(y, w), counts.get((y, w), 0)) for (y, w) in all_weeks]


def write_corpus(corpus: Corpus, path) -> None:
    """Write a corpus back to the line-delimited format (profiles embedded on
    first occurrence)."""
    written: set[str] = set()
    with open(path, "w", encoding="utf-8") as fh:
        for p in corpus.posts:
            obj = {
                "post_id": p.post_id,
                "author_id": p.author_id,
                "timestamp": p.timestamp,
                "text": p.text,
                "retweet_of": p.retweet_of,
                "directed_at": [{"user": u, "kind": k} for u, k in p.directed_at],
            }
            if p.author_id not in written:
                prof = corpus.users[p.author_id]
                obj["author"] = {
                    "user_id": prof.user_id,
                    "screen_name": prof.screen_name,
                    "full_name": prof.full_name,
                    "location_text": prof.location_text,
                    "bio": prof.bio,
                    "url": prof.url,
                    "n_posts": prof.n_posts,
                    "n_followers": prof.n_followers,
                    "n_friends": prof.n_friends,
                    "account_created": prof.account_created,
                    "timezone": prof.timezone,
                }
                written.add(p.author_id)
            fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n")
