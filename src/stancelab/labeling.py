"""Rule-based bootstrapping of demographic and stance labels.

All rules live in external files so the machinery stays issue-agnostic:
a gazetteer for locations, first-name lists and bio expressions for gender,
age/birth-year phrases for cohorts, and seed patterns for stances. Every rule
abstains (returns None) instead of guessing when signals conflict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np
import regex

from .corpus import UserProfile
from .features import FeatureColumn
from .textproc import HASHTAG, MENTION, Encoding, Token
from .tsv import read_tsv

STANCES = ("defense", "opposition")
COHORTS = ("<18", "18-29", "30-39", ">=40")
PROVENANCES = ("rule", "manual", "predicted")

# birth years outside this window are treated as non-birth-year numbers
BIRTH_YEAR_RANGE = (1920, 2010)


@dataclass(frozen=True)
class RuleSet:
    gazetteer: dict[str, str]                       # place (casefolded) -> country
    name_genders: dict[str, str]                    # first name (casefolded) -> gender
    gender_expressions: tuple[tuple["regex.Pattern", str], ...]
    age_patterns: tuple[tuple["regex.Pattern", str], ...]  # (pattern, "age"|"birth_year")
    stance_seeds: dict[str, dict[str, tuple[str, ...]]]    # stance -> scope -> patterns
    reference_year: int                             # epoch for birth-year cohorts

    def __post_init__(self):
        if set(self.stance_seeds) != set(STANCES):
            raise ValueError(f"stance_seeds must have exactly stances {STANCES}")


@dataclass(frozen=True)
class Label:
    value: str
    provenance: str       # one of PROVENANCES
    confidence: float

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if not 0.0 <= self.confidence <= 1.0:  # NaN fails this too
            raise ValueError(f"confidence {self.confidence!r} is not in "
                             "[0, 1]")
        if self.provenance in ("rule", "manual") and self.confidence != 1.0:
            raise ValueError("rule/manual labels must have confidence 1.0")


@dataclass
class LabelSet:
    """Per-user optional labels, at most one per attribute."""
    labels: dict[str, dict[str, Label]] = field(default_factory=dict)

    ATTRIBUTES = ("location", "gender", "age_cohort", "stance")
    # the values of the attributes whose values are a closed set
    VALUES = {"age_cohort": COHORTS, "stance": STANCES}

    @classmethod
    def check(cls, attribute: str, label: Label) -> None:
        """Raise ValueError unless ``label`` may be a label of
        ``attribute``."""
        if attribute not in cls.ATTRIBUTES:
            raise ValueError(f"unknown attribute {attribute!r}")
        values = cls.VALUES.get(attribute)
        if values is not None and label.value not in values:
            raise ValueError(f"unknown {attribute} {label.value!r}")

    def set(self, user_id: str, attribute: str, label: Label) -> None:
        self.check(attribute, label)
        self.labels.setdefault(user_id, {})[attribute] = label

    def get(self, user_id: str, attribute: str) -> Optional[Label]:
        return self.labels.get(user_id, {}).get(attribute)

    def users_with(self, attribute: str) -> list[str]:
        return sorted(u for u, d in self.labels.items() if attribute in d)


def load_lookup(path) -> dict[str, str]:
    """`key<TAB>value` lines as ``{casefolded key: value}``: the gazetteer
    (place to country) and the first-name list (name to gender). A key that
    an earlier line gave, casefolded, is a
    :class:`~stancelab.tsv.RuleFileError` naming both lines."""
    return dict(read_tsv(path, 2, lambda key, value: (key.strip().casefold(),
                                                       value.strip()),
                         key=("key", lambda pair: pair[0])))


def load_attribute_patterns(path):
    """Pattern file: `attribute<TAB>value<TAB>pattern` per line.

    Returns (gender_expressions, age_patterns) with patterns compiled
    case-insensitively.
    """
    def parse(attribute, value, pattern):
        attribute, value = attribute.strip(), value.strip()
        if attribute not in ("gender", "age"):
            raise ValueError(f"unknown attribute {attribute!r}")
        if attribute == "age" and value not in ("age", "birth_year"):
            raise ValueError(f"bad age value {value!r}")
        try:
            return attribute, (regex.compile(pattern, regex.IGNORECASE), value)
        except regex.error as exc:
            raise ValueError(f"bad pattern: {exc}") from None

    rows = read_tsv(path, 3, parse)
    return (tuple(p for a, p in rows if a == "gender"),
            tuple(p for a, p in rows if a == "age"))


def load_stance_seeds(path) -> dict[str, dict[str, tuple[str, ...]]]:
    """Seed file: `stance<TAB>scope<TAB>pattern` per line, scope in {bio, tweet}."""
    def parse(stance, scope, pattern):
        stance, scope = stance.strip(), scope.strip()
        if stance not in STANCES or scope not in ("bio", "tweet"):
            raise ValueError("bad stance/scope")
        return stance, scope, pattern.strip().lower()

    seeds: dict[str, dict[str, list[str]]] = {
        s: {"bio": [], "tweet": []} for s in STANCES
    }
    for stance, scope, pattern in read_tsv(path, 3, parse):
        seeds[stance][scope].append(pattern)
    return {s: {sc: tuple(p) for sc, p in d.items()} for s, d in seeds.items()}


def load_ruleset(gazetteer_path, names_path, patterns_path, seeds_path, *,
                 reference_year: int) -> RuleSet:
    genders, ages = load_attribute_patterns(patterns_path)
    return RuleSet(
        gazetteer=load_lookup(gazetteer_path),
        name_genders=load_lookup(names_path),
        gender_expressions=genders,
        age_patterns=ages,
        stance_seeds=load_stance_seeds(seeds_path),
        reference_year=reference_year,
    )


def label_location(profile: UserProfile, gazetteer: dict[str, str]) -> Optional[str]:
    """Country from the free-text location, or None if absent or ambiguous."""
    text = (profile.location_text or "").strip()
    if not text:
        return None
    candidates = [text.casefold()]
    candidates += [part.strip().casefold() for part in text.split(",")]
    countries = {gazetteer[c] for c in candidates if c in gazetteer}
    if len(countries) == 1:
        return next(iter(countries))
    return None


def label_gender(profile: UserProfile, rules: RuleSet) -> Optional[str]:
    """Gender from the first name, falling back to bio expressions."""
    name = (profile.full_name or "").strip()
    if name:
        first = name.split()[0].casefold()
        if first in rules.name_genders:
            return rules.name_genders[first]
    bio = profile.bio or ""
    hits = {g for pat, g in rules.gender_expressions if pat.search(bio)}
    if len(hits) == 1:
        return next(iter(hits))
    return None


def cohort_of_age(age: int) -> Optional[str]:
    """Closed-open cohorts: [0,18), [18,30), [30,40), [40,inf)."""
    if age < 10 or age > 100:
        return None
    if age < 18:
        return "<18"
    if age < 30:
        return "18-29"
    if age < 40:
        return "30-39"
    return ">=40"


def label_age(profile: UserProfile, rules: RuleSet) -> Optional[str]:
    """Age cohort from bio phrases; implausible or conflicting extractions
    abstain."""
    bio = profile.bio or ""
    if not bio:
        return None
    cohorts = set()
    for pat, kind in rules.age_patterns:
        for m in pat.finditer(bio):
            try:
                value = int(m.group(1))
            except (IndexError, ValueError):
                continue
            if kind == "birth_year":
                lo, hi = BIRTH_YEAR_RANGE
                if not (lo <= value <= hi):
                    continue
                value = rules.reference_year - value
            cohort = cohort_of_age(value)
            if cohort is not None:
                cohorts.add(cohort)
    if len(cohorts) == 1:
        return next(iter(cohorts))
    return None


def _tweet_seed_hits(encoding: Encoding, seeds: tuple[str, ...]
                     ) -> np.ndarray:
    """Per user, whether any tweet-scope seed matches their posts.

    A hashtag or mention seed must equal a hashtag or mention token; a phrase
    matches as a substring of the user's post tokens joined by spaces.
    """
    hit = np.zeros(len(encoding.users), dtype=bool)
    tags = [t for seed in seeds if seed.startswith(("#", "@"))
            for t in (encoding.term_id(Token(seed, HASHTAG)),
                      encoding.term_id(Token(seed, MENTION)))
            if t is not None]
    if tags:
        rows, terms = encoding.post_tokens()
        hit[rows[np.isin(terms, tags)]] = True
    phrases = [seed for seed in seeds if not seed.startswith(("#", "@"))]
    if phrases:
        for i, text in enumerate(encoding.tweet_texts()):
            hit[i] |= any(seed in text for seed in phrases)
    return hit


def label_stances(corpus, seeds: dict[str, dict[str, tuple[str, ...]]]
                  ) -> list[Optional[str]]:
    """Per corpus user, in sorted order, the stance whose seeds alone match,
    across bio and tweets, or None when seeds of both stances or of neither
    match. Bio seeds match as substrings of the case-folded bio."""
    tweet_hit = {s: _tweet_seed_hits(corpus.encoding, seeds[s]["tweet"])
                 for s in STANCES}
    out = []
    for i, u in enumerate(corpus.encoding.users):
        bio = (corpus.users[u].bio or "").casefold()
        matched = [s for s in STANCES if tweet_hit[s][i]
                   or any(seed in bio for seed in seeds[s]["bio"])]
        out.append(matched[0] if len(matched) == 1 else None)
    return out


_NUMERIC_LEAK_RE = regex.compile(r"^(?:\d{2}|\d{4})$")


def leakage_columns(ruleset: RuleSet,
                    columns: Iterable[FeatureColumn]) -> set[str]:
    """The identifiers of the columns that would leak the labeling rules into
    the classifier.

    Includes every stance seed term present in the vocabulary, columns hit by
    gender expressions, gazetteer place names, and bare 2- or 4-digit numeric
    tokens (used for age labeling). A tweet term is matched as it is; the
    bio and profile blocks' identifiers are matched without their prefix
    (``profile:``, ``lexcat:``, ...), since a term such as ``abc.org:8080``
    holds a ``:`` of its own. An edge column never leaks: its identifier is
    a user id, which no rule reads.
    """
    seeds = set()
    for stance in STANCES:
        for scope in ("bio", "tweet"):
            seeds.update(ruleset.stance_seeds[stance][scope])
    out = set()
    for column in columns:
        if column.block.endswith("_edge"):
            continue
        col = column.identifier
        base = col if column.block == "tweet_term" else col.split(":", 1)[-1]
        low = base.lower()
        if low in seeds:
            out.add(col)
            continue
        if _NUMERIC_LEAK_RE.match(low):
            out.add(col)
            continue
        if low.casefold() in ruleset.gazetteer:
            out.add(col)
            continue
        if any(pat.search(base) for pat, _g in ruleset.gender_expressions):
            out.add(col)
    return out


def apply_rules(corpus, rules: RuleSet) -> LabelSet:
    """Run all rule labelers over every corpus user.

    Stance seeds are matched against the corpus's encoding.
    """
    stances = label_stances(corpus, rules.stance_seeds)
    out = LabelSet()
    for user_id, stance in zip(corpus.encoding.users, stances):
        prof = corpus.users[user_id]
        loc = label_location(prof, rules.gazetteer)
        if loc is not None:
            out.set(user_id, "location", Label(loc, "rule", 1.0))
        gen = label_gender(prof, rules)
        if gen is not None:
            out.set(user_id, "gender", Label(gen, "rule", 1.0))
        age = label_age(prof, rules)
        if age is not None:
            out.set(user_id, "age_cohort", Label(age, "rule", 1.0))
        if stance is not None:
            out.set(user_id, "stance", Label(stance, "rule", 1.0))
    return out


def import_manual_labels(label_set: LabelSet, path) -> LabelSet:
    """Merge manual labels from a `user<TAB>attribute<TAB>value` file.

    Manual labels override rule labels for the same attribute.
    """
    def parse(user_id, attribute, value):
        label_set.set(user_id.strip(), attribute.strip(),
                      Label(value.strip(), "manual", 1.0))

    read_tsv(path, 3, parse)
    return label_set
