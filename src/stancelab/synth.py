"""Synthetic debate corpora with fully known ground truth.

Users get a planted stance, demographics, and per-period defense
probabilities; posts are bags of tokens drawn from stance-conditional
distributions (including two signal emoji), so every downstream stage has an
exact oracle. Self-report phrases are built to be parseable by the shipped
default rule files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from .corpus import Corpus, MicroPost, UserProfile
from .features import DEFENSE_EMOJI, OPPOSITION_EMOJI


def _utc(y, m, d) -> int:
    return int(datetime(y, m, d, tzinfo=timezone.utc).timestamp())


DEFAULT_PERIODS = ((_utc(2017, 5, 1), _utc(2017, 8, 1)),
                   (_utc(2018, 5, 1), _utc(2018, 8, 1)))

COHORT_AGES = {"<18": (13, 17), "18-29": (18, 29), "30-39": (30, 39),
               ">=40": (40, 70)}

_GENDER_BIO = {"female": "madre de dos", "male": "padre de dos"}
_STANCE_BIO = {"defense": "#abortolegal", "opposition": "#provida"}
_COUNTRY_LOCATION = {"Chile": "Santiago, Chile",
                     "Argentina": "Buenos Aires, Argentina"}
_COUNTRY_TIMEZONE = {"Chile": "Santiago", "Argentina": "Buenos_Aires"}


class SynthError(Exception):
    pass


@dataclass(frozen=True)
class SynthSpec:
    n_users: int = 500
    stance_weights: tuple[float, float] = (0.6, 0.4)   # (defense, opposition)
    n_background_words: int = 478
    n_signal_words: int = 20
    signal_word_rate: float = 0.25     # per token slot, for the user's stance
    signal_emoji_rate: float = 0.5     # per post, aligned emoji
    signal_emoji_cross_rate: float = 0.01
    topic_term_rate: float = 0.95      # per post, the filter keyword "aborto"
    tokens_per_post: int = 8
    posts_per_user_per_period: float = 4.0
    gender_weights: tuple[float, float] = (0.5, 0.5)   # (female, male)
    country_weights: tuple[float, float] = (0.7, 0.3)  # (Argentina, Chile)
    cohort_weights: tuple[float, float, float, float] = (0.15, 0.4, 0.25, 0.2)
    self_report_rates: dict = field(default_factory=lambda: {
        "gender": 0.5, "location": 0.5, "age_cohort": 0.5, "stance": 0.4})
    interaction_density: float = 0.4
    periods: tuple[tuple[int, int], tuple[int, int]] = DEFAULT_PERIODS
    turnaround_effects: dict = field(default_factory=dict)
    # e.g. {"gender": {"male": -0.10}, "age_cohort": {"18-29": 0.25},
    #       "location": {"Chile": -0.15}}
    delta_noise_sd: float = 0.05
    p0_mode: str = "stance"            # "stance" or "mid"
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("stance", "gender", "country", "cohort"):
            weights = getattr(self, f"{name}_weights")
            if min(weights) < 0 or abs(sum(weights) - 1.0) > 1e-9:
                raise SynthError(f"{name} weights must be >= 0 and sum to 1")
        for r in (self.signal_word_rate, self.signal_emoji_rate,
                  self.signal_emoji_cross_rate, self.topic_term_rate):
            if not (0.0 <= r <= 1.0):
                raise SynthError("rates must be in [0, 1]")
        if self.p0_mode not in ("stance", "mid"):
            raise SynthError(f"unknown p0_mode {self.p0_mode!r}")
        if self.rng_seed < 0:
            raise SynthError("rng_seed must be non-negative")


@dataclass(frozen=True)
class GroundTruth:
    stance: dict[str, str]
    gender: dict[str, str]
    country: dict[str, str]
    cohort: dict[str, str]
    age: dict[str, int]
    p0: dict[str, float]
    p1: dict[str, float]
    delta: dict[str, float]
    self_reported: dict[str, set[str]]   # user -> attributes present in profile


def _cdf(weights) -> np.ndarray:
    # the CDF Generator.choice(p=weights) builds: searching it for a uniform
    # draw gives choice's random stream without its per-call checks
    cum = np.asarray(weights, dtype=np.float64).cumsum()
    return cum / cum[-1]


def _choice(rng, options, cdf):
    return options[int(cdf.searchsorted(rng.random(), "right"))]


def generate(spec: SynthSpec) -> tuple[Corpus, GroundTruth]:
    """Build a two-period corpus plus its ground truth, deterministic per
    seed."""
    if spec.n_users < 1:
        raise SynthError("n_users must be positive")
    rng = np.random.default_rng(spec.rng_seed)

    user_ids = [f"u{i:05d}" for i in range(spec.n_users)]
    stances, genders, countries, cohorts, ages = {}, {}, {}, {}, {}
    p0s, p1s, deltas = {}, {}, {}
    reported: dict[str, set[str]] = {}
    profiles: dict[str, UserProfile] = {}

    # zipf-ish background word distribution
    ranks = np.arange(1, spec.n_background_words + 1, dtype=np.float64)
    bg_cdf = _cdf((1.0 / ranks) / (1.0 / ranks).sum())
    bg_words = [f"w{k:03d}" for k in range(spec.n_background_words)]
    sig_words = {
        "defense": [f"sig{k:02d}" for k in range(spec.n_signal_words // 2)],
        "opposition": [f"sig{k:02d}" for k in
                       range(spec.n_signal_words // 2, spec.n_signal_words)],
    }
    own_emoji = {"defense": DEFENSE_EMOJI, "opposition": OPPOSITION_EMOJI}
    other_emoji = {"defense": OPPOSITION_EMOJI, "opposition": DEFENSE_EMOJI}

    stance_cdf, gender_cdf, country_cdf, cohort_cdf = (
        _cdf(w) for w in (spec.stance_weights, spec.gender_weights,
                          spec.country_weights, spec.cohort_weights))
    earliest = min(p[0] for p in spec.periods)
    for uid in user_ids:
        stance = _choice(rng, ("defense", "opposition"), stance_cdf)
        gender = _choice(rng, ("female", "male"), gender_cdf)
        country = _choice(rng, ("Argentina", "Chile"), country_cdf)
        cohort = _choice(rng, tuple(COHORT_AGES), cohort_cdf)
        lo, hi = COHORT_AGES[cohort]
        age = int(rng.integers(lo, hi + 1))
        stances[uid], genders[uid] = stance, gender
        countries[uid], cohorts[uid], ages[uid] = country, cohort, age

        rep = set()
        bio_bits = []
        if rng.random() < spec.self_report_rates.get("gender", 0.0):
            bio_bits.append(_GENDER_BIO[gender])
            rep.add("gender")
        if rng.random() < spec.self_report_rates.get("age_cohort", 0.0):
            bio_bits.append(f"{age} años")
            rep.add("age_cohort")
        if rng.random() < spec.self_report_rates.get("stance", 0.0):
            bio_bits.append(_STANCE_BIO[stance])
            rep.add("stance")
        location = None
        if rng.random() < spec.self_report_rates.get("location", 0.0):
            location = _COUNTRY_LOCATION[country]
            rep.add("location")
        reported[uid] = rep

        if spec.p0_mode == "stance":
            p0 = (rng.uniform(0.65, 0.90) if stance == "defense"
                  else rng.uniform(0.10, 0.35))
        else:
            p0 = rng.uniform(0.30, 0.60)
        shift = float(rng.normal(0.0, spec.delta_noise_sd))
        attrs = {"gender": gender, "age_cohort": cohort, "location": country,
                 "stance": stance}
        for attr, levels in spec.turnaround_effects.items():
            shift += levels.get(attrs[attr], 0.0)
        p1 = float(np.clip(p0 + shift, 0.001, 0.999))
        p0s[uid], p1s[uid], deltas[uid] = p0, p1, p1 - p0

        profiles[uid] = UserProfile(
            user_id=uid,
            screen_name=uid,
            full_name=f"nick {uid[1:]}",
            location_text=location,
            bio="; ".join(bio_bits) if bio_bits else None,
            url=None,
            n_posts=int(rng.integers(10, 5000)),
            n_followers=int(rng.integers(0, 3000)),
            n_friends=int(rng.integers(0, 2000)),
            account_created=int(earliest - rng.integers(86400, 86400 * 3650)),
            timezone=_COUNTRY_TIMEZONE[country],
        )

    posts: list[MicroPost] = []
    counter = 0
    for period_idx, (start, end) in enumerate(spec.periods):
        for u_idx, uid in enumerate(user_ids):
            stance = stances[uid]
            n_posts = 1 + int(rng.poisson(max(spec.posts_per_user_per_period - 1,
                                              0.0)))
            for _ in range(n_posts):
                tokens = []
                if rng.random() < spec.topic_term_rate:
                    tokens.append("aborto")
                # draw the whole bag at once; per-slot rng calls dominate
                # generation time otherwise
                is_signal = rng.random(spec.tokens_per_post) < spec.signal_word_rate
                sig_idx = rng.integers(len(sig_words[stance]),
                                       size=spec.tokens_per_post)
                bg_idx = bg_cdf.searchsorted(rng.random(spec.tokens_per_post),
                                             "right")
                for slot in range(spec.tokens_per_post):
                    if is_signal[slot]:
                        tokens.append(sig_words[stance][int(sig_idx[slot])])
                    else:
                        tokens.append(bg_words[int(bg_idx[slot])])
                if rng.random() < spec.signal_emoji_rate:
                    tokens.append(own_emoji[stance])
                if rng.random() < spec.signal_emoji_cross_rate:
                    tokens.append(other_emoji[stance])

                retweet_of = None
                directed = []
                if spec.n_users > 1 and rng.random() < spec.interaction_density:
                    other = int(rng.integers(spec.n_users - 1))
                    if other >= u_idx:
                        other += 1
                    target = user_ids[other]
                    kind = ("retweet", "mention", "reply", "quote")[
                        int(rng.integers(4))]
                    if kind == "retweet":
                        retweet_of = target
                    else:
                        directed.append((target, kind))

                counter += 1
                posts.append(MicroPost(
                    post_id=f"p{counter:07d}",
                    author_id=uid,
                    timestamp=int(rng.integers(start, end)),
                    text=" ".join(tokens),
                    retweet_of=retweet_of,
                    directed_at=tuple(directed),
                ))

    posts.sort(key=lambda p: (p.timestamp, p.post_id))
    corpus = Corpus(posts=tuple(posts), users=profiles,
                    time_range=(spec.periods[0][0], spec.periods[1][1]))
    truth = GroundTruth(stance=stances, gender=genders, country=countries,
                        cohort=cohorts, age=ages, p0=p0s, p1=p1s,
                        delta=deltas, self_reported=reported)
    return corpus, truth
