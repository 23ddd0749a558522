"""Synthetic debate corpora with fully known ground truth.

Users get a planted stance, demographics, and per-period defense
probabilities; posts are bags of tokens drawn from stance-conditional
distributions (including two signal emoji), so every downstream stage has an
exact oracle. Self-report phrases are built to be parseable by the shipped
default rule files.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import PERIODS
from .corpus import Corpus, MicroPost, UserProfile
from .features import DEFENSE_EMOJI, OPPOSITION_EMOJI
from .gbt import COUNT, POSITIVE_COUNT, check_value
from .tsv import StancelabError

# each user's planted attributes, drawn in this order: every value with its
# share of the users
SHARES = {"stance": {"defense": 0.6, "opposition": 0.4},
          "gender": {"female": 0.5, "male": 0.5},
          "location": {"Argentina": 0.7, "Chile": 0.3},
          "age_cohort": {"<18": 0.15, "18-29": 0.4, "30-39": 0.25,
                         ">=40": 0.2}}
COHORT_AGES = {"<18": (13, 17), "18-29": (18, 29), "30-39": (30, 39),
               ">=40": (40, 70)}
# the chance that a profile states each attribute
SELF_REPORT_RATES = {"gender": 0.5, "age_cohort": 0.5, "stance": 0.4,
                     "location": 0.5}
# the standard deviation of the turnaround shift before planted effects
DELTA_NOISE_SD = 0.05

# a post's bag of words: slots of zipf-ish background words or of the
# user's half of the signal words, and the other stance's emoji at this rate
N_BACKGROUND_WORDS = 478
N_SIGNAL_WORDS = 20
TOKENS_PER_POST = 8
SIGNAL_EMOJI_CROSS_RATE = 0.01

_GENDER_BIO = {"female": "madre de dos", "male": "padre de dos"}
_STANCE_BIO = {"defense": "#abortolegal", "opposition": "#provida"}
_COUNTRY_LOCATION = {"Chile": "Santiago, Chile",
                     "Argentina": "Buenos Aires, Argentina"}
_COUNTRY_TIMEZONE = {"Chile": "Santiago", "Argentina": "Buenos_Aires"}


class SynthError(StancelabError):
    pass


_RATE = (float, lambda v: 0 <= v <= 1, "a number in [0, 1]")

# the range of each SynthSpec field (see gbt.check_value)
_RANGES = {
    "n_users": POSITIVE_COUNT,
    "signal_word_rate": _RATE,
    "signal_emoji_rate": _RATE,
    "topic_term_rate": _RATE,
    "posts_per_user_per_period": (float, lambda v: v >= 1,
                                  "a number of at least 1"),
    "interaction_density": _RATE,
    "turnaround_effects": (dict, lambda v: set(v) <= set(SHARES),
                           "a mapping from " + ", ".join(SHARES)),
    "p0_mode": (str, lambda v: v in ("stance", "mid"), "'stance' or 'mid'"),
    "rng_seed": COUNT,
}


@dataclass(frozen=True)
class SynthSpec:
    n_users: int = 500
    signal_word_rate: float = 0.25     # per token slot, for the user's stance
    signal_emoji_rate: float = 0.5     # per post, aligned emoji
    topic_term_rate: float = 0.95      # per post, the filter keyword "aborto"
    posts_per_user_per_period: float = 4.0  # mean; at least one each
    interaction_density: float = 0.4
    # the shift of p1 by attribute level, such as {"gender": {"male": -0.10},
    # "age_cohort": {"18-29": 0.25}, "location": {"Chile": -0.15}}
    turnaround_effects: dict = field(default_factory=dict)
    p0_mode: str = "stance"            # "stance" or "mid"
    rng_seed: int = 0

    def __post_init__(self):
        for name, spec in _RANGES.items():
            check_value(name, getattr(self, name), spec, SynthError)
        for attr, shifts in self.turnaround_effects.items():
            check_value(f"turnaround_effects.{attr}", shifts,
                        (dict, lambda v: set(v) <= set(SHARES[attr]),
                         "a mapping from " + ", ".join(SHARES[attr])),
                        SynthError)
            for level, shift in shifts.items():
                check_value(f"turnaround_effects.{attr}.{level}", shift,
                            (float, None, "a finite number"), SynthError)


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
    rng = np.random.default_rng(spec.rng_seed)

    user_ids = [f"u{i:05d}" for i in range(spec.n_users)]
    stances, genders, countries, cohorts, ages = {}, {}, {}, {}, {}
    p0s, p1s, deltas = {}, {}, {}
    reported: dict[str, set[str]] = {}
    profiles: dict[str, UserProfile] = {}

    # zipf-ish background word distribution
    ranks = np.arange(1, N_BACKGROUND_WORDS + 1, dtype=np.float64)
    bg_cdf = _cdf((1.0 / ranks) / (1.0 / ranks).sum())
    bg_words = [f"w{k:03d}" for k in range(N_BACKGROUND_WORDS)]
    sig_words = {
        "defense": [f"sig{k:02d}" for k in range(N_SIGNAL_WORDS // 2)],
        "opposition": [f"sig{k:02d}" for k in
                       range(N_SIGNAL_WORDS // 2, N_SIGNAL_WORDS)],
    }
    own_emoji = {"defense": DEFENSE_EMOJI, "opposition": OPPOSITION_EMOJI}
    other_emoji = {"defense": OPPOSITION_EMOJI, "opposition": DEFENSE_EMOJI}

    draws = {attr: (tuple(shares), _cdf(list(shares.values())))
             for attr, shares in SHARES.items()}
    earliest = min(p[0] for p in PERIODS)
    for uid in user_ids:
        attrs = {attr: _choice(rng, options, cdf)
                 for attr, (options, cdf) in draws.items()}
        stance, gender, country, cohort = attrs.values()
        lo, hi = COHORT_AGES[cohort]
        age = int(rng.integers(lo, hi + 1))
        stances[uid], genders[uid] = stance, gender
        countries[uid], cohorts[uid], ages[uid] = country, cohort, age

        rep = set()
        bio_bits = []
        if rng.random() < SELF_REPORT_RATES["gender"]:
            bio_bits.append(_GENDER_BIO[gender])
            rep.add("gender")
        if rng.random() < SELF_REPORT_RATES["age_cohort"]:
            bio_bits.append(f"{age} años")
            rep.add("age_cohort")
        if rng.random() < SELF_REPORT_RATES["stance"]:
            bio_bits.append(_STANCE_BIO[stance])
            rep.add("stance")
        location = None
        if rng.random() < SELF_REPORT_RATES["location"]:
            location = _COUNTRY_LOCATION[country]
            rep.add("location")
        reported[uid] = rep

        if spec.p0_mode == "stance":
            p0 = (rng.uniform(0.65, 0.90) if stance == "defense"
                  else rng.uniform(0.10, 0.35))
        else:
            p0 = rng.uniform(0.30, 0.60)
        shift = float(rng.normal(0.0, DELTA_NOISE_SD))
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
    for period_idx, (start, end) in enumerate(PERIODS):
        for u_idx, uid in enumerate(user_ids):
            stance = stances[uid]
            n_posts = 1 + int(rng.poisson(
                spec.posts_per_user_per_period - 1))
            for _ in range(n_posts):
                tokens = []
                if rng.random() < spec.topic_term_rate:
                    tokens.append("aborto")
                # draw the whole bag at once; per-slot rng calls dominate
                # generation time otherwise
                is_signal = rng.random(TOKENS_PER_POST) < spec.signal_word_rate
                sig_idx = rng.integers(len(sig_words[stance]),
                                       size=TOKENS_PER_POST)
                bg_idx = bg_cdf.searchsorted(rng.random(TOKENS_PER_POST),
                                             "right")
                for slot in range(TOKENS_PER_POST):
                    if is_signal[slot]:
                        tokens.append(sig_words[stance][int(sig_idx[slot])])
                    else:
                        tokens.append(bg_words[int(bg_idx[slot])])
                if rng.random() < spec.signal_emoji_rate:
                    tokens.append(own_emoji[stance])
                if rng.random() < SIGNAL_EMOJI_CROSS_RATE:
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
    corpus = Corpus(posts=tuple(posts), users=profiles)
    truth = GroundTruth(stance=stances, gender=genders, country=countries,
                        cohort=cohorts, age=ages, p0=p0s, p1=p1s,
                        delta=deltas, self_reported=reported)
    return corpus, truth
