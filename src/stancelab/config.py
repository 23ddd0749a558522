"""Pipeline configuration: a YAML key-value file with documented defaults.

Rule-file paths default to the small example files shipped under
``stancelab/rules``. Dates are ISO ``YYYY-MM-DD`` strings interpreted as UTC.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path
from typing import Optional

import regex
import yaml

from . import gbt
from .gbt import (BOOST_RANGES, COUNT, FRACTION, POSITIVE, POSITIVE_COUNT,
                  BoostParams)
from .tsv import read_text


class ConfigError(Exception):
    pass


# every scalar config value, by key: its range (see gbt.check_value). The
# seed's entry also checks the --seed option.
SCALARS = {
    "corpus": (str, None, "a path"),
    "output_dir": (str, None, "a path"),
    "alpha0": POSITIVE,
    "calibration_fraction": FRACTION,
    "min_in_degree": COUNT,
    "reference_year": (int, None, "an integer"),
    "include_retweets": (bool, None, "true or false"),
    "rng_seed": COUNT,
    "thresholds.tweet_min_count": POSITIVE_COUNT,
    "thresholds.bio_min_count": POSITIVE_COUNT,
    **{f"boost.{name}": spec for name, spec in BOOST_RANGES.items()},
}


def check_value(key: str, value, spec=None):
    """``value`` if it is what ``SCALARS[key]`` (or ``spec``) asks for, else
    ConfigError naming the key."""
    return gbt.check_value(key, value, spec or SCALARS[key], ConfigError)


def default_rule_path(name: str) -> str:
    return str(resources.files("stancelab").joinpath("rules", name))


_RULE_PATH = (str, lambda v: v != "", "a non-empty path")
_STRINGS = ((list, tuple), lambda v: all(isinstance(s, str) for s in v),
            "a list of strings")
_DATE = (int, None, "a YYYY-MM-DD date")  # held as UTC epoch seconds


def parse_date(value, key: str = "date") -> int:
    """ISO date (or integer epoch seconds) to UTC epoch seconds; anything
    else is a ConfigError naming ``key``."""
    try:
        dt = datetime.strptime(str(value), "%Y-%m-%d")
    except ValueError:
        return check_value(key, value, _DATE)
    return int(dt.replace(tzinfo=timezone.utc).timestamp())


# the two turnaround periods, May to July of 2017 and of 2018; synthetic
# corpora post in them
PERIODS = ((parse_date("2017-05-01"), parse_date("2017-08-01")),
           (parse_date("2018-05-01"), parse_date("2018-08-01")))


@dataclass(frozen=True)
class RulePaths:
    gazetteer: str = field(default_factory=lambda: default_rule_path("gazetteer.tsv"))
    names: str = field(default_factory=lambda: default_rule_path("names.tsv"))
    patterns: str = field(default_factory=lambda: default_rule_path("patterns.tsv"))
    stance_seeds: str = field(default_factory=lambda: default_rule_path("stance_seeds.tsv"))
    stopwords: str = field(default_factory=lambda: default_rule_path("stopwords_es.txt"))
    lexicon: str = field(default_factory=lambda: default_rule_path("lexicon.tsv"))
    manual_labels: Optional[str] = None

    def __post_init__(self):
        for name, value in asdict(self).items():
            if value is not None or name != "manual_labels":
                check_value(f"rules.{name}", value, _RULE_PATH)


@dataclass(frozen=True)
class Thresholds:
    tweet_min_count: int = 50
    bio_min_count: int = 10

    def __post_init__(self):
        for name, value in asdict(self).items():
            check_value(f"thresholds.{name}", value)


def _two_pairs(value) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == 2 and all(
        isinstance(p, (list, tuple)) and len(p) == 2 for p in value)


@dataclass(frozen=True)
class PipelineConfig:
    corpus: str = ""
    output_dir: str = "out"
    rules: RulePaths = field(default_factory=RulePaths)
    # held as tuples, so a checked config cannot change; YAML gives lists
    include_terms: tuple[str, ...] = ("aborto",)
    exclude_patterns: tuple[str, ...] = ()
    time_from: Optional[int] = None
    time_to: Optional[int] = None
    thresholds: Thresholds = field(default_factory=Thresholds)
    boost: BoostParams = field(default_factory=BoostParams)
    alpha0: Optional[float] = None
    calibration_fraction: float = 0.25
    min_in_degree: int = 5
    reference_year: int = 2017
    include_retweets: bool = True
    periods: tuple[tuple[int, int], tuple[int, int]] = PERIODS
    rng_seed: int = 0

    def __post_init__(self):
        for key in SCALARS:
            if "." not in key and (key != "alpha0" or self.alpha0 is not None):
                check_value(key, getattr(self, key))
        for key, cls in (("rules", RulePaths), ("thresholds", Thresholds),
                         ("boost", BoostParams)):
            check_value(key, getattr(self, key),
                        (cls, None, f"a {cls.__name__}"))
        for key in ("include_terms", "exclude_patterns"):
            object.__setattr__(self, key, tuple(check_value(
                f"filter.{key}", getattr(self, key), _STRINGS)))
        try:  # compiled as corpus.filter_relevant compiles them
            for pattern in self.exclude_patterns:
                regex.compile(pattern, regex.IGNORECASE)
        except regex.error as exc:
            raise ConfigError("filter.exclude_patterns must be regular "
                              f"expressions, got {pattern!r}: {exc}") from None
        if (self.time_from is None) != (self.time_to is None):
            given, other = (("from", "to") if self.time_to is None
                            else ("to", "from"))
            raise ConfigError(f"filter.{given} must be set together with "
                              f"filter.{other}")
        if self.time_from is not None and (
                check_value("filter.from", self.time_from, _DATE)
                >= check_value("filter.to", self.time_to, _DATE)):
            raise ConfigError("filter.to must be later than filter.from")
        if not _two_pairs(self.periods):
            raise ConfigError("periods must be two [from, to] pairs of dates")
        for date in (*self.periods[0], *self.periods[1]):
            check_value("periods", date, _DATE)
        (a0, a1), (b0, b1) = self.periods
        if not (a0 < a1 <= b0 < b1):
            raise ConfigError("turnaround periods must be ordered and "
                              "non-overlapping")

    def snapshot(self) -> dict:
        """JSON-serializable view used for manifests and digests."""
        d = asdict(self)
        d["periods"] = [list(p) for p in self.periods]
        return d

    def digest(self, input_digests: dict[str, str]) -> str:
        """sha256 of the config's values and of ``input_digests``, the
        contents of the input files that are set, by name. Paths are left
        out: the inputs' bytes stand for where they are read from, and where
        outputs land does not change what they contain."""
        snap = self.snapshot()
        for key in ("corpus", "output_dir", "rules"):
            del snap[key]
        payload = json.dumps({"config": snap, "inputs": input_digests},
                             sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


def load_config(path) -> PipelineConfig:
    """The config file ``path``; a file that cannot be read as UTF-8 text,
    or YAML that does not parse, raises :class:`ConfigError` naming the
    file (and the line)."""
    text = read_text(path, ConfigError)
    try:
        raw = yaml.safe_load(text) or {}
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}" if mark else str(path)
        what = getattr(exc, "problem", None) or exc
        raise ConfigError(f"{where}: invalid YAML: {what}") from None
    return config_from_dict(raw, base_dir=Path(path).parent)


def _resolve(base_dir: Path, values: dict) -> dict:
    """The paths of ``values`` that are set (a null keeps the default),
    relative ones resolved against ``base_dir``."""
    return {key: str(base_dir / value) if isinstance(value, str) else value
            for key, value in values.items() if value is not None}


_TOP_LEVEL_KEYS = ("corpus", "output_dir", "rules", "filter", "thresholds",
                   "boost", "alpha0", "calibration_fraction", "min_in_degree",
                   "reference_year", "include_retweets", "periods", "rng_seed")
_FILTER_KEYS = ("include_terms", "exclude_patterns", "from", "to")


def _known(section: Optional[str], value, allowed) -> dict:
    """The mapping ``value`` (empty if None); every key must be in
    ``allowed``."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{section or 'config'} must be a mapping")
    unknown = sorted(str(k) for k in value if k not in allowed)
    if unknown:
        prefix = f"{section}." if section else ""
        raise ConfigError("unknown config key(s): "
                          + ", ".join(prefix + k for k in unknown))
    return value


def config_from_dict(raw: dict, base_dir: Path = Path(".")) -> PipelineConfig:
    """Build a config from parsed YAML: each key goes to its field, with
    paths resolved against ``base_dir`` and dates parsed. An unknown key, or
    a value the config classes refuse, raises ConfigError naming the key."""
    args = dict(_known(None, raw, _TOP_LEVEL_KEYS))
    rules, thresholds, boost = (
        _known(name, args.pop(name, None), [f.name for f in fields(cls)])
        for name, cls in (("rules", RulePaths), ("thresholds", Thresholds),
                          ("boost", BoostParams)))
    flt = _known("filter", args.pop("filter", None), _FILTER_KEYS)
    args.update(_resolve(base_dir, {key: args.pop(key) for key in
                                    ("corpus", "output_dir") if key in args}))
    args.update({key: flt[key] for key in ("include_terms", "exclude_patterns")
                 if key in flt})
    for key, name in (("from", "time_from"), ("to", "time_to")):
        if flt.get(key) is not None:
            args[name] = parse_date(flt[key], f"filter.{key}")
    if _two_pairs(args.get("periods")):
        args["periods"] = tuple(tuple(parse_date(d, "periods") for d in p)
                                for p in args["periods"])
    try:
        boost = BoostParams(**boost)
    except ValueError as exc:
        raise ConfigError(f"boost.{exc}") from None
    # a rule path is checked as written: resolved, "" would name base_dir
    rules = {k: v for k, v in rules.items() if v is not None}
    return PipelineConfig(
        **args, rules=replace(RulePaths(**rules), **_resolve(base_dir, rules)),
        thresholds=Thresholds(**thresholds), boost=boost)
