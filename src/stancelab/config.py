"""Pipeline configuration: a YAML key-value file with documented defaults.

Rule-file paths default to the small example files shipped under
``stancelab/rules``. Dates are ISO ``YYYY-MM-DD`` strings interpreted as UTC.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path
from typing import Optional

import regex
import yaml

from . import gbt
from .gbt import BOOST_RANGES, COUNT, FRACTION, POSITIVE, BoostParams


class ConfigError(Exception):
    pass


_RULE_PATH = (str, lambda v: v != "", "a non-empty path")

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
    "thresholds.tweet_min_count": COUNT,
    "thresholds.bio_min_count": COUNT,
    **{f"boost.{name}": spec for name, spec in BOOST_RANGES.items()},
}


def check_value(key: str, value, spec=None):
    """``value`` if it is what ``SCALARS[key]`` (or ``spec``) asks for, else
    ConfigError naming the key."""
    return gbt.check_value(key, value, spec or SCALARS[key], ConfigError)


def default_rule_path(name: str) -> str:
    return str(resources.files("stancelab").joinpath("rules", name))


def parse_date(value, key: str = "date") -> int:
    """ISO date (or integer epoch seconds) to UTC epoch seconds; anything
    else is a ConfigError naming ``key``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    try:
        dt = datetime.strptime(str(value), "%Y-%m-%d")
    except ValueError:
        raise ConfigError(f"{key} must be a YYYY-MM-DD date, "
                          f"got {value!r}") from None
    return int(dt.replace(tzinfo=timezone.utc).timestamp())


# the two turnaround periods, May to July of 2017 and of 2018; synthetic
# corpora post in them
PERIODS = ((parse_date("2017-05-01"), parse_date("2017-08-01")),
           (parse_date("2018-05-01"), parse_date("2018-08-01")))


@dataclass
class RulePaths:
    gazetteer: str = field(default_factory=lambda: default_rule_path("gazetteer.tsv"))
    names: str = field(default_factory=lambda: default_rule_path("names.tsv"))
    patterns: str = field(default_factory=lambda: default_rule_path("patterns.tsv"))
    stance_seeds: str = field(default_factory=lambda: default_rule_path("stance_seeds.tsv"))
    stopwords: str = field(default_factory=lambda: default_rule_path("stopwords_es.txt"))
    lexicon: str = field(default_factory=lambda: default_rule_path("lexicon.tsv"))
    manual_labels: Optional[str] = None


@dataclass
class Thresholds:
    tweet_min_count: int = 50
    bio_min_count: int = 10


@dataclass
class PipelineConfig:
    corpus: str = ""
    output_dir: str = "out"
    rules: RulePaths = field(default_factory=RulePaths)
    include_terms: list[str] = field(default_factory=lambda: ["aborto"])
    exclude_patterns: list[str] = field(default_factory=list)
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
        if (self.time_from is None) != (self.time_to is None):
            given, other = (("from", "to") if self.time_to is None
                            else ("to", "from"))
            raise ConfigError(f"filter.{given} must be set together with "
                              f"filter.{other}")
        if self.time_from is not None and self.time_from >= self.time_to:
            raise ConfigError("filter.to must be later than filter.from")
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
        snap = self.snapshot()
        # where outputs land does not change what they contain
        snap.pop("output_dir", None)
        payload = json.dumps({"config": snap, "inputs": input_digests},
                             sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


def load_config(path) -> PipelineConfig:
    """The config file ``path``; YAML that does not parse raises
    :class:`ConfigError` naming the file and line."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh) or {}
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f"{path}:{mark.line + 1}" if mark else str(path)
            what = getattr(exc, "problem", None) or exc
            raise ConfigError(f"{where}: invalid YAML: {what}") from None
    return config_from_dict(raw, base_dir=Path(path).parent)


def _resolve(base_dir: Path, value: Optional[str]) -> Optional[str]:
    if value is None:
        return None
    p = Path(value)
    return str(p if p.is_absolute() else base_dir / p)


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


def _strings(key: str, value) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str)
                                              for v in value):
        raise ConfigError(f"{key} must be a list of strings, got {value!r}")
    return list(value)


def config_from_dict(raw: dict, base_dir: Path = Path(".")) -> PipelineConfig:
    """Build a config from parsed YAML. Unknown keys and values that
    ``SCALARS`` refuses raise ConfigError naming the key."""
    raw = _known(None, raw, _TOP_LEVEL_KEYS)
    cfg = PipelineConfig()
    if raw.get("corpus") is not None:
        cfg.corpus = _resolve(base_dir, check_value("corpus", raw["corpus"]))
    if raw.get("output_dir") is not None:
        cfg.output_dir = _resolve(base_dir, check_value("output_dir",
                                                        raw["output_dir"]))
    rules = _known("rules", raw.get("rules"),
                   [f.name for f in fields(RulePaths)])
    for key, value in rules.items():
        if value is not None:
            setattr(cfg.rules, key, _resolve(base_dir, check_value(
                f"rules.{key}", value, _RULE_PATH)))
    flt = _known("filter", raw.get("filter"), _FILTER_KEYS)
    if "include_terms" in flt:
        cfg.include_terms = _strings("filter.include_terms",
                                     flt["include_terms"])
    if "exclude_patterns" in flt:
        cfg.exclude_patterns = _strings("filter.exclude_patterns",
                                        flt["exclude_patterns"])
        try:  # compiled as corpus.filter_relevant compiles them
            for pattern in cfg.exclude_patterns:
                regex.compile(pattern, regex.IGNORECASE)
        except regex.error as exc:
            raise ConfigError("filter.exclude_patterns must be regular "
                              f"expressions, got {pattern!r}: {exc}") from None
    if flt.get("from") is not None:
        cfg.time_from = parse_date(flt["from"], "filter.from")
    if flt.get("to") is not None:
        cfg.time_to = parse_date(flt["to"], "filter.to")
    sections = {"thresholds": _known("thresholds", raw.get("thresholds"),
                                     [f.name for f in fields(Thresholds)]),
                "boost": _known("boost", raw.get("boost"),
                                [f.name for f in fields(BoostParams)])}
    for section, values in sections.items():
        for key, value in values.items():
            check_value(f"{section}.{key}", value)
    cfg.thresholds = Thresholds(**{**asdict(cfg.thresholds),
                                   **sections["thresholds"]})
    cfg.boost = BoostParams(**{**asdict(cfg.boost), **sections["boost"]})
    for key in ("alpha0", "calibration_fraction", "min_in_degree",
                "reference_year", "include_retweets", "rng_seed"):
        if key in raw and not (key == "alpha0" and raw[key] is None):
            setattr(cfg, key, check_value(key, raw[key]))
    if "periods" in raw:
        periods = raw["periods"]
        if not isinstance(periods, list) or len(periods) != 2 or not all(
                isinstance(p, list) and len(p) == 2 for p in periods):
            raise ConfigError("periods must be two [from, to] pairs of dates")
        cfg.periods = tuple((parse_date(p[0], "periods"),
                             parse_date(p[1], "periods")) for p in periods)
    cfg.__post_init__()
    return cfg
