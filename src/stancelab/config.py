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

import yaml

from .gbt import BoostParams


class ConfigError(Exception):
    pass


def default_rule_path(name: str) -> str:
    return str(resources.files("stancelab").joinpath("rules", name))


def parse_date(value) -> int:
    """ISO date (or integer epoch seconds) to UTC epoch seconds."""
    if isinstance(value, int):
        return value
    dt = datetime.strptime(str(value), "%Y-%m-%d").replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


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
    periods: tuple[tuple[int, int], tuple[int, int]] = (
        (parse_date("2017-05-01"), parse_date("2017-08-01")),
        (parse_date("2018-05-01"), parse_date("2018-08-01")),
    )
    rng_seed: int = 0

    def __post_init__(self):
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
    with open(path, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh) or {}
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


def config_from_dict(raw: dict, base_dir: Path = Path(".")) -> PipelineConfig:
    """Build a config from parsed YAML. Unknown keys raise ConfigError."""
    raw = _known(None, raw, _TOP_LEVEL_KEYS)
    cfg = PipelineConfig()
    if "corpus" in raw:
        cfg.corpus = _resolve(base_dir, raw["corpus"]) or ""
    if "output_dir" in raw:
        cfg.output_dir = _resolve(base_dir, raw["output_dir"]) or "out"
    rules = _known("rules", raw.get("rules"),
                   [f.name for f in fields(RulePaths)])
    for key, value in rules.items():
        if value:
            setattr(cfg.rules, key, _resolve(base_dir, value))
    flt = _known("filter", raw.get("filter"), _FILTER_KEYS)
    if "include_terms" in flt:
        cfg.include_terms = list(flt["include_terms"])
    if "exclude_patterns" in flt:
        cfg.exclude_patterns = list(flt["exclude_patterns"])
    if flt.get("from"):
        cfg.time_from = parse_date(flt["from"])
    if flt.get("to"):
        cfg.time_to = parse_date(flt["to"])
    thr = _known("thresholds", raw.get("thresholds"),
                 [f.name for f in fields(Thresholds)])
    cfg.thresholds = Thresholds(**{**asdict(cfg.thresholds), **thr})
    boost = _known("boost", raw.get("boost"),
                   [f.name for f in fields(BoostParams)])
    if boost:
        try:
            cfg.boost = BoostParams(**{**asdict(cfg.boost), **boost})
        except ValueError as exc:
            raise ConfigError(f"boost: {exc}") from None
    for key in ("alpha0", "calibration_fraction", "min_in_degree",
                "reference_year", "include_retweets", "rng_seed"):
        if key in raw:
            setattr(cfg, key, raw[key])
    if "periods" in raw:
        periods = raw["periods"]
        if len(periods) != 2:
            raise ConfigError("exactly two turnaround periods are required")
        cfg.periods = tuple((parse_date(p[0]), parse_date(p[1]))
                            for p in periods)
        cfg.__post_init__()
    return cfg
