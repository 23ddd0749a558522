"""Statistical toolbox: log-odds term relevance with a Dirichlet prior,
Tukey HSD over feature-type importance groups, the turnaround measure, and
OLS regression with dummy coding and fit diagnostics."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

# scipy.stats is imported by the two functions that use it: importing it
# takes longer than the rest of stancelab, and most commands never need it


class StatsError(Exception):
    pass


# ---------------------------------------------------------------------------
# log-odds ratio with uninformative Dirichlet prior

@dataclass(frozen=True)
class TermScore:
    term: str
    delta: float
    variance: float
    z: float


def log_odds_prior(counts_a: Mapping[str, int], counts_b: Mapping[str, int],
                   alpha0: Optional[float] = None) -> list[TermScore]:
    """Per-term log-odds difference between two corpora, z-scored.

    The per-term prior is ``alpha0`` split proportionally to pooled corpus
    frequency. ``alpha0`` defaults to 1% of the pooled token mass; reports
    should state the value used. Terms with zero pooled count carry no
    evidence and are dropped.
    """
    n_a = sum(counts_a.values())
    n_b = sum(counts_b.values())
    if alpha0 is None:
        alpha0 = 0.01 * (n_a + n_b)
    if alpha0 <= 0:
        raise StatsError("alpha0 must be positive")

    vocab = sorted(set(counts_a) | set(counts_b))
    pooled = n_a + n_b
    positive = [t for t in vocab
                if counts_a.get(t, 0) + counts_b.get(t, 0) > 0]
    if len(positive) < 2:
        raise StatsError("need at least two terms with positive pooled counts")
    out = []
    for term in positive:
        y_a = counts_a.get(term, 0)
        y_b = counts_b.get(term, 0)
        alpha_i = alpha0 * (y_a + y_b) / pooled
        delta = (math.log((y_a + alpha_i) / (n_a + alpha0 - y_a - alpha_i))
                 - math.log((y_b + alpha_i) / (n_b + alpha0 - y_b - alpha_i)))
        variance = 1.0 / (y_a + alpha_i) + 1.0 / (y_b + alpha_i)
        out.append(TermScore(term=term, delta=delta, variance=variance,
                             z=delta / math.sqrt(variance)))
    return sorted(out, key=lambda t: (-t.z, t.term))


# ---------------------------------------------------------------------------
# Tukey HSD (Tukey-Kramer for unequal group sizes)

@dataclass(frozen=True)
class HSDComparison:
    group_a: str
    group_b: str
    mean_diff: float
    q_statistic: float
    p_adjusted: float

    @property
    def significant_at_05(self) -> bool:
        return self.p_adjusted < 0.05


def tukey_hsd(groups: Mapping[str, Sequence[float]]) -> list[HSDComparison]:
    """All pairwise mean comparisons corrected by the studentized range
    distribution.

    With zero within-group variance everywhere, p is set by limit: 0 for
    different means, 1 for equal means.
    """
    from scipy import stats as sps
    names = sorted(groups)
    if len(names) < 2:
        raise StatsError("need at least two groups")
    data = {g: np.asarray(groups[g], dtype=np.float64) for g in names}
    for g, arr in data.items():
        if len(arr) < 2:
            raise StatsError(f"group {g!r} needs at least two values")
    k = len(names)
    n_total = sum(len(a) for a in data.values())
    if n_total <= k:
        raise StatsError("total observations must exceed the group count")
    df = n_total - k
    ssw = sum(float(((a - a.mean()) ** 2).sum()) for a in data.values())
    msw = ssw / df

    out = []
    for i in range(k):
        for j in range(i + 1, k):
            ga, gb = names[i], names[j]
            a, b = data[ga], data[gb]
            diff = float(a.mean() - b.mean())
            if msw == 0.0:
                q = math.inf if diff != 0 else 0.0
                p = 0.0 if diff != 0 else 1.0
            else:
                se = math.sqrt(msw / 2.0 * (1.0 / len(a) + 1.0 / len(b)))
                q = abs(diff) / se
                p = float(sps.studentized_range.sf(q, k, df))
                p = min(max(p, 0.0), 1.0)
            out.append(HSDComparison(group_a=ga, group_b=gb, mean_diff=diff,
                                     q_statistic=q, p_adjusted=p))
    return out


def group_importance_test(importances: Sequence[tuple["object", float]]
                          ) -> list[HSDComparison]:
    """Tukey HSD over per-column gains grouped by feature type.

    ``importances`` pairs each FeatureColumn (or anything with a
    ``feature_type``) with its total gain.
    """
    groups: dict[str, list[float]] = {}
    for col, gain in importances:
        groups.setdefault(col.feature_type, []).append(float(gain))
    usable = {t: v for t, v in groups.items() if len(v) >= 2}
    if len(usable) < 2:
        raise StatsError("need >= 2 feature types with >= 2 columns each")
    return tukey_hsd(usable)


# ---------------------------------------------------------------------------
# turnaround

def turnaround(p0: float, p1: float) -> float:
    """Change in defense probability between two periods, in [-1, 1]."""
    if not (0.0 <= p0 <= 1.0 and 0.0 <= p1 <= 1.0):
        raise ValueError("probabilities must be in [0, 1]")
    return p1 - p0


# ---------------------------------------------------------------------------
# OLS regression with dummy coding

@dataclass(frozen=True)
class Covariate:
    name: str
    kind: str                      # "categorical" | "count" | "numeric"
    reference: Optional[str] = None  # categorical only; default: modal level

    def __post_init__(self):
        if self.kind not in ("categorical", "count", "numeric"):
            raise ValueError(f"unknown covariate kind {self.kind!r}")


@dataclass(frozen=True)
class RegressionResult:
    names: tuple[str, ...]          # includes "intercept" first
    beta: np.ndarray
    stderr: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    adjusted_r2: float
    mse: float
    f_statistic: float
    f_pvalue: float
    log_likelihood: float
    dummy_map: dict[str, str]       # categorical covariate -> reference level
    n: int

    def coefficient(self, name: str) -> tuple[float, float]:
        """(estimate, stderr) for a coefficient by name."""
        i = self.names.index(name)
        return float(self.beta[i]), float(self.stderr[i])

    def to_rows(self) -> list[tuple[str, float, float, float, float]]:
        return [(self.names[i], float(self.beta[i]), float(self.stderr[i]),
                 float(self.ci_low[i]), float(self.ci_high[i]))
                for i in range(len(self.names))]


def _design_matrix(records: Sequence[Mapping[str, object]],
                   covariates: Sequence[Covariate]
                   ) -> tuple[np.ndarray, list[str], dict[str, str]]:
    n = len(records)
    cols: list[np.ndarray] = [np.ones(n)]
    names = ["intercept"]
    dummy_map: dict[str, str] = {}
    for cov in covariates:
        values = [rec[cov.name] for rec in records]
        if cov.kind == "categorical":
            levels = [str(v) for v in values]
            counts = Counter(levels)
            # deterministic modal reference: most frequent, then lexicographic
            ref = cov.reference or min(counts, key=lambda l: (-counts[l], l))
            if ref not in counts:
                raise StatsError(
                    f"reference level {ref!r} absent for {cov.name}")
            dummy_map[cov.name] = ref
            for level in sorted(counts):
                if level == ref:
                    continue
                cols.append(np.asarray([1.0 if v == level else 0.0
                                        for v in levels]))
                names.append(f"{cov.name}[{level}]")
        elif cov.kind == "count":
            arr = np.asarray(values, dtype=np.float64)
            if (arr < 0).any():
                raise StatsError(f"negative values in count covariate {cov.name}")
            cols.append(np.log1p(arr))
            names.append(f"log1p_{cov.name}")
        else:
            cols.append(np.asarray(values, dtype=np.float64))
            names.append(cov.name)
    return np.column_stack(cols), names, dummy_map


def ols_regress(records: Sequence[Mapping[str, object]],
                response: Sequence[float],
                covariates: Sequence[Covariate]) -> RegressionResult:
    """Least-squares fit of the turnaround response on encoded covariates.

    Categorical covariates are dummy-coded against a reference level (modal by
    default), count covariates enter as log(1+x). Solved by QR; rank
    deficiency is fatal and names the collinear columns.
    """
    from scipy import stats as sps
    y = np.asarray(response, dtype=np.float64)
    X, names, dummy_map = _design_matrix(records, covariates)
    n, p = X.shape
    if n <= p:
        raise StatsError(f"need more rows ({n}) than coefficients ({p})")

    q_mat, r_mat = np.linalg.qr(X)
    diag = np.abs(np.diag(r_mat))
    tol = max(n, p) * np.finfo(float).eps * (diag.max() if diag.size else 0.0)
    bad = [names[i] for i in range(p) if diag[i] <= tol]
    if bad:
        raise StatsError(f"design matrix is rank deficient; collinear "
                         f"columns: {', '.join(bad)}")
    beta = np.linalg.solve(r_mat, q_mat.T @ y)

    resid = y - X @ beta
    rss = float(resid @ resid)
    tss = float(((y - y.mean()) ** 2).sum())
    sigma2 = rss / (n - p)
    r_inv = np.linalg.inv(r_mat)
    cov_beta = sigma2 * (r_inv @ r_inv.T)
    stderr = np.sqrt(np.maximum(np.diag(cov_beta), 0.0))

    r2 = 1.0 - rss / tss if tss > 0 else 0.0
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - p)
    mse = rss / n
    if p > 1 and rss > 0:
        f_stat = ((tss - rss) / (p - 1)) / (rss / (n - p))
        f_p = float(sps.f.sf(f_stat, p - 1, n - p))
    else:
        f_stat, f_p = math.inf, 0.0
    if rss > 0:
        loglik = -0.5 * n * (math.log(2 * math.pi * mse) + 1.0)
    else:
        loglik = math.inf

    # 95% CI via normal approximation
    ci_low = beta - 1.96 * stderr
    ci_high = beta + 1.96 * stderr
    return RegressionResult(names=tuple(names), beta=beta, stderr=stderr,
                            ci_low=ci_low, ci_high=ci_high,
                            adjusted_r2=float(adj_r2), mse=float(mse),
                            f_statistic=float(f_stat), f_pvalue=f_p,
                            log_likelihood=float(loglik),
                            dummy_map=dummy_map, n=n)
