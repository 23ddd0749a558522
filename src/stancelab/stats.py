"""Statistical toolbox: log-odds term relevance with a Dirichlet prior,
Tukey HSD over feature-type importance groups, the turnaround measure, and
OLS regression with dummy coding and fit diagnostics."""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .tsv import StancelabError

# the tails of the studentized range and F distributions are computed here,
# from math and numpy alone


class StatsError(StancelabError):
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
        try:
            delta = (math.log((y_a + alpha_i)
                              / (n_a + alpha0 - y_a - alpha_i))
                     - math.log((y_b + alpha_i)
                                / (n_b + alpha0 - y_b - alpha_i)))
        except (ValueError, ZeroDivisionError):  # an alpha0 that rounds away
            raise StatsError(f"term {term!r} has odds that are not positive "
                             f"and finite, with alpha0 {alpha0!r}") from None
        variance = 1.0 / (y_a + alpha_i) + 1.0 / (y_b + alpha_i)
        if not 0 < variance < math.inf:  # an alpha0 that swamps the counts
            raise StatsError(f"term {term!r} has variance {variance!r}, not "
                             f"positive and finite, with alpha0 {alpha0!r}")
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


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0))
                     for v in x.ravel().tolist()]).reshape(x.shape)


@functools.cache
def _quadrature():
    """Gauss-Legendre nodes and weights: 64 over the normal range
    integral's z in [-8, 8] (with Phi at each node), and 16 over [-1, 1]
    for each panel of the integral over log s."""
    z, z_weight = (8.0 * a for a in np.polynomial.legendre.leggauss(64))
    return z, z_weight, _normal_cdf(z), *np.polynomial.legendre.leggauss(16)


def studentized_range_sf(q: float, k: int, df: int) -> float:
    """P(Q > q) for the studentized range Q of ``k`` means with ``df``
    degrees of freedom (Lund & Lund, "Algorithm AS 190", Applied Statistics
    32(2), 1983).

    The range of k standard normals exceeds w with probability
    k∫φ(z)Φ(z)^(k−1)(1 − (1 − Φ(z − w)/Φ(z))^(k−1))dz, computed as an upper
    tail (with ``expm1`` and ``log1p``) so that small values keep their
    digits; for a wide range the integrand's mass moves to z ≈ w/2, and the
    window of z with it. Q exceeds q where that range exceeds q·s, and s,
    the standard error over sigma, has the density of sqrt(χ²_df / df),
    integrated over log s in panels 3 standard deviations wide: over ±12 of
    them, and on the left as far as the density's exp(df·log s) tail needs
    (45/df).
    """
    if q <= 0.0:
        return 1.0
    z0, z_weight, cdf0, panel, panel_weight = _quadrature()
    sd = 1.0 / math.sqrt(2.0 * df)
    lo, hi = -max(12.0 * sd, 45.0 / df), 12.0 * sd
    n = math.ceil((hi - lo) / (3.0 * sd))
    half = 0.5 * (hi - lo) / n
    t = ((lo + half * (2.0 * np.arange(n) + 1.0))[:, None]
         + half * panel).ravel()
    log_density = (0.5 * df * math.log(df) - (0.5 * df - 1.0) * math.log(2.0)
                   - math.lgamma(0.5 * df) + df * t - 0.5 * df * np.exp(2 * t))
    w = q * np.exp(t)
    shift = np.maximum(0.0, 0.5 * w - 2.0)
    z = z0 + shift[:, None]
    cdf = np.tile(cdf0, (len(t), 1))
    moved = shift > 0.0
    cdf[moved] = _normal_cdf(z[moved])
    ratio = _normal_cdf(z - w[:, None]) / cdf
    # a ratio of 1, where w is too small to move Phi, gives log1p(-1) = -inf
    # and a tail of 1, its limit
    with np.errstate(divide="ignore"):
        tail = -np.expm1((k - 1) * np.log1p(-ratio))
    dens_z = (k * z_weight * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
              * cdf ** (k - 1))
    return float(np.tile(half * panel_weight, n)
                 @ (np.exp(log_density) * (tail * dens_z).sum(axis=1)))


def tukey_hsd(groups: Mapping[str, Sequence[float]]) -> list[HSDComparison]:
    """All pairwise mean comparisons corrected by the studentized range
    distribution.

    With zero within-group variance everywhere, p is set by limit: 0 for
    different means, 1 for equal means.
    """
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
                p = studentized_range_sf(q, k, df)
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
                   ) -> tuple[np.ndarray, list[str], list[Optional[Covariate]],
                              dict[str, str]]:
    """The design matrix, each column's name and covariate (None for the
    intercept), and each categorical covariate's reference level."""
    n = len(records)
    cols: list[np.ndarray] = [np.ones(n)]
    names = ["intercept"]
    owners: list[Optional[Covariate]] = [None]
    dummy_map: dict[str, str] = {}
    for cov in covariates:
        start = len(names)
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
        owners += [cov] * (len(names) - start)
    return np.column_stack(cols), names, owners, dummy_map


def _qr(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The QR factors of ``X`` and its columns that depend linearly on the
    ones before: ``|R[i, i]|`` at most ``max(n, p) * eps`` times the top."""
    q_mat, r_mat = np.linalg.qr(X)
    diag = np.abs(np.diag(r_mat))
    top = diag.max() if diag.size else 0.0
    tol = max(X.shape) * np.finfo(float).eps * top
    return q_mat, r_mat, [i for i in range(diag.size) if diag[i] <= tol]


def drop_collinear(records: Sequence[Mapping[str, object]],
                   covariates: Sequence[Covariate]):
    """Prune covariates until the design matrix has full rank: first, and
    unreported, those with one observed value; then others, the last first,
    so the core demographics stay. Returns (kept, dropped column names)."""
    covs = [cov for cov in covariates
            if len({str(r[cov.name]) for r in records}) > 1]
    dropped: list[str] = []
    while covs:
        X, names, owners, _ = _design_matrix(records, covs)
        bad = _qr(X)[2]
        if not bad:
            break
        covs.remove(owners[bad[-1]])
        dropped.append(names[bad[-1]])
    return covs, dropped


def f_sf(f: float, d1: float, d2: float) -> float:
    """P(F > f) for the F distribution with (d1, d2) degrees of freedom: the
    regularized incomplete beta I_x(d2/2, d1/2) at x = d2 / (d2 + d1·f)."""
    if f <= 0.0:
        return 1.0
    if f == math.inf:
        return 0.0
    s = d2 + d1 * f
    return _beta_regularized(0.5 * d2, 0.5 * d1, d2 / s, d1 * f / s)


def _beta_regularized(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b) for y = 1 - x (given apart, with its own digits), from the
    continued fraction of whichever of I_x(a, b) and 1 - I_y(b, a)
    converges fast (DiDonato & Morris, "Algorithm 708", ACM TOMS 18(3),
    1992), evaluated by the modified Lentz method."""
    if x == 0.0 or y == 0.0:
        return 0.0 if x == 0.0 else 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _beta_regularized(b, a, y, x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(y))
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        for num in (even, odd):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return front * h / a
    raise StatsError(f"incomplete beta({a}, {b}) at {x} did not converge")


def ols_regress(records: Sequence[Mapping[str, object]],
                response: Sequence[float],
                covariates: Sequence[Covariate]) -> RegressionResult:
    """Least-squares fit of the turnaround response on encoded covariates.

    Categorical covariates are dummy-coded against a reference level (modal by
    default), count covariates enter as log(1+x). Solved by QR; rank
    deficiency is fatal and names the collinear columns.
    """
    y = np.asarray(response, dtype=np.float64)
    X, names, _owners, dummy_map = _design_matrix(records, covariates)
    n, p = X.shape
    if n <= p:
        raise StatsError(f"need more rows ({n}) than coefficients ({p})")

    q_mat, r_mat, bad = _qr(X)
    if bad:
        raise StatsError(f"design matrix is rank deficient; collinear "
                         f"columns: {', '.join(names[i] for i in bad)}")
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
        f_p = f_sf(f_stat, p - 1, n - p)
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
