import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.stats import norm

from stancelab import stats


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs more to import than the rest of stancelab, which
    # loads no scipy at all (test_pipeline.py: test_commands_load_no_scipy)
    src = os.path.dirname(os.path.dirname(os.path.abspath(stats.__file__)))
    code = "import sys, stancelab.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# log-odds with Dirichlet prior

def direct_log_odds(y_a, n_a, y_b, n_b, alpha_i, alpha0):
    """Straight transcription of the estimator, kept independent of the
    implementation's vectorization."""
    delta = (math.log((y_a + alpha_i) / (n_a + alpha0 - y_a - alpha_i))
             - math.log((y_b + alpha_i) / (n_b + alpha0 - y_b - alpha_i)))
    var = 1.0 / (y_a + alpha_i) + 1.0 / (y_b + alpha_i)
    return delta, var


def test_log_odds_matches_direct_formula():
    a = {"x": 30, "y": 5, "z": 1}
    b = {"x": 10, "y": 25, "w": 4}
    alpha0 = 2.0
    n_a, n_b = 36, 39
    scores = {t.term: t for t in stats.log_odds_prior(a, b, alpha0=alpha0)}
    for term in ("x", "y", "z", "w"):
        y_a, y_b = a.get(term, 0), b.get(term, 0)
        alpha_i = alpha0 * (y_a + y_b) / (n_a + n_b)
        delta, var = direct_log_odds(y_a, n_a, y_b, n_b, alpha_i, alpha0)
        assert scores[term].delta == pytest.approx(delta, abs=1e-12)
        assert scores[term].variance == pytest.approx(var, abs=1e-12)
        assert scores[term].z == pytest.approx(delta / math.sqrt(var), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from("abcdefgh"),
                       st.integers(min_value=0, max_value=200), min_size=2),
       st.dictionaries(st.sampled_from("abcdefgh"),
                       st.integers(min_value=0, max_value=200), min_size=2))
def test_log_odds_antisymmetry(ca, cb):
    if sum(ca.values()) == 0 or sum(cb.values()) == 0:
        return
    pooled = {t: ca.get(t, 0) + cb.get(t, 0) for t in set(ca) | set(cb)}
    if sum(1 for v in pooled.values() if v > 0) < 2:
        return
    fwd = {t.term: t for t in stats.log_odds_prior(ca, cb)}
    rev = {t.term: t for t in stats.log_odds_prior(cb, ca)}
    for term in fwd:
        assert fwd[term].delta == pytest.approx(-rev[term].delta, abs=1e-9)
        assert fwd[term].z == pytest.approx(-rev[term].z, abs=1e-9)


def test_log_odds_default_prior_scale():
    a, b = {"x": 50, "y": 10}, {"x": 50, "y": 10}
    # defaults to 1% of pooled mass; symmetric counts give delta == 0
    for t in stats.log_odds_prior(a, b):
        assert t.delta == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(stats.StatsError):
        stats.log_odds_prior({"x": 5}, {"x": 0})


def test_log_odds_rejects_bad_alpha():
    with pytest.raises(stats.StatsError):
        stats.log_odds_prior({"x": 1}, {"x": 1}, alpha0=0.0)


def test_log_odds_refuses_an_alpha_that_swamps_the_counts():
    # alpha0 * 3 overflows, so each variance underflows to 0
    with pytest.raises(stats.StatsError, match="variance 0.0"):
        stats.log_odds_prior({"a": 1, "b": 2}, {"a": 2, "b": 1}, alpha0=1e308)


@pytest.mark.parametrize("counts_a, counts_b, alpha0", [
    # n_a + alpha0 - y_a - alpha_i rounds to 0, then below it
    ({"x": 5}, {"x": 1, "y": 1}, 1e-20),
    ({"x": 5}, {"x": 1, "y": 1}, 5e-324),
    # y_b + alpha_i over n_b + alpha0 - y_b - alpha_i rounds to 0
    ({"x": 5, "z": 1}, {"y": 1, "z": 1}, 5e-324),
])
def test_log_odds_refuses_an_alpha_that_rounds_away(counts_a, counts_b,
                                                    alpha0):
    with pytest.raises(stats.StatsError, match=f"term 'x' has odds .*"
                       f"with alpha0 {alpha0!r}"):
        stats.log_odds_prior(counts_a, counts_b, alpha0=alpha0)


# ---------------------------------------------------------------------------
# Tukey HSD

def studentized_range_sf(q, k, df):
    """Survival function of the studentized range by direct numerical
    integration of its CDF (independent of scipy.stats.studentized_range)."""

    def inner(u):
        # P(range of k std normals <= q*u) for scale factor u
        lo, hi = -8.0, 8.0
        val, _err = integrate.quad(
            lambda z: norm.pdf(z) * (norm.cdf(z + q * u) - norm.cdf(z)) ** (k - 1),
            lo, hi, limit=200)
        return k * val

    # chi distribution of sqrt(chi2_df / df)
    from scipy.stats import chi2

    def outer(x):
        u = math.sqrt(x / df)
        return chi2.pdf(x, df) * inner(u)

    cdf, _err = integrate.quad(outer, 0, df + 10 * math.sqrt(2 * df) + 50,
                               limit=200)
    return 1.0 - cdf


def test_tukey_q_statistic_exact():
    groups = {"a": [1.0, 2.0, 3.0], "b": [2.0, 4.0, 6.0], "c": [1.0, 1.0, 1.0]}
    out = {(c.group_a, c.group_b): c for c in stats.tukey_hsd(groups)}
    data = {g: np.asarray(v) for g, v in groups.items()}
    ssw = sum(((a - a.mean()) ** 2).sum() for a in data.values())
    msw = ssw / (9 - 3)
    for (ga, gb), comp in out.items():
        diff = data[ga].mean() - data[gb].mean()
        se = math.sqrt(msw / 2 * (1 / 3 + 1 / 3))
        assert comp.mean_diff == pytest.approx(diff, abs=1e-12)
        assert comp.q_statistic == pytest.approx(abs(diff) / se, abs=1e-12)


def test_tukey_p_matches_numerical_integration():
    groups = {"a": [1.0, 2.0, 3.0, 2.5], "b": [4.0, 5.0, 4.5],
              "c": [1.5, 2.0, 2.5]}
    k, n = 3, 10
    for comp in stats.tukey_hsd(groups):
        oracle = studentized_range_sf(comp.q_statistic, k, n - k)
        assert comp.p_adjusted == pytest.approx(oracle, abs=1e-4)


def studentized_range_upper_tail(q, k, df):
    """P(Q > q) computed as the upper tail itself, by adaptive quadrature
    (independent of the library's fixed Gauss-Legendre panels and of its
    normal CDF): the range of k standard normals exceeds w with probability
    k∫φ(z)Φ(z)^(k−1)(1 − (1 − Φ(z − w)/Φ(z))^(k−1))dz, whose mass sits near
    z = 0 for a small w and near w/2 for a large one, and the scale s has
    the density of sqrt(χ²_df / df)."""
    from scipy.special import gammaln, log_ndtr

    def range_tail(w):
        def f(z):
            log_cdf = float(log_ndtr(z))
            r = math.exp(float(log_ndtr(z - w)) - log_cdf)
            tail = 1.0 if r >= 1.0 else -math.expm1((k - 1) * math.log1p(-r))
            return k * math.exp(-0.5 * z * z + (k - 1) * log_cdf) * tail

        val, _err = integrate.quad(f, -12.0, 0.5 * w + 12.0,
                                   points=[0.0, 0.5 * w], epsabs=0.0,
                                   epsrel=1e-9, limit=200)
        return val / math.sqrt(2.0 * math.pi)

    log_c = (0.5 * df * math.log(df) - (0.5 * df - 1.0) * math.log(2.0)
             - float(gammaln(0.5 * df)))

    def outer(s):
        return (math.exp(log_c + (df - 1) * math.log(s) - 0.5 * df * s * s)
                * range_tail(q * s))

    sd = 1.0 / math.sqrt(2.0 * df)
    val, _err = integrate.quad(outer, 0.0, 1.0 + 40.0 * sd + 5.0,
                               points=[max(1e-9, 1.0 - 4.0 * sd), 1.0,
                                       1.0 + 4.0 * sd],
                               epsabs=0.0, epsrel=1e-9, limit=400)
    return val


@pytest.mark.parametrize("q, k, df", [
    # importance compares up to 8 feature types over thousands of columns
    (3.5, 8, 1000), (5.0, 8, 1200), (4.2, 8, 5000), (9.5, 8, 1000),
    # few degrees of freedom: the density of s has a long left tail
    (3.0, 3, 1), (3.0, 3, 2), (5.0, 3, 3), (4.0, 5, 4), (6.0, 8, 5),
    (2.0, 8, 6),
])
def test_tukey_tail_matches_an_upper_tail_oracle(q, k, df):
    oracle = studentized_range_upper_tail(q, k, df)
    assert stats.studentized_range_sf(q, k, df) == pytest.approx(
        oracle, rel=1e-7, abs=1e-15)


def test_tukey_deep_tail_keeps_its_digits():
    # 1 - CDF would leave none of them
    oracle = studentized_range_upper_tail(12.0, 4, 60)
    assert 1e-11 < oracle < 1e-10
    assert stats.studentized_range_sf(12.0, 4, 60) == pytest.approx(
        oracle, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("df", [1, 5, 30, 100, 1000, 5000])
def test_tukey_tail_of_two_means_is_the_t_tail(df):
    # the range of two means over its standard error is sqrt(2)·|t|
    from scipy.stats import t
    for q in (0.5, 2.0, 5.0, 10.0, 12.0):
        want = 2.0 * t.sf(q / math.sqrt(2.0), df)
        if want > 1e-12:
            assert stats.studentized_range_sf(q, 2, df) == pytest.approx(
                want, rel=1e-6, abs=0.0)


def test_tukey_tail_at_a_vanishing_statistic_is_one():
    # there Phi(z - w) equals Phi(z), and log1p(-1) must not warn
    assert stats.studentized_range_sf(0.0, 3, 10) == 1.0
    for q in (1e-300, 1e-17):
        assert stats.studentized_range_sf(q, 3, 10) == pytest.approx(
            1.0, abs=1e-12)
    assert stats.studentized_range_sf(1e6, 3, 10) == 0.0


def test_tukey_kramer_unequal_sizes():
    groups = {"a": [0.0, 0.1, 0.2, 0.1, 0.0], "b": [1.0, 1.2]}
    comp = stats.tukey_hsd(groups)[0]
    data_a, data_b = np.asarray(groups["a"]), np.asarray(groups["b"])
    ssw = (((data_a - data_a.mean()) ** 2).sum()
           + ((data_b - data_b.mean()) ** 2).sum())
    msw = ssw / (7 - 2)
    se = math.sqrt(msw / 2 * (1 / 5 + 1 / 2))
    assert comp.q_statistic == pytest.approx(
        abs(data_a.mean() - data_b.mean()) / se, abs=1e-12)


def test_tukey_degenerate_zero_variance():
    comps = stats.tukey_hsd({"a": [1.0, 1.0], "b": [2.0, 2.0],
                             "c": [1.0, 1.0]})
    by = {(c.group_a, c.group_b): c for c in comps}
    assert by[("a", "b")].p_adjusted == 0.0
    assert by[("a", "c")].p_adjusted == 1.0


def test_tukey_input_contracts():
    with pytest.raises(stats.StatsError):
        stats.tukey_hsd({"a": [1.0, 2.0]})
    with pytest.raises(stats.StatsError):
        stats.tukey_hsd({"a": [1.0], "b": [2.0, 3.0]})


def test_group_importance_test_needs_two_usable_types():
    class Col:
        def __init__(self, t):
            self.feature_type = t

    with pytest.raises(stats.StatsError):
        stats.group_importance_test([(Col("word"), 1.0), (Col("word"), 2.0),
                                     (Col("emoji"), 3.0)])
    out = stats.group_importance_test(
        [(Col("word"), 1.0), (Col("word"), 2.0),
         (Col("emoji"), 3.0), (Col("emoji"), 5.0)])
    assert len(out) == 1


# ---------------------------------------------------------------------------
# turnaround

@given(st.floats(0, 1), st.floats(0, 1))
def test_turnaround_properties(p0, p1):
    d = stats.turnaround(p0, p1)
    assert -1.0 <= d <= 1.0
    assert d == -stats.turnaround(p1, p0)
    assert stats.turnaround(p0, p0) == 0.0


def test_turnaround_rejects_out_of_range():
    with pytest.raises(ValueError):
        stats.turnaround(-0.1, 0.5)


# ---------------------------------------------------------------------------
# OLS

def test_ols_recovers_known_coefficients():
    rng = np.random.default_rng(0)
    n = 400
    g = rng.choice(["female", "male"], n)
    x = rng.normal(size=n)
    cnt = rng.poisson(20, n)
    y = 0.5 - 0.3 * (g == "male") + 0.8 * x + 0.1 * np.log1p(cnt) \
        + rng.normal(0, 0.1, n)
    records = [{"g": g[i], "x": x[i], "c": int(cnt[i])} for i in range(n)]
    res = stats.ols_regress(records, y, [
        stats.Covariate("g", "categorical"),
        stats.Covariate("x", "numeric"),
        stats.Covariate("c", "count"),
    ])
    if "g[male]" in res.names:
        est, se = res.coefficient("g[male]")
        assert est == pytest.approx(-0.3, abs=3 * se)
    else:  # "male" was modal, so "female" is the dummy with flipped sign
        est, se = res.coefficient("g[female]")
        assert est == pytest.approx(0.3, abs=3 * se)
    est, se = res.coefficient("x")
    assert est == pytest.approx(0.8, abs=3 * se)
    est, se = res.coefficient("log1p_c")
    assert est == pytest.approx(0.1, abs=3 * se)
    assert res.adjusted_r2 > 0.95


def test_ols_matches_lstsq_and_diagnostics():
    rng = np.random.default_rng(1)
    n = 60
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    y = 1 + 2 * x1 - x2 + rng.normal(0, 0.5, n)
    records = [{"x1": x1[i], "x2": x2[i]} for i in range(n)]
    res = stats.ols_regress(records, y, [stats.Covariate("x1", "numeric"),
                                         stats.Covariate("x2", "numeric")])
    X = np.column_stack([np.ones(n), x1, x2])
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    assert np.allclose(res.beta, beta, atol=1e-10)
    resid = y - X @ beta
    rss = float(resid @ resid)
    assert res.mse == pytest.approx(rss / n, abs=1e-12)
    sigma2 = rss / (n - 3)
    cov = sigma2 * np.linalg.inv(X.T @ X)
    assert np.allclose(res.stderr, np.sqrt(np.diag(cov)), atol=1e-10)
    assert np.allclose(res.ci_low, res.beta - 1.96 * res.stderr)
    # log-likelihood of the gaussian model at the MLE variance
    assert res.log_likelihood == pytest.approx(
        -0.5 * n * (math.log(2 * math.pi * rss / n) + 1), abs=1e-9)
    # F test against scipy
    from scipy.stats import f as fdist
    tss = float(((y - y.mean()) ** 2).sum())
    f_stat = ((tss - rss) / 2) / (rss / (n - 3))
    assert res.f_statistic == pytest.approx(f_stat, abs=1e-9)
    assert res.f_pvalue == pytest.approx(float(fdist.sf(f_stat, 2, n - 3)),
                                         abs=1e-12)


def test_f_tail_matches_scipy():
    from scipy.special import fdtrc
    rng = np.random.default_rng(5)
    for _ in range(500):
        d1 = int(rng.integers(1, 41))
        d2 = int(rng.integers(1, 5001))
        f = float(np.exp(rng.uniform(-6.0, 5.0)))
        assert stats.f_sf(f, d1, d2) == pytest.approx(
            float(fdtrc(d1, d2, f)), rel=1e-9, abs=1e-300)
    assert stats.f_sf(0.0, 3, 10) == 1.0
    assert stats.f_sf(math.inf, 3, 10) == 0.0


def test_ols_modal_reference_level():
    records = ([{"g": "b"}] * 5) + ([{"g": "a"}] * 3) + ([{"g": "c"}] * 2)
    y = list(range(10))
    res = stats.ols_regress(records, y, [stats.Covariate("g", "categorical")])
    assert res.dummy_map["g"] == "b"
    assert "g[a]" in res.names and "g[c]" in res.names
    assert "g[b]" not in res.names


def test_ols_rank_deficiency_names_columns():
    records = [{"x": float(i), "z": 2.0 * i} for i in range(10)]
    y = list(range(10))
    with pytest.raises(stats.StatsError) as err:
        stats.ols_regress(records, y, [stats.Covariate("x", "numeric"),
                                       stats.Covariate("z", "numeric")])
    assert "z" in str(err.value)


def test_ols_needs_enough_rows():
    with pytest.raises(stats.StatsError):
        stats.ols_regress([{"x": 1.0}], [1.0],
                          [stats.Covariate("x", "numeric")])


def test_ols_count_covariate_rejects_negative():
    with pytest.raises(stats.StatsError):
        stats.ols_regress([{"c": -1}] * 5, [0.0] * 5,
                          [stats.Covariate("c", "count")])


def test_drop_collinear_prunes_duplicate_indicator():
    rng = np.random.default_rng(0)
    records = []
    for _ in range(60):
        g = "male" if rng.random() < 0.5 else "female"
        records.append({"gender": g, "x": float(rng.normal()),
                        "dup": 1.0 if g == "male" else 0.0})
    covs = [stats.Covariate("gender", "categorical"),
            stats.Covariate("x", "numeric"), stats.Covariate("dup", "numeric")]
    kept, dropped = stats.drop_collinear(records, covs)
    assert dropped == ["dup"]
    assert [c.name for c in kept] == ["gender", "x"]


def test_drop_collinear_leaves_out_single_valued_covariates_unreported():
    # the intercept spans them; they are not collinear drops to report
    rng = np.random.default_rng(1)
    records = [{"one": "spain", "x": float(rng.normal()), "zero": 0.0}
               for _ in range(30)]
    covs = [stats.Covariate("one", "categorical"),
            stats.Covariate("x", "numeric"),
            stats.Covariate("zero", "numeric")]
    kept, dropped = stats.drop_collinear(records, covs)
    assert ([c.name for c in kept], dropped) == (["x"], [])


def test_drop_collinear_with_fewer_rows_than_columns():
    # R has fewer diagonal entries than the design has columns: the rows,
    # not an index past them, stop the fit
    records = [{"c": "a", "x": 1.0}, {"c": "b", "x": 2.0},
               {"c": "c", "x": 0.5}]
    covs = [stats.Covariate("c", "categorical"),
            stats.Covariate("x", "numeric")]
    kept, dropped = stats.drop_collinear(records, covs)
    assert (kept, dropped) == (covs, [])
    with pytest.raises(stats.StatsError, match="need more rows"):
        stats.ols_regress(records, [0.1, 0.2, 0.3], kept)
