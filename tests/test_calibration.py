import numpy as np
import pytest
from hypothesis import given, strategies as st

from stancelab import calibration as cal


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def synthetic_pairs(a, b, n=2000, seed=0):
    """Scores whose true label probability is sigmoid(a*s + b)."""
    rng = np.random.default_rng(seed)
    s = rng.uniform(-3, 3, n)
    y = (rng.random(n) < sigmoid(a * s + b)).astype(int)
    return s, y


def test_platt_recovers_generating_parameters():
    s, y = synthetic_pairs(2.0, -1.0, n=20000, seed=0)
    model = cal.fit_platt(s, y)
    assert abs(model.slope - 2.0) / 2.0 < 0.05
    assert abs(model.offset - (-1.0)) / 1.0 < 0.05


def test_platt_separated_scores_stay_finite():
    s = np.concatenate([np.full(20, 0.1), np.full(20, 0.9)])
    y = np.concatenate([np.zeros(20, dtype=int), np.ones(20, dtype=int)])
    model = cal.fit_platt(s, y)
    assert np.isfinite(model.slope) and np.isfinite(model.offset)


def test_platt_needs_minimum_pairs():
    with pytest.raises(cal.CalibrationError):
        cal.fit_platt([0.1, 0.9] * 4, [0, 1] * 4)  # 8 < 10


def test_platt_needs_both_classes():
    with pytest.raises(cal.CalibrationError):
        cal.fit_platt([0.5] * 12, [1] * 12)


def test_disjointness_enforced():
    s, y = synthetic_pairs(1.0, 0.0, n=40, seed=2)
    ids = [f"u{i}" for i in range(40)]
    with pytest.raises(cal.CalibrationError) as err:
        cal.fit_platt(s, y, user_ids=ids, training_user_ids={"u3", "zz"})
    assert "u3" in str(err.value)
    # disjoint sets pass
    cal.fit_platt(s, y, user_ids=ids, training_user_ids={"zz"})


def test_calibrate_open_interval():
    m = cal.PlattModel(slope=50.0, offset=0.0)
    assert 0.0 < cal.calibrate(m, -10.0) < cal.calibrate(m, 10.0) < 1.0
    # sigmoid(44) rounds to 1.0 and sigmoid(-1000) to 0.0: both are clamped,
    # and the clamped values are Python floats
    m = cal.PlattModel(slope=60.0, offset=-10.0)
    with np.errstate(over="ignore"):
        low = cal.calibrate(m, -16.5)
    high = cal.calibrate(m, 0.9)
    assert type(low) is float and low == np.nextafter(0.0, 1.0)
    assert type(high) is float and high == np.nextafter(1.0, 0.0)


def test_band_boundaries():
    assert cal.stance_band(0.39999) == "opposition"
    assert cal.stance_band(0.4) == "undisclosed"
    assert cal.stance_band(0.59999) == "undisclosed"
    assert cal.stance_band(0.6) == "defense"
    assert cal.stance_band(0.0) == "opposition"
    assert cal.stance_band(1.0) == "defense"
    with pytest.raises(ValueError):
        cal.stance_band(1.5)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_band_total_on_unit_interval(p):
    assert cal.stance_band(p) in ("opposition", "undisclosed", "defense")


def test_score_users():
    m = cal.PlattModel(slope=4.0, offset=-2.0)
    scores = cal.score_users(m, ["a", "b"], [0.9, 0.1])
    assert scores[0].user_id == "a"
    assert scores[0].band == "defense"
    assert scores[1].band == "opposition"
    assert scores[0].probability == cal.calibrate(m, 0.9)


def test_ece_perfect_calibration_low():
    rng = np.random.default_rng(5)
    p = rng.uniform(0.05, 0.95, 20000)
    y = (rng.random(20000) < p).astype(int)
    assert cal.expected_calibration_error(p, y) < 0.02


def test_ece_miscalibrated_high():
    p = np.full(1000, 0.9)
    y = np.zeros(1000, dtype=int)
    assert cal.expected_calibration_error(p, y) > 0.8


def test_calibration_table_bins():
    p = [0.05, 0.15, 0.15, 0.95]
    y = [0, 1, 0, 1]
    rows = cal.calibration_table(p, y)
    assert len(rows) == 10
    assert rows[1] == (pytest.approx(0.15), pytest.approx(0.5), 2)
    assert rows[9][2] == 1
    assert rows[5][2] == 0  # empty bin
