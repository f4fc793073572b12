import json
import math

import numpy as np
import pytest

from bellent.errors import FitError, ParameterError
from bellent.fits import (
    BASIS_2Q,
    BASIS_3Q,
    DEFAULT_DOMAIN,
    FitCurve,
    beta2,
    beta3,
    c_gme_35_fit,
    c_gme_45_fit,
    c_gme_pure3_fit,
    c_lower_2q,
    c_mems_fit,
    c_phn3_fit,
    concurrence_from_pv,
    estimate_theta_v0,
    f1,
    f2,
    f3,
    fitcurve_2q,
    fitcurve_3q,
    g1,
    g2,
    g3,
    refit,
    v2cr,
    v3cr,
    v_from_pv_2q,
    v_from_pv_3q,
)
from bellent.nlfrac import pv_werner2_closed

DEG = math.pi / 180

# coefficient pins at 45/40/35 degrees, frozen from an independent evaluation
F_PINS_45 = (0.0064255295399292387, 0.0037063714674106899, 1.7052057995327413e-05)
G_PINS_45 = (0.11142805957251752, -0.0042588913564119984, 6.7378812111502106e-05)
G_PINS_35 = (0.099335141521857451, -0.0050834176188205095, 9.4722926870234247e-05)


def test_coefficient_pins():
    th = 45 * DEG
    assert f1(th) == pytest.approx(F_PINS_45[0], rel=1e-12)
    assert f2(th) == pytest.approx(F_PINS_45[1], rel=1e-12)
    assert f3(th) == pytest.approx(F_PINS_45[2], rel=1e-12)
    assert g1(th) == pytest.approx(G_PINS_45[0], rel=1e-12)
    assert g2(th) == pytest.approx(G_PINS_45[1], rel=1e-12)
    assert g3(th) == pytest.approx(G_PINS_45[2], rel=1e-12)
    th = 35 * DEG
    assert g1(th) == pytest.approx(G_PINS_35[0], rel=1e-12)
    assert g2(th) == pytest.approx(G_PINS_35[1], rel=1e-12)
    assert g3(th) == pytest.approx(G_PINS_35[2], rel=1e-12)


def test_critical_visibilities():
    assert abs(v2cr(45 * DEG) - 1 / math.sqrt(2)) < 1e-15
    assert abs(beta2(45 * DEG) - math.sqrt(2)) < 1e-15
    assert abs(v3cr(35 * DEG) - 0.75248731930571236) < 1e-15
    assert abs(v3cr(40 * DEG) - 0.7180150430616908) < 1e-15
    # critical visibility never below the GHZ point value
    for thd in np.linspace(1.0, 45.0, 45):
        assert v2cr(thd * DEG) >= 1 / math.sqrt(2) - 1e-12
        assert 0.0 < v3cr(thd * DEG) <= 1.0


def test_beta3_branch_continuity():
    for brk in (14.94, 29.5):
        lo = beta3((brk - 1e-9) * DEG)
        hi = beta3((brk + 1e-9) * DEG)
        assert abs(hi - lo) <= 2e-3


def test_v_from_pv_at_zero_is_critical_visibility():
    for thd in (10.0, 25.0, 35.0, 45.0):
        th = thd * DEG
        assert v_from_pv_2q(th, 0.0) == v2cr(th)
        assert v_from_pv_3q(th, 0.0) == v3cr(th)


def test_v_from_pv_monotone_in_pv():
    th = 45 * DEG
    grid = np.linspace(0.0, 25.0, 40)
    v2 = [v_from_pv_2q(th, p) for p in grid]
    v3 = [v_from_pv_3q(th, p) for p in grid]
    assert all(b >= a - 1e-12 for a, b in zip(v2, v2[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(v3, v3[1:]))


def test_concurrence_evaluators_clamped():
    # 3-qubit pure fit reaches C=1 near pv = 11.7 percent and stays clamped
    assert c_gme_pure3_fit(11.6891683179) == pytest.approx(1.0, abs=1e-9)
    assert c_gme_pure3_fit(20.0) == 1.0
    assert c_lower_2q(0.0) == 0.0
    assert abs(c_lower_2q(1.0) - 0.19872891646582285) < 1e-14
    for fn in (c_lower_2q, c_mems_fit, c_phn3_fit, c_gme_pure3_fit,
               c_gme_45_fit, c_gme_35_fit):
        for p in (0.0, 0.5, 5.0, 30.0):
            assert 0.0 <= fn(p) <= 1.0
    with pytest.raises(ParameterError):
        c_lower_2q(-0.1)


def test_concurrence_from_pv_families():
    th = 45 * DEG
    a = concurrence_from_pv(th, 8.0, "werner3_printed")
    b = concurrence_from_pv(th, 8.0, "werner3_xstate")
    assert 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0
    assert a != b  # the two published forms disagree away from v=1
    with pytest.raises(ParameterError):
        concurrence_from_pv(th, 8.0, "nosuch")


def test_fitcurve_json_round_trip():
    curve = fitcurve_3q(40 * DEG)
    blob = curve.to_json()
    obj = json.loads(blob)
    assert obj["units"] == "percent"
    assert tuple(obj["basis"]) == BASIS_3Q
    back = FitCurve.from_json(blob)
    for p in (0.5, 3.0, 12.0):
        assert back(p) == curve(p)
    assert back.domain == curve.domain


def test_fitcurve_validation():
    with pytest.raises(ParameterError):
        FitCurve((0.5, 0.25, 1.0), (1.0, 1.0, 1.0), DEFAULT_DOMAIN, "percent", "x")
    with pytest.raises(ParameterError):
        FitCurve((0.0, 1.0), (1.0,), DEFAULT_DOMAIN, "percent", "x")


def test_refit_recovers_planted_coefficients():
    rng = np.random.default_rng(17)
    true = np.array([0.3, 0.11, -0.004, 6e-5])
    pv = np.sort(rng.uniform(0.5, 25.0, size=40))
    y = sum(c * pv ** b for c, b in zip(true, BASIS_3Q))
    curve, rms = refit(list(zip(pv, y)), BASIS_3Q, provenance="refit:test")
    np.testing.assert_allclose(curve.coefficients, true, atol=1e-10)
    assert rms < 1e-12
    assert curve.provenance == "refit:test"


def test_refit_rank_check():
    pts = [(2.0, 0.5)] * 10  # all duplicates: rank-1 design
    with pytest.raises(FitError):
        refit(pts, BASIS_2Q)
    with pytest.raises(FitError):
        refit([(1.0, 0.5), (2.0, 0.6)], BASIS_2Q)  # too few points


def test_refit_two_qubit_curve_quality():
    """Fractional-power basis reproduces the analytic v(p_V) to ~1e-4."""
    vs = np.linspace(0.72, 1.0, 60)
    pts = [(100 * pv_werner2_closed(v), v) for v in vs]
    curve, rms = refit(pts, BASIS_2Q, provenance="refit:analytic")
    assert rms <= 5e-3
    worst = max(abs(curve(p) - v) for p, v in pts)
    assert worst < 5e-3


def test_estimate_theta_v0_inverse_crime():
    for thd, v0 in ((45.0, 0.986), (35.0, 0.97), (40.0, 1.0)):
        th = thd * DEG
        pv = np.linspace(0.5, 12.0, 25)
        vs = (v3cr(th) + g1(th) * pv ** (1 / 6) + g2(th) * np.sqrt(pv)
              + g3(th) * pv) / v0
        got_th, got_v0, rms = estimate_theta_v0(list(zip(vs, pv)))
        assert abs(got_th - th) < 0.3 * DEG
        assert abs(got_v0 - v0) < 0.003
        assert rms < 1e-5


def test_estimate_theta_v0_degenerate_input():
    with pytest.raises(FitError):
        estimate_theta_v0([(0.9, 5.0), (0.91, 5.0), (0.92, 5.0)])


def test_theta_range_checks():
    with pytest.raises(ParameterError):
        f1(0.0)
    with pytest.raises(ParameterError):
        g1(-0.1)
    with pytest.raises(ParameterError):
        v_from_pv_2q(1.0, 5.0)  # theta beyond pi/4
    with pytest.raises(ParameterError):
        v_from_pv_2q(45 * DEG, -2.0)
    beta3(0.0)  # allowed: no 1/theta term in the first branch


def test_beta_takes_zero_but_not_nan():
    assert beta2(0.0) == 1.0 and beta3(0.0) == 1.0
    for beta in (beta2, beta3):
        for bad in (float("nan"), -0.1, 1.0):
            with pytest.raises(ParameterError, match="theta"):
                beta(bad)


def test_printed_visibility_fits_are_their_fitcurves():
    # exponent 1/2 is where math.sqrt(p) and p ** 0.5 can part in the last bit
    pvs = np.linspace(0.0, 100.0, 2501).tolist()
    grid = pvs[::50] + [p for p in pvs if math.sqrt(p) != p ** 0.5]
    for thd in np.linspace(1.0, 45.0, 89).tolist():
        th = thd * DEG
        c2, c3 = fitcurve_2q(th), fitcurve_3q(th)
        for p in grid:
            assert c2(p) == v_from_pv_2q(th, p)
            assert c3(p) == v_from_pv_3q(th, p)


def test_pv_checks_reject_non_finite_values():
    for bad in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ParameterError, match=f"got {bad!r}"):
            c_lower_2q(bad)
    pts = [(p, 0.3 + 0.1 * p ** 0.25) for p in np.linspace(0.5, 20, 10)]
    for bad in ((float("nan"), 0.5), (-1.0, 0.5)):
        with pytest.raises(ParameterError, match="p_V"):
            refit(pts + [bad], BASIS_2Q)
    with pytest.raises(ParameterError, match="fitted values must be finite"):
        refit(pts + [(1.0, float("nan"))], BASIS_2Q)
    th = 35 * DEG
    curve = [((v3cr(th) + g1(th) * p ** (1 / 6) + g2(th) * p ** 0.5 + g3(th) * p), p)
             for p in np.linspace(0.5, 10, 10)]
    with pytest.raises(ParameterError, match="p_V"):
        estimate_theta_v0(curve + [(0.9, float("nan"))])
    with pytest.raises(ParameterError, match="visibilities must be finite"):
        estimate_theta_v0(curve + [(float("inf"), 1.0)])
