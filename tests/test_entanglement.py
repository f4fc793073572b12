import math

import numpy as np
import pytest

from bellent.entanglement import (
    XStateDecomposition,
    conc_closed_w2,
    conc_gsms2,
    concurrence2,
    concurrence_pure,
    gme_closed_w3_as_printed,
    gme_closed_w3_xstate,
    gme_concurrence_pure,
    gme_concurrence_xstate,
    gme_gsms3,
    xstate_decompose,
)
from bellent.errors import NotAnXStateError, ParameterError
from bellent.qstate import (
    DensityMatrix,
    PureState,
    apply_local_unitaries,
    gghz,
    gsms2,
    gsms3,
    haar_unitary,
    werner_like,
)

SQRT2 = math.sqrt(2.0)


def test_concurrence_extremes():
    assert concurrence2(gghz(np.pi / 4, 2).projector()) == pytest.approx(1.0, abs=1e-14)
    assert concurrence2(DensityMatrix(2, np.eye(4) / 4)) == 0.0
    sep = np.zeros((4, 4))
    sep[0, 0] = 1.0
    assert concurrence2(DensityMatrix(2, sep)) == 0.0


def test_concurrence_werner_line():
    # (3v - 1)/2 above v = 1/3, zero below
    for v in np.linspace(0.0, 1.0, 21):
        c = concurrence2(werner_like(np.pi / 4, v, 2) if v > 0
                         else DensityMatrix(2, np.eye(4) / 4))
        want = max(0.0, (3 * v - 1) / 2)
        assert abs(c - want) < 1e-12


def test_closed_form_matches_wootters_on_grid():
    worst = 0.0
    for th in np.linspace(0.05, np.pi / 4, 9):
        for v in np.linspace(0.5, 1.0, 7):
            diff = abs(concurrence2(werner_like(th, v, 2)) - conc_closed_w2(th, v))
            worst = max(worst, diff)
    assert worst < 1e-12


def test_concurrence_invariant_under_local_unitaries():
    rng = np.random.default_rng(31)
    for _ in range(20):
        rho = werner_like(rng.uniform(0.05, np.pi / 4), rng.uniform(0.4, 1.0), 2)
        rot = apply_local_unitaries(rho, [haar_unitary(rng), haar_unitary(rng)])
        assert abs(concurrence2(rot) - concurrence2(rho)) < 1e-9


def test_pure_projector_agrees_with_pure_route():
    rng = np.random.default_rng(8)
    for _ in range(10):
        th = rng.uniform(0.05, np.pi / 4)
        psi = gghz(th, 2)
        a = concurrence2(psi.projector())
        b = concurrence_pure(psi, [0])
        assert abs(a - b) < 1e-10
        assert abs(a - math.sin(2 * th)) < 1e-10


def test_w_state_bipartite_concurrence():
    amp = np.zeros(8, dtype=complex)
    amp[1] = amp[2] = amp[4] = 1 / math.sqrt(3)
    w = PureState(3, amp)
    for k in range(3):
        assert abs(concurrence_pure(w, [k]) - math.sqrt(8) / 3) < 1e-12
    assert abs(gme_concurrence_pure(w) - math.sqrt(8) / 3) < 1e-12


def test_bipartition_validation():
    psi = gghz(0.3, 3)
    with pytest.raises(ParameterError):
        concurrence_pure(psi, [])
    with pytest.raises(ParameterError):
        concurrence_pure(psi, [0, 1, 2])


def test_gme_pure_gghz():
    for th in (0.1, 0.3, np.pi / 4):
        assert abs(gme_concurrence_pure(gghz(th, 3)) - math.sin(2 * th)) < 1e-12


def test_xstate_decompose_round_trip():
    rho = werner_like(0.4, 0.9, 3)
    dec = xstate_decompose(rho)
    m = rho.entries
    np.testing.assert_allclose(dec.a, np.diag(m).real[:4], atol=1e-15)
    np.testing.assert_allclose(dec.b, np.diag(m).real[7:3:-1], atol=1e-15)
    np.testing.assert_allclose(dec.z, [m[j, 7 - j] for j in range(4)], atol=1e-15)


def test_xstate_gme_matches_pure_route_on_gghz_projectors():
    for th in (0.2, 0.5, np.pi / 4):
        psi = gghz(th, 3)
        a = gme_concurrence_xstate(xstate_decompose(psi.projector()))
        assert abs(a - gme_concurrence_pure(psi)) < 1e-10


def test_off_x_entry_rejected():
    m = werner_like(np.pi / 4, 0.9, 3).entries.copy()
    m[0, 1] = m[1, 0] = 1e-5
    with pytest.raises(NotAnXStateError) as exc:
        xstate_decompose(DensityMatrix(3, m))
    assert exc.value.index == (0, 1)
    assert abs(exc.value.value - 1e-5) < 1e-12
    # just below tolerance passes
    m2 = werner_like(np.pi / 4, 0.9, 3).entries.copy()
    m2[0, 1] = m2[1, 0] = 5e-10
    xstate_decompose(DensityMatrix(3, m2))


def test_xstate_decomposition_validation():
    with pytest.raises(ParameterError):
        XStateDecomposition(np.array([0.5, 0.1]), np.array([0.3, 0.1]),
                            np.array([0.9, 0.0]))  # |z| > sqrt(ab)


def test_werner3_zero_crossing_and_linear_branch():
    """GME concurrence on the 3-qubit werner line: (7v-3)/4 above v = 3/7."""
    f = lambda v: gme_concurrence_xstate(xstate_decompose(werner_like(np.pi / 4, v, 3)))
    assert f(3 / 7) < 1e-12
    for v in (0.5, 0.7, 0.9, 1.0):
        assert abs(f(v) - (7 * v - 3) / 4) < 1e-12
    assert f(3 / 7 - 1e-9) == 0.0
    assert f(3 / 7 + 1e-9) > 0.0


def test_two_closed_forms_disagree_below_v_1():
    # the two published 3-qubit forms cross zero at 2/5 and 3/7
    assert abs(gme_closed_w3_as_printed(np.pi / 4, 2 / 5)) < 1e-12
    assert abs(gme_closed_w3_xstate(np.pi / 4, 3 / 7)) < 1e-12
    assert gme_closed_w3_as_printed(np.pi / 4, 0.42) > 0.0
    assert gme_closed_w3_xstate(np.pi / 4, 0.42) == 0.0
    # they agree at v = 1
    for th in (0.2, 0.6, np.pi / 4):
        assert abs(gme_closed_w3_as_printed(th, 1.0) - gme_closed_w3_xstate(th, 1.0)) < 1e-12


def test_xstate_closed_form_tracks_exact_evaluator():
    worst = 0.0
    for th in np.linspace(0.05, np.pi / 4, 7):
        for v in np.linspace(0.3, 1.0, 8):
            got = gme_concurrence_xstate(xstate_decompose(werner_like(th, v, 3)))
            worst = max(worst, abs(got - gme_closed_w3_xstate(th, v)))
    assert worst < 1e-12


def test_gsms_closed_forms():
    rng = np.random.default_rng(55)
    for _ in range(100):
        y = rng.uniform(-1 / (2 * SQRT2), 1 / (2 * SQRT2))
        x = rng.uniform(-1, 1) * (1 + 2 * SQRT2 * y) / 4
        got = concurrence2(gsms2(x, y))
        assert abs(got - conc_gsms2(x, y)) < 1e-12
    for _ in range(100):
        y = rng.uniform(-1 / (4 * math.sqrt(3)), math.sqrt(3) / 4)
        x = rng.uniform(-1, 1) * (1 + 4 * math.sqrt(3) * y) / 8
        got = gme_concurrence_xstate(xstate_decompose(gsms3(x, y)))
        assert abs(got - gme_gsms3(x, y)) < 1e-12


def test_closed_form_domain_checks():
    with pytest.raises(ParameterError):
        conc_closed_w2(0.0, 0.5)
    with pytest.raises(ParameterError):
        conc_closed_w2(0.3, 1.5)
    with pytest.raises(ParameterError):
        gme_closed_w3_xstate(1.0, 0.5)  # theta beyond pi/4
    nan = float("nan")
    for fn in (conc_closed_w2, gme_closed_w3_as_printed, gme_closed_w3_xstate):
        for theta, v in ((nan, 0.9), (0.5, nan)):
            with pytest.raises(ParameterError, match="nan"):
                fn(theta, v)
    for fn in (conc_gsms2, gme_gsms3):
        for x, y in ((nan, 0.1), (0.1, nan)):
            with pytest.raises(ParameterError, match="nan"):
                fn(x, y)
