import math
import sys
import threading

import numpy as np
import pytest

from bellent.bell import default_set, expand_relabelings, mermin, svetlichny
from bellent import nlfrac
from bellent.errors import ParameterError
from bellent.nlfrac import (
    CHUNK,
    ViolationSamples,
    adaptive_simpson,
    estimate_pv,
    estimate_pvs,
    load_violation_samples,
    pv_from_distribution,
    pv_threshold_sensitivity,
    pv_werner2_closed,
    pv_werner2_closed_as_printed,
    pv_werner2_quadrature,
    sample_chsh_reduced,
    save_violation_samples,
    violation_distribution,
)
from bellent.qstate import (apply_local_unitaries, format_float, gghz, haar_unitary,
                            werner_like)

# analytic curve, frozen from an independent quadrature run
CLOSED_PINS = {
    0.72: 0.00025909208151481373,
    0.75: 0.0047294942731013932,
    0.80: 0.027839581270317968,
    0.85: 0.070346320476822387,
    0.90: 0.12932832105427022,
    0.95: 0.20133204852266616,
    1.00: 0.28318530717958648,
}


def test_closed_form_pins():
    for v, want in CLOSED_PINS.items():
        assert abs(pv_werner2_closed(v) - want) < 1e-14
    assert abs(pv_werner2_closed(1.0) - 2 * (np.pi - 3)) < 1e-14


def test_closed_form_zero_region():
    assert pv_werner2_closed(0.5) == 0.0
    assert pv_werner2_closed(1 / math.sqrt(2)) == 0.0


def test_closed_form_continuity_at_critical_visibility():
    """Continuous at v = 1/sqrt(2); smooth slope just above."""
    vc = 1 / math.sqrt(2)
    eps = np.array([1e-4, 1e-5, 1e-6])
    vals = np.array([pv_werner2_closed(vc + e) for e in eps])
    assert np.all(np.diff(vals) < 0) and vals[-1] < 1e-7
    # derivative exists on (vc, 1): central differences converge
    v = 0.8
    h = 1e-6
    d1 = (pv_werner2_closed(v + h) - pv_werner2_closed(v - h)) / (2 * h)
    h = 1e-7
    d2 = (pv_werner2_closed(v + h) - pv_werner2_closed(v - h)) / (2 * h)
    assert abs(d1 - d2) < 1e-3


def test_as_printed_variant_differs():
    # the sign-flipped denominator gives -6 at v = 1 instead of 2(pi - 3)
    assert abs(pv_werner2_closed_as_printed(1.0) + 6.0) < 1e-12
    assert abs(pv_werner2_closed_as_printed(0.75) - pv_werner2_closed(0.75)) > 1e-3


def test_quadrature_matches_closed_form():
    for v in CLOSED_PINS:
        assert abs(pv_werner2_quadrature(v) - pv_werner2_closed(v)) < 1e-9


def test_adaptive_simpson_on_known_integrals():
    assert abs(adaptive_simpson(math.sin, 0.0, math.pi) - 2.0) < 1e-10
    assert abs(adaptive_simpson(lambda x: x * x, 0.0, 1.0) - 1 / 3) < 1e-12
    assert adaptive_simpson(math.cos, 1.0, 1.0) == 0.0


def test_estimate_pv_against_analytic():
    iset = default_set(2)
    for v in (0.8, 0.9):
        est = estimate_pv(werner_like(np.pi / 4, v, 2), iset, 100_000, seed=7)
        want = pv_werner2_closed(v)
        se = math.sqrt(want * (1 - want) / est.m)
        assert abs(est.p_v - want) < 3.5 * se
        assert est.violations == round(est.p_v * est.m)
        assert est.set_tag == "chsh"


def test_estimate_pv_zero_below_critical():
    est = estimate_pv(werner_like(np.pi / 4, 0.70, 2), default_set(2), 20_000, seed=3)
    assert est.p_v == 0.0 and est.violations == 0


def test_worker_determinism():
    rho = werner_like(np.pi / 4, 0.9, 2)
    iset = default_set(2)
    base = estimate_pv(rho, iset, 30_000, seed=11, workers=1)
    for workers in (2, 4, 8):
        est = estimate_pv(rho, iset, 30_000, seed=11, workers=workers)
        assert est.p_v == base.p_v
        assert est.violations == base.violations


@pytest.mark.parametrize("n", [2, 3])
def test_estimate_pvs_counts_equal_one_state_estimates(n):
    # each state's count on the shared draws is the one it gets alone, and
    # the one its I_max samples give, for every worker count
    iset = default_set(n)
    m = 2 * CHUNK + 77
    rhos = [werner_like(np.pi / 5, v, n) for v in (0.8, 0.9, 1.0)]
    want = [estimate_pv(rho, iset, m, seed=31) for rho in rhos]
    for rho, est in zip(rhos, want):
        values = violation_distribution(rho, iset, m, seed=31).values
        assert est.violations == int(np.count_nonzero(values > 1.0))
    assert len({est.violations for est in want}) == 3
    for workers in (1, 2, 3):
        assert estimate_pvs(rhos, iset, m, seed=31, workers=workers) == want


def test_violation_distribution_bits_independent_of_workers():
    # each worker thread draws and evaluates in its own workspace
    rho = werner_like(np.pi / 5, 0.95, 3)
    iset = default_set(3)
    base = violation_distribution(rho, iset, 40_000, seed=12, workers=1)
    for workers in (2, 3):
        got = violation_distribution(rho, iset, 40_000, seed=12, workers=workers)
        assert got.values.tobytes() == base.values.tobytes()


def test_concurrent_estimates_never_share_a_workspace():
    # more threads than cores borrow and return workspaces at once; a
    # workspace used by two threads at a time would corrupt their values
    rho = werner_like(np.pi / 4, 0.9, 2)
    iset = default_set(2)
    m = 6 * CHUNK + 5
    want = violation_distribution(rho, iset, m, seed=4, workers=1).values.tobytes()
    got = []

    def run():
        for _ in range(2):
            got.append(violation_distribution(rho, iset, m, seed=4, workers=3).values.tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want] * 6
    idle = nlfrac._IDLE_WORKSPACES
    assert len({id(ws) for ws in idle}) == len(idle)


def test_monotonic_in_visibility():
    iset = default_set(2)
    m = 50_000
    grid = [0.75, 0.8, 0.85, 0.9, 0.95, 1.0]
    ests = [estimate_pv(werner_like(np.pi / 4, v, 2), iset, m, seed=19) for v in grid]
    for lo, hi in zip(ests, ests[1:]):
        se = math.sqrt(lo.p_v * (1 - lo.p_v) / m + hi.p_v * (1 - hi.p_v) / m)
        assert hi.p_v - lo.p_v > -3 * se


def test_invariant_under_local_unitaries():
    rng = np.random.default_rng(40)
    rho = werner_like(np.pi / 4, 0.95, 2)
    rot = apply_local_unitaries(rho, [haar_unitary(rng), haar_unitary(rng)])
    iset = default_set(2)
    m = 100_000
    a = estimate_pv(rho, iset, m, seed=23)
    b = estimate_pv(rot, iset, m, seed=24)
    se = math.sqrt(a.p_v * (1 - a.p_v) / m + b.p_v * (1 - b.p_v) / m)
    assert abs(a.p_v - b.p_v) < 3 * se


def test_distribution_thresholding_identity():
    """Thresholding pure-state samples at 1/v reproduces the werner estimate."""
    seed, m = 424242, 5_000
    iset = expand_relabelings([mermin(), svetlichny()])
    samples = violation_distribution(gghz(np.pi / 4, 3).projector(), iset, m, seed)
    for v in (0.8, 0.9, 1.0):
        direct = estimate_pv(werner_like(np.pi / 4, v, 3), iset, m, seed)
        assert pv_from_distribution(samples, v) == direct.p_v


def test_threshold_sensitivity_brackets():
    samples = violation_distribution(gghz(np.pi / 4, 2).projector(),
                                     default_set(2), 20_000, seed=5)
    p = pv_from_distribution(samples, 0.9)
    lo, hi = pv_threshold_sensitivity(samples, 0.9, 0.01)
    assert lo <= p <= hi
    lo0, hi0 = pv_threshold_sensitivity(samples, 0.9, 0.0)
    assert hi0 - p in (0.0, pytest.approx(0.0))  # only exact ties can differ
    assert lo0 <= p


def test_reduced_cube_sampler():
    est = sample_chsh_reduced(0.9, 200_000, seed=9)
    want = pv_werner2_closed(0.9)
    assert abs(est.p_v - want) < 3.5 * est.std_err
    # empty wedge below the critical visibility
    est0 = sample_chsh_reduced(0.7, 10_000, seed=9)
    assert est0.p_v == 0.0


def test_samples_round_trip(tmp_path):
    samples = violation_distribution(gghz(0.6, 2).projector(),
                                     default_set(2), 500, seed=77)
    p = tmp_path / "samples.csv"
    save_violation_samples(samples, p)
    back = load_violation_samples(p)
    np.testing.assert_array_equal(back.values, samples.values)
    assert back.state_tag == samples.state_tag
    assert back.settings_seed == samples.settings_seed
    assert back.set_tag == samples.set_tag


def test_samples_file_is_the_per_value_text(tmp_path):
    # longer than one formatting pass, with the extremes of the float range
    rng = np.random.default_rng(3)
    values = np.concatenate([[5e-324, 1e-300, -0.0, 1.0, 1e300, 0.1, 2.0 / 3.0],
                             rng.normal(size=9000) * 10.0 ** rng.integers(-20, 20, 9000)])
    p = tmp_path / "samples.csv"
    save_violation_samples(ViolationSamples(values, "s", 1, "set"), p)
    want = "\n".join(["i_max"] + [format_float(x) for x in values]) + "\n"
    assert p.read_bytes() == want.encode("utf-8")
    assert load_violation_samples(p).values.tobytes() == values.tobytes()


def test_parameter_checks():
    iset = default_set(2)
    rho = werner_like(0.5, 0.9, 2)
    with pytest.raises(ParameterError):
        estimate_pv(rho, iset, 0, seed=1)
    with pytest.raises(ParameterError):
        estimate_pv(werner_like(0.5, 0.9, 3), iset, 10, seed=1)
    with pytest.raises(ParameterError, match="no states"):
        estimate_pvs([], iset, 10, seed=1)
    with pytest.raises(ParameterError, match="party count"):
        estimate_pvs([rho, werner_like(0.5, 0.9, 3)], iset, 10, seed=1)
    with pytest.raises(ParameterError, match="worker count"):
        estimate_pvs([rho, rho], iset, 10, seed=1, workers=0)
    samples = violation_distribution(gghz(0.5, 2).projector(), iset, 100, seed=1)
    with pytest.raises(ParameterError):
        pv_from_distribution(samples, 0.0)
    with pytest.raises(ParameterError):
        pv_from_distribution(samples, 1.5)
    for v in (0.0, 1.5):
        with pytest.raises(ParameterError, match="visibility"):
            pv_threshold_sensitivity(samples, v, 0.01)
