import hashlib
import math
import runpy
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bellent._rng import bloch_directions, bloch_tag
from bellent.bell import (
    _SUB_BLOCK,
    BellInequality,
    batch_i_max,
    correlators,
    default_set,
    expand_relabelings,
    load_inequality_dir,
    mermin,
    pauli_tensor,
    product_rows,
    svetlichny,
)
from bellent import nlfrac
from bellent.cli import main
from bellent.errors import MissingDataError, ParameterError, ParseError
from bellent.nlfrac import (
    CHUNK,
    ViolationSamples,
    estimate_pv,
    load_violation_samples,
    pv_from_distribution,
    pv_werner2_closed,
    pv_werner2_quadrature,
    sample_chsh_reduced,
    save_violation_samples,
    violation_distribution,
)
from bellent.files import format_float, read_table
from bellent.qstate import gghz, werner_like
from local_unitaries import apply_local_unitaries, haar_unitary
from test_cli import CH_FORM, CH_FORM_COUNTS

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


def test_quadrature_matches_closed_form():
    for v in CLOSED_PINS:
        assert abs(pv_werner2_quadrature(v) - pv_werner2_closed(v)) < 1e-9


def test_quadrature_zero_region():
    for v in (0.1, 0.5, 0.7, 1 / math.sqrt(2)):
        assert pv_werner2_quadrature(v) == 0.0


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
def test_sweep_counts_equal_one_state_estimates(tmp_path, n):
    # sweep thresholds one pass on the noiseless state at 1/v; each count is
    # the one estimate_pv gives the state at v alone, and the one that
    # state's own samples give above 1, for every worker count
    iset = default_set(n)
    m = 2 * CHUNK + 77
    grid = (0.8, 0.9, 1.0)
    rhos = [werner_like(np.pi / 5, v, n) for v in grid]
    want = [estimate_pv(rho, iset, m, seed=31).violations for rho in rhos]
    for rho, count in zip(rhos, want):
        assert violation_distribution(rho, iset, m, seed=31).violations(1.0) == count
    assert len(set(want)) == 3
    out = tmp_path / "sweep.csv"
    for workers in (1, 2, 3):
        # 36 degrees is pi/5 to the bit once the CLI converts it
        assert main(["sweep", "--theta-deg", "36", "--n", str(n), "--v-from", "0.8",
                     "--v-to", "1.0", "--v-step", "0.1", "--samples", str(m), "--seed", "31",
                     "--workers", str(workers), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [float(r[0]) for r in rows] == pytest.approx(grid, abs=1e-12)
        assert [float(r[1]) for r in rows] == [count / m for count in want]


def test_violation_distribution_bits_independent_of_workers():
    # each task draws and evaluates in the workspace it borrows
    rho = werner_like(np.pi / 5, 0.95, 3)
    iset = default_set(3)
    base = violation_distribution(rho, iset, 40_000, seed=12, workers=1)
    for workers in (2, 3):
        got = violation_distribution(rho, iset, 40_000, seed=12, workers=workers)
        assert got.values.tobytes() == base.values.tobytes()


@pytest.mark.parametrize("n", [2, 3])
def test_violation_distribution_has_the_bits_of_one_whole_range_draw(n):
    # one partial piece; a whole piece and a 1-sample one; 9 whole pieces
    # and a partial one: fewer pieces than tasks, and more
    rho = werner_like(np.pi / 5, 0.95, n)
    iset = default_set(n)
    for m in (1, _SUB_BLOCK - 1, _SUB_BLOCK + 1, CHUNK + 3617):
        want = batch_i_max(pauli_tensor(rho), bloch_directions(8, bloch_tag(n), 0, m, n),
                           iset.replay_rows())
        count = estimate_pv(rho, iset, m, seed=8).violations
        assert count == np.count_nonzero(want > 1.0)
        for workers in (1, 2, 3):
            got = violation_distribution(rho, iset, m, seed=8, workers=workers)
            assert got.values.tobytes() == want.tobytes(), (m, workers)
            assert estimate_pv(rho, iset, m, seed=8, workers=workers).violations == count


@pytest.mark.parametrize("reads_marginals, bound", [(False, 3.0), (True, 2.5)])
def test_a_set_of_more_rows_than_a_tile_has_the_bits_of_its_tiles(reads_marginals, bound):
    # 320 or 640 rows of random two-party functionals, of full correlators
    # alone or of whole tables: products of 256 rows, then one of those left
    rng = np.random.default_rng(73)
    signs = np.array([[1.0, -1.0], [-1.0, 1.0]])  # E(S) = sum_r (-1)^(r_1 + r_2) P(r|S)
    coeffs = [rng.normal(size=(2,) * 4) if reads_marginals
              else rng.normal(size=(2, 2, 1, 1)) * signs for _ in range(5)]
    iset = expand_relabelings([BellInequality(2, c, bound, f"random{k}")
                               for k, c in enumerate(coeffs)])
    assert len(iset) > 256
    assert product_rows(iset.c_matrix).shape[1] == (9 if reads_marginals else 4)
    rho = werner_like(np.pi / 4, 0.9, 2)
    m = 2 * _SUB_BLOCK + 5
    lam = pauli_tensor(rho)
    dirs = bloch_directions(3, bloch_tag(2), 0, m, 2)

    def tiled(c):
        return np.maximum.reduce([batch_i_max(lam, dirs, product_rows(c[r:r + 256]))
                                  for r in range(0, len(c), 256)])

    want = tiled(iset.replay_rows())
    count = np.count_nonzero(tiled(iset.c_matrix) > 1.0)
    assert 0 < count < m
    for workers in (1, 2):
        got = violation_distribution(rho, iset, m, seed=3, workers=workers)
        assert got.values.tobytes() == want.tobytes(), workers
        assert estimate_pv(rho, iset, m, seed=3, workers=workers).violations == count


def test_the_pool_gets_one_task_a_worker_up_to_one_a_piece(monkeypatch):
    # min(workers, pieces) is the only bound on threads, and --workers may
    # be as large as 2**63; a lone task runs in the calling thread, no pool
    pools, submits = [], []

    class Counting(nlfrac.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            submits.append(fn)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(nlfrac, "ThreadPoolExecutor", Counting)
    rho = werner_like(np.pi / 4, 0.9, 2)
    iset = default_set(2)
    for m, workers, tasks in ((64 * _SUB_BLOCK + 5, 2, 2), (3 * _SUB_BLOCK, 8, 3),
                              (_SUB_BLOCK, 2 ** 63, 0), (1, 2, 0)):
        pools.clear()
        submits.clear()
        estimate_pv(rho, iset, m, seed=1, workers=workers)
        assert (len(pools), len(submits)) == (min(tasks, 1), tasks), (m, workers)


# Violation counts of the bundled N=3 set, frozen once, never re-seeded:
# (theta in degrees, v) -> count at m = N3_PIN_M with seed 5, for 1 and 2
# workers.  m ends in a partial piece.
N3_PIN_M = 20001
N3_PINS = {(45, 1.0): 101, (45, 0.986): 86, (30, 1.0): 12, (30, 0.986): 11}
# sha256 of the violation_distribution values of gGHZ at 30 degrees, same m and seed
N3_DIST_SHA256 = "0c5c108285b7b6d4703c8767eeb4758eb4cf73d84a9141056abc94964903c86b"


@pytest.mark.parametrize("workers", [1, 2])
def test_n3_output_bits_are_pinned(workers):
    # the other N=3 tests compare two routes on the same draws; these pins
    # catch a change to the draws or to the kernel's bits at N=3
    iset = default_set(3)
    for (deg, v), want in N3_PINS.items():
        rho = werner_like(math.radians(deg), v, 3)
        assert estimate_pv(rho, iset, N3_PIN_M, seed=5, workers=workers).violations == want
    samples = violation_distribution(werner_like(math.radians(30), 1.0, 3), iset, N3_PIN_M,
                                     seed=5, workers=workers)
    assert hashlib.sha256(samples.values.tobytes()).hexdigest() == N3_DIST_SHA256


# Violation counts of the bundled N=2 set, frozen once, never re-seeded:
# (theta in degrees, v) -> count at m = N3_PIN_M with seed 6, for 1 and 2
# workers.  Before these, only the CH-form counts pinned N=2 bits.
N2_PINS = {(45, 0.9): 2598, (30, 1.0): 3014}
# sha256 of the violation_distribution values of werner_like at 30 degrees and v = 1
N2_DIST_SHA256 = "b6a0b6304f6ce887aac26f9d43612b1bbebefa0d1eb02b8a4bf7388396da7589"


@pytest.mark.parametrize("workers", [1, 2])
def test_n2_output_bits_are_pinned(workers):
    iset = default_set(2)
    for (deg, v), want in N2_PINS.items():
        rho = werner_like(math.radians(deg), v, 2)
        assert estimate_pv(rho, iset, N3_PIN_M, seed=6, workers=workers).violations == want
    samples = violation_distribution(werner_like(math.radians(30), 1.0, 2), iset, N3_PIN_M,
                                     seed=6, workers=workers)
    assert hashlib.sha256(samples.values.tobytes()).hexdigest() == N2_DIST_SHA256


def _rows_above_one(rho, c_matrix, m, seed):
    """For each of m samples, how many rows of c_matrix its Bell values put above 1."""
    n = rho.n_qubits
    dirs = bloch_directions(seed, bloch_tag(n), 0, m, n)
    return np.count_nonzero(correlators(pauli_tensor(rho), dirs) @ c_matrix.T > 1.0, axis=1)


def test_a_bundled_set_has_one_row_violated_at_a_time():
    # the premise of a p_V that counts one violated row a sample, as the
    # reduced cube's factor 4 does: it holds on every pinned case of the
    # bundled sets, and fails on every violation of the CH form, whose rows
    # are violated together
    for pins, seed, n in ((N2_PINS, 6, 2), (N3_PINS, 5, 3)):
        for (deg, v), want in pins.items():
            rows = _rows_above_one(werner_like(math.radians(deg), v, n), default_set(n).c_matrix,
                                   N3_PIN_M, seed)
            assert np.count_nonzero(rows) == want and rows.max() == 1
    rows = _rows_above_one(werner_like(np.pi / 4, 0.85, 2),
                           load_inequality_dir(CH_FORM).c_matrix, 200_000, 3)
    assert np.count_nonzero(rows) == CH_FORM_COUNTS[0.85]
    assert np.all((rows == 0) | (rows >= 2))


@pytest.mark.parametrize("n, bound_mib", [(2, 0.55), (3, 1.1)])
def test_an_idle_workspace_holds_one_piece_whatever_the_chunk(monkeypatch, n, bound_mib):
    # one buffer per lifetime: the spent draws buffer holds the correlators'
    # term and the Bell-value product, and only the full correlators are built.
    # A piece is the unit of work, so four times the samples hold no more; a
    # task that starts late may draw only the short last piece, or none
    rho = werner_like(np.pi / 4, 0.9, n)
    iset = default_set(n)

    def held(m):
        monkeypatch.setattr(nlfrac, "_IDLE_WORKSPACES", [])
        estimate_pv(rho, iset, m, seed=1, workers=2)
        return max(ws.nbytes for ws in nlfrac._IDLE_WORKSPACES)

    size = held(2 * CHUNK + 5)
    assert size <= bound_mib * 2 ** 20
    assert held(8 * CHUNK + 5) == size


@pytest.mark.parametrize("n", [2, 3])
def test_the_monte_carlo_reduces_features_where_they_are_built(monkeypatch, n):
    # batch_i_max multiplies the buffer that correlators fills: no idle
    # workspace holds i_max's `columns` copy of the features
    monkeypatch.setattr(nlfrac, "_IDLE_WORKSPACES", [])
    rho = werner_like(np.pi / 4, 0.9, n)
    estimate_pv(rho, default_set(n), 2 * CHUNK + 5, seed=1, workers=2)
    violation_distribution(rho, default_set(n), CHUNK + 5, seed=1)
    idle = nlfrac._IDLE_WORKSPACES
    assert idle and not any("columns" in ws._flat for ws in idle)


def test_concurrent_estimates_never_share_a_workspace():
    # more threads than cores borrow and return workspaces at once; a
    # workspace used by two threads at a time would corrupt their values,
    # and a piece that two tasks took would be counted twice
    rho = werner_like(np.pi / 4, 0.9, 2)
    iset = default_set(2)
    m = 6 * CHUNK + 5
    want = (violation_distribution(rho, iset, m, seed=4, workers=1).values.tobytes(),
            estimate_pv(rho, iset, m, seed=4, workers=1).violations)
    got = []

    def run():
        for _ in range(2):
            got.append((violation_distribution(rho, iset, m, seed=4, workers=3).values.tobytes(),
                        estimate_pv(rho, iset, m, seed=4, workers=3).violations))

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


def test_visibility_rescaling_demo_output(capsys):
    demo = Path(__file__).resolve().parents[1] / "demos" / "visibility_rescaling.py"
    runpy.run_path(str(demo), run_name="__main__")
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "     v       p_v",
        " 0.550   0.00000",
        " 0.600   0.00000",
        " 0.650   0.00000",
        " 0.700   0.00000",
        " 0.750   0.00000",
        " 0.800   0.00000",
        " 0.850   0.00010",
        " 0.900   0.00065",
        " 0.950   0.00220",
        " 1.000   0.00490",
    ]
    # the wall-clock line alone goes to stderr
    assert err.startswith("sampled 20000 settings once in ") and err.count("\n") == 1


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
    with pytest.raises(MissingDataError, match="no such samples file"):
        load_violation_samples(tmp_path / "missing.csv")


def test_a_samples_file_that_lost_rows_is_refused(tmp_path):
    p = tmp_path / "samples.csv"
    save_violation_samples(ViolationSamples(np.linspace(0.5, 1.5, 1000), "s", 1, "set"), p)
    p.write_text("\n".join(p.read_text().splitlines()[:101]) + "\n")
    with pytest.raises(ParseError, match="'m' is 1000, but .* holds 100 samples") as exc:
        load_violation_samples(p)
    assert str(exc.value).startswith(f"{p}.json: ")


@pytest.mark.parametrize("header", ["i_max", "pv,value", "v,pv"])
def test_non_finite_sample_is_refused_on_its_line(tmp_path, header):
    # a samples file, and the two tables that `fit` reads, in one reader
    p = tmp_path / "samples.csv"
    save_violation_samples(ViolationSamples([0.5, 1.2], "s", 1, "set"), p)
    read = (load_violation_samples if header == "i_max"
            else lambda path: read_table(path, header, "fit table"))
    lead = "0.5," * header.count(",")
    for rows, line in ((["0.5", "", "-inf", "nan"], 4), (["nan"], 2)):
        p.write_text(header + "\n" + "".join(f"{lead}{r}\n" if r else "\n" for r in rows))
        with pytest.raises(ParseError) as exc:
            read(p)
        assert exc.value.line == line and str(p) in str(exc.value)


@pytest.mark.parametrize("blank", [False, True])
def test_loading_a_samples_file_holds_a_block_not_the_file(tmp_path, blank):
    # read whole, a 200,000-row file's text and line list peaked at 18 MiB;
    # a blank line in the last block sends that pass, and only it, to the row walk
    p = tmp_path / "samples.csv"
    values = np.random.default_rng(2).uniform(0.3, 1.5, 200_000)
    save_violation_samples(ViolationSamples(values, "s", 1, "set"), p)
    if blank:
        data = p.read_bytes()
        cut = data.rindex(b"\n", 0, -60) + 1
        p.write_bytes(data[:cut] + b"\n" + data[cut:])
    tracemalloc.start()
    try:
        got = load_violation_samples(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.values.tobytes() == values.tobytes()
    assert peak < 6 * 2 ** 20


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
    for estimate in (estimate_pv, violation_distribution):
        with pytest.raises(ParameterError, match="sample count"):
            estimate(rho, iset, 0, seed=1)
        with pytest.raises(ParameterError, match="party count"):
            estimate(werner_like(0.5, 0.9, 3), iset, 10, seed=1)
        with pytest.raises(ParameterError, match="worker count"):
            estimate(rho, iset, 10, seed=1, workers=0)
    samples = violation_distribution(gghz(0.5, 2).projector(), iset, 100, seed=1)
    with pytest.raises(ParameterError):
        pv_from_distribution(samples, 0.0)
    with pytest.raises(ParameterError):
        pv_from_distribution(samples, 1.5)
