import math

import numpy as np
import pytest

from bellent._rng import bloch_directions
from bellent.errors import MissingDataError, ParameterError, ParseError
from bellent.files import read_text
from bellent.qstate import (
    DensityMatrix,
    PureState,
    as_density_matrix,
    basis_state,
    check_gsms2,
    check_gsms3,
    check_theta,
    gghz,
    gsms2,
    gsms3,
    load_state,
    mems,
    partial_trace,
    phn,
    purity,
    save_density_matrix,
    save_pure_state,
    werner_like,
)
from local_unitaries import apply_local_unitaries, haar_unitary

SQRT2 = math.sqrt(2.0)


def _assert_valid_density(rho):
    m = rho.entries
    np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
    assert abs(np.trace(m).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(m).min() > -1e-10


def test_constructors_produce_valid_density_matrices():
    """Random admissible parameters for every family."""
    rng = np.random.default_rng(101)
    for _ in range(40):
        th = rng.uniform(1e-3, np.pi / 4)
        v = rng.uniform(0.0, 1.0)
        _assert_valid_density(gghz(th, 2).projector())
        _assert_valid_density(gghz(th, 3).projector())
        _assert_valid_density(werner_like(th, v, 2))
        _assert_valid_density(werner_like(th, v, 3))
        _assert_valid_density(mems(rng.uniform(2 / 3, 1.0)))
        _assert_valid_density(phn(rng.uniform(-0.5, 0.5), 3))
        y2 = rng.uniform(-1 / (2 * SQRT2), 1 / (2 * SQRT2))
        x2 = rng.uniform(-1, 1) * (1 + 2 * SQRT2 * y2) / 4
        _assert_valid_density(gsms2(x2, y2))
        y3 = rng.uniform(-1 / (4 * math.sqrt(3)), math.sqrt(3) / 4)
        x3 = rng.uniform(-1, 1) * (1 + 4 * math.sqrt(3) * y3) / 8
        _assert_valid_density(gsms3(x3, y3))


def test_gghz_amplitudes():
    psi = gghz(np.pi / 4, 3)
    amp = np.zeros(8)
    amp[0] = amp[7] = 1 / SQRT2
    np.testing.assert_allclose(psi.amplitudes, amp, atol=1e-15)
    psi = gghz(0.3, 2)
    assert abs(psi.amplitudes[0] - math.cos(0.3)) < 1e-15
    assert abs(psi.amplitudes[3] - math.sin(0.3)) < 1e-15


def test_werner_is_ghz_plus_white_noise():
    th, v = 0.5, 0.7
    rho = werner_like(th, v, 3)
    want = v * gghz(th, 3).projector().entries + (1 - v) * np.eye(8) / 8
    np.testing.assert_allclose(rho.entries, want, atol=1e-15)


def test_gsms2_contains_the_werner_line():
    # rho2_W(v) sits at (x, y) = (v/2, v/(2 sqrt2)) in the GSMS triangle
    for v in np.linspace(0.0, 1.0, 11):
        a = gsms2(v / 2, v / (2 * SQRT2)).entries
        b = werner_like(np.pi / 4, v, 2).entries if v > 0 else np.eye(4) / 4
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_purity_and_spectrum_invariant_under_local_unitaries():
    rng = np.random.default_rng(7)
    for _ in range(15):
        rho = werner_like(rng.uniform(0.1, np.pi / 4), rng.uniform(0.3, 1.0), 2)
        rot = apply_local_unitaries(rho, [haar_unitary(rng), haar_unitary(rng)])
        assert abs(purity(rot) - purity(rho)) < 1e-12
        np.testing.assert_allclose(
            np.linalg.eigvalsh(rot.entries), np.linalg.eigvalsh(rho.entries),
            atol=1e-12)


def test_partial_trace_of_product_state():
    a = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
    b = np.array([[0.4, 0.0], [0.0, 0.6]])
    rho = DensityMatrix(2, np.kron(a, b))
    np.testing.assert_allclose(partial_trace(rho, [0]).entries, a, atol=1e-14)
    np.testing.assert_allclose(partial_trace(rho, [1]).entries, b, atol=1e-14)


def test_partial_trace_bell_state_and_gghz():
    red = partial_trace(gghz(np.pi / 4, 2).projector(), [1])
    np.testing.assert_allclose(red.entries, np.eye(2) / 2, atol=1e-14)
    red = partial_trace(gghz(np.pi / 6, 3).projector(), [0])
    np.testing.assert_allclose(np.diag(red.entries).real,
                               [math.cos(np.pi / 6) ** 2, math.sin(np.pi / 6) ** 2],
                               atol=1e-14)
    assert abs(np.trace(red.entries).real - 1.0) < 1e-12


def test_partial_trace_rejects_bad_subsets():
    rho = werner_like(0.5, 0.8, 2)
    with pytest.raises(ParameterError):
        partial_trace(rho, [])
    with pytest.raises(ParameterError):
        partial_trace(rho, [0, 1])
    with pytest.raises(ParameterError):
        partial_trace(rho, [5])


def test_sphere_uniformity_moments():
    """<u> = 0 and <u_i u_j> = delta_ij / 3 within 5 standard errors at 1e5."""
    # the sampler of the Monte Carlo chain: 25000 samples of 2 parties x 2 settings
    n = 100_000
    u = bloch_directions(2024, "bloch2", 0, n // 4, 2).reshape(n, 3)
    np.testing.assert_allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)
    se_mean = math.sqrt(1 / 3 / n)
    assert np.max(np.abs(u.mean(axis=0))) < 5 * se_mean
    cov = u.T @ u / n
    se_diag = math.sqrt((1 / 5 - 1 / 9) / n)
    se_off = math.sqrt((1 / 15) / n)
    for i in range(3):
        for j in range(3):
            if i == j:
                assert abs(cov[i, j] - 1 / 3) < 5 * se_diag
            else:
                assert abs(cov[i, j]) < 5 * se_off


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(5)
    for _ in range(20):
        u = haar_unitary(rng)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_werner_purity():
    # P = (1 + 7 v^2)/8 for the 3-qubit Werner-like family
    for v in (0.3, 0.9, 0.986, 1.0):
        p = purity(werner_like(np.pi / 4, v, 3))
        assert abs(p - (1 + 7 * v * v) / 8) < 1e-12


def test_mems_and_basis_state():
    rho = mems(1.0)
    np.testing.assert_allclose(rho.entries, gghz(np.pi / 4, 2).projector().entries,
                               atol=1e-14)
    rho = mems(0.75)
    assert abs(rho.entries[1, 1].real - 0.25) < 1e-14
    with pytest.raises(ParameterError):
        mems(0.5)
    psi = basis_state("101")
    assert psi.n_qubits == 3
    assert psi.amplitudes[5] == 1.0


def test_range_checks():
    with pytest.raises(ParameterError):
        gghz(0.0, 2)
    with pytest.raises(ParameterError):
        gghz(np.pi / 4 + 0.01, 2)
    with pytest.raises(ParameterError):
        werner_like(0.5, 1.2, 2)
    with pytest.raises(ParameterError):
        gsms2(0.6, 0.1)
    with pytest.raises(ParameterError):
        basis_state("2x")
    with pytest.raises(ParameterError):
        DensityMatrix(2, np.eye(4))  # trace 4
    nan = float("nan")
    for check in (lambda: check_theta(nan), lambda: gghz(nan, 2),
                  lambda: werner_like(nan, 0.9, 2), lambda: werner_like(0.5, nan, 2),
                  lambda: check_gsms2(nan, 0.1), lambda: check_gsms2(0.1, nan),
                  lambda: check_gsms3(nan, 0.1), lambda: check_gsms3(0.0, nan),
                  lambda: gsms2(nan, 0.1), lambda: gsms3(nan, 0.1),
                  lambda: phn(nan, 2), lambda: mems(nan)):
        with pytest.raises(ParameterError, match="nan"):
            check()


def test_containers_reject_non_finite_entries():
    for bad in (np.nan, np.inf, complex(0, np.nan)):
        amp = np.array([1, 0, 0, bad], dtype=complex)
        with pytest.raises(ParameterError, match="non-finite amplitude"):
            PureState(2, amp)
        m = werner_like(0.5, 0.9, 2).entries.copy()
        m[1, 2] = bad
        with pytest.raises(ParameterError, match="non-finite entry"):
            DensityMatrix(2, m)


def test_read_text_errors_name_the_file(tmp_path, monkeypatch):
    with pytest.raises(MissingDataError, match="no such state file: "):
        read_text(tmp_path / "missing.json", "state file")
    with pytest.raises(MissingDataError, match="no such state file: "):
        read_text(tmp_path, "state file")  # a directory
    p = tmp_path / "latin1.csv"
    p.write_bytes(b"i_max\n0.5\n\xff\n")
    with pytest.raises(ParseError, match="line 3: .*samples file is not UTF-8"):
        read_text(p, "samples file")
    p.write_bytes("i_max\n\u00ff\n".encode("utf-8"))
    assert read_text(p, "samples file") == "i_max\n\u00ff\n"
    # newlines read as in text mode
    p.write_bytes(b"i_max\r\n0.5\r1.5\n")
    assert read_text(p, "samples file") == "i_max\n0.5\n1.5\n"

    def denied(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(type(p), "read_bytes", denied)
    with pytest.raises(MissingDataError, match="cannot read samples file .*: Permission denied"):
        read_text(p, "samples file")


def test_density_matrix_rejects_negative_eigenvalue():
    m = np.diag([0.6, 0.5, -0.05, -0.05])
    with pytest.raises(ParameterError):
        DensityMatrix(2, m)


def test_state_round_trip(tmp_path):
    rho = werner_like(0.4, 0.8, 3)
    p = tmp_path / "rho.json"
    save_density_matrix(rho, p)
    back = load_state(p)
    assert isinstance(back, DensityMatrix)
    np.testing.assert_array_equal(back.entries, rho.entries)

    psi = gghz(0.3, 2)
    q = tmp_path / "psi.json"
    save_pure_state(psi, q)
    back = load_state(q)
    assert isinstance(back, PureState)
    np.testing.assert_array_equal(back.amplitudes, psi.amplitudes)
    np.testing.assert_allclose(as_density_matrix(back).entries,
                               psi.projector().entries, atol=1e-15)
