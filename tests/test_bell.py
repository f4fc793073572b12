import dataclasses
import itertools
import math
import runpy
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Philox
from scipy.special import ndtri

from bellent import _rng
from bellent._rng import (
    blocks_per_sample,
    bloch_directions,
    draw_width,
    generator,
    raw_words,
    substream_key,
    uniforms,
)
from bellent import bell
from bellent.bell import (
    PAULI,
    _relabel_index,
    BellInequality,
    Workspace,
    batch_behaviors,
    batch_i_max,
    bundled_inequality,
    chsh,
    correlators,
    default_set,
    expand_relabelings,
    feature_map,
    i_max,
    load_inequality_dir,
    load_inequality_file,
    mermin,
    parse_inequality,
    pauli_tensor,
    product_rows,
    svetlichny,
)
from bellent.errors import BellentError, MissingDataError, ParameterError, ParseError
from bellent.qstate import DensityMatrix, gghz, werner_like

SQRT2 = math.sqrt(2.0)

# Bloch settings reaching the Tsirelson bound: a0=z, a1=x, b pair diagonal.
CHSH_OPT = np.array([
    [[0, 0, 1.0], [1.0, 0, 0]],
    [[1 / SQRT2, 0, 1 / SQRT2], [-1 / SQRT2, 0, 1 / SQRT2]],
])

# Equatorial phases hitting the Svetlichny maximum sqrt(2) on GHZ.
def _equatorial(phis):
    return np.array([[[math.cos(p), math.sin(p), 0.0] for p in pair] for pair in phis])

SVET_OPT = _equatorial([(0, np.pi / 2), (0, np.pi / 2), (np.pi / 4, 3 * np.pi / 4)])


def _packaged_text(name):
    return resources.files("bellent").joinpath(f"data/{name}.bellineq").read_text()


def test_inequality_families_structure():
    c, m, s = chsh(), mermin(), svetlichny()
    assert c.lhv_bound == 2.0 and m.lhv_bound == 2.0 and s.lhv_bound == 4.0
    assert np.count_nonzero(c.coefficients) == 16
    assert np.count_nonzero(m.coefficients) == 32
    assert np.count_nonzero(s.coefficients) == 64


def test_tsirelson_bound_reached():
    lam = pauli_tensor(gghz(np.pi / 4, 2).projector())
    got = batch_i_max(lam, CHSH_OPT[None], default_set(2).c_matrix)
    assert abs(got[0] - SQRT2) < 1e-12


def test_svetlichny_maximum_on_ghz():
    lam = pauli_tensor(gghz(np.pi / 4, 3).projector())
    got = batch_i_max(lam, SVET_OPT[None], default_set(3).c_matrix)
    assert abs(got[0] - SQRT2) < 1e-12


def test_orbit_sizes_and_digests():
    """Relabeling orbits are closed and have the frozen sizes."""
    set2 = expand_relabelings([chsh()])
    set3m = expand_relabelings([mermin()])
    set3s = expand_relabelings([svetlichny()])
    assert len(set2) == 8
    assert len(set3m) == 16
    assert len(set3s) == 16
    assert set2.digest().startswith("df2aac18d1e4")
    assert set3m.digest().startswith("529e19246699")
    assert set3s.digest().startswith("6535e8ed7934")


def test_orbit_closure_under_relabeling():
    """max over the orbit is invariant when the behavior itself is relabeled."""
    iset = default_set(2)
    rng = np.random.default_rng(21)
    dirs = rng.normal(size=(2, 2, 3))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    table = batch_behaviors(pauli_tensor(werner_like(0.7, 0.95, 2)), dirs[None])[0]
    base = i_max(table.reshape(1, -1), iset.w_matrix)[0]
    for perm in ([0, 1], [1, 0]):
        for inswap in ([0, 0], [1, 0], [0, 1], [1, 1]):
            rt = _relabeled_reference(table, perm, inswap, [[0, 1], [1, 0]])
            assert abs(i_max(rt.reshape(1, -1), iset.w_matrix)[0] - base) < 1e-12


def test_correlator_sign_convention():
    lam = pauli_tensor(gghz(np.pi / 4, 2).projector())
    # feature (1 + s_a) * 3 + (1 + s_b) is the full correlator E(s_a, s_b);
    # a0 = z against b0 = (x+z)/sqrt2: E = 1/sqrt2
    e = correlators(lam, CHSH_OPT[None])[0]
    assert abs(e[4] - 1 / SQRT2) < 1e-12
    assert abs(e[8] + 1 / SQRT2) < 1e-12
    # the same numbers as the parity-weighted sum over the behavior table
    table = batch_behaviors(lam, CHSH_OPT[None])[0]
    parity = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert abs((table[0, 0] * parity).sum() - e[4]) < 1e-12
    assert abs((table[1, 1] * parity).sum() - e[8]) < 1e-12


def test_correlation_matrix_and_horodecki():
    rho = werner_like(np.pi / 4, 0.9, 2)
    lam = pauli_tensor(rho)
    c = default_set(2).c_matrix
    assert abs(batch_i_max(lam, CHSH_OPT[None], c)[0] - 0.9 * SQRT2) < 1e-12
    # Horodecki criterion: the CHSH optimum is sqrt of the two largest
    # eigenvalues of R^T R, R the correlation block of lam; no setting beats it
    r = lam[1:, 1:]
    s = np.sort(np.linalg.eigvalsh(r.T @ r))
    bound = math.sqrt(s[-1] + s[-2])
    dirs = _random_dirs(np.random.default_rng(3), (50, 2, 2))
    assert np.max(batch_i_max(lam, dirs, c)) <= bound + 1e-12


def test_parse_reports_line_numbers():
    good = _packaged_text("chsh")
    lines = good.splitlines()
    bad = "\n".join(lines[:3] + lines[4:])  # drop the outputs header line
    with pytest.raises(ParseError) as exc:
        parse_inequality(bad)
    assert exc.value.line is not None
    dup = good + lines[-1] + "\n"
    with pytest.raises(ParseError, match="duplicate"):
        parse_inequality(dup)
    with pytest.raises(ParseError):
        parse_inequality(good.replace("bellineq 1", "bellineq 9"))


def test_bundled_inequalities_load():
    for name, bound in (("chsh", 2.0), ("mermin", 2.0), ("svetlichny", 4.0)):
        ineq = bundled_inequality(name)
        assert ineq.lhv_bound == bound
    with pytest.raises(MissingDataError):
        bundled_inequality("nosuch")


def test_default_sets():
    s2 = default_set(2)
    s3 = default_set(3)
    assert s2.tag == "chsh" and len(s2) == 8
    assert s3.tag == "svetlichny:lower-bound" and len(s3) == 16
    with pytest.raises(ParameterError):
        default_set(4)


@pytest.mark.parametrize("n", [2, 3])
def test_default_set_is_frozen_and_compares_by_identity(n):
    iset, again = default_set(n), default_set(n)
    assert iset == iset and iset != again and hash(iset) != hash(again)
    assert iset.digest() == again.digest()
    with pytest.raises(dataclasses.FrozenInstanceError):
        iset.tag = "other"
    with pytest.raises(dataclasses.FrozenInstanceError):
        iset.c_matrix = np.zeros_like(iset.c_matrix)
    with pytest.raises(ValueError, match="read-only"):
        iset.w_matrix[0, 0] = 0.0


def test_replay_rows_divide_out_the_constant_term():
    # the bundled sets have no constant term: their replay rows are c_matrix
    for iset in (default_set(2), default_set(3), expand_relabelings([mermin(), svetlichny()])):
        assert iset.replay_rows() is iset.c_matrix
    ch = load_inequality_dir(Path(__file__).resolve().parent / "data" / "ch_form")
    rows = ch.replay_rows()
    assert not rows.flags.writeable
    np.testing.assert_array_equal(rows[:, 0], 0.0)
    np.testing.assert_array_equal(rows[:, 1:], 2.0 * ch.c_matrix[:, 1:])
    # sum_r P(r|00) <= 1 has the constant term 1: white noise is on its bound,
    # so the set is refused when it is made, on every route
    norm = np.zeros((2,) * 4)
    norm[0, 0] = 1.0
    with pytest.raises(ParameterError, match="'norm'.*constant term >= 1"):
        expand_relabelings([BellInequality(2, norm, 1.0)], tag="norm")


def test_inequality_file_and_dir_loading(tmp_path):
    p = tmp_path / "my.bellineq"
    p.write_text(_packaged_text("chsh"))
    ineq = load_inequality_file(p)
    assert ineq.n_parties == 2
    iset = load_inequality_dir(tmp_path)
    assert len(iset) == 8  # expanded orbit
    with pytest.raises(MissingDataError):
        load_inequality_dir(tmp_path / "empty_nowhere")
    with pytest.raises(MissingDataError, match="no such inequality file"):
        load_inequality_file(tmp_path / "missing.bellineq")
    p.write_bytes(b"bellineq 1\nparties \xff\n")
    with pytest.raises(ParseError, match="line 2: .*inequality file is not UTF-8"):
        load_inequality_file(p)


def test_inequality_file_error_keeps_its_line_and_names_the_file(tmp_path):
    p = tmp_path / "bad.bellineq"
    p.write_text(_packaged_text("chsh").replace("c 00 00 1\n", "c 00 00 nan\n"))
    with pytest.raises(ParseError) as exc:
        load_inequality_file(p)
    assert exc.value.line == 6
    assert str(exc.value) == f"line 6: {p}: coefficient value must be finite, got 'nan'"


def test_dedup_collapses_equivalent_members():
    # the same inequality twice expands to the same 8-member orbit
    iset = expand_relabelings([chsh(), chsh()])
    assert len(iset) == 8


def test_inequality_validation():
    with pytest.raises(ParameterError):
        BellInequality(2, np.zeros((2, 2, 2, 2)), 2.0)
    for bound in (0.0, math.inf, math.nan):
        with pytest.raises(ParameterError, match="LHV bound"):
            BellInequality(2, chsh().coefficients, bound)
    for value in (math.nan, math.inf):
        mu = chsh().coefficients.copy()
        mu[0, 0, 0, 0] = value
        with pytest.raises(ParameterError, match="finite"):
            BellInequality(2, mu, 2.0)
    # finite entries whose bound-1 form overflows
    with pytest.raises(ParameterError, match="finite"):
        BellInequality(2, chsh().coefficients * 1e300, 1e-300)


def test_parse_rejects_non_finite_values_on_their_line():
    good = _packaged_text("chsh")
    for old, new, line in (("c 00 00 1\n", "c 00 00 nan\n", 6),
                           ("c 00 00 1\n", "c 00 00 1e400\n", 6),
                           ("c 11 11 -1\n", "c 11 11 -inf\n", 21),
                           ("bound 2", "bound inf", 5),
                           ("bound 2", "bound nan", 5)):
        with pytest.raises(ParseError, match="finite") as exc:
            parse_inequality(good.replace(old, new))
        assert exc.value.line == line


def test_bundled_files_are_the_documented_correlator_forms():
    """Each packaged functional is sum_S sign_S E(S) over full correlators."""
    forms = {
        chsh: {"00": 1, "01": 1, "10": 1, "11": -1},
        mermin: {"000": 1, "011": -1, "101": -1, "110": -1},
        svetlichny: {"000": 1, "011": -1, "101": -1, "110": -1,
                     "111": 1, "100": -1, "010": -1, "001": -1},
    }
    for make, signs in forms.items():
        ineq = make()
        n = ineq.n_parties
        # full correlator E(S) is the feature with base-3 digits 1 + S_i
        want = np.zeros(3 ** n)
        for settings_, sign in signs.items():
            want[int("".join(str(1 + int(b)) for b in settings_), 3)] = sign
        assert ineq.name == make.__name__
        np.testing.assert_array_equal(ineq.coefficients.ravel() @ feature_map(n).T, want)


# .bellineq text from valid header and coefficient lines; one value in eight
# is any float text or a bad token, and a third of the texts get arbitrary
# lines mixed in
_BAD_VALUE = st.one_of(st.floats().map(repr),
                       st.sampled_from(["nan", "-inf", "1e400", "1e-320", "-0", "1_0", "x"]))


def _value(draw, good):
    return draw(_BAD_VALUE if draw(st.integers(0, 7)) == 0 else good)


@st.composite
def _bellineq_text(draw):
    n = draw(st.sampled_from([2, 3]))
    bound = _value(draw, st.floats(1e-3, 1e3).map(repr))
    lines = ["bellineq 1", f"parties {n}", "inputs 2", "outputs 2", f"bound {bound}"]
    bits = st.text("01", min_size=n, max_size=n)
    coefficient = st.sampled_from(["1", "-1", "0.5", "0"]) | st.floats(-1e6, 1e6).map(repr)
    indices = st.lists(st.tuples(bits, bits), min_size=1, max_size=12, unique=True)
    for s_bits, r_bits in draw(indices):
        lines.append(f"c {s_bits} {r_bits} {_value(draw, coefficient)}")
    if draw(st.integers(0, 2)) == 0:
        for line in draw(st.lists(st.text(max_size=12), min_size=1, max_size=2)):
            lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_bellineq_text())
def test_parse_inequality_returns_finite_or_raises_package_error(text):
    try:
        ineq = parse_inequality(text)
    except BellentError:
        return
    assert 0 < ineq.lhv_bound < math.inf
    assert np.all(np.isfinite(ineq.coefficients / ineq.lhv_bound))


def test_inequality_catalog_demo_output(capsys):
    demo = Path(__file__).resolve().parents[1] / "demos" / "inequality_catalog.py"
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out.splitlines() == [
        "chsh         parties=2 bound=2.0 orbit=8",
        "mermin       parties=3 bound=2.0 orbit=16",
        "svetlichny   parties=3 bound=4.0 orbit=16",
        "",
        "CHSH at optimal settings: I = 1.414214 (Tsirelson bound 1.414214)",
        "Svetlichny at optimal settings: I = 1.414214",
        "Svetlichny over 200 random settings: best I = 1.0715 "
        "(algebraic max sqrt(2) = 1.4142)",
    ]


# ------------------------------------------------- references for the kernels

def _relabeled_reference(mu, perm, inswap, outflip):
    """Per-entry loop: new party i takes over old party perm[i], inswap[i]
    xors its setting, outflip[i][s] its outcome at new setting s."""
    n = mu.ndim // 2
    out = np.empty_like(mu)
    for idx in np.ndindex(*mu.shape):
        s_old, r_old = idx[:n], idx[n:]
        s_new = [0] * n
        r_new = [0] * n
        for i in range(n):
            s = s_old[perm[i]] ^ inswap[i]
            s_new[i] = s
            r_new[i] = r_old[perm[i]] ^ outflip[i][s]
        out[tuple(s_new) + tuple(r_new)] = mu[idx]
    return out


def _orbit_reference(ineqs):
    """Bound-1 rows of the relabeling orbit, first occurrence kept, in loop order."""
    n = ineqs[0].n_parties
    flips = list(itertools.product((0, 1), repeat=2))
    seen = {}
    for base in ineqs:
        mu = base.coefficients / base.lhv_bound
        for perm in itertools.permutations(range(n)):
            for inswap in itertools.product((0, 1), repeat=n):
                for outflip in itertools.product(flips, repeat=n):
                    row = _relabeled_reference(mu, perm, inswap, outflip).ravel()
                    seen.setdefault((np.round(row, 9) + 0.0).tobytes(), row)
    return np.stack(list(seen.values()))


def _random_state(n, rng):
    a = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
    m = a @ a.conj().T
    return DensityMatrix(n, m / np.trace(m).real)


def _random_dirs(rng, shape):
    d = rng.normal(size=shape + (3,))
    return d / np.linalg.norm(d, axis=-1, keepdims=True)


def test_orbit_matches_reference_loop():
    for ineqs in ([chsh()], [mermin()], [svetlichny()], [mermin(), svetlichny()],
                  [chsh(), chsh()]):
        got = expand_relabelings(ineqs).w_matrix
        assert got.tobytes() == _orbit_reference(ineqs).tobytes()


def test_orbit_matches_reference_loop_without_symmetry():
    # a random table, and the same table summed over party permutations: the
    # orbit stages keep hundreds of rows, with and without merging in the first
    rng = np.random.default_rng(11)
    t = rng.integers(-1, 2, (2,) * 6).astype(float)
    sym = sum(t.transpose(p + tuple(3 + i for i in p)) for p in itertools.permutations(range(3)))
    # CHSH with one entry moved by 1e-12: relabeled rows that differ only there
    # share a dedup key, and the row of the first relabeling is the one kept
    near = chsh().coefficients.copy()
    near[0, 1, 1, 0] += 1e-12
    for ineqs in ([BellInequality(3, t, 3.0)], [BellInequality(3, sym, 9.0)],
                  [BellInequality(2, near, 2.0)], [BellInequality(2, near, 2.0), chsh()]):
        got = expand_relabelings(ineqs).w_matrix
        assert got.tobytes() == _orbit_reference(ineqs).tobytes()


def test_relabel_behavior_matches_reference_loop():
    rng = np.random.default_rng(17)
    for n in (2, 3):
        lam = pauli_tensor(_random_state(n, rng))
        table = batch_behaviors(lam, _random_dirs(rng, (n, 2))[None])[0]
        for _ in range(10):
            perm = [int(x) for x in rng.permutation(n)]
            inswap = [int(x) for x in rng.integers(0, 2, n)]
            outflip = rng.integers(0, 2, (n, 2)).tolist()
            src = _relabel_index(n, perm, inswap, outflip)[0]
            got = table.ravel()[src].reshape(table.shape)
            assert got.tobytes() == \
                _relabeled_reference(table, perm, inswap, outflip).tobytes()


def test_batch_behaviors_match_born_rule():
    """P(r|S) = Tr[rho (x)_i (1 + (-1)^r_i u_i . sigma) / 2] at random settings."""
    rng = np.random.default_rng(29)
    for n in (2, 3):
        rho = _random_state(n, rng)
        dirs = _random_dirs(rng, (3, n, 2))
        got = batch_behaviors(pauli_tensor(rho), dirs)
        for b in range(dirs.shape[0]):
            for idx in np.ndindex((2,) * (2 * n)):
                op = np.eye(1)
                for i in range(n):
                    u_sigma = np.tensordot(dirs[b, i, idx[i]], PAULI[1:], axes=1)
                    op = np.kron(op, (PAULI[0] + (-1) ** idx[n + i] * u_sigma) / 2)
                want = np.trace(rho.entries @ op).real
                assert abs(got[(b,) + idx] - want) < 1e-12


def test_batch_i_max_independent_of_how_a_chunk_is_cut():
    rng = np.random.default_rng(31)
    cuts = [0, 1, 2047, 2049, 5000, 6000]
    for n in (2, 3):
        lam = pauli_tensor(_random_state(n, rng))
        c = default_set(n).c_matrix
        dirs = bloch_directions(3, f"bloch{n}", 0, cuts[-1], n)
        # the 3^N rows as given, and the 2^N that product_rows keeps of them
        for rows in (c, product_rows(c)):
            whole = batch_i_max(lam, dirs, rows)
            pieces = [batch_i_max(lam, dirs[a:b], rows) for a, b in zip(cuts, cuts[1:])]
            assert np.concatenate(pieces).tobytes() == whole.tobytes()


def test_batch_i_max_in_a_reused_workspace_has_the_bits_of_a_fresh_one():
    # one workspace across party counts, batch sizes and both forms of the
    # rows, short batches after long ones, as the sampler's idle workspaces
    # are used
    rng = np.random.default_rng(33)
    ws = Workspace()
    for n, count in ((3, 5000), (2, 3000), (3, 17), (2, 2048), (3, 2049)):
        lam = pauli_tensor(_random_state(n, rng))
        c = default_set(n).c_matrix
        dirs = bloch_directions(5, f"bloch{n}", 100, count, n)
        for rows in (c, product_rows(c)):
            want = batch_i_max(lam, dirs, rows)
            assert batch_i_max(lam, dirs, rows, ws).tobytes() == want.tobytes()


# The behavior kernel before the correlator basis: one einsum per batch over
# per-party factors V[b, S, r, k] = (1, (-1)^r u_S).
_EINSUM_REFERENCE = {
    2: ("xy,bsrx,btuy->bstru", ["einsum_path", (0, 1), (0, 1)]),
    3: ("xyz,bsrx,btuy,bvwz->bstvruw", ["einsum_path", (0, 1), (0, 2), (0, 1)]),
}


def _einsum_behaviors(lam, dirs):
    n = lam.ndim
    factors = []
    for i in range(n):
        v = np.empty(dirs.shape[:1] + (2, 2, 4))
        v[..., 0] = 1.0
        v[:, :, 0, 1:] = dirs[:, i]
        v[:, :, 1, 1:] = -dirs[:, i]
        factors.append(v)
    spec, path = _EINSUM_REFERENCE[n]
    return np.einsum(spec, lam, *factors, optimize=path) / 2 ** n


def test_correlator_kernel_matches_einsum_reference():
    """Non-physical lam, so every marginal feature carries weight."""
    rng = np.random.default_rng(37)
    for n in (2, 3):
        lam = rng.normal(size=(4,) * n)
        dirs = _random_dirs(rng, (301, n, 2))
        want = _einsum_behaviors(lam, dirs)
        features = correlators(lam, dirs)
        assert features.shape == (301, 3 ** n)
        got = (features @ feature_map(n)).reshape(want.shape)
        assert np.max(np.abs(got - want)) < 1e-13
        assert np.max(np.abs(batch_behaviors(lam, dirs) - want)) < 1e-13
        assert set(np.unique(np.abs(feature_map(n)))) == {0.0, 2.0 ** -n}
        assert not feature_map(n).flags.writeable


def _full_correlator_columns(n):
    # features whose base-3 digits are all >= 1
    return [c for c in range(3 ** n) if all(c // 3 ** i % 3 for i in range(n))]


def test_full_correlators_have_the_bits_of_the_full_build():
    """Non-physical lam, so a marginal feature would leak into a full one."""
    rng = np.random.default_rng(53)
    ws = Workspace()
    for n in (2, 3):
        lam = rng.normal(size=(4,) * n)
        full = _full_correlator_columns(n)
        assert len(full) == 2 ** n
        # directions in both layouts: sample-innermost rows as bloch_directions
        # writes them, and a C-contiguous (B, N, 2, 3) array
        for dirs in (bloch_directions(7, f"bloch{n}", 11, 2500, n),
                     _random_dirs(rng, (301, n, 2))):
            want = correlators(lam, dirs)
            for w in (None, ws):
                got = correlators(lam, dirs, w, marginals=False)
                assert got.shape == (len(dirs), 2 ** n)
                assert got.tobytes() == want[:, full].tobytes()
            # a full build after one without marginals, in the same workspace
            assert correlators(lam, dirs, ws).tobytes() == want.tobytes()


def test_batch_i_max_builds_marginals_only_for_a_set_that_reads_them(monkeypatch):
    rng = np.random.default_rng(59)
    ch = load_inequality_dir(Path(__file__).resolve().parent / "data" / "ch_form")
    marginal = expand_relabelings(BellInequality(3, rng.normal(size=(2,) * 6), 4.0, "marginal"))
    calls = []
    full_build = correlators

    def spy(lam, dirs, ws=None, marginals=True):
        calls.append(marginals)
        return full_build(lam, dirs, ws, marginals)

    # the CH form's rows read the constant feature, and its replay rows only
    # full correlators; the random set's rows read marginals either way
    cases = [(default_set(2).c_matrix, False), (default_set(3).c_matrix, False),
             (default_set(3).replay_rows(), False), (ch.c_matrix, True),
             (ch.replay_rows(), False), (marginal.c_matrix, True),
             (marginal.replay_rows(), True)]
    for c, reads_marginals in cases:
        n = round(math.log(c.shape[1], 3))
        rows = product_rows(c)
        assert rows.shape == (len(c), 3 ** n if reads_marginals else 2 ** n)
        lam = pauli_tensor(_random_state(n, rng))
        dirs = bloch_directions(3, f"bloch{n}", 0, 5000, n)
        want = i_max(full_build(lam, dirs), c)
        # the helper's rows build only what the set reads; c as given, all 3^N
        for given, builds in ((rows, reads_marginals), (c, True)):
            monkeypatch.setattr(bell, "correlators", spy)
            calls.clear()
            got = batch_i_max(lam, dirs, given)
            monkeypatch.undo()
            assert calls == [builds] * 3
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 3])
def test_the_shared_draws_buffer_never_clobbers_live_data(n):
    # one workspace buffer holds, in turn, the draws, the squares of the norm
    # pass, the correlators' term and the Bell-value product: a piece's values
    # must not depend on what the workspace held, nor on a count-route i_max
    # between two pieces, with each set's rows as given (the full build) and
    # as product_rows leaves them (the compact build where the set allows it)
    rng = np.random.default_rng(67 + n)
    iset = default_set(n)
    marginal = expand_relabelings(BellInequality(n, rng.normal(size=(2,) * (2 * n)), 4.0,
                                                 "marginal"))
    sets = [iset.c_matrix, iset.replay_rows(), marginal.c_matrix]
    if n == 2:  # the CH form's rows read the constant feature
        sets.append(load_inequality_dir(Path(__file__).resolve().parent / "data"
                                        / "ch_form").c_matrix)
    sets = [rows for c in sets for rows in (c, product_rows(c))]
    lam = pauli_tensor(_random_state(n, rng))
    tables = rng.random((300, 4 ** n))
    counted = i_max(tables, iset.w_matrix)
    ws = Workspace()
    for c in sets:
        for start, count in ((0, 2048), (2048, 1000)):
            dirs = bloch_directions(5, f"bloch{n}", start, count, n, ws)
            want = batch_i_max(lam, dirs.copy(), c, Workspace())
            assert batch_i_max(lam, dirs, c, ws).tobytes() == want.tobytes()
            assert i_max(tables, iset.w_matrix, ws).tobytes() == counted.tobytes()


def test_feature_basis_i_max_matches_table_basis():
    rng = np.random.default_rng(41)
    marginal = BellInequality(3, rng.normal(size=(2,) * 6), 1.0, "marginal")
    sets = [expand_relabelings([chsh()]), expand_relabelings([mermin()]),
            expand_relabelings([svetlichny()]),
            expand_relabelings([mermin(), svetlichny()]),
            expand_relabelings([marginal])]
    for iset in sets:
        n = iset.n_parties
        lam = pauli_tensor(_random_state(n, rng))
        dirs = _random_dirs(rng, (2500, n, 2))
        tables = _einsum_behaviors(lam, dirs).reshape(2500, -1)
        want = (tables @ iset.w_matrix.T).max(axis=1)
        got = batch_i_max(lam, dirs, iset.c_matrix)
        assert np.max(np.abs(got - want)) < 1e-13, iset.tag
        assert not iset.c_matrix.flags.writeable


def test_max_violation_has_the_bits_of_a_batch():
    # tables are built once: batch_behaviors is a BLAS product, whose bits
    # depend on the batch size
    rng = np.random.default_rng(43)
    w = default_set(3).w_matrix
    lam = pauli_tensor(_random_state(3, rng))
    tables = batch_behaviors(lam, _random_dirs(rng, (40, 3, 2))).reshape(40, -1)
    batch = i_max(tables, w)
    for b in range(40):
        assert i_max(tables[b:b + 1], w)[0] == batch[b]


def _padded_tile_i_max(x, coeffs):
    # the reduction with the last row tile zero-padded to 256 rows, so that
    # every product is (256, 2048); for sets of at least 256 rows
    padded = np.zeros((-(-len(coeffs) // 256) * 256, coeffs.shape[1]))
    padded[:len(coeffs)] = coeffs
    out = np.empty(len(x))
    for lo in range(0, len(x), 2048):
        k = min(2048, len(x) - lo)
        columns = np.zeros((coeffs.shape[1], 2048))
        columns[:, :k] = x[lo:lo + k].T
        prod = np.concatenate([padded[r:r + 256] @ columns
                               for r in range(0, len(padded), 256)])
        out[lo:lo + k] = prod[:len(coeffs), :k].max(axis=0)
    return out


def test_i_max_reduces_a_large_set_in_row_tiles():
    # 600 rows go through products of 256 rows, then one of the 88 left, so
    # the workspace holds no 600-row product and no padded copy of a tile:
    # the product, 27 rows of columns and one row of tile maxima
    most = (256 * 2048 + 27 * 2048 + 2048) * 8
    rng = np.random.default_rng(47)
    coeffs = rng.normal(size=(600, 27))
    x = rng.normal(size=(5000, 27))
    ws = Workspace()
    got = i_max(x, coeffs, ws)
    assert ws.nbytes <= most
    assert np.max(np.abs(got - (coeffs @ x.T).max(axis=0))) < 1e-12
    tiles = [i_max(x, coeffs[r:r + 256]) for r in range(0, 600, 256)]
    assert got.tobytes() == np.maximum.reduce(tiles).tobytes()
    # batch_i_max on 300 two-party rows that read only full correlators: it
    # builds the 4 of them and multiplies them in tiles of 256 and 44 rows
    c = np.zeros((300, 9))
    c[:, _full_correlator_columns(2)] = rng.normal(size=(300, 4))
    rows = product_rows(c)
    assert rows.shape == (300, 4)
    lam = pauli_tensor(_random_state(2, rng))
    dirs = bloch_directions(3, "bloch2", 0, 5000, 2)
    ws = Workspace()
    got = batch_i_max(lam, dirs, rows, ws)
    assert ws.nbytes <= most
    assert np.max(np.abs(got - (correlators(lam, dirs) @ c.T).max(axis=1))) < 1e-12
    tiles = [batch_i_max(lam, dirs, rows[r:r + 256]) for r in range(0, 300, 256)]
    assert got.tobytes() == np.maximum.reduce(tiles).tobytes()
    features = correlators(lam, dirs)[:, _full_correlator_columns(2)]
    assert got.tobytes() == _padded_tile_i_max(features, rows).tobytes()
    # a last tile of one row (numpy would multiply it by gemv, not gemm) or
    # of a few: the bits of a last tile zero-padded to 256 rows
    for n_rows in (256, 257, 258, 513):
        coeffs = rng.normal(size=(n_rows, 27))
        assert i_max(x, coeffs).tobytes() == _padded_tile_i_max(x, coeffs).tobytes()
        c = np.zeros((n_rows, 9))
        c[:, _full_correlator_columns(2)] = rng.normal(size=(n_rows, 4))
        want = _padded_tile_i_max(features, product_rows(c))
        assert batch_i_max(lam, dirs, product_rows(c)).tobytes() == want.tobytes()


def _reference_bloch_directions(seed, tag, start, count, n):
    raw = raw_words(seed, tag, start, count, 6 * n)
    z = ndtri(((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53)
    z = z.reshape(count, n, 2, 3)
    z /= np.linalg.norm(z, axis=-1, keepdims=True)
    return z


def test_bloch_directions_into_buffers_bit_identical():
    # one workspace across party counts, short draws after long ones, as a
    # task reuses an idle workspace
    ws = Workspace()
    for n in (3, 2):
        for start, count in ((12345, 2048), (7, 333), (0, 1)):
            want = bloch_directions(9, f"bloch{n}", start, count, n)
            got = bloch_directions(9, f"bloch{n}", start, count, n, ws)
            assert np.shares_memory(got, ws.array("dirs", (count, 6 * n)))
            assert got.tobytes() == want.tobytes()


def _reference_philox(seed, tag, start, words):
    ph = Philox(key=substream_key(seed, tag))
    ph.advance(start * blocks_per_sample(words))
    return ph


def test_uniforms_in_a_reused_workspace_match_a_fresh_one():
    # a workspace keeps one Philox and sets its state for every draw that
    # does not start where the last one ended: seeds, tags and starts that go
    # backwards, a counter past 2**64 blocks, and words left in its buffer
    # must not leak from one draw into the next
    ws = Workspace()
    for seed, tag, start, count, words in ((9, "bloch3", 40_000, 2048, 18),
                                           (9, "bloch3", 2048, 100, 18),
                                           (2, "bloch2", 0, 3, 12),
                                           (9, "chshcube", 5, 7, 3),
                                           (2 ** 128 - 1, "bloch3", 3 << 66, 5, 18),
                                           (9, "bloch3", 40_000, 2048, 18)):
        ph = _reference_philox(seed, tag, start, words)
        want = np.random.Generator(ph).random((count, draw_width(words)))[:, :words] + 2.0 ** -54
        assert uniforms(seed, tag, start, count, words, Workspace()).tobytes() == want.tobytes()
        assert uniforms(seed, tag, start, count, words, ws).tobytes() == want.tobytes()
        ws.philox.random_raw(3)


def test_pieces_drawn_in_one_workspace_match_fresh_draws(monkeypatch):
    # a piece that starts where the last draw ended continues the workspace's
    # Philox without deriving its key; any other piece sets the state
    keys = []
    derive = substream_key
    monkeypatch.setattr(_rng, "substream_key",
                        lambda seed, tag: keys.append(tag) or derive(seed, tag))
    ws = Workspace()
    pieces = [(0, 2048), (2048, 2048), (4096, 333), (4429, 1)]
    # the third order's first piece starts where the second order ended
    for order, derived in ((pieces, 1), (pieces[::-1], 4),
                           ([pieces[1], pieces[3], pieces[0], pieces[2]], 3)):
        keys.clear()
        for start, count in order:
            want = bloch_directions(9, "bloch3", start, count, 3, Workspace())
            keys.remove("bloch3")  # the fresh workspace's derivation
            got = bloch_directions(9, "bloch3", start, count, 3, ws)
            assert got.tobytes() == want.tobytes()
        assert len(keys) == derived
    # words drawn from the Philox outside `uniforms`, where the last piece
    # ended, leave it off its position
    ws.philox.random_raw(3)
    want = bloch_directions(9, "bloch3", 4429, 7, 3, Workspace())
    assert bloch_directions(9, "bloch3", 4429, 7, 3, ws).tobytes() == want.tobytes()
    # in order across substreams: a changed seed or tag sets the state
    for seed, tag in ((9, "bloch3"), (8, "bloch3"), (8, "chshcube")):
        want = uniforms(seed, tag, 6, 5, 18, Workspace())
        assert uniforms(seed, tag, 6, 5, 18, ws).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 3])
def test_bloch_directions_draw_their_uniforms_through_uniforms(monkeypatch, n):
    # one door to a substream's doubles: the half step is added in one place
    calls = []
    draw = _rng.uniforms
    monkeypatch.setattr(_rng, "uniforms",
                        lambda *args: calls.append(args) or draw(*args))
    ws = Workspace()
    bloch_directions(9, f"bloch{n}", 4096, 2048, n, ws)
    assert len(calls) == 1
    seed, tag, start, count, words, used = calls[0]
    assert (seed, tag, start, count, words) == (9, f"bloch{n}", 4096, 2048, 6 * n)
    assert used is ws


def test_trial_generators_draw_the_substream_of_their_index():
    for index in (0, 1, 17):
        want = np.random.Generator(_reference_philox(5, f"poisson#{index}", 0, 4))
        got = generator(5, "poisson", index)
        assert got.poisson(30.0, 50).tolist() == want.poisson(30.0, 50).tolist()
        assert got.random(9).tobytes() == want.random(9).tobytes()


def test_bloch_directions_bit_identical_to_reference():
    for n in (2, 3):
        for start, count in ((0, 1), (1, 7), (7, 333), (12345, 1001), (3, 4097)):
            want = _reference_bloch_directions(9, f"bloch{n}", start, count, n)
            got = bloch_directions(9, f"bloch{n}", start, count, n)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
