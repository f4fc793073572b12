import itertools
import math

import numpy as np
import pytest
from scipy.special import ndtri

from bellent._rng import bloch_directions, draw_width, raw_words
from bellent.bell import (
    PAULI,
    _relabel_index,
    Behavior,
    BellInequality,
    InequalitySet,
    MeasurementSettings,
    Workspace,
    batch_behaviors,
    batch_i_max,
    behavior_from_state,
    bundled_inequality,
    chsh,
    chsh_horodecki,
    correlation_matrix,
    correlators,
    default_set,
    evaluate,
    expand_relabelings,
    feature_map,
    i_max,
    load_inequality_dir,
    load_inequality_file,
    max_violation,
    mermin,
    parse_inequality,
    pauli_tensor,
    serialize_inequality,
    svetlichny,
)
from bellent.errors import MissingDataError, ParameterError, ParseError
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


def test_inequality_families_structure():
    c, m, s = chsh(), mermin(), svetlichny()
    assert c.lhv_bound == 2.0 and m.lhv_bound == 2.0 and s.lhv_bound == 4.0
    assert np.count_nonzero(c.coefficients) == 16
    assert np.count_nonzero(m.coefficients) == 32
    assert np.count_nonzero(s.coefficients) == 64


def test_tsirelson_bound_reached():
    b = behavior_from_state(gghz(np.pi / 4, 2).projector(),
                            MeasurementSettings(2, CHSH_OPT))
    b.validate()
    assert abs(evaluate(chsh(), b) - SQRT2) < 1e-12


def test_svetlichny_maximum_on_ghz():
    b = behavior_from_state(gghz(np.pi / 4, 3).projector(),
                            MeasurementSettings(3, SVET_OPT))
    b.validate()
    assert abs(evaluate(svetlichny(), b) - SQRT2) < 1e-12
    assert abs(max_violation(b, default_set(3)) - SQRT2) < 1e-12


def test_evaluate_is_linear_in_the_behavior():
    rng = np.random.default_rng(13)
    dirs = rng.normal(size=(2, 2, 3))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    ms = MeasurementSettings(2, dirs)
    b1 = behavior_from_state(werner_like(0.6, 0.9, 2), ms)
    b2 = behavior_from_state(werner_like(0.3, 0.5, 2), ms)
    for lam in (0.0, 0.25, 0.7, 1.0):
        mix = Behavior(2, lam * b1.table + (1 - lam) * b2.table)
        want = lam * evaluate(chsh(), b1) + (1 - lam) * evaluate(chsh(), b2)
        assert abs(evaluate(chsh(), mix) - want) < 1e-12


def test_orbit_sizes_and_digests():
    """Relabeling orbits are closed and have the frozen sizes."""
    set2 = expand_relabelings([chsh()])
    set3m = expand_relabelings([mermin()])
    set3s = expand_relabelings([svetlichny()])
    assert len(set2.inequalities) == 8
    assert len(set3m.inequalities) == 16
    assert len(set3s.inequalities) == 16
    assert set2.digest().startswith("df2aac18d1e4")
    assert set3m.digest().startswith("529e19246699")
    assert set3s.digest().startswith("6535e8ed7934")


def test_orbit_closure_under_relabeling():
    """max over the orbit is invariant when the behavior itself is relabeled."""
    iset = default_set(2)
    rng = np.random.default_rng(21)
    dirs = rng.normal(size=(2, 2, 3))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    b = behavior_from_state(werner_like(0.7, 0.95, 2), MeasurementSettings(2, dirs))
    base = max_violation(b, iset)
    for perm in ([0, 1], [1, 0]):
        for inswap in ([0, 0], [1, 0], [0, 1], [1, 1]):
            rb = Behavior(2, _relabeled_reference(b.table, perm, inswap, [[0, 1], [1, 0]]))
            rb.validate()
            assert abs(max_violation(rb, iset) - base) < 1e-12


def test_behavior_signaling_detected():
    t = np.full((2, 2, 2, 2), 0.25)
    # at a-input 1 Alice's marginal depends on Bob's input: 0.6/0.4 vs 0.5/0.5
    t[1, 0] = [[0.3, 0.3], [0.2, 0.2]]
    b = Behavior(2, t)
    with pytest.raises(ParameterError, match="signaling"):
        b.validate()


def test_correlator_sign_convention():
    b = behavior_from_state(gghz(np.pi / 4, 2).projector(),
                            MeasurementSettings(2, CHSH_OPT))
    # feature (1 + s_a) * 3 + (1 + s_b) is the full correlator E(s_a, s_b);
    # a0 = z against b0 = (x+z)/sqrt2: E = 1/sqrt2
    e = correlators(pauli_tensor(gghz(np.pi / 4, 2).projector()), CHSH_OPT[None])[0]
    assert abs(e[4] - 1 / SQRT2) < 1e-12
    assert abs(e[8] + 1 / SQRT2) < 1e-12
    # the same numbers as the parity-weighted sum over the behavior table
    parity = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert abs((b.table[0, 0] * parity).sum() - e[4]) < 1e-12
    assert abs((b.table[1, 1] * parity).sum() - e[8]) < 1e-12


def test_correlation_matrix_and_horodecki():
    rho = werner_like(np.pi / 4, 0.9, 2)
    r = correlation_matrix(rho)
    lam = pauli_tensor(rho)
    np.testing.assert_allclose(r, lam[1:, 1:], atol=1e-15)
    got = chsh_horodecki(r, *CHSH_OPT[0], *CHSH_OPT[1])
    assert abs(got - 0.9 * SQRT2) < 1e-12
    # Horodecki criterion: the optimum equals sqrt of the two largest
    # eigenvalues of R^T R, and no setting choice can beat it
    s = np.sort(np.linalg.eigvalsh(r.T @ r))
    bound = math.sqrt(s[-1] + s[-2])
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = rng.normal(size=(4, 3))
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        assert chsh_horodecki(r, d[0], d[1], d[2], d[3]) <= bound + 1e-12


def test_serialize_parse_round_trip():
    for ineq in (chsh(), mermin(), svetlichny()):
        text = serialize_inequality(ineq)
        back = parse_inequality(text, name=ineq.name)
        assert back.n_parties == ineq.n_parties
        assert back.lhv_bound == ineq.lhv_bound
        np.testing.assert_array_equal(back.coefficients, ineq.coefficients)


def test_parse_reports_line_numbers():
    good = serialize_inequality(chsh())
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
    assert s2.tag == "chsh" and len(s2.inequalities) == 8
    assert s3.tag == "svetlichny:lower-bound" and len(s3.inequalities) == 16
    with pytest.raises(ParameterError):
        default_set(4)


def test_inequality_file_and_dir_loading(tmp_path):
    p = tmp_path / "my.bellineq"
    p.write_text(serialize_inequality(chsh()))
    ineq = load_inequality_file(p)
    assert ineq.n_parties == 2
    iset = load_inequality_dir(tmp_path)
    assert len(iset.inequalities) == 8  # expanded orbit
    raw = load_inequality_dir(tmp_path, expand=False)
    assert len(raw) == 1 and raw[0].n_parties == 2
    with pytest.raises(MissingDataError):
        load_inequality_dir(tmp_path / "empty_nowhere")
    with pytest.raises(MissingDataError, match="no such inequality file"):
        load_inequality_file(tmp_path / "missing.bellineq")
    p.write_bytes(b"bellineq 1\nparties \xff\n")
    with pytest.raises(ParseError, match="line 2: .*inequality file is not UTF-8"):
        load_inequality_file(p)


def test_dedup_collapses_equivalent_members():
    # the same inequality twice expands to the same 8-member orbit
    iset = expand_relabelings([chsh(), chsh()])
    assert len(iset.inequalities) == 8


def test_settings_validation():
    with pytest.raises(ParameterError):
        MeasurementSettings(2, np.ones((2, 2, 3)))
    bad = CHSH_OPT.copy()
    bad[0, 0] *= 1.001
    with pytest.raises(ParameterError):
        MeasurementSettings(2, bad)


def test_inequality_validation():
    with pytest.raises(ParameterError):
        BellInequality(2, np.zeros((2, 2, 2, 2)), 2.0)
    with pytest.raises(ParameterError):
        BellInequality(2, chsh().coefficients, 0.0)


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
    """Members of the relabeling orbit, first occurrence kept, in loop order."""
    n = ineqs[0].n_parties
    flips = list(itertools.product((0, 1), repeat=2))
    seen = {}
    for base in ineqs:
        nb = base.normalized()
        for perm in itertools.permutations(range(n)):
            for inswap in itertools.product((0, 1), repeat=n):
                for outflip in itertools.product(flips, repeat=n):
                    cand = BellInequality(
                        n, _relabeled_reference(nb.coefficients, perm, inswap, outflip),
                        1.0, base.name)
                    seen.setdefault(cand.key(), cand)
    return list(seen.values())


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
        got = expand_relabelings(ineqs).inequalities
        want = _orbit_reference(ineqs)
        assert [q.name for q in got] == [q.name for q in want]
        assert [q.lhv_bound for q in got] == [q.lhv_bound for q in want]
        assert [q.coefficients.tobytes() for q in got] == \
            [q.coefficients.tobytes() for q in want]


def test_relabel_behavior_matches_reference_loop():
    rng = np.random.default_rng(17)
    for n in (2, 3):
        b = behavior_from_state(_random_state(n, rng),
                                MeasurementSettings(n, _random_dirs(rng, (n, 2))))
        for _ in range(10):
            perm = [int(x) for x in rng.permutation(n)]
            inswap = [int(x) for x in rng.integers(0, 2, n)]
            outflip = rng.integers(0, 2, (n, 2)).tolist()
            src = _relabel_index(n, perm, inswap, outflip)[0]
            got = b.table.ravel()[src].reshape(b.table.shape)
            assert got.tobytes() == \
                _relabeled_reference(b.table, perm, inswap, outflip).tobytes()


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
        whole = batch_i_max(lam, dirs, c)
        pieces = [batch_i_max(lam, dirs[a:b], c) for a, b in zip(cuts, cuts[1:])]
        assert np.concatenate(pieces).tobytes() == whole.tobytes()


def test_batch_i_max_in_a_reused_workspace_has_the_bits_of_a_fresh_one():
    # one workspace across party counts and batch sizes, short ones after
    # long ones, as the sampler's idle workspaces are used
    rng = np.random.default_rng(33)
    ws = Workspace()
    for n, count in ((3, 5000), (2, 3000), (3, 17), (2, 2048), (3, 2049)):
        lam = pauli_tensor(_random_state(n, rng))
        c = default_set(n).c_matrix
        dirs = bloch_directions(5, f"bloch{n}", 100, count, n)
        want = batch_i_max(lam, dirs, c)
        assert batch_i_max(lam, dirs, c, ws).tobytes() == want.tobytes()


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
    rng = np.random.default_rng(43)
    iset = default_set(3)
    lam = pauli_tensor(_random_state(3, rng))
    dirs = _random_dirs(rng, (40, 3, 2))
    tables = batch_behaviors(lam, dirs)
    batch = i_max(tables.reshape(40, -1), iset.w_matrix)
    for b in range(40):
        assert max_violation(Behavior(3, tables[b]), iset) == batch[b]


def _reference_bloch_directions(seed, tag, start, count, n):
    raw = raw_words(seed, tag, start, count, 6 * n)
    z = ndtri(((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53)
    z = z.reshape(count, n, 2, 3)
    z /= np.linalg.norm(z, axis=-1, keepdims=True)
    return z


def test_bloch_directions_into_buffers_bit_identical():
    for n in (2, 3):
        for start, count in ((0, 1), (7, 333), (12345, 2048)):
            want = bloch_directions(9, f"bloch{n}", start, count, n)
            out = np.full((count, n, 2, 3), np.nan)
            draws = np.full((count, draw_width(6 * n)), np.nan)
            got = bloch_directions(9, f"bloch{n}", start, count, n, out=out, draws=draws)
            assert np.shares_memory(got, out) and got.tobytes() == want.tobytes()
            only_draws = bloch_directions(9, f"bloch{n}", start, count, n, draws=draws)
            assert only_draws.tobytes() == want.tobytes()


def test_bloch_directions_bit_identical_to_reference():
    for n in (2, 3):
        for start, count in ((0, 1), (1, 7), (7, 333), (12345, 1001), (3, 4097)):
            want = _reference_bloch_directions(9, f"bloch{n}", start, count, n)
            got = bloch_directions(9, f"bloch{n}", start, count, n)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
