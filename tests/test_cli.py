import csv
import hashlib
import io
import json
import math
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellent import nlfrac
from bellent.bell import default_set, load_inequality_dir
from bellent.cli import _command_path, _parser, main
from bellent.entanglement import conc_closed_w2, gme_closed_w3_xstate, gme_concurrence_pure
from bellent.expdata import add_poisson_noise, save_cc, synth_basis_datasets, synth_cc_dataset
from bellent.fits import g1, g2, g3, v3cr
from bellent.files import format_float
from bellent.qstate import DensityMatrix, load_state, save_density_matrix, werner_like


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "bellent.cli"] + list(args),
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def main_capture(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    assert code == 0
    return buf.getvalue()


def test_state_make_and_conc(tmp_path):
    out = tmp_path / "bell.json"
    code = main(["state", "make", "--family", "gghz", "--theta-deg", "45",
                 "--n", "2", "--out", str(out)])
    assert code == 0
    assert out.is_file() and (tmp_path / "bell.json.manifest.json").is_file()
    obj = json.loads(main_capture(["conc", "--method", "wootters", str(out)]))
    assert abs(obj["value"] - 1.0) < 1e-10
    state3 = tmp_path / "ghz3.json"
    assert main(["state", "make", "--family", "werner", "--theta-deg", "45",
                 "--v", "0.9", "--n", "3", "--out", str(state3)]) == 0
    obj = json.loads(main_capture(["conc", "--method", "gme-xstate", str(state3)]))
    assert abs(obj["value"] - 0.825) < 1e-12
    pure3 = tmp_path / "gghz3.json"
    assert main(["state", "make", "--family", "gghz", "--theta-deg", "30",
                 "--n", "3", "--out", str(pure3)]) == 0
    obj = json.loads(main_capture(["conc", "--method", "gme-pure", str(pure3)]))
    assert obj["value"] == gme_concurrence_pure(load_state(pure3))


def test_pv_output_and_manifest_reproducibility(tmp_path):
    state = tmp_path / "w.json"
    assert main(["state", "make", "--family", "werner", "--theta-deg", "45",
                 "--v", "0.9", "--n", "2", "--out", str(state)]) == 0
    out = tmp_path / "pv.json"
    assert main(["pv", str(state), "--samples", "20000", "--seed", "5",
                 "--out", str(out)]) == 0
    first = out.read_bytes()
    first_man = (tmp_path / "pv.json.manifest.json").read_bytes()
    assert main(["pv", str(state), "--samples", "20000", "--seed", "5",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == first  # bit-identical rerun
    a = json.loads(first)
    man = json.loads(first_man)
    assert a["set_tag"] == "chsh"
    assert a["m"] == 20000
    assert man["manifest_digest"] == a["manifest_digest"]
    assert man["seed"] == 5
    assert "timestamp" in man
    man2 = json.loads((tmp_path / "pv.json.manifest.json").read_text())
    assert man2["manifest_digest"] == man["manifest_digest"]  # digest skips timestamp


def test_exit_codes(tmp_path):
    # parameter error: mems gamma below 2/3
    code, _, err = run_cli(["state", "make", "--family", "mems", "--gamma",
                            "0.5", "--out", str(tmp_path / "x.json")])
    assert code == 2 and err.strip()
    # missing data: no such state file
    code, _, err = run_cli(["pv", str(tmp_path / "missing.json"),
                            "--samples", "10"])
    assert code == 3
    # domain error: gme-xstate on a non-X state (small PSD-safe off-X bump)
    m = werner_like(np.pi / 4, 0.9, 3).entries.copy()
    m[0, 1] = m[1, 0] = 0.005
    save_density_matrix(DensityMatrix(3, m), tmp_path / "off.json")
    code, _, err = run_cli(["conc", "--method", "gme-xstate",
                            str(tmp_path / "off.json")])
    assert code == 4
    # empty sweep range
    code, _, _ = run_cli(["sweep", "--family", "werner", "--theta-deg", "45",
                          "--n", "2", "--v-from", "0.9", "--v-to", "0.8",
                          "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert not list(tmp_path.glob("s.csv*"))


# The input-file helpers below write their text as latin-1, so "\xff" in a
# test's text is the single byte 0xff, which is not UTF-8; ASCII text is
# written as it is.


def _cc_with_sidecar(tmp_path, text):
    cc = tmp_path / "cc.csv"
    save_cc(synth_cc_dataset(werner_like(np.pi / 4, 0.9, 3), 2, seed=1), cc)
    (tmp_path / "cc.csv.json").write_text(text)
    return ["exp", "pv", "--in", str(cc)]


def _cc_head(tmp_path, n_rows):
    """A count file cut to its header and first `n_rows` rows (8 per setting)."""
    args = _cc_with_sidecar(tmp_path, '{"tag": "cc"}')
    cc = tmp_path / "cc.csv"
    cc.write_text("\n".join(cc.read_text().splitlines()[:1 + n_rows]) + "\n")
    return args


def _mix_of_7_basis_files(tmp_path):
    cc = tmp_path / "cc.csv"
    save_cc(synth_cc_dataset(werner_like(np.pi / 4, 0.9, 3), 2, seed=1), cc)
    basis = tmp_path / "basis"
    basis.mkdir()
    for k, ds in enumerate(synth_basis_datasets(2, seed=1)[:7]):
        save_cc(ds, basis / f"basis{k:03b}.csv")
    return ["exp", "mix", "--state", str(cc), "--basis-dir", str(basis), "--vc", "0.9",
            "--out", str(tmp_path / "curve.csv")]


def _cc_with_fields(tmp_path, column, texts):
    """A count file whose field `column` of rows {row: text} is edited."""
    args = _cc_with_sidecar(tmp_path, '{"tag": "cc"}')
    cc = tmp_path / "cc.csv"
    lines = cc.read_text().splitlines()
    for row, text in texts.items():
        fields = lines[row].split(",")
        fields[column] = text
        lines[row] = ",".join(fields)
    cc.write_text("\n".join(lines) + "\n", encoding="latin-1")
    return args


def _samples(tmp_path, rows, sidecar=True, header="i_max", **meta):
    """`rescale` of the rows; the sidecar says 2 samples unless `meta` changes it."""
    samples = tmp_path / "dist.csv"
    samples.write_text(f"{header}\n" + "".join(f"{r}\n" for r in rows), encoding="latin-1")
    if sidecar:
        (tmp_path / "dist.csv.json").write_text(
            json.dumps({"state_tag": "s", "seed": 1, "m": 2, "set_tag": "chsh", **meta}) + "\n")
    return ["rescale", str(samples), "--v-from", "0.9", "--v-to", "1.0",
            "--out", str(tmp_path / "curve.csv")]


def _state(tmp_path, text):
    state = tmp_path / "state.json"
    state.write_text(text, encoding="latin-1")
    return ["conc", "--method", "wootters", str(state)]


def _state_with(tmp_path, n_qubits_text):
    """`_state` of a two-qubit Werner state file whose "n_qubits" reads n_qubits_text."""
    save_density_matrix(werner_like(np.pi / 4, 0.9, 2), tmp_path / "w2.json")
    text = (tmp_path / "w2.json").read_text().replace('"n_qubits": 2', n_qubits_text, 1)
    return _state(tmp_path, text)


def _fit_table(tmp_path, command, text):
    """`fit refit` (header pv,value) or `fit estimate-theta-v0` (v,pv) on text."""
    table = tmp_path / "pts.csv"
    table.write_text(text, encoding="latin-1")
    args = ["fit", command, "--in", str(table), "--out", str(tmp_path / "curve.csv")]
    return args + ["--basis", "2q"] if command == "refit" else args


def _ineq_dir(tmp_path, text, n=3):
    """`pv` of an n-qubit state against a directory holding one .bellineq file."""
    ineq_dir = tmp_path / "ineqs"
    ineq_dir.mkdir()
    (ineq_dir / "ineq.bellineq").write_text(text, encoding="latin-1")
    state = tmp_path / f"w{n}.json"
    save_density_matrix(werner_like(np.pi / 4, 0.9, n), state)
    return ["pv", str(state), "--samples", "10", "--ineq-dir", str(ineq_dir),
            "--out", str(tmp_path / "curve.csv")]


SVETLICHNY_TEXT = resources.files("bellent").joinpath("data/svetlichny.bellineq").read_text()
# sum_r P(r|00) <= 1: white noise sits on its bound, so it has no replay rows
# and every command refuses it; NORMALIZATION3_TEXT is sum_r P(r|000) <= 1
NORMALIZATION_TEXT = "bellineq 1\nparties 2\ninputs 2\noutputs 2\nbound 1\n" + "".join(
    f"c 00 {r} 1\n" for r in ("00", "01", "10", "11"))
NORMALIZATION3_TEXT = "bellineq 1\nparties 3\ninputs 2\noutputs 2\nbound 1\n" + "".join(
    f"c 000 {r:03b} 1\n" for r in range(8))


def _pairs_text(header, rows):
    return header + "\n" + "".join(f"{a},{b}\n" for a, b in rows)


# 20 points of the theta = 0.61 rad curve with v0 = 1: estimate-theta-v0 fits them
_V_PV_ROWS = [(format_float((v3cr(0.61) + g1(0.61) * p ** (1 / 6) + g2(0.61) * p ** 0.5
                             + g3(0.61) * p)), format_float(p))
              for p in np.linspace(0.5, 10, 20).tolist()]
_PV_VALUE_ROWS = [(format_float(p), format_float(0.3 + 0.1 * p ** 0.25))
                  for p in np.linspace(0.5, 20, 12).tolist()]


MALFORMED_INPUTS = {
    "cc sidecar bad json": lambda d: _cc_with_sidecar(d, '{"tag": "cc", '),
    "cc sidecar bad normalization": lambda d: _cc_with_sidecar(
        d, '{"tag": "cc", "normalization": "high"}'),
    "cc duration zero": lambda d: _cc_with_fields(d, 14, {3: "0"}),
    "cc duration nan": lambda d: _cc_with_fields(d, 14, {3: "nan"}),
    "cc duration inf": lambda d: _cc_with_fields(d, 14, dict.fromkeys(range(1, 129), "inf")),
    "cc durations differ": lambda d: _cc_with_fields(d, 14, {3: "2"}),
    "cc setting id outside int64": lambda d: _cc_with_fields(
        d, 0, dict.fromkeys(range(1, 9), "9223372036854775808")),
    "exp mix of 7 basis files": _mix_of_7_basis_files,
    "samples sidecar missing": lambda d: _samples(d, ["0.5", "1.2"], sidecar=False),
    "samples row not a float": lambda d: _samples(d, ["0.5", "1.2.3"]),
    "samples row nan": lambda d: _samples(d, ["0.5", "nan"]),
    "samples row inf": lambda d: _samples(d, ["inf", "1.2"]),
    "samples bad header": lambda d: _samples(d, ["0.5", "1.2"], header="imax"),
    "samples without rows": lambda d: _samples(d, ["", " "]),
    # the sidecar says 2 samples
    "samples file that lost a row": lambda d: _samples(d, ["0.5"]),
    # an integer field takes an integral number only: 2.7 is not truncated to the 2 rows
    "samples sidecar m 2.7": lambda d: _samples(d, ["0.5", "1.2"], m=2.7),
    "samples sidecar seed true": lambda d: _samples(d, ["0.5", "1.2"], seed=True),
    "state n_qubits 2.5": lambda d: _state_with(d, '"n_qubits": 2.5'),
    "state bad json": lambda d: _state(d, '{"n_qubits": 2, "entries": [[1, 0],'),
    "state without n_qubits": lambda d: _state(d, '{"entries": [[1, 0]]}'),
    "cc not utf-8": lambda d: _cc_with_fields(d, 13, {3: "\xff"}),
    "samples not utf-8": lambda d: _samples(d, ["0.5", "\xff"]),
    "state not utf-8": lambda d: _state(d, '{"n_qubits": 2, "entries": "\xff"}'),
    "refit table not utf-8": lambda d: _fit_table(
        d, "refit", _pairs_text("pv,value", _PV_VALUE_ROWS + [("\xff", "1")])),
    # a non-finite cell is refused on its line, as in every other input file
    "fit refit nan p_V": lambda d: _fit_table(
        d, "refit", _pairs_text("pv,value", _PV_VALUE_ROWS + [("nan", "0.5")])),
    "fit refit nan value": lambda d: _fit_table(
        d, "refit", _pairs_text("pv,value", _PV_VALUE_ROWS + [("1", "nan")])),
    "fit estimate nan v": lambda d: _fit_table(
        d, "estimate-theta-v0", _pairs_text("v,pv", _V_PV_ROWS + [("nan", "1")])),
    "fit estimate nan p_V": lambda d: _fit_table(
        d, "estimate-theta-v0", _pairs_text("v,pv", _V_PV_ROWS + [("0.9", "nan")])),
    # a table's fault, not the fit's (FitError, exit 4, for too few points)
    "fit table without rows": lambda d: _fit_table(d, "refit", "pv,value\n\n"),
    "bellineq not utf-8": lambda d: _ineq_dir(d, "bellineq 1\nparties \xff\n"),
    "bellineq coefficient nan": lambda d: _ineq_dir(
        d, SVETLICHNY_TEXT.replace("c 000 000 1\n", "c 000 000 nan\n")),
    "bellineq coefficient 1e400": lambda d: _ineq_dir(
        d, SVETLICHNY_TEXT.replace("c 000 000 1\n", "c 000 000 1e400\n")),
    "bellineq bound inf": lambda d: _ineq_dir(d, SVETLICHNY_TEXT.replace("bound 4", "bound inf")),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_3_with_one_line(tmp_path, capsys, case):
    args = MALFORMED_INPUTS[case](tmp_path)
    assert main(args) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "curve.csv").exists()


def test_a_count_file_of_a_header_alone_has_no_data_rows(tmp_path, capsys):
    assert main(_cc_head(tmp_path, 0)) == 3
    assert capsys.readouterr().err == f"error: {tmp_path / 'cc.csv'}: no data rows\n"


def _nan_state(tmp_path, key, text):
    state = tmp_path / "state.json"
    state.write_text('{"n_qubits": 2, "%s": %s}' % (key, text))
    return str(state)


def _make(family, *flags):
    def args(tmp_path):
        return ["state", "make", "--family", family, *flags,
                "--out", str(tmp_path / "curve.csv")]
    return args


def _sweep(*flags):
    def args(tmp_path):
        given = {"--n": "2", "--v-from": "0.8", "--v-to": "1.0", "--v-step": "0.1"}
        given.update(zip(flags[::2], flags[1::2]))
        return ["sweep", "--theta-deg", "45", "--samples", "10",
                *[x for kv in given.items() for x in kv], "--out", str(tmp_path / "curve.csv")]
    return args


def _without_replay_rows(command):
    def args(tmp_path):
        if command == "exp pv":
            _ineq_dir(tmp_path, NORMALIZATION3_TEXT)
            return _cc_with_sidecar(tmp_path, '{"tag": "cc"}') + [
                "--ineq-dir", str(tmp_path / "ineqs"), "--out", str(tmp_path / "curve.csv")]
        pv = _ineq_dir(tmp_path, NORMALIZATION_TEXT, n=2)
        if command == "pv":
            return pv
        if command == "dist":
            return ["dist", *pv[1:]]
        return _sweep("--ineq-dir", str(tmp_path / "ineqs"))(tmp_path)
    return args


def _seed(command, seed):
    """`command` run with --seed `seed`; every command that samples takes one."""
    def args(tmp_path):
        if command == "sweep":
            argv = _sweep()(tmp_path)
        elif command == "exp resample":
            cc = tmp_path / "cc.csv"
            save_cc(add_poisson_noise(synth_cc_dataset(werner_like(np.pi / 4, 0.9, 3), 2,
                                                       seed=1, scale=100.0), seed=2), cc)
            argv = ["exp", "resample", "--in", str(cc), "--trials", "2",
                    "--out", str(tmp_path / "curve.csv")]
        else:
            state = tmp_path / "w2.json"
            save_density_matrix(werner_like(np.pi / 4, 0.9, 2), state)
            argv = [command, str(state), "--samples", "10", "--out", str(tmp_path / "curve.csv")]
        return argv + ["--seed", str(seed)]
    return args


def _exp_pv_margin(tmp_path):
    cc = tmp_path / "cc.csv"
    save_cc(synth_cc_dataset(werner_like(np.pi / 4, 0.9, 3), 2, seed=1), cc)
    return ["exp", "pv", "--in", str(cc), "--margin", "nan",
            "--out", str(tmp_path / "curve.csv")]


# one NaN entry of a density matrix, the rest a valid Werner state
_NAN_ENTRIES = "[%s]" % ", ".join(
    "[NaN, 0]" if k == 5 else "[%s, %s]" % (format_float(z.real), format_float(z.imag))
    for k, z in enumerate(werner_like(np.pi / 4, 0.9, 2).entries.ravel()))

NON_FINITE_INPUTS = {
    "sweep --v-from nan": _sweep("--v-from", "nan"),
    "sweep --v-to inf": _sweep("--v-to", "inf"),
    "sweep --v-step nan": _sweep("--v-step", "nan"),
    "rescale --v-step nan": lambda d: _samples(d, ["0.5", "1.2"])[:-2]
    + ["--v-step", "nan", "--out", str(d / "curve.csv")],
    # finite grids that are out of range or too fine: the grid is refused
    # before it is built, not left to end in MemoryError
    "rescale --v-to 1e12": lambda d: _samples(d, ["0.5", "1.2"])
    + ["--v-to", "1e12", "--v-step", "0.001"],
    "rescale --v-step 1e-9": lambda d: _samples(d, ["0.5", "1.2"]) + ["--v-step", "1e-9"],
    "sweep --v-from 0": _sweep("--v-from", "0"),
    "sweep --v-step 5e-324": _sweep("--v-step", "5e-324"),
    # other parameter errors: arguments or inputs that do not fit together
    "sweep --n 3 --closed-form w2": _sweep("--n", "3", "--closed-form", "w2"),
    "pv of 2 qubits against 3-party inequalities": lambda d: _ineq_dir(d, SVETLICHNY_TEXT, n=2),
    "dist against a set without replay rows": _without_replay_rows("dist"),
    "sweep against a set without replay rows": _without_replay_rows("sweep"),
    "pv against a set without replay rows": _without_replay_rows("pv"),
    "exp pv against a set without replay rows": _without_replay_rows("exp pv"),
    "exp pv without a complete block": lambda d: _cc_head(d, 8),
    "exp pv on a setting of zero counts": lambda d: _cc_with_fields(
        d, 13, dict.fromkeys(range(1, 9), "0")),
    "state without entries or amplitudes": lambda d: _state(d, '{"n_qubits": 2}'),
    "state entries of the wrong length": lambda d: _state(
        d, '{"n_qubits": 2, "entries": [[1, 0]]}'),
    "state make gsms2 --x nan": _make("gsms2", "--x", "nan", "--y", "0.1"),
    "state make gsms3 --y nan": _make("gsms3", "--x", "0", "--y", "nan"),
    "state make phn --x nan": _make("phn", "--x", "nan", "--n", "2"),
    "state make werner --theta-deg nan": _make("werner", "--theta-deg", "nan",
                                               "--v", "0.9", "--n", "2"),
    "pv on a nan density-matrix entry": lambda d: [
        "pv", _nan_state(d, "entries", _NAN_ENTRIES), "--samples", "10",
        "--out", str(d / "curve.csv")],
    "conc on a nan amplitude": lambda d: [
        "conc", "--method", "wootters",
        _nan_state(d, "amplitudes", "[[1, 0], [0, 0], [0, 0], [NaN, 0]]"),
        "--out", str(d / "curve.csv")],
    "exp pv --margin nan": _exp_pv_margin,
    # a seed is hashed as 16 unsigned bytes: one outside [0, 2**128) is refused
    **{f"{command} --seed {text}": _seed(command, seed)
       for command in ("pv", "dist", "sweep", "exp resample")
       for text, seed in (("-1", -1), ("2**128", 2 ** 128))},
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_INPUTS))
def test_non_finite_input_exits_2_with_one_line(tmp_path, capsys, case):
    args = NON_FINITE_INPUTS[case](tmp_path)
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert not list(tmp_path.glob("curve.csv*"))


@pytest.fixture(scope="module")
def w2_state(tmp_path_factory):
    state = tmp_path_factory.mktemp("state") / "w2.json"
    save_density_matrix(werner_like(np.pi / 4, 0.9, 2), state)
    return state


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(-2 ** 130, 2 ** 130) | st.sampled_from([-1, 0, 2 ** 128 - 1, 2 ** 128]))
def test_pv_takes_a_seed_in_range_and_refuses_any_other_with_one_line(w2_state, seed):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["pv", str(w2_state), "--samples", "10", "--seed", str(seed)])
    assert code == (0 if 0 <= seed < 2 ** 128 else 2)
    assert err.getvalue().count("\n") <= 1 and (code == 0) == (err.getvalue() == "")


# each family's flags, with values it accepts
_FAMILY_FLAGS = {
    "werner": {"--theta-deg": "45", "--v": "0.9", "--n": "2"},
    "gghz": {"--theta-deg": "30", "--n": "3"},
    "gsms2": {"--x": "0.1", "--y": "0.1"},
    "gsms3": {"--x": "0", "--y": "0.1"},
    "mems": {"--gamma": "0.8"},
    "phn": {"--x": "0.2", "--n": "3"},
    "basis": {"--bits": "010"},
}


@pytest.mark.parametrize("family", sorted(_FAMILY_FLAGS))
def test_state_make_names_each_missing_flag(tmp_path, capsys, family):
    flags = _FAMILY_FLAGS[family]
    assert main(_make(family, *[x for kv in flags.items() for x in kv])(tmp_path)) == 0
    for left_out in flags:
        capsys.readouterr()
        rest = [x for kv in flags.items() if kv[0] != left_out for x in kv]
        assert main(_make(family, *rest)(tmp_path)) == 2
        assert capsys.readouterr().err == \
            f"error: {left_out} is required for the {family} family\n"


def test_valid_fit_tables_of_the_non_finite_cases_pass(tmp_path):
    # the fit tables of MALFORMED_INPUTS fail by their nan row alone
    for command, text in (("refit", _pairs_text("pv,value", _PV_VALUE_ROWS)),
                          ("estimate-theta-v0", _pairs_text("v,pv", _V_PV_ROWS))):
        assert main(_fit_table(tmp_path, command, text)) == 0


def _fresh_python(code, *args):
    """Run `code` in a new interpreter: (exit code, stdout then stderr)."""
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def test_cli_import_leaves_scipy_optimize_out():
    # no scipy module at all: scipy.special alone costs a CLI start about 0.25 s
    code = "import sys, bellent.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    assert _fresh_python(code) == (0, "[]\n")


def test_commands_that_do_not_sample_leave_scipy_special_out(tmp_path):
    state = tmp_path / "w.json"
    save_density_matrix(werner_like(np.pi / 4, 0.9, 2), state)
    samples = tmp_path / "dist.csv"
    assert main(["dist", str(state), "--samples", "500", "--seed", "8",
                 "--out", str(samples)]) == 0
    rho3 = werner_like(np.pi / 4, 0.986, 3)
    cc = tmp_path / "run.csv"
    save_cc(add_poisson_noise(synth_cc_dataset(rho3, 8, seed=4, scale=4000.0), seed=5), cc)
    commands = [
        ["state", "make", "--family", "werner", "--theta-deg", "45", "--v", "0.9",
         "--n", "2", "--out", tmp_path / "made.json"],
        ["conc", state, "--method", "wootters", "--out", tmp_path / "conc.json"],
        ["fit", "eval", "--name", "c-lower-2q", "--pv", "5", "--out", tmp_path / "fit.json"],
        ["rescale", samples, "--v-from", "0.8", "--v-to", "1.0", "--v-step", "0.1",
         "--out", tmp_path / "curve.csv"],
        ["exp", "pv", "--in", cc, "--out", tmp_path / "pv.json"],
        ["exp", "resample", "--in", cc, "--statistic", "pv_cc", "--trials", "3",
         "--seed", "3", "--out", tmp_path / "resample.json"],
    ]
    code = ("import json, sys; from bellent.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(codes, 'scipy.special' in sys.modules)")
    argv = json.dumps([[str(a) for a in c] for c in commands])
    assert _fresh_python(code, argv) == (0, "[0, 0, 0, 0, 0, 0] False\n")


def test_first_draw_on_pool_threads_matches_one_worker(tmp_path):
    # the first draw of a fresh process runs the deferred scipy.special
    # import; with 2 workers both pool threads reach it at once
    state = tmp_path / "w.json"
    save_density_matrix(werner_like(np.pi / 4, 1.0, 2), state)
    outs = {w: tmp_path / f"pv{w}.json" for w in (1, 2)}
    code = ("import sys; from bellent.cli import main\n"
            "before = 'scipy.special' in sys.modules\n"
            "print(before, main(sys.argv[1:]), 'scipy.special' in sys.modules)")
    for w, out in outs.items():
        assert _fresh_python(code, "pv", state, "--samples", 2 * nlfrac.CHUNK, "--seed", 5,
                             "--workers", w, "--out", out) == (0, "False 0 True\n")
    one, two = (out.read_text() for out in outs.values())
    # the manifest digest hashes the --workers flag, so it alone differs
    digest = {w: json.loads(t)["manifest_digest"] for w, t in ((1, one), (2, two))}
    assert two.replace(digest[2], digest[1]) == one
    assert json.loads(one)["violations"] > 0


def test_workers_below_one_rejected(tmp_path, capsys):
    state = tmp_path / "w.json"
    assert main(["state", "make", "--family", "werner", "--theta-deg", "45",
                 "--v", "0.9", "--n", "2", "--out", str(state)]) == 0
    capsys.readouterr()
    for args in (["pv", str(state)],
                 ["dist", str(state), "--out", str(tmp_path / "d.csv")],
                 ["sweep", "--theta-deg", "45", "--n", "2", "--v-from", "0.9",
                  "--v-to", "1.0", "--out", str(tmp_path / "s.csv")]):
        assert main(args + ["--samples", "100", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert err == "error: worker count must be >= 1, got 0\n"
    assert not list(tmp_path.glob("d.csv*")) and not list(tmp_path.glob("s.csv*"))


@pytest.mark.parametrize("command", ["rescale", "sweep"])
def test_a_grid_point_rounded_past_v_to_is_v_to(tmp_path, command):
    # 0.116 + 52 * 0.017 is 1.0000000000000002, past every visibility check
    if command == "rescale":
        args = _samples(tmp_path, ["0.5", "1.2"])[:2]
    else:
        args = ["sweep", "--theta-deg", "45", "--n", "2", "--samples", "10"]
    out = tmp_path / "curve.csv"
    assert main(args + ["--v-from", "0.116", "--v-to", "1", "--v-step", "0.017",
                        "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 53 and rows[-1].split(",")[0] == "1"


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--family", "werner", "--theta-deg", "45", "--n",
                 "2", "--v-from", "0.8", "--v-to", "1.0", "--v-step", "0.05",
                 "--samples", "4000", "--seed", "2", "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["v", "p_v", "std_err", "concurrence"]
    assert len(rows) == 6
    pv = [float(r[1]) for r in rows[1:]]
    assert pv == sorted(pv)  # coarse monotonicity at these gaps
    conc = [float(r[3]) for r in rows[1:]]
    assert abs(conc[-1] - 1.0) < 1e-12


@pytest.mark.parametrize("n, workers", [(2, 1), (3, 2)])
def test_sweep_csv_is_a_row_per_one_state_estimate(tmp_path, n, workers):
    out = tmp_path / "sweep.csv"
    m = nlfrac.CHUNK + 100
    assert main(["sweep", "--theta-deg", "30", "--n", str(n), "--v-from", "0.7",
                 "--v-to", "1.0", "--v-step", "0.15", "--samples", str(m),
                 "--seed", "6", "--workers", str(workers), "--out", str(out)]) == 0
    theta = 30 * math.pi / 180.0
    closed = conc_closed_w2 if n == 2 else gme_closed_w3_xstate
    iset = default_set(n)
    lines = ["v,p_v,std_err,concurrence"]
    for k in range(3):
        v = 0.7 + k * 0.15
        est = nlfrac.estimate_pv(werner_like(theta, v, n), iset, m, 6)
        lines.append(",".join(format_float(x) for x in
                              (v, est.p_v, est.std_err, closed(theta, v))))
    assert out.read_text() == "\n".join(lines) + "\n"


def test_dist_rescale_pipeline(tmp_path):
    state = tmp_path / "ghz.json"
    assert main(["state", "make", "--family", "gghz", "--theta-deg", "45",
                 "--n", "2", "--out", str(state)]) == 0
    samples = tmp_path / "dist.csv"
    assert main(["dist", str(state), "--samples", "3000", "--seed", "8",
                 "--out", str(samples)]) == 0
    out = tmp_path / "rescaled.csv"
    assert main(["rescale", str(samples), "--v-from", "0.8", "--v-to", "1.0",
                 "--v-step", "0.1", "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["v", "p_v"]
    assert len(rows) == 4
    ps = [float(r[1]) for r in rows[1:]]
    assert all(b >= a for a, b in zip(ps, ps[1:]))


CH_FORM = Path(__file__).resolve().parent / "data" / "ch_form"
# estimate_pv's counts on the CH form at theta = 45 degrees, m = 200000, seed 3
CH_FORM_COUNTS = {0.75: 956, 0.85: 13911, 0.95: 40322, 1.0: 56698}


@pytest.mark.parametrize("workers", [1, 2])
def test_ch_form_counts_agree_on_every_route(tmp_path, workers):
    # every CH-form row has the constant term 0.5, so a sample's I_max at v
    # is not v times its I_max at 1; on the replay rows, sweep and dist +
    # rescale still count what estimate_pv counts at each v
    iset = load_inequality_dir(CH_FORM)
    assert set(iset.c_matrix[:, 0]) == {0.5}
    m = 200_000
    common = ["--samples", str(m), "--seed", "3", "--workers", str(workers),
              "--ineq-dir", str(CH_FORM)]
    grid = ["--v-from", "0.75", "--v-to", "1.0", "--v-step", "0.05"]
    state, samples = tmp_path / "w.json", tmp_path / "dist.csv"
    assert main(["state", "make", "--family", "werner", "--theta-deg", "45", "--v", "1",
                 "--n", "2", "--out", str(state)]) == 0
    assert main(["dist", str(state), *common, "--out", str(samples)]) == 0
    assert main(["rescale", str(samples), *grid, "--out", str(tmp_path / "r.csv")]) == 0
    assert main(["sweep", "--theta-deg", "45", "--n", "2", *grid, *common,
                 "--out", str(tmp_path / "s.csv")]) == 0
    rescaled = list(csv.reader((tmp_path / "r.csv").read_text().splitlines()[1:]))
    swept = list(csv.reader((tmp_path / "s.csv").read_text().splitlines()[1:]))
    assert [r[:2] for r in swept] == rescaled and len(rescaled) == 6
    checked = []
    for v_text, p_text in rescaled:
        v = float(v_text)
        want = CH_FORM_COUNTS.get(round(v, 9))
        if want is None:
            continue
        est = nlfrac.estimate_pv(werner_like(np.pi / 4, v, 2), iset, m, 3, workers)
        assert est.violations == want and float(p_text) == est.p_v
        checked.append(v)
    assert len(checked) == len(CH_FORM_COUNTS)


def test_fit_eval_and_refit(tmp_path):
    obj = json.loads(main_capture(["fit", "eval", "--name", "v-2q",
                                   "--theta-deg", "45", "--pv", "0"]))
    assert abs(obj["value"] - 1 / np.sqrt(2)) < 1e-12
    obj = json.loads(main_capture(["fit", "eval", "--name", "c-gme-pure3",
                                   "--pv", "20"]))
    assert obj["value"] == 1.0

    table = tmp_path / "pts.csv"
    pv = np.linspace(0.5, 20, 30)
    vals = 0.3 + 0.1 * pv ** 0.25 + 0.01 * np.sqrt(pv) - 1e-4 * pv
    with open(table, "w") as fh:
        fh.write("pv,value\n")
        for p, v in zip(pv, vals):
            fh.write(f"{float(p):.17g},{float(v):.17g}\n")
    out = tmp_path / "curve.json"
    assert main(["fit", "refit", "--in", str(table), "--basis", "2q",
                 "--out", str(out)]) == 0
    curve = json.loads(out.read_text())
    assert list(curve) == ["basis", "coefficients", "domain", "units", "provenance",
                           "rms", "manifest_digest"]
    assert curve["units"] == "percent"
    np.testing.assert_allclose(curve["coefficients"], [0.3, 0.1, 0.01, -1e-4],
                               atol=1e-8)


# `fit eval` values of every named fit, frozen from the hand-written formulas
# that the FitCurve constants replaced; `v-*` keys carry theta in degrees
FIT_EVAL_PV = (0.0, 0.5, 1.0, 5.0, 8.0, 11.7, 20.0, 30.0)
FIT_EVAL_PINS = {
    ("c-lower-2q", None): (0.0, 0.1692035990035079, 0.19872891646582283,
        0.2857420729316305, 0.3166212023652836, 0.34354767306691586,
        0.38456646121151133, 0.41798428792424486),
    ("c-mems", None): (0.7071067811865475, 0.7363999495037952, 0.7418107048634417,
        0.7584337855132263, 0.7646184256149069, 0.7701553411752277, 0.7788811431368953,
        0.7862855936743831),
    ("c-phn3", None): (0.0, 0.34912970569990287, 0.38949, 0.49869778485344896,
        0.5347270411520806, 0.5651846601512015, 0.6100254434747616,
        0.6452777727813576),
    ("c-gme-pure3", None): (0.0, 0.27645326344825966, 0.35777087639996635,
        0.6885957294741142, 0.8448110010438853, 1.0, 1.0, 1.0),
    ("c-gme-45", None): (0.512, 0.6727427034276785, 0.691012, 0.739908767757952,
        0.7558578900156977, 0.7692735663794519, 0.7889319435937272,
        0.8043402937049097),
    ("c-gme-35", None): (0.542, 0.6743670257060229, 0.6889520000000001,
        0.7271116179163354, 0.739225999744911, 0.7492708369876141, 0.7637385758975237,
        0.7748705796910568),
    ("v-2q", 10.0): (0.9461886483394653, 0.9645729914537028, 0.9682949219104897,
        0.9799028356441561, 0.9841219833695204, 0.9877568690779942, 0.9930495944635332,
        0.9969377551584709),
    ("v-2q", 25.0): (0.7938448060994456, 0.8095019148173869, 0.8131975684830174,
        0.8262003897065087, 0.831682421527684, 0.8368877038592593, 0.8456561167881677,
        0.8536283736481618),
    ("v-2q", 35.0): (0.7287394448186829, 0.7401556975725572, 0.7428415478349804,
        0.7523094495232496, 0.7563181192757571, 0.7601375768870359, 0.7666058024676354,
        0.7725293999930454),
    ("v-2q", 45.0): (0.7071067811865475, 0.7151393123699809, 0.7172557342518826,
        0.7250881477937542, 0.7285328087557865, 0.7318678327811882, 0.7376115600242651,
        0.7429569463523402),
    ("v-3q", 10.0): (0.9561517699501494, 0.9655042637956257, 0.9666747526578935,
        0.9701240135322206, 0.9714112082891474, 0.9725914837081193, 0.974541408531766,
        0.9763203946708119),
    ("v-3q", 25.0): (0.8524218715008923, 0.8935381702538391, 0.8985821686204207,
        0.9128580247297443, 0.9178346581592616, 0.9221769831299595, 0.9288418108040238,
        0.9343573294482241),
    ("v-3q", 35.0): (0.7524873193057124, 0.8374377119473886, 0.84683376613562,
        0.8714907060268879, 0.8793481308016525, 0.8858773152762904, 0.8953075534774372,
        0.9025874515486828),
    ("v-3q", 45.0): (0.7071067811865475, 0.803400095072168, 0.8143433282147637,
        0.8436305752013344, 0.853182920925988, 0.8612177401197362, 0.8729912013152455,
        0.882219308760456),
}


@pytest.mark.parametrize("name, theta_deg", list(FIT_EVAL_PINS))
def test_fit_eval_values_are_pinned(name, theta_deg):
    theta = [] if theta_deg is None else ["--theta-deg", repr(theta_deg)]
    got = [json.loads(main_capture(["fit", "eval", "--name", name,
                                    "--pv", repr(pv), *theta]))["value"]
           for pv in FIT_EVAL_PV]
    assert got == list(FIT_EVAL_PINS[name, theta_deg])


def test_fit_eval_names_the_missing_theta(capsys):
    assert main(["fit", "eval", "--name", "v-3q", "--pv", "5"]) == 2
    assert capsys.readouterr().err == \
        "error: --theta-deg is required for fit eval --name v-3q\n"


def test_fit_estimate_theta_v0(tmp_path):
    from bellent.fits import g1, g2, g3, v3cr
    th = np.deg2rad(35.0)
    pv = np.linspace(0.5, 10, 20)
    vs = (v3cr(th) + g1(th) * pv ** (1 / 6) + g2(th) * np.sqrt(pv)
          + g3(th) * pv) / 0.99
    table = tmp_path / "curve.csv"
    with open(table, "w") as fh:
        fh.write("v,pv\n")
        for v, p in zip(vs, pv):
            fh.write(f"{float(v):.17g},{float(p):.17g}\n")
    obj = json.loads(main_capture(["fit", "estimate-theta-v0", "--in",
                                   str(table)]))
    assert abs(obj["theta_deg"] - 35.0) < 0.3
    assert abs(obj["v0"] - 0.99) < 0.003


def test_exp_pipeline(tmp_path):
    rho = werner_like(np.pi / 4, 0.986, 3)
    ds = synth_cc_dataset(rho, 60, seed=4, scale=4000.0)
    cc = tmp_path / "run.csv"
    save_cc(ds, cc)
    basis_dir = tmp_path / "basis"
    basis_dir.mkdir()
    for k, b in enumerate(synth_basis_datasets(60, seed=4, scale=4000.0)):
        save_cc(b, basis_dir / f"basis{k:03b}.csv")

    mixed = tmp_path / "mixed.csv"
    assert main(["exp", "mix", "--state", str(cc), "--basis-dir",
                 str(basis_dir), "--vc", "0.9", "--out", str(mixed)]) == 0
    obj = json.loads(main_capture(["exp", "pv", "--in", str(mixed)]))
    assert 0.0 <= obj["p_v"] <= 1.0
    assert obj["interval_low"] <= obj["p_v"] <= obj["interval_high"]

    obj2 = json.loads(main_capture(["exp", "pv", "--in", str(cc)]))
    state3 = tmp_path / "state3.json"
    save_density_matrix(rho, state3)
    direct = json.loads(main_capture(["pv", "--samples", "60", "--seed", "4",
                                      str(state3)]))
    assert obj2["p_v"] == direct["p_v"]

    noisy = tmp_path / "noisy.csv"
    save_cc(add_poisson_noise(ds, seed=13), noisy)
    res = json.loads(main_capture(["exp", "resample", "--in", str(noisy),
                                   "--statistic", "pv_cc",
                                   "--trials", "3", "--seed", "3"]))
    assert np.isclose(res["std"] ** 2,
                      res["std_poisson"] ** 2 + res["std_sampling"] ** 2,
                      rtol=1e-12, atol=0.0)


def test_exp_resample_without_statistic_writes_the_pv_cc_bytes(tmp_path, manifest_inputs):
    # pv_cc is the one statistic: naming it or not makes the same result and manifest
    out = tmp_path / "r.json"
    argv = ["exp", "resample", "--in", str(manifest_inputs / "cc.csv"), "--trials", "3",
            "--seed", "5", "--out", str(out)]

    def result(extra):
        assert main(argv + extra) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        return out.read_bytes(), dict(manifest, timestamp=None)

    assert result([]) == result(["--statistic", "pv_cc"])


def test_ineq_dir_flag_and_manifest(tmp_path):
    ineq_dir = tmp_path / "ineqs"
    ineq_dir.mkdir()
    svet = ineq_dir / "svet.bellineq"
    svet.write_text(SVETLICHNY_TEXT)
    state = tmp_path / "w3.json"
    assert main(["state", "make", "--family", "werner", "--theta-deg", "45",
                 "--v", "1.0", "--n", "3", "--out", str(state)]) == 0
    out = tmp_path / "pv.json"
    assert main(["pv", str(state), "--samples", "2000", "--seed", "1",
                 "--ineq-dir", str(ineq_dir), "--out", str(out)]) == 0
    a = json.loads(out.read_text())
    assert a["set_tag"] == "dir:ineqs"
    manifest = json.loads((tmp_path / "pv.json.manifest.json").read_text())
    assert manifest["input_digests"][str(svet)] == hashlib.sha256(svet.read_bytes()).hexdigest()
    assert manifest["manifest_digest"] == a["manifest_digest"]
    # the same orbit as the default set, so the same count; the digest tells
    # the runs apart because the directory's files are inputs
    b = json.loads(main_capture(["pv", str(state), "--samples", "2000", "--seed", "1"]))
    assert b["set_tag"] == "svetlichny:lower-bound"
    assert b["p_v"] == a["p_v"] and b["manifest_digest"] != a["manifest_digest"]


def test_cli_entry_point_runs():
    code, out, _ = run_cli(["--help"])
    assert code == 0 and "state" in out


# ------------------------------------------------------------------ manifests

@pytest.fixture(scope="module")
def manifest_inputs(tmp_path_factory):
    """One input file of each kind a subcommand reads, and two input directories."""
    d = tmp_path_factory.mktemp("inputs")
    save_density_matrix(werner_like(np.pi / 4, 0.9, 2), d / "w2.json")
    save_density_matrix(werner_like(np.pi / 4, 0.9, 3), d / "w3.json")
    assert main(["dist", str(d / "w2.json"), "--samples", "200",
                 "--out", str(d / "samples.csv")]) == 0
    save_cc(add_poisson_noise(synth_cc_dataset(werner_like(np.pi / 4, 0.9, 3), 2, seed=1,
                                               scale=100.0), seed=2), d / "cc.csv")
    (d / "basis").mkdir()
    # written in reverse order: the manifest lists them sorted
    for k, ds in reversed(list(enumerate(synth_basis_datasets(2, seed=1)))):
        save_cc(ds, d / "basis" / f"basis{k:03b}.csv")
    (d / "pts.csv").write_text(_pairs_text("pv,value", _PV_VALUE_ROWS))
    (d / "curve.csv").write_text(_pairs_text("v,pv", _V_PV_ROWS))
    (d / "ineqs").mkdir()
    for name in ("svetlichny", "mermin"):
        text = resources.files("bellent").joinpath(f"data/{name}.bellineq").read_text()
        (d / "ineqs" / f"{name}.bellineq").write_text(text)
    (d / "crlf.csv").write_bytes((d / "cc.csv").read_bytes().replace(b"\n", b"\r\n"))
    return d


# case -> (argv, the keys of its input digests in read order, sorted args keys);
# "{d}" is the inputs directory, also the working directory; a case without
# --out writes to "result" beside it.  A file's `<file>.json` sidecar, which
# its loader reads, follows it, keyed by its normalized path
_SAMPLING_KEYS = ["ineq_dir", "out", "samples", "seed", "state", "workers"]
_MIX_INPUTS = ["{d}/cc.csv", "{d}/cc.csv.json"] + [
    f"{{d}}/basis/basis{k:03b}.csv{ext}" for k in range(8) for ext in ("", ".json")]
MANIFEST_CASES = {
    "state make": (["state", "make", "--family", "werner", "--theta-deg", "45",
                    "--v", "0.9", "--n", "2"], [],
                   ["bits", "family", "gamma", "n", "out", "theta_deg", "v", "x", "y"]),
    "pv": (["pv", "{d}/w2.json", "--samples", "100"], ["{d}/w2.json"], _SAMPLING_KEYS),
    "pv --ineq-dir": (["pv", "{d}/w3.json", "--samples", "100", "--ineq-dir", "{d}/ineqs"],
                      ["{d}/w3.json", "{d}/ineqs/mermin.bellineq",
                       "{d}/ineqs/svetlichny.bellineq"], _SAMPLING_KEYS),
    "sweep": (["sweep", "--theta-deg", "45", "--n", "2", "--v-from", "0.8",
               "--v-to", "1.0", "--v-step", "0.1", "--samples", "100"], [],
              ["closed_form", "family", "ineq_dir", "n", "out", "samples", "seed",
               "theta_deg", "v_from", "v_step", "v_to", "workers"]),
    "dist": (["dist", "{d}/w2.json", "--samples", "100"], ["{d}/w2.json"], _SAMPLING_KEYS),
    "rescale": (["rescale", "{d}/samples.csv", "--v-from", "0.8", "--v-to", "1.0"],
                ["{d}/samples.csv", "{d}/samples.csv.json"],
                ["out", "samples_file", "v_from", "v_step", "v_to"]),
    "conc": (["conc", "{d}/w2.json", "--method", "wootters"], ["{d}/w2.json"],
             ["method", "out", "state"]),
    "fit eval": (["fit", "eval", "--name", "c-lower-2q", "--pv", "5"], [],
                 ["name", "out", "pv", "theta_deg"]),
    "fit refit": (["fit", "refit", "--in", "{d}/pts.csv", "--basis", "2q"], ["{d}/pts.csv"],
                  ["basis", "infile", "out"]),
    "fit estimate-theta-v0": (["fit", "estimate-theta-v0", "--in", "{d}/curve.csv"],
                              ["{d}/curve.csv"], ["infile", "out"]),
    "exp mix": (["exp", "mix", "--state", "{d}/cc.csv", "--basis-dir", "{d}/basis",
                 "--vc", "0.9"], _MIX_INPUTS, ["basis_dir", "out", "state_cc", "vc"]),
    "exp pv": (["exp", "pv", "--in", "{d}/cc.csv"], ["{d}/cc.csv", "{d}/cc.csv.json"],
               ["ineq_dir", "infile", "margin", "out"]),
    # an input keeps the path it was given; its sidecar's path is normalized
    "exp pv ./": (["exp", "pv", "--in", "./cc.csv"], ["./cc.csv", "cc.csv.json"],
                  ["ineq_dir", "infile", "margin", "out"]),
    # its digest is of the file's bytes, though the loader reads \n newlines
    "exp pv CRLF": (["exp", "pv", "--in", "{d}/crlf.csv"], ["{d}/crlf.csv"],
                    ["ineq_dir", "infile", "margin", "out"]),
    "exp resample": (["exp", "resample", "--in", "{d}/cc.csv", "--statistic", "pv_cc",
                      "--trials", "2"], ["{d}/cc.csv", "{d}/cc.csv.json"],
                     ["ineq_dir", "infile", "out", "seed", "statistic", "trials"]),
}
# case -> argv whose --out names a file the command reads, in the inputs directory
OVERWRITE_CASES = {
    "rescale --out its input": ["rescale", "{d}/samples.csv", "--v-from", "0.8",
                                "--v-to", "1.0", "--out", "{d}/samples.csv"],
    "rescale --out ./its input": ["rescale", "samples.csv", "--v-from", "0.8",
                                  "--v-to", "1.0", "--out", "./samples.csv"],
    "rescale --out its sidecar": ["rescale", "{d}/samples.csv", "--v-from", "0.8",
                                  "--v-to", "1.0", "--out", "{d}/samples.csv.json"],
    "exp mix --out its input": ["exp", "mix", "--state", "{d}/cc.csv", "--basis-dir",
                                "{d}/basis", "--vc", "0.9", "--out", "{d}/cc.csv"],
    "pv --out its input": ["pv", "{d}/w2.json", "--samples", "100", "--out", "{d}/w2.json"],
}
# the commands that print their result when run without --out
_JSON_COMMANDS = ["pv", "pv --ineq-dir", "conc", "fit eval", "fit refit",
                  "fit estimate-theta-v0", "exp pv", "exp resample"]


@pytest.mark.parametrize("case", sorted(MANIFEST_CASES))
def test_manifest_lists_args_and_input_digests_in_order(
        tmp_path, manifest_inputs, monkeypatch, case):
    argv, inputs, arg_keys = MANIFEST_CASES[case]
    d = tmp_path / "inputs"
    shutil.copytree(manifest_inputs, d)
    monkeypatch.chdir(d)
    argv = [a.format(d=d) for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "result")]
    out = argv[argv.index("--out") + 1]
    # digested before the run, which may write over an input
    digests = [(key, hashlib.sha256(Path(key).read_bytes()).hexdigest())
               for key in (f.format(d=d) for f in inputs)]
    assert main(argv) == 0
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert manifest["command"] == " ".join(argv[:2] if argv[0] in ("state", "fit", "exp")
                                           else argv[:1])
    assert list(manifest["args"]) == arg_keys
    assert list(manifest["input_digests"].items()) == digests
    assert list(manifest) == ["command", "args", "seed", "versions", "input_digests",
                              "manifest_digest", "timestamp"]
    if case in _JSON_COMMANDS:
        assert json.loads(Path(out).read_text())["manifest_digest"] == \
            manifest["manifest_digest"]


@pytest.mark.parametrize("case", _JSON_COMMANDS)
def test_json_command_without_out_prints_only_its_result(
        tmp_path, manifest_inputs, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    argv = [a.format(d=manifest_inputs) for a in MANIFEST_CASES[case][0]]
    before = sorted(manifest_inputs.rglob("*"))
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.endswith("}\n") and "manifest_digest" in json.loads(out)
    assert list(tmp_path.iterdir()) == [] and sorted(manifest_inputs.rglob("*")) == before


def _files(d) -> dict:
    return {p: p.read_bytes() for p in d.rglob("*") if p.is_file()}


@pytest.mark.parametrize("case", sorted(OVERWRITE_CASES))
def test_an_out_that_names_an_input_exits_2_and_writes_nothing(
        tmp_path, manifest_inputs, monkeypatch, capsys, case):
    d = tmp_path / "inputs"
    shutil.copytree(manifest_inputs, d)
    monkeypatch.chdir(d)
    argv = [a.format(d=d) for a in OVERWRITE_CASES[case]]
    out = argv[argv.index("--out") + 1]
    before = _files(d)
    assert main(argv) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err == f"error: refusing to write {out}: this command read it\n"
    # the inputs are left as they were, and no manifest is written
    assert _files(d) == before


@pytest.mark.parametrize("case, out, blocker", [("pv", "r", "r.manifest.json"),
                                                ("dist", "s.csv", "s.csv.json")])
def test_a_command_that_fails_after_writing_leaves_no_output(
        tmp_path, manifest_inputs, capsys, case, out, blocker):
    # a directory where the command's last file goes makes it fail there
    (tmp_path / blocker).mkdir()
    argv = [a.format(d=manifest_inputs) for a in MANIFEST_CASES[case][0]]
    assert main(argv + ["--out", str(tmp_path / out)]) == 3
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith(f"error: cannot write {tmp_path / blocker}: ")
    assert err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == [blocker]


def test_editing_a_sidecar_tag_changes_the_manifest_digest(tmp_path, manifest_inputs):
    d = manifest_inputs
    state = tmp_path / "cc.csv"
    state.write_bytes((d / "cc.csv").read_bytes())
    meta = json.loads((d / "cc.csv.json").read_text())
    argv = ["exp", "mix", "--state", str(state), "--basis-dir", str(d / "basis"),
            "--vc", "0.9", "--out", str(tmp_path / "mixed.csv")]

    def digest_and_tag(tag):
        (tmp_path / "cc.csv.json").write_text(json.dumps(dict(meta, tag=tag)))
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "mixed.csv.manifest.json").read_text())
        assert str(state) + ".json" in manifest["input_digests"]
        out_tag = json.loads((tmp_path / "mixed.csv.json").read_text())["tag"]
        return manifest["manifest_digest"], out_tag

    first, first_tag = digest_and_tag("run-a")
    second, second_tag = digest_and_tag("run-b")
    assert first_tag.startswith("run-a") and second_tag.startswith("run-b")
    assert first != second


def test_in_process_commands_after_errors_match_a_fresh_process(tmp_path, capsys):
    # failed calls before a command must leave its output as a fresh
    # process writes it
    state = tmp_path / "w.json"
    save_density_matrix(werner_like(np.pi / 4, 0.9, 2), state)
    out = tmp_path / "pv.json"
    argv = ["pv", str(state), "--samples", "20000", "--seed", "5", "--out", str(out)]
    code, _, err = run_cli(argv)
    assert code == 0, err
    fresh = out.read_bytes(), json.loads((tmp_path / "pv.json.manifest.json").read_text())
    out.unlink()
    with pytest.raises(SystemExit) as exc:
        main(["pv", str(state), "--samples", "many"])
    assert exc.value.code == 2
    assert main(["pv", str(tmp_path / "missing.json"), "--samples", "10"]) == 3
    # a command that read its input and failed, and a read outside any command
    assert main(["conc", str(state), "--method", "gme-pure"]) == 2
    other = tmp_path / "other.json"
    save_density_matrix(werner_like(np.pi / 4, 0.5, 2), other)
    load_state(other)
    capsys.readouterr()
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "pv.json.manifest.json").read_text())
    assert out.read_bytes() == fresh[0]
    assert {k: v for k, v in manifest.items() if k != "timestamp"} == \
        {k: v for k, v in fresh[1].items() if k != "timestamp"}


@pytest.mark.parametrize("case", ["pv", "state make", "dist", "exp mix"])
def test_an_out_that_cannot_be_written_exits_3_with_one_line(
        tmp_path, manifest_inputs, capsys, case):
    out = tmp_path / "missing" / "result"
    argv = [a.format(d=manifest_inputs) for a in MANIFEST_CASES[case][0]]
    assert main(argv + ["--out", str(out)]) == 3
    stdout, err = capsys.readouterr()
    assert stdout == "" and err == f"error: cannot write {out}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case", ["pv", "pv --ineq-dir", "dist", "conc", "fit refit",
                                  "fit estimate-theta-v0"])
def test_a_stray_json_beside_an_input_whose_loader_reads_none_is_not_an_input(
        tmp_path, manifest_inputs, case):
    argv, inputs, _ = MANIFEST_CASES[case]
    d = tmp_path / "inputs"
    shutil.copytree(manifest_inputs, d)
    out = tmp_path / "result"
    argv = [a.format(d=d) for a in argv] + ["--out", str(out)]

    def manifest():
        assert main(argv) == 0
        return json.loads((tmp_path / "result.manifest.json").read_text())

    before = manifest()
    keys = [f.format(d=d) for f in inputs]
    for key in keys:
        Path(f"{key}.json").write_text('{"tag": "stray"}\n')
    after = manifest()
    assert list(after["input_digests"]) == keys
    assert after["manifest_digest"] == before["manifest_digest"]


# argv naming a value outside a flag's choices, and a choice the error lists
UNKNOWN_CHOICES = [(["fit", "eval", "--name", "nosuch", "--pv", "5"], "c-lower-2q"),
                   (["exp", "resample", "--in", "cc.csv", "--statistic", "nosuch"],
                    "pv_cc")]


@pytest.mark.parametrize("argv, choice", UNKNOWN_CHOICES,
                         ids=[" ".join(argv[:2]) for argv, _ in UNKNOWN_CHOICES])
def test_an_unknown_name_is_a_usage_error_listing_the_choices(capsys, argv, choice):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'nosuch'" in err and choice in err


# a command's own parser must read, help and fail as the full parser does
_PARSER_ARGVS = [[], ["-h"], ["nosuch"], ["exp"], ["exp", "nosuch"], ["fit", "-h"]]
for _path in (["state", "make"], ["pv"], ["sweep"], ["dist"], ["rescale"], ["conc"],
              ["fit", "eval"], ["fit", "refit"], ["fit", "estimate-theta-v0"],
              ["exp", "mix"], ["exp", "pv"], ["exp", "resample"]):
    _PARSER_ARGVS += [_path + ["-h"], _path, _path + ["in.json", "extra", "--no-such-flag"]]
# valid argvs, and the same with an unknown flag, which the top-level parser reports
_PARSER_ARGVS += [[a.format(d="d") for a in argv] + ["--out", "o"] + extra
                  for argv in [case[0] for case in MANIFEST_CASES.values()]
                  + list(OVERWRITE_CASES.values())
                  for extra in ([], ["--no-such-flag"])]
_PARSER_ARGVS += [argv for argv, _ in UNKNOWN_CHOICES]


@pytest.mark.parametrize("argv", _PARSER_ARGVS, ids=" ".join)
def test_a_command_parser_matches_the_full_parser(argv, capsys):
    def parse(parser):
        try:
            ns = parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code, capsys.readouterr()
        return vars(ns), capsys.readouterr()

    assert parse(_parser(_command_path(argv))) == parse(_parser(()))
