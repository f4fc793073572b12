import csv
import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

from bellent import nlfrac
from bellent.bell import default_set, serialize_inequality, svetlichny
from bellent.cli import main
from bellent.entanglement import conc_closed_w2, gme_closed_w3_xstate
from bellent.expdata import add_poisson_noise, save_cc, synth_basis_datasets, synth_cc_dataset
from bellent.qstate import DensityMatrix, format_float, save_density_matrix, werner_like


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


def _cc_with_sidecar(tmp_path, text):
    cc = tmp_path / "cc.csv"
    save_cc(synth_cc_dataset(werner_like(np.pi / 4, 0.9, 3), 2, seed=1), cc)
    (tmp_path / "cc.csv.json").write_text(text)
    return ["exp", "pv", "--in", str(cc)]


def _cc_with_fields(tmp_path, column, texts):
    """A count file whose field `column` of rows {row: text} is edited."""
    args = _cc_with_sidecar(tmp_path, '{"tag": "cc"}')
    cc = tmp_path / "cc.csv"
    lines = cc.read_text().splitlines()
    for row, text in texts.items():
        fields = lines[row].split(",")
        fields[column] = text
        lines[row] = ",".join(fields)
    cc.write_text("\n".join(lines) + "\n")
    return args


def _samples(tmp_path, rows, sidecar=True, header="i_max"):
    samples = tmp_path / "dist.csv"
    samples.write_text(f"{header}\n" + "".join(f"{r}\n" for r in rows))
    if sidecar:
        (tmp_path / "dist.csv.json").write_text(
            '{"state_tag": "s", "seed": 1, "m": 2, "set_tag": "chsh"}\n')
    return ["rescale", str(samples), "--v-from", "0.9", "--v-to", "1.0",
            "--out", str(tmp_path / "curve.csv")]


def _state(tmp_path, text):
    state = tmp_path / "state.json"
    state.write_text(text)
    return ["conc", "--method", "wootters", str(state)]


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
    "samples sidecar missing": lambda d: _samples(d, ["0.5", "1.2"], sidecar=False),
    "samples row not a float": lambda d: _samples(d, ["0.5", "1.2.3"]),
    "samples bad header": lambda d: _samples(d, ["0.5", "1.2"], header="imax"),
    "state bad json": lambda d: _state(d, '{"n_qubits": 2, "entries": [[1, 0],'),
    "state without n_qubits": lambda d: _state(d, '{"entries": [[1, 0]]}'),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_3_with_one_line(tmp_path, capsys, case):
    args = MALFORMED_INPUTS[case](tmp_path)
    assert main(args) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "curve.csv").exists()


def test_cli_import_leaves_scipy_optimize_out():
    code = "import sys, bellent.cli; sys.exit('scipy.optimize' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


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
    assert curve["units"] == "percent"
    np.testing.assert_allclose(curve["coefficients"], [0.3, 0.1, 0.01, -1e-4],
                               atol=1e-8)


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
                                   "--statistic", "total_counts",
                                   "--trials", "200", "--seed", "3"]))
    want = np.sqrt(res["mean"])
    assert abs(res["std"] - want) < 0.15 * want
    assert "std_sampling" not in res
    res = json.loads(main_capture(["exp", "resample", "--in", str(noisy),
                                   "--statistic", "pv_cc",
                                   "--trials", "3", "--seed", "3"]))
    assert np.isclose(res["std"] ** 2,
                      res["std_poisson"] ** 2 + res["std_sampling"] ** 2,
                      rtol=1e-12, atol=0.0)


def test_ineq_dir_flag_and_env(tmp_path, monkeypatch):
    ineq_dir = tmp_path / "ineqs"
    ineq_dir.mkdir()
    (ineq_dir / "svet.bellineq").write_text(serialize_inequality(svetlichny()))
    state = tmp_path / "w3.json"
    assert main(["state", "make", "--family", "werner", "--theta-deg", "45",
                 "--v", "1.0", "--n", "3", "--out", str(state)]) == 0
    a = json.loads(main_capture(["pv", str(state), "--samples", "2000",
                                 "--seed", "1", "--ineq-dir", str(ineq_dir)]))
    assert a["set_tag"] == "dir:ineqs"
    monkeypatch.setenv("BELLENT_INEQ_DIR", str(ineq_dir))
    b = json.loads(main_capture(["pv", str(state), "--samples", "2000",
                                 "--seed", "1"]))
    assert b["p_v"] == a["p_v"]
    monkeypatch.delenv("BELLENT_INEQ_DIR")
    c = json.loads(main_capture(["pv", str(state), "--samples", "2000",
                                 "--seed", "1"]))
    assert c["set_tag"] == "svetlichny:lower-bound"


def test_cli_entry_point_runs():
    code, out, _ = run_cli(["--help"])
    assert code == 0 and "state" in out
