"""Command-line front end emitting machine-readable JSON/CSV tables.

Every file-producing invocation writes a companion `<out>.manifest.json`
recording the command, flags, seed, library versions, and input digests;
JSON outputs embed the manifest digest (computed without the timestamp, so
identical runs produce identical output bytes).  Angles cross this boundary
in degrees and are converted to radians exactly once.

Exit codes: 0 success, 2 parameter error, 3 missing data, 4 domain error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import bell, entanglement, expdata, fits, nlfrac, qstate
from .errors import (DomainError, FitError, MissingDataError, ParameterError,
                     ParseError)

INEQ_DIR_ENV = "BELLENT_INEQ_DIR"


def _version() -> str:
    try:
        from importlib.metadata import version
        return version("bellent")
    except Exception:
        return "unknown"


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest(ns, inputs) -> tuple:
    """(digest, manifest dict) for this invocation; digest skips the timestamp."""
    args = {}
    for k, v in sorted(vars(ns).items()):
        if k in ("func", "command", "subcommand"):
            continue
        args[k] = str(v) if isinstance(v, Path) else v
    core = {
        "command": ns.command if not getattr(ns, "subcommand", None)
        else f"{ns.command} {ns.subcommand}",
        "args": args,
        "seed": args.get("seed"),
        "versions": {
            "bellent": _version(),
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        },
        "input_digests": {str(p): _sha256(p) for p in inputs if Path(p).is_file()},
    }
    digest = hashlib.sha256(
        json.dumps(core, sort_keys=True).encode("utf-8")).hexdigest()
    manifest = dict(core)
    manifest["manifest_digest"] = digest
    manifest["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    return digest, manifest


def _emit(ns, obj: dict, inputs=()) -> None:
    """Write JSON output (with manifest digest) to --out or stdout."""
    digest, manifest = _manifest(ns, inputs)
    obj = dict(obj)
    obj["manifest_digest"] = digest
    text = json.dumps(obj, indent=2) + "\n"
    out = getattr(ns, "out", None)
    if out:
        Path(out).write_text(text, encoding="utf-8")
        _write_manifest(out, manifest)
    else:
        sys.stdout.write(text)


def _write_manifest(out, manifest: dict) -> None:
    Path(str(out) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _theta(ns) -> float:
    if ns.theta_deg is None:
        raise ParameterError("--theta-deg is required for this family")
    return ns.theta_deg * math.pi / 180.0


def _resolve_set(ns, n_parties: int) -> bell.InequalitySet:
    ineq_dir = getattr(ns, "ineq_dir", None) or os.environ.get(INEQ_DIR_ENV)
    if ineq_dir:
        iset = bell.load_inequality_dir(ineq_dir)
        if iset.n_parties != n_parties:
            raise ParameterError(
                f"inequality directory is for {iset.n_parties} parties, "
                f"state has {n_parties}")
        return iset
    return bell.default_set(n_parties)


def _load_density(path) -> qstate.DensityMatrix:
    if not Path(path).is_file():
        raise MissingDataError(f"no such state file: {path}")
    return qstate.as_density_matrix(qstate.load_state(path))


def _v_grid(ns):
    if ns.v_step <= 0:
        raise ParameterError(f"--v-step must be positive, got {ns.v_step!r}")
    n = int(round((ns.v_to - ns.v_from) / ns.v_step))
    grid = [ns.v_from + k * ns.v_step for k in range(n + 1)]
    grid = [v for v in grid if v <= ns.v_to + 1e-12]
    if not grid:
        raise ParameterError(f"empty visibility range [{ns.v_from}, {ns.v_to}]")
    return grid


# ------------------------------------------------------------------ state

def cmd_state_make(ns) -> None:
    fam = ns.family
    if fam == "werner":
        obj = qstate.werner_like(_theta(ns), _req(ns, "v"), _req_n(ns))
    elif fam == "gghz":
        obj = qstate.gghz(_theta(ns), _req_n(ns))
    elif fam == "gsms2":
        obj = qstate.gsms2(_req(ns, "x"), _req(ns, "y"))
    elif fam == "gsms3":
        obj = qstate.gsms3(_req(ns, "x"), _req(ns, "y"))
    elif fam == "mems":
        obj = qstate.mems(_req(ns, "gamma"))
    elif fam == "phn":
        obj = qstate.phn(_req(ns, "x"), _req_n(ns))
    elif fam == "basis":
        if not ns.bits:
            raise ParameterError("--bits is required for the basis family")
        obj = qstate.basis_state(ns.bits)
    else:
        raise ParameterError(f"unknown family {fam!r}")
    if isinstance(obj, qstate.PureState):
        qstate.save_pure_state(obj, ns.out)
    else:
        qstate.save_density_matrix(obj, ns.out)
    _write_manifest(ns.out, _manifest(ns, ())[1])


def _req(ns, name: str) -> float:
    v = getattr(ns, name, None)
    if v is None:
        raise ParameterError(f"--{name.replace('_', '-')} is required for this family")
    return v


def _req_n(ns) -> int:
    if ns.n is None:
        raise ParameterError("--n is required for this family")
    return ns.n


# ------------------------------------------------------------------ pv / dist

def cmd_pv(ns) -> None:
    rho = _load_density(ns.state)
    iset = _resolve_set(ns, rho.n_qubits)
    est = nlfrac.estimate_pv(rho, iset, ns.samples, ns.seed, ns.workers)
    _emit(ns, {"p_v": est.p_v, "std_err": est.std_err, "m": est.m,
               "violations": est.violations, "set_tag": est.set_tag},
          inputs=[ns.state])


def cmd_sweep(ns) -> None:
    theta = _theta(ns)
    n = _req_n(ns)
    iset = _resolve_set(ns, n)
    if ns.closed_form == "auto":
        form = "w2" if n == 2 else "w3-xstate"
    else:
        form = ns.closed_form
    closed = {
        "w2": entanglement.conc_closed_w2,
        "w3-xstate": entanglement.gme_closed_w3_xstate,
        "w3-printed": entanglement.gme_closed_w3_as_printed,
    }[form]
    if (form == "w2") != (n == 2):
        raise ParameterError(f"closed form {form!r} does not fit n = {n}")
    grid = _v_grid(ns)
    # one pass over the settings for the whole grid
    ests = nlfrac.estimate_pvs([qstate.werner_like(theta, v, n) for v in grid],
                               iset, ns.samples, ns.seed, ns.workers)
    lines = ["v,p_v,std_err,concurrence"]
    for v, est in zip(grid, ests):
        lines.append(",".join(qstate.format_float(x) for x in
                              (v, est.p_v, est.std_err, closed(theta, v))))
    Path(ns.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(ns.out, _manifest(ns, ())[1])


def cmd_dist(ns) -> None:
    rho = _load_density(ns.state)
    iset = _resolve_set(ns, rho.n_qubits)
    samples = nlfrac.violation_distribution(
        rho, iset, ns.samples, ns.seed, ns.workers, state_tag=Path(ns.state).stem)
    nlfrac.save_violation_samples(samples, ns.out)
    _write_manifest(ns.out, _manifest(ns, [ns.state])[1])


def cmd_rescale(ns) -> None:
    if not Path(ns.samples_file).is_file():
        raise MissingDataError(f"no such samples file: {ns.samples_file}")
    samples = nlfrac.load_violation_samples(ns.samples_file)
    lines = ["v,p_v"]
    for v in _v_grid(ns):
        p_v = nlfrac.pv_from_distribution(samples, v)
        lines.append(f"{qstate.format_float(v)},{qstate.format_float(p_v)}")
    Path(ns.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(ns.out, _manifest(ns, [ns.samples_file])[1])


# ------------------------------------------------------------------ conc

def cmd_conc(ns) -> None:
    if not Path(ns.state).is_file():
        raise MissingDataError(f"no such state file: {ns.state}")
    state = qstate.load_state(ns.state)
    method = ns.method
    if method == "wootters":
        value = entanglement.concurrence2(qstate.as_density_matrix(state))
    elif method == "gme-xstate":
        dec = entanglement.xstate_decompose(qstate.as_density_matrix(state))
        value = entanglement.gme_concurrence_xstate(dec)
    elif method == "gme-pure":
        if not isinstance(state, qstate.PureState):
            raise ParameterError("gme-pure needs a pure-state file")
        value = entanglement.gme_concurrence_pure(state)
    else:
        raise ParameterError(f"unknown method {method!r}")
    _emit(ns, {"method": method, "value": value}, inputs=[ns.state])


# ------------------------------------------------------------------ fit

_FIT_EVALS = {
    "v-2q": lambda th, p: fits.v_from_pv_2q(th, p),
    "v-3q": lambda th, p: fits.v_from_pv_3q(th, p),
    "c-lower-2q": lambda th, p: fits.c_lower_2q(p),
    "c-mems": lambda th, p: fits.c_mems_fit(p),
    "c-phn3": lambda th, p: fits.c_phn3_fit(p),
    "c-gme-pure3": lambda th, p: fits.c_gme_pure3_fit(p),
    "c-gme-45": lambda th, p: fits.c_gme_45_fit(p),
    "c-gme-35": lambda th, p: fits.c_gme_35_fit(p),
}


def cmd_fit_eval(ns) -> None:
    if ns.name not in _FIT_EVALS:
        raise ParameterError(
            f"unknown fit {ns.name!r}; expected one of {sorted(_FIT_EVALS)}")
    theta = None
    if ns.name in ("v-2q", "v-3q"):
        theta = _theta(ns)
    value = _FIT_EVALS[ns.name](theta, ns.pv)
    obj = {"name": ns.name, "pv_percent": ns.pv, "value": value, "units": "percent"}
    if theta is not None:
        obj["theta_deg"] = ns.theta_deg
    _emit(ns, obj)


def _read_pairs(path, expected_header):
    if not Path(path).is_file():
        raise MissingDataError(f"no such file: {path}")
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != expected_header:
        raise ParseError(f"{path}: expected header {expected_header!r}")
    pairs = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"{path}: expected 2 fields", line=lineno)
        try:
            pairs.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ParseError(f"{path}: bad number", line=lineno) from None
    return pairs


def cmd_fit_refit(ns) -> None:
    pairs = _read_pairs(ns.infile, "pv,value")
    basis = fits.BASIS_2Q if ns.basis == "2q" else fits.BASIS_3Q
    curve, rms = fits.refit(pairs, basis, provenance=f"refit:{Path(ns.infile).stem}")
    obj = json.loads(curve.to_json())
    obj["rms"] = rms
    _emit(ns, obj, inputs=[ns.infile])


def cmd_fit_estimate(ns) -> None:
    pairs = _read_pairs(ns.infile, "v,pv")
    theta, v0, rms = fits.estimate_theta_v0(pairs)
    _emit(ns, {"theta_deg": theta * 180.0 / math.pi, "v0": v0, "rms": rms},
          inputs=[ns.infile])


# ------------------------------------------------------------------ exp

def cmd_exp_mix(ns) -> None:
    state_cc = expdata.normalize_cc(expdata.load_cc(ns.state_cc))
    basis_dir = Path(ns.basis_dir)
    files = sorted(basis_dir.glob("*.csv")) if basis_dir.is_dir() else []
    if len(files) != 8:
        raise MissingDataError(
            f"need exactly 8 basis CSV files in {basis_dir}, found {len(files)}")
    basis = [expdata.normalize_cc(expdata.load_cc(f)) for f in files]
    mixed = expdata.mix_counts(state_cc, basis, ns.vc)
    expdata.save_cc(mixed, ns.out)
    _write_manifest(ns.out, _manifest(ns, [ns.state_cc] + files)[1])


def cmd_exp_pv(ns) -> None:
    dataset = expdata.load_cc(ns.infile)
    iset = _resolve_set(ns, 3)
    res = expdata.pv_cc(dataset, iset, ns.margin)
    _emit(ns, json.loads(res.to_json()), inputs=[ns.infile])


def cmd_exp_resample(ns) -> None:
    dataset = expdata.load_cc(ns.infile)
    iset = _resolve_set(ns, 3) if ns.statistic == "pv_cc" else None
    res = expdata.poisson_resample(
        dataset, ns.statistic, ns.trials, ns.seed, iset=iset, margin=ns.margin)
    obj = {"statistic": ns.statistic, "trials": ns.trials,
           "mean": res.mean, "std": res.std}
    if res.std_sampling is not None:
        obj.update(std_poisson=res.std_poisson, std_sampling=res.std_sampling)
    _emit(ns, obj, inputs=[ns.infile])


# ------------------------------------------------------------------ parser

def _add_common(p, samples_default=1_000_000):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--samples", "-m", type=int, default=samples_default)
    p.add_argument("--ineq-dir", default=None,
                   help=f"inequality directory (or ${INEQ_DIR_ENV})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellent",
        description="Entanglement estimation from Bell-violation statistics.")
    sub = parser.add_subparsers(dest="command", required=True)

    st = sub.add_parser("state", help="state construction").add_subparsers(
        dest="subcommand", required=True)
    mk = st.add_parser("make", help="write a state JSON file")
    mk.add_argument("--family", required=True,
                    choices=["werner", "gghz", "gsms2", "gsms3", "mems", "phn", "basis"])
    mk.add_argument("--theta-deg", type=float, default=None)
    mk.add_argument("--v", type=float, default=None)
    mk.add_argument("--n", type=int, default=None, choices=[2, 3])
    mk.add_argument("--x", type=float, default=None)
    mk.add_argument("--y", type=float, default=None)
    mk.add_argument("--gamma", type=float, default=None)
    mk.add_argument("--bits", default=None)
    mk.add_argument("--out", required=True)
    mk.set_defaults(func=cmd_state_make)

    pv = sub.add_parser("pv", help="estimate the nonlocal fraction")
    pv.add_argument("state")
    _add_common(pv)
    pv.add_argument("--out", default=None)
    pv.set_defaults(func=cmd_pv)

    sw = sub.add_parser("sweep", help="p_V and concurrence over a visibility grid")
    sw.add_argument("--family", default="werner", choices=["werner"])
    sw.add_argument("--theta-deg", type=float, required=True)
    sw.add_argument("--n", type=int, required=True, choices=[2, 3])
    sw.add_argument("--v-from", type=float, required=True)
    sw.add_argument("--v-to", type=float, required=True)
    sw.add_argument("--v-step", type=float, default=0.01)
    sw.add_argument("--closed-form", default="auto",
                    choices=["auto", "w2", "w3-xstate", "w3-printed"])
    _add_common(sw, samples_default=100_000)
    sw.add_argument("--out", required=True)
    sw.set_defaults(func=cmd_sweep)

    ds = sub.add_parser("dist", help="violation-strength samples")
    ds.add_argument("state")
    _add_common(ds, samples_default=100_000)
    ds.add_argument("--out", required=True)
    ds.set_defaults(func=cmd_dist)

    rs = sub.add_parser("rescale", help="p_V(v) by threshold shifting")
    rs.add_argument("samples_file")
    rs.add_argument("--v-from", type=float, required=True)
    rs.add_argument("--v-to", type=float, required=True)
    rs.add_argument("--v-step", type=float, default=0.01)
    rs.add_argument("--out", required=True)
    rs.set_defaults(func=cmd_rescale)

    cc = sub.add_parser("conc", help="concurrence of a state file")
    cc.add_argument("state")
    cc.add_argument("--method", required=True,
                    choices=["wootters", "gme-xstate", "gme-pure"])
    cc.add_argument("--out", default=None)
    cc.set_defaults(func=cmd_conc)

    ft = sub.add_parser("fit", help="fit curves").add_subparsers(
        dest="subcommand", required=True)
    fe = ft.add_parser("eval", help="evaluate a named fit")
    fe.add_argument("--name", required=True)
    fe.add_argument("--pv", type=float, required=True, help="p_V in percent")
    fe.add_argument("--theta-deg", type=float, default=None)
    fe.add_argument("--out", default=None)
    fe.set_defaults(func=cmd_fit_eval)
    fr = ft.add_parser("refit", help="least squares on a fractional-power basis")
    fr.add_argument("--in", dest="infile", required=True,
                    help="CSV with header pv,value")
    fr.add_argument("--basis", required=True, choices=["2q", "3q"])
    fr.add_argument("--out", default=None)
    fr.set_defaults(func=cmd_fit_refit)
    fs = ft.add_parser("estimate-theta-v0", help="recover (theta, v0) from a curve")
    fs.add_argument("--in", dest="infile", required=True, help="CSV with header v,pv")
    fs.add_argument("--out", default=None)
    fs.set_defaults(func=cmd_fit_estimate)

    ex = sub.add_parser("exp", help="coincidence-count analysis").add_subparsers(
        dest="subcommand", required=True)
    em = ex.add_parser("mix", help="white-noise admixture of normalized counts")
    em.add_argument("--state", dest="state_cc", required=True)
    em.add_argument("--basis-dir", required=True)
    em.add_argument("--vc", type=float, required=True)
    em.add_argument("--out", required=True)
    em.set_defaults(func=cmd_exp_mix)
    ep = ex.add_parser("pv", help="nonlocal fraction from counts")
    ep.add_argument("--in", dest="infile", required=True)
    ep.add_argument("--margin", type=float, default=expdata.DEFAULT_MARGIN)
    ep.add_argument("--ineq-dir", default=None)
    ep.add_argument("--out", default=None)
    ep.set_defaults(func=cmd_exp_pv)
    er = ex.add_parser(
        "resample",
        help="uncertainty of a statistic: count noise, plus block sampling for pv_cc")
    er.add_argument("--in", dest="infile", required=True)
    er.add_argument("--statistic", required=True)
    er.add_argument("--trials", type=int, default=100)
    er.add_argument("--seed", type=int, default=0)
    er.add_argument("--margin", type=float, default=expdata.DEFAULT_MARGIN)
    er.add_argument("--ineq-dir", default=None)
    er.add_argument("--out", default=None)
    er.set_defaults(func=cmd_exp_resample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        ns.func(ns)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MissingDataError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, FitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
