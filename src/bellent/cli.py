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
import dataclasses
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import bell, entanglement, expdata, fits, nlfrac, qstate
from .errors import (DomainError, FitError, MissingDataError, ParameterError,
                     ParseError)


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
    """(digest, manifest dict) for this invocation; digest skips the timestamp.

    The files of an --ineq-dir count as inputs: they decide the results.
    """
    if getattr(ns, "ineq_dir", None):
        inputs = [*inputs, *bell.inequality_files(ns.ineq_dir)]
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


def _theta(ns, needed_by: str = "this family") -> float:
    if ns.theta_deg is None:
        raise ParameterError(f"--theta-deg is required for {needed_by}")
    return ns.theta_deg * math.pi / 180.0


def _resolve_set(ns, n_parties: int) -> bell.InequalitySet:
    if getattr(ns, "ineq_dir", None):
        iset = bell.load_inequality_dir(ns.ineq_dir)
        if iset.n_parties != n_parties:
            raise ParameterError(
                f"inequality directory is for {iset.n_parties} parties, "
                f"state has {n_parties}")
        return iset
    return bell.default_set(n_parties)


# cap on a visibility grid: far finer than a p_V(v) curve needs, and small
# enough that a mistyped --v-step fails with a message instead of MemoryError
MAX_V_POINTS = 100_000


def _v_grid(ns):
    qstate.check_visibility(ns.v_from)
    qstate.check_visibility(ns.v_to)
    if not 0.0 < ns.v_step < math.inf:
        raise ParameterError(f"--v-step must be positive and finite, got {ns.v_step!r}")
    steps = (ns.v_to - ns.v_from) / ns.v_step
    if steps >= MAX_V_POINTS - 1:
        raise ParameterError(
            f"visibility grid [{ns.v_from}, {ns.v_to}] in steps of {ns.v_step} "
            f"is over the {MAX_V_POINTS}-point limit")
    n = int(round(steps))
    grid = [ns.v_from + k * ns.v_step for k in range(n + 1)]
    grid = [v for v in grid if v <= ns.v_to + 1e-12]
    if not grid:
        raise ParameterError(f"empty visibility range [{ns.v_from}, {ns.v_to}]")
    return grid


# ------------------------------------------------------------------ state

# family -> (qstate constructor, its flags in call order); the constructor is
# looked up by name when called, so a wrapper put on the qstate attribute runs
_FAMILIES = {
    "werner": ("werner_like", ("theta_deg", "v", "n")),
    "gghz": ("gghz", ("theta_deg", "n")),
    "gsms2": ("gsms2", ("x", "y")),
    "gsms3": ("gsms3", ("x", "y")),
    "mems": ("mems", ("gamma",)),
    "phn": ("phn", ("x", "n")),
    "basis": ("basis_state", ("bits",)),
}


def cmd_state_make(ns) -> None:
    make, flags = _FAMILIES[ns.family]
    args = []
    for flag in flags:
        if getattr(ns, flag) is None:
            raise ParameterError(
                f"--{flag.replace('_', '-')} is required for the {ns.family} family")
        args.append(_theta(ns) if flag == "theta_deg" else getattr(ns, flag))
    obj = getattr(qstate, make)(*args)
    if isinstance(obj, qstate.PureState):
        qstate.save_pure_state(obj, ns.out)
    else:
        qstate.save_density_matrix(obj, ns.out)
    _write_manifest(ns.out, _manifest(ns, ())[1])


# ------------------------------------------------------------------ pv / dist

def cmd_pv(ns) -> None:
    rho = qstate.as_density_matrix(qstate.load_state(ns.state))
    iset = _resolve_set(ns, rho.n_qubits)
    est = nlfrac.estimate_pv(rho, iset, ns.samples, ns.seed, ns.workers)
    _emit(ns, dataclasses.asdict(est), inputs=[ns.state])


def cmd_sweep(ns) -> None:
    theta = _theta(ns)
    n = ns.n
    iset = _resolve_set(ns, n)
    form = ("w2" if n == 2 else "w3-xstate") if ns.closed_form == "auto" else ns.closed_form
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
    rho = qstate.as_density_matrix(qstate.load_state(ns.state))
    iset = _resolve_set(ns, rho.n_qubits)
    samples = nlfrac.violation_distribution(
        rho, iset, ns.samples, ns.seed, ns.workers, state_tag=Path(ns.state).stem)
    nlfrac.save_violation_samples(samples, ns.out)
    _write_manifest(ns.out, _manifest(ns, [ns.state])[1])


def cmd_rescale(ns) -> None:
    samples = nlfrac.load_violation_samples(ns.samples_file)
    lines = ["v,p_v"]
    for v in _v_grid(ns):
        p_v = nlfrac.pv_from_distribution(samples, v)
        lines.append(f"{qstate.format_float(v)},{qstate.format_float(p_v)}")
    Path(ns.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(ns.out, _manifest(ns, [ns.samples_file])[1])


# ------------------------------------------------------------------ conc

def cmd_conc(ns) -> None:
    state = qstate.load_state(ns.state)
    method = ns.method
    if method == "wootters":
        value = entanglement.concurrence2(qstate.as_density_matrix(state))
    elif method == "gme-xstate":
        dec = entanglement.xstate_decompose(qstate.as_density_matrix(state))
        value = entanglement.gme_concurrence_xstate(dec)
    else:  # gme-pure, the last of the parser's choices
        if not isinstance(state, qstate.PureState):
            raise ParameterError("gme-pure needs a pure-state file")
        value = entanglement.gme_concurrence_pure(state)
    _emit(ns, {"method": method, "value": value}, inputs=[ns.state])


# ------------------------------------------------------------------ fit

# name -> (fits function, whether it takes theta before p_V)
_FIT_EVALS = {
    "v-2q": (fits.v_from_pv_2q, True),
    "v-3q": (fits.v_from_pv_3q, True),
    "c-lower-2q": (fits.c_lower_2q, False),
    "c-mems": (fits.c_mems_fit, False),
    "c-phn3": (fits.c_phn3_fit, False),
    "c-gme-pure3": (fits.c_gme_pure3_fit, False),
    "c-gme-45": (fits.c_gme_45_fit, False),
    "c-gme-35": (fits.c_gme_35_fit, False),
}


def cmd_fit_eval(ns) -> None:
    if ns.name not in _FIT_EVALS:
        raise ParameterError(
            f"unknown fit {ns.name!r}; expected one of {sorted(_FIT_EVALS)}")
    fit, takes_theta = _FIT_EVALS[ns.name]
    args = (_theta(ns, f"fit eval --name {ns.name}"),) if takes_theta else ()
    obj = {"name": ns.name, "pv_percent": ns.pv, "value": fit(*args, ns.pv),
           "units": "percent"}
    if takes_theta:
        obj["theta_deg"] = ns.theta_deg
    _emit(ns, obj)


def _read_pairs(path, expected_header):
    lines = qstate.read_text(path, "file").splitlines()
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
    _emit(ns, dict(dataclasses.asdict(curve), rms=rms), inputs=[ns.infile])


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
    obj = dict(dataclasses.asdict(res.estimate), interval_low=res.interval_low,
               interval_high=res.interval_high,
               n_excluded_records=res.n_excluded_records)
    _emit(ns, obj, inputs=[ns.infile])


def cmd_exp_resample(ns) -> None:
    dataset = expdata.load_cc(ns.infile)
    iset = _resolve_set(ns, 3) if ns.statistic == "pv_cc" else None
    res = expdata.poisson_resample(dataset, ns.statistic, ns.trials, ns.seed, iset=iset)
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
                   help="directory of .bellineq files (default: the bundled set)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellent",
        description="Entanglement estimation from Bell-violation statistics.")
    sub = parser.add_subparsers(dest="command", required=True)

    st = sub.add_parser("state", help="state construction").add_subparsers(
        dest="subcommand", required=True)
    mk = st.add_parser("make", help="write a state JSON file")
    mk.add_argument("--family", required=True, choices=list(_FAMILIES))
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
