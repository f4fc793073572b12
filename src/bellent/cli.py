"""Command-line front end emitting machine-readable JSON/CSV tables.

Each command is one `_COMMANDS` row: help, function, whether that writes
its own --out file or returns a JSON object, and its other arguments.
`main` alone writes the object, to --out or stdout, and, whenever --out is
given, the companion `<out>.manifest.json` recording the command, flags,
seed, library versions, and input digests.  The inputs are the files the
command read, in read order, each hashed as read (`files.recording_reads`);
an --out naming one is refused, and a failed command removes what it wrote.
JSON outputs embed the manifest digest (computed without the timestamp, so
identical runs produce identical output bytes).  Angles cross this
boundary in degrees and are converted to radians exactly once.

Exit codes: 0 success, 2 parameter error (an --out naming an input too),
3 missing data (an input that cannot be read or parsed, an output that
cannot be written), 4 domain error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, bell, entanglement, expdata, files, fits, nlfrac, qstate
from .errors import (BellentError, DomainError, FitError, MissingDataError,
                     ParameterError, ParseError)


def _manifest(ns, inputs: dict) -> dict:
    """The manifest of this invocation; its `manifest_digest` skips the timestamp.

    `inputs` is the command's `files.recording_reads` log.
    """
    sub = getattr(ns, "subcommand", None)
    args = {}
    for k, v in sorted(vars(ns).items()):
        if k in ("func", "command", "subcommand"):
            continue
        args[k] = str(v) if isinstance(v, Path) else v
    core = {
        "command": f"{ns.command} {sub}" if sub else ns.command,
        "args": args,
        "seed": args.get("seed"),
        "versions": {
            "bellent": __version__,
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        },
        "input_digests": inputs,
    }
    digest = hashlib.sha256(
        json.dumps(core, sort_keys=True).encode("utf-8")).hexdigest()
    return dict(core, manifest_digest=digest,
                timestamp=time.strftime("%Y-%m-%dT%H:%M:%S%z"))


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
    # refused before the step count, which is -inf for a tiny step
    if ns.v_to < ns.v_from:
        raise ParameterError(f"empty visibility range [{ns.v_from}, {ns.v_to}]")
    steps = (ns.v_to - ns.v_from) / ns.v_step
    if steps >= MAX_V_POINTS - 1:
        raise ParameterError(
            f"visibility grid [{ns.v_from}, {ns.v_to}] in steps of {ns.v_step} "
            f"is over the {MAX_V_POINTS}-point limit")
    n = int(round(steps))
    grid = [ns.v_from + k * ns.v_step for k in range(n + 1)]
    return [min(v, ns.v_to) for v in grid if v <= ns.v_to + 1e-12]  # rounding past --v-to


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


# ------------------------------------------------------------------ pv / dist

def cmd_pv(ns) -> dict:
    rho = qstate.as_density_matrix(qstate.load_state(ns.state))
    iset = _resolve_set(ns, rho.n_qubits)
    return dataclasses.asdict(nlfrac.estimate_pv(rho, iset, ns.samples, ns.seed, ns.workers))


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
    # one pass on the noiseless state, thresholded at 1/v for the whole grid
    samples = nlfrac.violation_distribution(qstate.werner_like(theta, 1.0, n), iset,
                                            ns.samples, ns.seed, ns.workers)
    ests = [nlfrac.PvEstimate.of_count(samples.violations(v), ns.samples, iset.tag) for v in grid]
    files.write_table(ns.out, "v,p_v,std_err,concurrence",
                      [grid, [e.p_v for e in ests], [e.std_err for e in ests],
                       [closed(theta, v) for v in grid]])


def cmd_dist(ns) -> None:
    rho = qstate.as_density_matrix(qstate.load_state(ns.state))
    iset = _resolve_set(ns, rho.n_qubits)
    samples = nlfrac.violation_distribution(
        rho, iset, ns.samples, ns.seed, ns.workers, state_tag=Path(ns.state).stem)
    nlfrac.save_violation_samples(samples, ns.out)


def cmd_rescale(ns) -> None:
    samples = nlfrac.load_violation_samples(ns.samples_file)
    grid = _v_grid(ns)
    files.write_table(ns.out, "v,p_v",
                      [grid, [nlfrac.pv_from_distribution(samples, v) for v in grid]])


# ------------------------------------------------------------------ conc

def cmd_conc(ns) -> dict:
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
    return {"method": method, "value": value}


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


def cmd_fit_eval(ns) -> dict:
    fit, takes_theta = _FIT_EVALS[ns.name]
    args = (_theta(ns, f"fit eval --name {ns.name}"),) if takes_theta else ()
    obj = {"name": ns.name, "pv_percent": ns.pv, "value": fit(*args, ns.pv),
           "units": "percent"}
    if takes_theta:
        obj["theta_deg"] = ns.theta_deg
    return obj


def cmd_fit_refit(ns) -> dict:
    pairs = files.read_table(ns.infile, "pv,value", "fit table")
    basis = fits.BASIS_2Q if ns.basis == "2q" else fits.BASIS_3Q
    curve, rms = fits.refit(pairs, basis, provenance=f"refit:{Path(ns.infile).stem}")
    return dict(dataclasses.asdict(curve), rms=rms)


def cmd_fit_estimate(ns) -> dict:
    theta, v0, rms = fits.estimate_theta_v0(files.read_table(ns.infile, "v,pv", "fit table"))
    return {"theta_deg": theta * 180.0 / math.pi, "v0": v0, "rms": rms}


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


def cmd_exp_pv(ns) -> dict:
    dataset = expdata.load_cc(ns.infile)
    iset = _resolve_set(ns, 3)
    res = expdata.pv_cc(dataset, iset, ns.margin)
    return dict(dataclasses.asdict(res.estimate), interval_low=res.interval_low,
                interval_high=res.interval_high,
                n_excluded_records=res.n_excluded_records)


def cmd_exp_resample(ns) -> dict:
    res = expdata.poisson_resample(expdata.load_cc(ns.infile), _resolve_set(ns, 3),
                                   ns.trials, ns.seed)
    return {"statistic": ns.statistic, "trials": ns.trials, "mean": res.mean,
            "std": res.std, "std_poisson": res.std_poisson, "std_sampling": res.std_sampling}


# ------------------------------------------------------------------ parser

def _add_common(p, samples_default=1_000_000):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--samples", "-m", type=int, default=samples_default)
    p.add_argument("--ineq-dir", default=None,
                   help="directory of .bellineq files (default: the bundled set)")


def _state_make_args(p):
    p.add_argument("--family", required=True, choices=list(_FAMILIES))
    p.add_argument("--theta-deg", type=float, default=None)
    p.add_argument("--v", type=float, default=None)
    p.add_argument("--n", type=int, default=None, choices=[2, 3])
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--y", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--bits", default=None)


def _pv_args(p):
    p.add_argument("state")
    _add_common(p)


def _sweep_args(p):
    p.add_argument("--family", default="werner", choices=["werner"])
    p.add_argument("--theta-deg", type=float, required=True)
    p.add_argument("--n", type=int, required=True, choices=[2, 3])
    p.add_argument("--v-from", type=float, required=True)
    p.add_argument("--v-to", type=float, required=True)
    p.add_argument("--v-step", type=float, default=0.01)
    p.add_argument("--closed-form", default="auto",
                   choices=["auto", "w2", "w3-xstate", "w3-printed"])
    _add_common(p, samples_default=100_000)


def _dist_args(p):
    p.add_argument("state")
    _add_common(p, samples_default=100_000)


def _rescale_args(p):
    p.add_argument("samples_file")
    p.add_argument("--v-from", type=float, required=True)
    p.add_argument("--v-to", type=float, required=True)
    p.add_argument("--v-step", type=float, default=0.01)


def _conc_args(p):
    p.add_argument("state")
    p.add_argument("--method", required=True,
                   choices=["wootters", "gme-xstate", "gme-pure"])


def _fit_eval_args(p):
    p.add_argument("--name", required=True, choices=list(_FIT_EVALS))
    p.add_argument("--pv", type=float, required=True, help="p_V in percent")
    p.add_argument("--theta-deg", type=float, default=None)


def _fit_refit_args(p):
    p.add_argument("--in", dest="infile", required=True, help="CSV with header pv,value")
    p.add_argument("--basis", required=True, choices=["2q", "3q"])


def _fit_estimate_args(p):
    p.add_argument("--in", dest="infile", required=True, help="CSV with header v,pv")


def _exp_mix_args(p):
    p.add_argument("--state", dest="state_cc", required=True)
    p.add_argument("--basis-dir", required=True)
    p.add_argument("--vc", type=float, required=True)


def _exp_pv_args(p):
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--margin", type=float, default=expdata.DEFAULT_MARGIN)
    p.add_argument("--ineq-dir", default=None)


def _exp_resample_args(p):
    p.add_argument("--in", dest="infile", required=True)
    # p_V is the one statistic; the flag stays accepted for scripts that name it
    p.add_argument("--statistic", default="pv_cc", choices=["pv_cc"])
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ineq-dir", default=None)


# command -> (help, its cmd_* function, whether that writes its own --out
# file, the function adding its other arguments), or, for a group, (help,
# {subcommand: row}), in the order the help lists them.  --out is required
# of a command writing its own file, and optional (stdout) for a JSON object
_COMMANDS = {
    "state": ("state construction", {
        "make": ("write a state JSON file", cmd_state_make, True, _state_make_args)}),
    "pv": ("estimate the nonlocal fraction", cmd_pv, False, _pv_args),
    "sweep": ("p_V and concurrence over a visibility grid", cmd_sweep, True, _sweep_args),
    "dist": ("violation-strength samples", cmd_dist, True, _dist_args),
    "rescale": ("p_V(v) by threshold shifting", cmd_rescale, True, _rescale_args),
    "conc": ("concurrence of a state file", cmd_conc, False, _conc_args),
    "fit": ("fit curves", {
        "eval": ("evaluate a named fit", cmd_fit_eval, False, _fit_eval_args),
        "refit": ("least squares on a fractional-power basis", cmd_fit_refit, False,
                  _fit_refit_args),
        "estimate-theta-v0": ("recover (theta, v0) from a curve", cmd_fit_estimate, False,
                              _fit_estimate_args)}),
    "exp": ("coincidence-count analysis", {
        "mix": ("white-noise admixture of normalized counts", cmd_exp_mix, True, _exp_mix_args),
        "pv": ("nonlocal fraction from counts", cmd_exp_pv, False, _exp_pv_args),
        "resample": ("uncertainty of p_V from counts: count noise plus block sampling",
                     cmd_exp_resample, False, _exp_resample_args)}),
}


def _command_path(argv) -> tuple:
    """The command, and in a group its subcommand, that argv starts with; () if none."""
    table, path = _COMMANDS, ()
    for word in argv:
        if word not in table:
            return ()
        path += (word,)
        spec = table[word][1]
        if not isinstance(spec, dict):
            return path
        table = spec
    return ()


def _add_commands(parser, dest, table, path) -> None:
    # for one command, only its subparser is built; the metavar is the text
    # argparse makes of the full choices, so usage lines read the same
    sub = parser.add_subparsers(dest=dest, required=True,
                                metavar="{%s}" % ",".join(table) if path else None)
    for name, (help_text, spec, *command) in table.items():
        if path and name != path[0]:
            continue
        p = sub.add_parser(name, help=help_text)
        if isinstance(spec, dict):
            _add_commands(p, "subcommand", spec, path[1:])
            continue
        writes_file, add_args = command
        add_args(p)
        # last, as each command's help lists it
        p.add_argument("--out", required=writes_file)
        p.set_defaults(func=spec)


def _parser(path) -> argparse.ArgumentParser:
    """The `bellent` parser with the subparsers on `path` only, or all for ().

    `main` builds only the subparser of the command its arguments name,
    which saves most of the parser's cost and parses, helps and fails with
    the same output.  Arguments that name no command (none, `-h`, an
    unknown command) get the full parser, whose help and errors list them all.
    """
    parser = argparse.ArgumentParser(
        prog="bellent",
        description="Entanglement estimation from Bell-violation statistics.")
    _add_commands(parser, "command", _COMMANDS, path)
    return parser


# error type -> exit code
_EXIT_CODES = ((ParameterError, 2), (MissingDataError, 3), (ParseError, 3),
               (DomainError, 4), (FitError, 4))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = _parser(_command_path(argv)).parse_args(argv)
    with files.recording_reads() as (inputs, written):
        try:
            obj = ns.func(ns)
            manifest = _manifest(ns, inputs)
            if obj is not None:
                files.write_json(ns.out, dict(obj, manifest_digest=manifest["manifest_digest"]))
            if ns.out:
                files.write_json(f"{ns.out}.manifest.json", manifest)
        except BellentError as exc:
            # a failed command leaves none of its output behind
            for path in written:
                with contextlib.suppress(OSError):
                    Path(path).unlink()
            print(f"error: {exc}", file=sys.stderr)
            return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    return 0


if __name__ == "__main__":
    sys.exit(main())
