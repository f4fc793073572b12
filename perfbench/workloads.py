"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one caller: request i starts when
request i-1 has returned.  A workload builds everything it needs from the
run seed in `setup`; `request(i)` returns (units of work, observed value)
and raises `CheckFailed` when an output is wrong.  The observed value is
an integer violation count (or a list of them); for the default seed it is
compared against the counts frozen in ``frozen.json``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

DEFAULT_SEED = 1


class CheckFailed(Exception):
    """An output of the program is wrong."""


def request_seed(seed: int, i: int) -> int:
    """A fresh sampling seed per request, so no request can reuse another's draws."""
    return seed * 1_000_000 + i


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Workload:
    """Shared by the three workloads; `uses_cli` names the import timed in set-up."""

    uses_cli = True
    nonzero_exits = 0

    def imports(self) -> None:
        from bellent import cli  # noqa: F401

    def frozen_key(self, i: int) -> int:
        """Index into this workload's list in frozen.json."""
        return i

    def _run_cli(self, argv) -> None:
        """One in-process `bellent` command; a nonzero exit fails the request."""
        from bellent import cli
        try:
            # looked up per call so the traced run's wrapper on cli.main is seen
            rc = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            rc = exc.code
        if rc != 0:
            self.nonzero_exits += 1
            raise CheckFailed(f"bellent {' '.join(map(str, argv[:2]))} exited {rc}")


class Pv2(Workload):
    """Library calls, one thread: the plain Monte Carlo baseline.

    Why: no orbit build, CLI, file IO or thread pool per request, so the RNG,
    behavior kernel and reduction are all the request does.  A change to any
    of the skipped layers must read "no change" here.
    """

    name = "pv2"
    uses_cli = False
    # about 2 s a request: the machine's speed changes over seconds, so a
    # short request lands wholly in a fast or a slow spell and the median
    # of a run jumps between the two; a 2-s request averages over them
    CHUNKS = 64
    V_GRID = tuple(0.75 + 0.025 * k for k in range(11))
    frozen_requests = 24

    def imports(self) -> None:
        from bellent import bell, fits, nlfrac, qstate  # noqa: F401

    def setup(self, workdir: Path, seed: int) -> None:
        from bellent import bell, nlfrac
        self.seed = seed
        self.m = self.CHUNKS * nlfrac.CHUNK
        self.iset = bell.default_set(2)

    def request(self, i: int):
        from bellent import fits, nlfrac, qstate
        v = self.V_GRID[i % len(self.V_GRID)]
        est = nlfrac.estimate_pv(qstate.werner_like(math.pi / 4, v, 2), self.iset,
                                 self.m, request_seed(self.seed, i), workers=1)
        c = fits.c_lower_2q(100.0 * est.p_v)
        p0 = nlfrac.pv_werner2_closed(v)
        sigma = math.sqrt(p0 * (1.0 - p0) / self.m)
        _check(est.m == self.m and est.violations == round(est.p_v * self.m),
               f"v={v}: inconsistent estimate {est}")
        _check(abs(est.p_v - p0) <= 5.0 * sigma,
               f"v={v}: p_V {est.p_v} is more than 5 sigma from {p0}")
        _check(0.0 <= c <= 1.0, f"v={v}: concurrence bound {c} outside [0, 1]")
        return self.m, est.violations


class Sweep3(Workload):
    """In-process CLI, two workers: one p_V(v) curve of a GHZ-type state.

    Why: the N=3 behavior kernel dominates, every `dist`/`sweep` command
    rebuilds the 16-member Svetlichny orbit, it is the only workload with a
    thread pool, and it draws the same settings four times per request
    (`dist` once, `sweep` at three visibilities) and writes then reads an
    M-row samples CSV.  Settings reuse, orbit caching and pool changes move
    it; M spans two chunks so both workers get work.
    """

    name = "sweep3"
    WORKERS = 2
    CHUNKS = 2
    THETAS_DEG = (45.0, 35.0, 30.0, 20.0)
    # the sweep grid's values appear bit-identically in the rescale grid
    SWEEP_GRID = ("0.7", "1.0", "0.15")
    CURVE_GRID = ("0.7", "1.0", "0.005")
    frozen_requests = 32

    def setup(self, workdir: Path, seed: int) -> None:
        from bellent import nlfrac
        self.seed = seed
        self.dir = workdir
        self.m = self.CHUNKS * nlfrac.CHUNK

    def request(self, i: int):
        d = self.dir
        theta = self.THETAS_DEG[i % len(self.THETAS_DEG)]
        seed = request_seed(self.seed, i)
        common = ["--samples", self.m, "--seed", seed, "--workers", self.WORKERS]
        self._run_cli(["state", "make", "--family", "gghz", "--theta-deg", theta, "--n", 3,
                       "--out", d / "psi.json"])
        self._run_cli(["dist", d / "psi.json", *common, "--out", d / "samples.csv"])
        vf, vt, vs = self.CURVE_GRID
        self._run_cli(["rescale", d / "samples.csv", "--v-from", vf, "--v-to", vt,
                       "--v-step", vs, "--out", d / "curve.csv"])
        vf, vt, vs = self.SWEEP_GRID
        self._run_cli(["sweep", "--theta-deg", theta, "--n", 3, "--v-from", vf,
                       "--v-to", vt, "--v-step", vs, *common, "--out", d / "sweep.csv"])

        curve = {row["v"]: float(row["p_v"]) for row in _read_csv(d / "curve.csv")}
        counts = [round(p * self.m) for p in curve.values()]
        _check(all(c / self.m == p for c, p in zip(counts, curve.values())),
               "curve p_V is not a count over M")
        _check(counts == sorted(counts), "curve p_V decreases with visibility")
        sweep = _read_csv(d / "sweep.csv")
        _check(len(sweep) == 3, f"sweep has {len(sweep)} rows, expected 3")
        for row in sweep:
            # threshold-rescaling identity: direct sampling at v equals the
            # pure-state samples thresholded at 1/v, bit for bit
            _check(row["v"] in curve, f"sweep v={row['v']} missing from the rescale grid")
            _check(float(row["p_v"]) == curve[row["v"]],
                   f"theta={theta} v={row['v']}: sweep p_V {row['p_v']} != "
                   f"rescaled {curve[row['v']]}")
        return 4 * self.m, counts


class Cc3(Workload):
    """In-process CLI on coincidence-count CSVs: the experimentalist's route.

    Why: no Monte Carlo per request; the time goes to CSV parsing (11 loads
    per request), orbit builds, block grouping (1+T calls) and Poisson
    redraws, with writes beside the reads.  Kernel changes must read "no
    change" here; count-pipeline changes move it.
    """

    name = "cc3"
    # fewer blocks than a photonic run's hundreds: 64 blocks and 2 trials keep
    # a request near 2 s, so a run holds 15-20 requests and their median is
    # steady; at 200 blocks and 4 trials a run held 4-5 and spread too far
    BLOCKS = 64
    SCALE = 4000.0          # about 500 counts per outcome
    VISIBILITY = 0.986
    TRIALS = 2
    VC_GRID = (1.0, 0.99, 0.98, 0.97, 0.96, 0.95, 0.94, 0.93)
    frozen_requests = len(VC_GRID)

    def setup(self, workdir: Path, seed: int) -> None:
        from bellent import bell, expdata, nlfrac, qstate
        self.seed = seed
        self.dir = workdir
        rho = qstate.werner_like(math.pi / 4, self.VISIBILITY, 3)
        iset = bell.default_set(3)
        # closure: exact counts and the Monte Carlo see the same settings
        exact = expdata.pv_cc(expdata.synth_cc_dataset(rho, self.BLOCKS, seed), iset)
        mc = nlfrac.estimate_pv(rho, iset, self.BLOCKS, seed)
        _check(exact.estimate.violations == mc.violations and exact.estimate.p_v == mc.p_v,
               f"closure: pv_cc {exact.estimate.violations} != estimate_pv {mc.violations}")
        raw = expdata.add_poisson_noise(
            expdata.synth_cc_dataset(rho, self.BLOCKS, seed, self.SCALE), seed)
        self.p_raw = expdata.pv_cc(raw, iset).estimate.p_v
        expdata.save_cc(raw, workdir / "raw.csv")
        basis_dir = workdir / "basis"
        basis_dir.mkdir(exist_ok=True)
        for k, ds in enumerate(expdata.synth_basis_datasets(self.BLOCKS, seed, self.SCALE)):
            noisy = expdata.add_poisson_noise(ds, seed + 1 + k)
            expdata.save_cc(noisy, basis_dir / f"{ds.tag}.csv")

    def frozen_key(self, i: int) -> int:
        return i % len(self.VC_GRID)

    def request(self, i: int):
        d = self.dir
        vc = self.VC_GRID[i % len(self.VC_GRID)]
        self._run_cli(["exp", "mix", "--state", d / "raw.csv", "--basis-dir", d / "basis",
                       "--vc", vc, "--out", d / "mixed.csv"])
        self._run_cli(["exp", "pv", "--in", d / "mixed.csv", "--out", d / "pv.json"])
        self._run_cli(["exp", "resample", "--in", d / "raw.csv", "--statistic", "pv_cc",
                       "--trials", self.TRIALS, "--seed", request_seed(self.seed, i),
                       "--out", d / "resample.json"])

        pv = json.loads((d / "pv.json").read_text(encoding="utf-8"))
        _check(pv["m"] == self.BLOCKS and pv["n_excluded_records"] == 0,
               f"v_c={vc}: {pv['m']} blocks, {pv['n_excluded_records']} records excluded")
        _check(pv["violations"] == round(pv["p_v"] * self.BLOCKS),
               f"v_c={vc}: p_V is not a count over the blocks")
        _check(0.0 <= pv["interval_low"] <= pv["p_v"] <= pv["interval_high"] <= 1.0,
               f"v_c={vc}: margin interval does not bracket p_V")
        rs = json.loads((d / "resample.json").read_text(encoding="utf-8"))
        # bounds only: the resampling scheme is expected to change
        _check(rs["trials"] == self.TRIALS and abs(rs["mean"] - self.p_raw) <= 0.05
               and 0.0 <= rs["std"] <= 0.05,
               f"resample mean {rs['mean']} / std {rs['std']} out of bounds "
               f"around p_V {self.p_raw}")
        # the margin interval's counts too: on 64 blocks most v_c give 0 violations
        counts = [pv["violations"], round(pv["interval_low"] * self.BLOCKS),
                  round(pv["interval_high"] * self.BLOCKS)]
        return self.BLOCKS * (1 + self.TRIALS), counts


WORKLOADS = {w.name: w for w in (Pv2, Sweep3, Cc3)}
