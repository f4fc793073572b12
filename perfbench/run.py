"""Benchmark of the bellent p_V chain: one workload per call, or all three.

    python3 perfbench/run.py --workload pv2 --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in a fresh interpreter (worker.py).  Untraced, set-up
is repeated in further fresh interpreters and its median reported; the
measured process then runs the closed loop for --seconds.  With --trace 1
one process alternates traced and untraced requests and reports the
per-module metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pv2", "sweep3", "cc3")
SETUP_RUNS = 5              # fresh interpreters whose set-up time is the median
BUDGET_S = 170.0            # one workload run, set-ups included

WORK_UNIT = {"pv2": "Haar settings evaluated", "sweep3": "Haar settings evaluated",
             "cc3": "blocks Bell-tested"}

END_TO_END = {"setup_s": "s", "req_p50_s": "s", "req_tail_s": "s",
              "work_per_s": "1/s", "peak_rss_mib": "MiB"}

PER_LAYER = {
    "rng.us_per_sample": "us", "rng.samples_per_req": "count", "rng.redraw_ratio": "ratio",
    "bell.behaviors.us_per_sample": "us", "bell.reduce.us_per_sample": "us",
    "bell.orbit.s": "s", "bell.orbit.builds_per_req": "count", "bell.orbit.size": "count",
    "nlfrac.self_us_per_sample": "us", "nlfrac.chunks_per_req": "count",
    "nlfrac.par_eff": "ratio", "nlfrac.idle_s_per_req": "s",
    "nlfrac.samples_io.us_per_sample": "us", "nlfrac.import_s": "s",
    "qstate.ms_per_req": "ms",
    "expdata.load_cc.us_per_record": "us", "expdata.save_cc.us_per_record": "us",
    "expdata.mix.ms_per_block": "ms", "expdata.group_blocks.ms_per_block": "ms",
    "expdata.group_blocks.calls_per_req": "count", "expdata.pv_cc.self_ms_per_block": "ms",
    "expdata.resample.ms_per_trial": "ms", "expdata.block_yield": "ratio",
    "cli.import_s": "s", "cli.self_ms_per_cmd": "ms", "cli.nonzero_exits": "count",
    "trace.overhead_frac": "ratio", "trace.coverage_frac": "ratio",
}


class BenchError(Exception):
    pass


def _worker(name, seed, seconds, trace, setup_only, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{name}: out of time before starting a worker")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{name}: worker exceeded the {BUDGET_S:.0f} s budget") from None
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"{name}: worker exited {proc.returncode}\n{stderr.strip()}")
    return json.loads(stdout.strip().splitlines()[-1])


def tail(latencies):
    """(value, percentile, n): the highest nearest-rank percentile with at
    least 10 requests above it, never below the median."""
    xs = sorted(latencies)
    n = len(xs)
    rank = n - 10
    if rank < math.ceil(n / 2):
        return statistics.median(xs), 50.0, n
    return xs[rank - 1], 100.0 * rank / n, n


def run_workload(name, seed, seconds, trace, deadline):
    # set-up takes about a second, so one slow spell of the machine moves
    # it; the extra set-ups run half before and half after the timed loop,
    # so their median samples the whole run
    extra = 0 if trace else SETUP_RUNS - 1
    setups = [_worker(name, seed, seconds, 0, True, deadline)["setup_s"]
              for _ in range(extra // 2)]
    res = _worker(name, seed, seconds, trace, False, deadline)
    setups.append(res["setup_s"])
    setups += [_worker(name, seed, seconds, 0, True, deadline)["setup_s"]
               for _ in range(extra - extra // 2)]
    lat = res["latencies"]
    correct = res["failed"] == 0 and not res["setup_failed"]
    lines = [f"workload {name}  seed {seed}  seconds {seconds:g}  trace {trace}",
             "env " + json.dumps(res["env"], sort_keys=True)]
    for f in res["failures"]:
        lines.append("FAILED " + f.strip().replace("\n", "\n    "))
    e2e = {}
    if lat:
        value, pct, n = tail(lat)
        e2e = {"setup_s": statistics.median(setups), "req_p50_s": statistics.median(lat),
               "req_tail_s": value, "work_per_s": res["work"] / sum(lat),
               "peak_rss_mib": res["peak_rss_mib"]}
        notes = {"setup_s": f"median over {len(setups)} fresh interpreter(s)",
                 "req_p50_s": f"{n} requests",
                 "req_tail_s": f"p{pct:.0f} of {n} requests"
                 + (", too few for a tail" if pct == 50.0 else ", 10 beyond"),
                 "work_per_s": WORK_UNIT[name], "peak_rss_mib": "workload process"}
        for k, unit in END_TO_END.items():
            lines.append(f"{k:<14}{e2e[k]:<14.6g}{unit:<6}({notes[k]})")
    lines.append(f"{'fail_frac':<14}{res['failed'] / res['attempted']:<14.6g}{'':<6}"
                 f"({res['failed']} of {res['attempted']} requests failed, "
                 f"{res['nonzero_exits']} nonzero CLI exits)")
    if trace:
        if res["exact_errors"]:
            raise BenchError(f"{name}: exact counts did not repeat: "
                             + "; ".join(res["exact_errors"]))
        metrics = {k: {"value": res["layer"][k], "unit": u} for k, u in PER_LAYER.items()}
        for k, m in metrics.items():
            lines.append(f"{k:<36}{m['value']:<14.6g}{m['unit']}")
        lines.append("calling-thread share of request time: " + "  ".join(
            f"{k} {v:.3f}" for k, v in res["layer_shares"].items()))
    else:
        if not lat:
            correct = False
        metrics = {k: {"value": e2e.get(k, 0.0), "unit": u} for k, u in END_TO_END.items()}
    print("\n".join(lines), flush=True)
    return {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bellent" / "__init__.py").is_file():
        print(f"error: no bellent source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + BUDGET_S
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
