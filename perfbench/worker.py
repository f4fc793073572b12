"""One workload in a fresh interpreter: set up, run the closed loop, report.

Started by run.py; the last line of standard output is one JSON object with
the raw measurements (latencies, work, memory, environment and, when
traced, the per-module metrics).  BLAS is pinned to one thread before numpy
is imported, so the process never runs more threads than the workload's
own workers.
"""

import os

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, CheckFailed  # noqa: E402

# a run always has a few timed requests, so medians and the traced/untraced
# alternation exist even when one request outlasts --seconds
MIN_REQUESTS = 4
# requests run, checked and counted before timing starts, so first-call
# costs (lazy imports, cold caches) stay out of the medians
WARMUP = 1


def _proc_status(key: str) -> str:
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "process_threads_after_setup": int(_proc_status("Threads")),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before this process started")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]()
    workdir = HERE / "_run" / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, wl, workdir: Path) -> int:
    t = time.perf_counter()
    wl.imports()
    import_s = {"cli" if wl.uses_cli else "nlfrac": time.perf_counter() - t}
    rec = tracing.Recorder() if args.trace else None
    if rec:
        rec.install()
    failures = []
    try:
        wl.setup(workdir, args.seed)
    except CheckFailed as exc:
        failures.append(f"setup: {exc}")
    setup_failed = bool(failures)
    setup_s = time.monotonic() - args.t0
    out = {"workload": wl.name, "setup_s": setup_s, "env": environment(args.seed)}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    frozen = {}
    if args.seed == DEFAULT_SEED:
        frozen = json.loads((HERE / "frozen.json").read_text(encoding="utf-8"))[wl.name]
    untraced, work = [], 0
    attempted = failed = 0
    deadline = math.inf
    i = 0
    while i < WARMUP + MIN_REQUESTS or time.perf_counter() < deadline:
        if i == WARMUP:
            deadline = time.perf_counter() + args.seconds
        # the traced run alternates, so traced and untraced requests see the
        # same machine conditions and their medians give the overhead
        is_traced = rec is not None and i % 2 == 1
        if is_traced:
            rec.install()
        elif rec:
            rec.uninstall()
        span = rec.request_span(i) if is_traced else contextlib.nullcontext()
        attempted += 1
        t = time.perf_counter()
        try:
            with span:
                units, observed = wl.request(i)
            latency = time.perf_counter() - t
            key = wl.frozen_key(i)
            if key < len(frozen) and observed != frozen[key]:
                raise CheckFailed(f"request {i}: violation counts {observed} != frozen "
                                  f"{frozen[key]}")
        except CheckFailed as exc:
            failed += 1
            failures.append(f"request {i}: {exc}")
        except Exception:  # a traceback out of the program fails the request
            failed += 1
            failures.append(f"request {i}: {traceback.format_exc(limit=3)}")
        else:
            if i >= WARMUP and not is_traced:
                untraced.append(latency)
                work += units
        i += 1
    if rec:
        rec.uninstall()

    out.update({
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:5],
        "setup_failed": setup_failed,
        "latencies": untraced,
        "work": work,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "nonzero_exits": wl.nonzero_exits,
    })
    if rec:
        p50 = statistics.median(untraced) if untraced else 0.0
        layer, errors, shares = tracing.layer_metrics(rec.spans, p50, import_s)
        layer["cli.nonzero_exits"] = wl.nonzero_exits
        rec.write_spans(HERE / "_run" / f"spans-{wl.name}-seed{args.seed}.jsonl")
        out.update({"layer": layer, "exact_errors": errors, "layer_shares": shares})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
