"""Span recorder for the traced run, attached to bellent from the outside.

`Recorder.install` replaces public functions at each module boundary with a
wrapper that records one span per call: name, start, end, parent span,
thread and request id.  Nothing inside ``src/`` is edited; the attribute is
patched in the module namespace where callers look it up (for example
``nlfrac.batch_i_max``, which nlfrac imported by name from ``bell``).

The current span lives in a ContextVar.  ``nlfrac`` runs its chunks on a
``ThreadPoolExecutor``; the traced run swaps that name for an executor that
carries the submitting context into each task, so chunk spans on pool
threads point at the ``estimate_pv``/``violation_distribution`` span that
caused them rather than starting a new tree.

Spans stay in memory; `write_spans` dumps them once, at exit.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor

_current = contextvars.ContextVar("perfbench_span", default=None)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "request", "attrs")

    def __init__(self, sid, name, parent, request):
        self.id = sid
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.request = request
        self.start = self.end = 0.0
        self.attrs = {}

    @property
    def dur(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class _ContextExecutor(ThreadPoolExecutor):
    """ThreadPoolExecutor whose tasks run in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _targets():
    """(span name, module, attribute, attrs(bound arguments, result) -> dict or None)."""
    from bellent import _rng, bell, cli, expdata, fits, nlfrac, qstate

    def n_rows(key):
        return lambda a, r: {"samples": a[key].shape[0]}

    return [
        ("rng.bloch_directions", _rng, "bloch_directions",
         lambda a, r: {"samples": a["count"], "tag": a["tag"], "seed": a["seed"],
                       "first": a["start"]}),
        ("bell.behaviors", bell, "batch_behaviors", n_rows("dirs")),
        ("bell.behaviors", expdata, "batch_behaviors", n_rows("dirs")),
        ("bell.reduce", nlfrac, "batch_i_max", n_rows("dirs")),
        ("bell.orbit", bell, "expand_relabelings", lambda a, r: {"size": len(r)}),
        ("bell.default_set", bell, "default_set", None),
        ("nlfrac.estimate_pv", nlfrac, "estimate_pv",
         lambda a, r: {"samples": a["m"], "workers": max(1, a.get("workers", 1))}),
        ("nlfrac.violation_distribution", nlfrac, "violation_distribution",
         lambda a, r: {"samples": a["m"], "workers": max(1, a.get("workers", 1))}),
        ("nlfrac.pv_from_distribution", nlfrac, "pv_from_distribution", None),
        ("nlfrac.samples_io", nlfrac, "save_violation_samples",
         lambda a, r: {"samples": a["samples"].m}),
        ("nlfrac.samples_io", nlfrac, "load_violation_samples", None),
        ("qstate.werner_like", qstate, "werner_like", None),
        ("qstate.gghz", qstate, "gghz", None),
        ("qstate.io", qstate, "save_pure_state", None),
        ("qstate.io", qstate, "save_density_matrix", None),
        ("qstate.io", qstate, "load_state", None),
        ("qstate.as_density_matrix", qstate, "as_density_matrix", None),
        ("expdata.load_cc", expdata, "load_cc", lambda a, r: {"records": len(r.records)}),
        ("expdata.save_cc", expdata, "save_cc",
         lambda a, r: {"records": len(a["dataset"].records)}),
        ("expdata.mix", expdata, "normalize_cc", None),
        ("expdata.mix", expdata, "mix_counts",
         lambda a, r: {"blocks": len(r.records) / 8}),
        ("expdata.group_blocks", expdata, "group_blocks",
         lambda a, r: {"blocks": len(r[0]), "records": len(a["dataset"].records)}),
        ("expdata.pv_cc", expdata, "pv_cc", lambda a, r: {"blocks": r.n_blocks}),
        ("expdata.resample", expdata, "poisson_resample",
         lambda a, r: {"trials": a["trials"]}),
        ("fits.c_lower_2q", fits, "c_lower_2q", None),
        ("cli.main", cli, "main", lambda a, r: {"rc": r}),
    ]


class Recorder:
    """Collects spans; installs and removes the wrappers."""

    def __init__(self):
        self.spans = []
        self.request = "setup"
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._saved = []

    @contextlib.contextmanager
    def _span(self, name):
        parent = _current.get()
        with self._lock:
            sid = next(self._ids)
        span = Span(sid, name, parent.id if parent else None, self.request)
        token = _current.set(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            _current.reset(token)
            with self._lock:
                self.spans.append(span)

    def _wrap(self, name, fn, attrs):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self._span(name) as span:
                result = fn(*args, **kwargs)
            if attrs:
                span.attrs = attrs(sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _patch(self, module, attr, new) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self) -> None:
        if self._saved:
            return
        from bellent import nlfrac
        for name, module, attr, attrs in _targets():
            self._patch(module, attr, self._wrap(name, getattr(module, attr), attrs))
        self._patch(nlfrac, "ThreadPoolExecutor", _ContextExecutor)

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved = []

    @contextlib.contextmanager
    def request_span(self, request_id):
        """The span of one whole request, on the calling thread."""
        self.request = request_id
        try:
            with self._span("request") as span:
                yield span
        finally:
            self.request = "between"

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(s.to_dict()) + "\n")


# ------------------------------------------------------------------ analysis

def _union(intervals, lo, hi) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Trace:
    """Derived views over a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        self.children = {}
        for s in spans:
            self.children.setdefault(s.parent, []).append(s)

    def self_time(self, span, same_thread=False) -> float:
        """Duration minus the part covered by child spans.

        With same_thread, only children on the span's own thread count, so
        a span that waits on a pool keeps the wait as its own time: the
        calling thread's timeline is then partitioned among its spans.
        """
        kids = self.children.get(span.id, [])
        if same_thread:
            kids = [k for k in kids if k.thread == span.thread]
        return span.dur - _union([(k.start, k.end) for k in kids], span.start, span.end)

    def named(self, prefix, requests_only=False):
        return [s for s in self.spans if s.name.startswith(prefix)
                and s.name != "request"
                and (not requests_only or isinstance(s.request, int))]

    def requests(self):
        return [s for s in self.spans if s.name == "request"]

    def descendants(self, span):
        out, todo = [], [span]
        while todo:
            for k in self.children.get(todo.pop().id, []):
                out.append(k)
                todo.append(k)
        return out


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _per_request_exact(per_req: list, name: str, errors: list):
    """The value every traced request gave, or an error if they differ."""
    values = sorted(set(per_req))
    if len(values) > 1:
        errors.append(f"{name} differs between requests: {values}")
    return values[0] if values else 0


def _distinct_draws(spans) -> int:
    """Distinct (tag, seed, index) triples drawn, merging index ranges."""
    ranges = {}
    for s in spans:
        a = s.attrs
        ranges.setdefault((a["tag"], a["seed"]), []).append(
            (a["first"], a["first"] + a["samples"]))
    return int(sum(_union(iv, float("-inf"), float("inf")) for iv in ranges.values()))


def layer_metrics(spans, untraced_p50: float, import_s: dict):
    """Per-module metrics of one traced run.

    Per-unit times use every traced span, set-up included (set-up is where
    pv2 builds its orbit and cc3 writes its tables); per-request counts use
    the spans of traced requests only.  Returns (metrics, exact_errors,
    layer_shares) where layer_shares partitions the calling thread's
    request time by layer.
    """
    t = Trace(spans)
    reqs = t.requests()
    nreq = len(reqs)
    errors = []
    us, ms = 1e6, 1e3

    def total_self(prefix, requests_only=False):
        return sum(t.self_time(s) for s in t.named(prefix, requests_only))

    def total_attr(prefix, key, requests_only=False):
        return sum(s.attrs.get(key, 0) for s in t.named(prefix, requests_only))

    def per_req(prefix, fn):
        return [fn([k for k in t.descendants(r) if k.name.startswith(prefix)]) for r in reqs]

    m = {}
    # _rng
    rng = t.named("rng.bloch_directions")
    m["rng.us_per_sample"] = _ratio(sum(t.self_time(s) for s in rng) * us,
                                    sum(s.attrs["samples"] for s in rng))
    m["rng.samples_per_req"] = _per_request_exact(
        per_req("rng.", lambda ss: sum(s.attrs["samples"] for s in ss)),
        "rng.samples_per_req", errors)
    m["rng.redraw_ratio"] = _per_request_exact(
        per_req("rng.", lambda ss: _ratio(sum(s.attrs["samples"] for s in ss),
                                          _distinct_draws(ss))),
        "rng.redraw_ratio", errors)
    # bell
    m["bell.behaviors.us_per_sample"] = _ratio(total_self("bell.behaviors") * us,
                                               total_attr("bell.behaviors", "samples"))
    m["bell.reduce.us_per_sample"] = _ratio(total_self("bell.reduce") * us,
                                            total_attr("bell.reduce", "samples"))
    orbits = t.named("bell.orbit")
    m["bell.orbit.s"] = _ratio(sum(s.dur for s in orbits), len(orbits))
    m["bell.orbit.builds_per_req"] = _per_request_exact(
        per_req("bell.orbit", len), "bell.orbit.builds_per_req", errors)
    sizes = sorted({s.attrs["size"] for s in orbits})
    if len(sizes) > 1:
        errors.append(f"bell.orbit.size differs between builds: {sizes}")
    m["bell.orbit.size"] = sizes[0] if sizes else 0
    # nlfrac
    est = t.named("nlfrac.estimate_pv") + t.named("nlfrac.violation_distribution")
    est_req = [s for s in est if isinstance(s.request, int)]
    busy = {s.id: sum(k.dur for k in t.children.get(s.id, [])) for s in est}
    m["nlfrac.self_us_per_sample"] = _ratio(sum(t.self_time(s) for s in est) * us,
                                            sum(s.attrs["samples"] for s in est))
    m["nlfrac.chunks_per_req"] = _per_request_exact(
        [sum(1 for e in t.descendants(r) if e in est
             for k in t.children.get(e.id, []) if k.name == "rng.bloch_directions")
         for r in reqs], "nlfrac.chunks_per_req", errors)
    m["nlfrac.par_eff"] = _ratio(sum(busy[s.id] for s in est_req),
                                 sum(s.attrs["workers"] * s.dur for s in est_req))
    m["nlfrac.idle_s_per_req"] = _ratio(
        sum(s.attrs["workers"] * s.dur - busy[s.id] for s in est_req), nreq)
    io = t.named("nlfrac.samples_io", True)
    # save plus load, per sample written
    m["nlfrac.samples_io.us_per_sample"] = _ratio(
        sum(s.dur for s in io) * us, sum(s.attrs.get("samples", 0) for s in io))
    m["nlfrac.import_s"] = import_s.get("nlfrac", 0.0)
    # qstate
    m["qstate.ms_per_req"] = _ratio(total_self("qstate.", True) * ms, nreq)
    # expdata
    loads = t.named("expdata.load_cc")
    m["expdata.load_cc.us_per_record"] = _ratio(
        sum(t.self_time(s) for s in loads) * us, total_attr("expdata.load_cc", "records"))
    m["expdata.save_cc.us_per_record"] = _ratio(
        total_self("expdata.save_cc") * us, total_attr("expdata.save_cc", "records"))
    m["expdata.mix.ms_per_block"] = _ratio(total_self("expdata.mix", True) * ms,
                                           total_attr("expdata.mix", "blocks", True))
    groups = t.named("expdata.group_blocks")
    m["expdata.group_blocks.ms_per_block"] = _ratio(
        sum(t.self_time(s) for s in groups) * ms, total_attr("expdata.group_blocks", "blocks"))
    m["expdata.group_blocks.calls_per_req"] = _per_request_exact(
        per_req("expdata.group_blocks", len), "expdata.group_blocks.calls_per_req", errors)
    m["expdata.pv_cc.self_ms_per_block"] = _ratio(total_self("expdata.pv_cc") * ms,
                                                  total_attr("expdata.pv_cc", "blocks"))
    m["expdata.resample.ms_per_trial"] = _ratio(
        sum(s.dur for s in t.named("expdata.resample")) * ms,
        total_attr("expdata.resample", "trials"))
    m["expdata.block_yield"] = _per_request_exact(
        per_req("expdata.group_blocks",
                lambda ss: _ratio(8 * sum(s.attrs["blocks"] for s in ss),
                                  sum(s.attrs["records"] for s in ss))),
        "expdata.block_yield", errors)
    # cli
    cmds = t.named("cli.main", True)
    m["cli.import_s"] = import_s.get("cli", 0.0)
    m["cli.self_ms_per_cmd"] = _ratio(sum(t.self_time(s) for s in cmds) * ms, len(cmds))
    # the recorder itself
    traced_p50 = statistics.median(s.dur for s in reqs) if reqs else 0.0
    m["trace.overhead_frac"] = _ratio(traced_p50, untraced_p50) - 1.0 if untraced_p50 else 0.0

    # calling-thread partition of request wall time by layer
    shares, wall = {}, sum(r.dur for r in reqs)
    for r in reqs:
        for s in [r] + [k for k in t.descendants(r) if k.thread == r.thread]:
            layer = "benchmark" if s is r else s.name.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + t.self_time(s, same_thread=True)
    shares = {k: _ratio(v, wall) for k, v in sorted(shares.items())}
    m["trace.coverage_frac"] = 1.0 - shares.get("benchmark", 0.0) if reqs else 0.0
    return m, errors, shares
