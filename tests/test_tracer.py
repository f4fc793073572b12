"""The traced benchmark run (perfbench/tracing.py) patches package functions
by module and name.  Loading that file as it is and installing its wrappers
here makes a renamed or moved patch target fail Tier-1, not only the traced
smoke run."""

import importlib.util
import math
from pathlib import Path

from bellent import nlfrac, qstate
from bellent.bell import default_set

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorder_installs_and_uninstalls_its_wrappers():
    tracing = _load_tracing()
    targets = [(module, attr, getattr(module, attr))
               for _, module, attr, _ in tracing._targets()]
    recorder = tracing.Recorder()
    recorder.install()
    try:
        assert all(getattr(module, attr) is not fn for module, attr, fn in targets)
        qstate.werner_like(math.pi / 4, 0.9, 2)
    finally:
        recorder.uninstall()
    assert all(getattr(module, attr) is fn for module, attr, fn in targets)
    # werner_like calls gghz through the module attribute, so both are traced
    assert sorted(s.name for s in recorder.spans) == ["qstate.gghz", "qstate.werner_like"]


def test_pool_tasks_trace_under_their_estimate():
    # the traced executor runs each task in the submitter's context, so the
    # draws on pool threads are children of the estimate that caused them,
    # as perfbench's nlfrac.par_eff and nlfrac.chunks_per_req read them
    tracing = _load_tracing()
    recorder = tracing.Recorder()
    recorder.install()
    try:
        nlfrac.violation_distribution(qstate.werner_like(math.pi / 4, 0.9, 2), default_set(2),
                                      2 * nlfrac.CHUNK + 5, seed=1, workers=2)
    finally:
        recorder.uninstall()
    [estimate] = [s for s in recorder.spans if s.name == "nlfrac.violation_distribution"]
    draws = [s for s in recorder.spans if s.name == "rng.bloch_directions"]
    assert len(draws) == 17 and all(s.parent == estimate.id for s in draws)
