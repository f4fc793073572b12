"""Property tests of the numeric flags and the state-file fields the CLI reads.

Whatever number a flag is given (an int, or any float text, NaN and the
infinities included, as `--flag=value`, the form in which argparse reads a
value starting with "-") and whatever a state file's fields hold, the
command ends as `test_table_inputs` requires: exit 0 silently, or a
`BellentError` with exit 2, 3 or 4 and one line on stderr.  Any other
exception, a warning included, fails the test.

No draw starts a long run or many threads: `--samples` is at most 64, one
2048-sample piece, so a run makes one task and starts no pool whatever
`--workers` is;
`--trials` is at most 4; `n_qubits` is at most 10**5 in size.  The one
larger sample count, 2**61, is refused before anything is drawn, and the
one larger trial count, 2**62, before any trial runs.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellent.cli import _FAMILIES, _FIT_EVALS
from bellent.expdata import add_poisson_noise, save_cc, synth_cc_dataset
from bellent.nlfrac import ViolationSamples, save_violation_samples
from bellent.qstate import save_density_matrix, werner_like
from test_table_inputs import _check_exit

# any float, and the values at the edges of the flags' ranges
_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 1.0, 1e-12, 1 - 1e-12, 1 + 1e-12, 0.5, 45.0, 90.0, 1e308, 5e-324])


def _number(lo, hi):
    """The text of a float: three times in four one in [lo, hi], where the
    flag's valid values lie, so that runs get past their checks; otherwise
    any float."""
    return st.integers(0, 3).flatmap(
        lambda k: _FLOATS if k == 0 else st.floats(lo, hi)).map(repr)


_SEED = st.integers(-2 ** 130, 2 ** 130).map(str)
# a pool of any size: with at most 64 samples it starts one thread
_WORKERS = st.integers(-2, 2 ** 63).map(str)
_SAMPLES = st.integers(-2, 64).map(str)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A Werner state of 2 and of 3 qubits, a samples file and a count file."""
    d = tmp_path_factory.mktemp("flags")
    for n in (2, 3):
        save_density_matrix(werner_like(np.pi / 4, 0.9, n), d / f"w{n}.json")
    save_violation_samples(ViolationSamples([0.5, 1.2, 1.05], "s", 1, "chsh"), d / "dist.csv")
    save_cc(add_poisson_noise(synth_cc_dataset(werner_like(np.pi / 4, 0.9, 3), 2, seed=1,
                                               scale=100.0), seed=2), d / "cc.csv")
    return d


_THETA = _number(0.0, 45.0)
_V = _number(0.0, 1.0)
_N = st.sampled_from(["2", "3"])
# the values of each flag of `state make`'s families
_STATE_FLAGS = {"theta_deg": _THETA, "v": _V, "n": _N, "x": _number(-0.5, 0.5),
                "y": _number(-0.5, 0.5), "gamma": _V, "bits": st.text("01x", max_size=4)}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_state_make_flags_exit_with_a_documented_code(inputs, data):
    family = data.draw(st.sampled_from(sorted(_FAMILIES)))
    _check_exit(["state", "make", "--family", family, "--out", str(inputs / "made.json")]
                + [f"--{flag.replace('_', '-')}={data.draw(_STATE_FLAGS[flag])}"
                   for flag in _FAMILIES[family][1]])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(command=st.sampled_from(["pv", "dist"]), n=st.sampled_from([2, 3]), samples=_SAMPLES,
       seed=_SEED, workers=_WORKERS)
@example(command="dist", n=2, samples=str(2 ** 61), seed="1", workers="2")
def test_sampling_flags_exit_with_a_documented_code(inputs, command, n, samples, seed,
                                                    workers):
    _check_exit([command, str(inputs / f"w{n}.json"), f"--samples={samples}", f"--seed={seed}",
                 f"--workers={workers}", "--out", str(inputs / "sampled.out")])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(theta=_THETA, n=_N, v_from=_V, v_to=_V, v_step=_number(1e-3, 1.0),
       closed_form=st.sampled_from(["auto", "w2", "w3-xstate", "w3-printed"]),
       samples=_SAMPLES, seed=_SEED, workers=_WORKERS)
@example(theta="45.0", n="2", v_from="0.8", v_to="1.0", v_step="0.1", closed_form="auto",
         samples=str(2 ** 61), seed="1", workers="2")
def test_sweep_flags_exit_with_a_documented_code(inputs, theta, n, v_from, v_to, v_step,
                                                 closed_form, samples, seed, workers):
    _check_exit(["sweep", f"--theta-deg={theta}", "--n", n, f"--v-from={v_from}",
                 f"--v-to={v_to}", f"--v-step={v_step}", "--closed-form", closed_form,
                 f"--samples={samples}", f"--seed={seed}", f"--workers={workers}",
                 "--out", str(inputs / "sweep.csv")])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(v_from=_V, v_to=_V, v_step=_number(1e-3, 1.0))
def test_rescale_flags_exit_with_a_documented_code(inputs, v_from, v_to, v_step):
    _check_exit(["rescale", str(inputs / "dist.csv"), f"--v-from={v_from}", f"--v-to={v_to}",
                 f"--v-step={v_step}", "--out", str(inputs / "curve.csv")])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(_FIT_EVALS)), pv=_number(0.0, 100.0),
       theta=st.none() | _THETA)
def test_fit_eval_flags_exit_with_a_documented_code(name, pv, theta):
    _check_exit(["fit", "eval", "--name", name, f"--pv={pv}"]
                + ([] if theta is None else [f"--theta-deg={theta}"]))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(margin=_number(0.0, 1.0))
def test_exp_pv_margin_exits_with_a_documented_code(inputs, margin):
    _check_exit(["exp", "pv", "--in", str(inputs / "cc.csv"), f"--margin={margin}"])


@settings(derandomize=True, max_examples=30, deadline=None)
@given(trials=st.integers(-2, 4).map(str), seed=_SEED)
@example(trials=str(2 ** 62), seed="1")
def test_exp_resample_flags_exit_with_a_documented_code(inputs, trials, seed):
    _check_exit(["exp", "resample", "--in", str(inputs / "cc.csv"), f"--trials={trials}",
                 f"--seed={seed}"])


@st.composite
def _state_text(draw):
    """A state file: a valid state's fields, some of them edited.

    `n_qubits` may be any integer up to 10**5 in size, or a value of another
    JSON type; an entry or amplitude may become any float, a wrong-length
    pair or a string, and one may be dropped or added.
    """
    n = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        key, values = "entries", werner_like(np.pi / 4, 0.9, n).entries.ravel()
    else:
        key, values = "amplitudes", np.full(2 ** n, 2 ** (-n / 2), dtype=complex)
    obj = {"n_qubits": n, key: [[z.real, z.imag] for z in values]}
    if draw(st.booleans()):
        obj["n_qubits"] = draw(st.integers(-10 ** 5, 10 ** 5) | st.sampled_from(
            [2.0, 2.5, "2", True, None, [2]]))
    rows = obj[key]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["value", "pair", "drop", "add"]))
        if edit == "value" and isinstance(rows[k], list) and len(rows[k]) == 2:
            rows[k][draw(st.integers(0, 1))] = draw(_FLOATS)
        elif edit == "pair":
            rows[k] = draw(st.sampled_from([[], [1.0], [1.0, 0.0, 0.0], "1", None]))
        elif edit == "drop" and len(rows) > 1:
            rows.pop(k)
        elif edit == "add":
            rows.append([draw(_FLOATS), 0.0])
    if draw(st.integers(0, 9)) == 0:
        del obj[key]
    return json.dumps(obj)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(text=_state_text(), command=st.sampled_from(
    [["conc", "--method", "wootters"], ["conc", "--method", "gme-xstate"],
     ["conc", "--method", "gme-pure"], ["pv", "--samples", "8"]]))
@example(text='{"n_qubits": 100000, "entries": [[1, 0]]}', command=["pv", "--samples", "8"])
def test_state_file_fields_exit_with_a_documented_code(inputs, text, command):
    state = inputs / "state.json"
    state.write_text(text)
    _check_exit([command[0], str(state), *command[1:]])
