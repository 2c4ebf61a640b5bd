"""The exit-code contract, fuzzed from the CLI key table.

For every command of ``cli._COMMANDS`` hypothesis draws a command line and a
config file from the kinds the table declares: valid values, boundary values
(0, 1, 2^63 - 1, 2^63, inf, nan, 1e400, negatives, the least subnormal and
the largest float), strings that are not numbers (a control character among
them), wrong JSON types and, one draw in ten, a stray argument.  The document
keys point at documents shaped after the three ``from_doc`` schemas
(potential, Laurent series, field), NaN and Infinity literals included.  Each
example first draws its faults: none, in the values, in the documents, or a
few in both, so that runs with one bad value reach the code behind the checks
before it.  Each run goes through ``cli.main`` in-process and must

* exit 0, 2 or 3,
* exit 2 with a message that names a flag given where it cannot act, when
  every value is valid and such a key was drawn (half the runs drop those
  keys, so that the run behind the check is reached too),
* write nothing to stderr on success, and exactly one JSON object (and
  nothing on stdout) on failure,
* on success, write JSON artifacts that parse, although the name of the
  output directory, which every manifest echoes, holds a control character,
* raise no warning,
* end within ``WALL_S`` seconds.

One command line per command also runs as ``python -m bvlab.cli`` in a fresh
interpreter, which covers start-up, the module bodies a command runs and the
encoding of the streams.  Each single-key bound (``EDGES``) runs at its edge,
where it exits 0 or 3, and one step past it, where it exits 2.

Each command gets a quarter of the hypothesis profile's examples, so a
longer profile (``--hypothesis-profile``) runs the same properties for longer.
"""
import contextlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bvlab import cli
from bvlab.constructions import MAX_TERMS
from bvlab.dynamics import MAX_EXACT_WORK, MAX_SAMPLES, MIN_ORDER
from bvlab.order2 import MAX_GRID_WORK
from bvlab.selfcheck import CheckResult
from bvlab.variance import CESARO_R0_MAX

# the slowest run the drawn values admit (an order2 grid at its work bound) takes about
# 0.07 s on a 2-core Xeon
WALL_S = 3.0
BIG = [0, 1, -1, 2**63 - 1, 2**63, -(2**63), math.inf, -math.inf, math.nan, "1e400", -2.5,
       5e-324, 1.7976931348623157e308]
NOT_NUMBERS = ["abc", "", "1e", "0x10", "1,2", "None", "1\x01"]
WRONG_TYPES = [True, False, [], [1], {}, {"a": 1}]
# (values, documents): how many draws in ten are faulty
FAULTS = [(0, 0), (3, 0), (0, 5), (1, 2)]

INT_VALUES = [2, 3, 4, 5, 6, 8, 16, 20]
FLOAT_VALUES = [0.01, 0.1, 0.25, 0.5, 0.7, -0.3]
# the float keys whose valid values are ordered against another key or a default
FLOAT_KEY_VALUES = {"r_min": [1e-8, 1e-6, 1e-4], "r_max": [1e-3, 0.1, 0.5],
                    "r0": [1.1, 1.5, 2.0], "r1": [0.7, 0.9], "eps": [1e-3, 0.01, 0.1]}
# valid values of the keys whose flags argparse keeps as text
READER_VALUES = {
    "d": ["2", "3", "4", "16", "20"],
    "rho0": ["optimal", "0.05", "0.25", "0.5"],
    "blaschke": ["0.3+0j", "0.1-0.2j,0.5j", "", "0.999+0j", "0j"],
    "grid_d": ["2", "3", "4", "16", "20"],
    "grid_rho0": ["optimal", "0.1", "0.25"],
    "grid_n0": ["default", "3", "6", "15"],
}
BAD_READER_VALUES = ["1+0j", "nan+0j", "1e400j", "x", "", "2**63", "1.5", "2.5"]
DOC_KEYS = {"series": "series", "mu": "field", "phi": "potential"}
# keys drawn on every run of dynamics var: at its default of 100000 samples a Monte Carlo
# run takes up to 2 s, so the fuzzer always draws the sample count (20 at most)
ALWAYS = {"samples"}
SHELL_KEYS = {"d", "rho0", "n0", "shells"}
# the keys that act only in some runs of their command, as README lists them
SCOPED_KEYS = {"variance": {"terms", "shells", "r0", "blocks"},
               "order2": {"d", "rho0", "n0", "refine", "grid_rho0", "grid_n0"},
               "means-curve": SHELL_KEYS, "truncate": SHELL_KEYS,
               "dynamics": {"blaschke", "phi", "method", "samples", "d"}}


def _inert(command, given) -> set:
    """The keys of ``given`` (a run's values, flags over config values that are not null)
    that cannot act in the run, read from the values as written."""
    if command == "variance":
        method = given.get("method", "exact")
        inert = {"shells"} if method == "exact" else {"terms"}
        inert |= {"r0"} if method not in ("block", "cesaro") else set()
        inert |= {"blocks"} if method != "block" else set()
    elif command == "order2":
        inert = {"d", "rho0", "n0", "refine"} if given.get("grid_d") else \
            {"grid_rho0", "grid_n0"}
    elif command in ("means-curve", "truncate"):
        inert = SHELL_KEYS if given.get("series" if command == "means-curve" else "mu") \
            else set()
    elif command == "dynamics" and given.get("subcommand") == "coboundary":
        inert = {"blaschke", "phi", "method", "samples"}
    elif command == "dynamics":  # var: the map is --d's power unless a zero is given
        inert = {"d"} if any(str(given.get("blaschke", "")).split(",")) else set()
    else:
        inert = set()
    return inert & set(given)


def _pick(valid, bad, rate):
    """A value from ``bad`` ``rate`` times in ten, otherwise one from ``valid``."""
    if not (bad and rate):
        return st.sampled_from(valid)
    return st.integers(0, 9).flatmap(lambda i: st.sampled_from(bad if i < rate else valid))


def _listed(items, rate):
    """Comma-separated lists, long enough that a grid of three has thousands of points."""
    entries = st.lists(_pick(items, BAD_READER_VALUES, rate), min_size=1, max_size=30)
    return st.one_of(entries.map(",".join),
                     st.tuples(st.sampled_from(items), st.integers(1, 30)).map(
                         lambda xn: ",".join([xn[0]] * xn[1])))


def _document(kind, rate):
    num = _pick([0.0, 0.5, -0.3, 1.0, 2], [*BIG[4:], "1", "x", None, True, []], rate)

    def entries(freqs):
        freq = _pick(freqs, [math.inf, math.nan, 2.5, 2**63, 0, "4", None], rate)
        return st.lists(st.tuples(freq, num, num).map(list), min_size=1, max_size=4)

    if kind == "potential":
        doc = st.fixed_dictionaries({"coeffs": entries([-2, -1, 1, 2, 3])})
    elif kind == "series":
        doc = st.fixed_dictionaries(
            {"coeffs": entries([1, 2, 3, 8]),
             "max_freq": _pick([8, 3000, 2**63 - 1], [0, 2**63, 8.5, math.inf, "8", None], rate)})
    else:
        term = st.fixed_dictionaries(
            {"re": num, "im": num, "p": _pick([0, 1, 2, 18], [-1, 2**63, 1.5], rate),
             "q": _pick([0, 1, -2], [2**63, "q"], rate),
             "gamma": _pick([0.0, -2.0, -16.0], BIG[4:], rate),
             "r_in": _pick([0.0, 0.2, 0.5], [-1.0, math.nan, math.inf], rate),
             "r_out": _pick([0.3, 0.6, 0.9, math.inf], [0.1, -math.inf, math.nan], rate)},
            optional={"log_r_in": _pick([-1.0, -0.1, -math.inf], [math.nan, math.inf, 800], rate),
                      "log_r_out": _pick([-0.05, math.inf], [-math.inf, math.nan, 800], rate)})
        doc = st.fixed_dictionaries({"terms": st.lists(term, max_size=3)})
    wrong = [[], "x", {"coeffs": "x"}, {"terms": [1]}, {"coeffs": [[1, 2]]}]
    return st.integers(0, 9).flatmap(lambda i: st.sampled_from(wrong) if i < rate // 2 else doc)


def _value(key, kind, as_json, rates):
    """One key's value; a document comes back as ("doc", schema or None, content)."""
    rate, doc_rate = rates
    wrong = WRONG_TYPES if as_json else []
    if key in DOC_KEYS:
        schema = DOC_KEYS[key]
        return st.integers(0, 9).flatmap(
            lambda i: st.just(("doc", None, None)) if i < rate // 2  # a missing file
            else st.sampled_from([True, 5]) if i < rate and as_json
            else _document(schema, doc_rate).map(lambda doc: ("doc", schema, doc)))
    if kind == "int":
        return _pick(INT_VALUES, [*BIG, *NOT_NUMBERS, *wrong], rate)
    if kind == "float":
        return _pick(FLOAT_KEY_VALUES.get(key, FLOAT_VALUES), [*BIG, *NOT_NUMBERS, *wrong], rate)
    if kind == "switch":
        return _pick([True, False, None], ["false", 1], rate) if as_json else st.just(True)
    if isinstance(kind, tuple):
        return _pick(list(kind), ["bogus", 1], rate)
    if kind == "text":
        return _pick(["x", None], [5, True, "a\u0000b"], rate) if as_json else st.just("x")
    if key.startswith("grid_"):
        return _listed(READER_VALUES[key], rate)
    return _pick(READER_VALUES[key], [*BIG, *NOT_NUMBERS, *BAD_READER_VALUES, *wrong], rate)


def _some(draw, keys, always=()):
    """Each key three times in five, and each key of ``always`` every time."""
    return [key for key in keys if key in always or draw(st.integers(0, 4)) >= 2]


@st.composite
def _invocation(draw, command):
    """(argv with document placeholders, config or None, the flags that cannot act) for
    one run of ``command``; the flags are None where a faulty value may fail first."""
    rates = draw(st.sampled_from(FAULTS))
    rate = rates[0]
    keys = {**cli._COMMANDS[command][2], **cli._GLOBAL}
    positional = {key: draw(_pick(list(keys[key][0]), ["bogus"], rate))
                  for key in cli._POSITIONAL if key in keys}
    argv = [command, *positional.values()]
    flag_keys = [k for k in keys if k not in cli._POSITIONAL and k != "output_dir"]
    always = ALWAYS if positional.get("subcommand") == "var" else ()
    flags = {key: draw(_value(key, keys[key][0], False, rates))
             for key in _some(draw, flag_keys, always)}
    config = None
    if draw(st.booleans()):
        config_keys = _some(draw, [*flag_keys, "output_dir"]) + draw(
            _pick([[]], [["bogus"]], rate))
        config = {key: draw(_value(key, keys.get(key, ("text", None))[0], True, rates))
                  for key in config_keys}
    given = {**{k: v for k, v in (config or {}).items() if v is not None}, **positional,
             **flags}
    inert = _inert(command, given)
    if draw(st.booleans()):
        flags = {k: v for k, v in flags.items() if k not in inert}
        config = config and {k: v for k, v in config.items() if k not in inert}
        inert = set()
    for key, value in flags.items():
        argv += [cli._flag(key)] if keys[key][0] == "switch" else [cli._flag(key), value]
    stray = draw(st.integers(0, 9)) == 0
    if stray:  # a stray argument: argparse echoes it unquoted
        argv.append(draw(st.sampled_from([*NOT_NUMBERS, *BAD_READER_VALUES])))
    if config is not None:
        config = draw(_pick([config], [[], "x", b"\xc0\x80"], rate // 2))
    clean = rate == 0 and not stray
    return argv, config, {cli._flag(key) for key in inert} if clean else None


class _WallBound(Exception):
    pass


def _interrupt(signum, frame):
    raise _WallBound(f"a run took longer than {WALL_S} s")


def _materialize(value, tmp: Path, counter: list) -> str:
    if not (isinstance(value, tuple) and value and value[0] == "doc"):
        return value if isinstance(value, str) else str(value)
    counter.append(None)
    path = tmp / f"doc{len(counter)}.json"
    if value[1] is not None:
        path.write_text(json.dumps(value[2], allow_nan=True))
    return str(path)


def _run(argv, config):
    """Run one invocation in a fresh directory: (argv, code, stdout, stderr, warnings).

    The output directories carry a control character, which every manifest
    echoes; after a successful run every JSON artifact must parse.
    """
    with tempfile.TemporaryDirectory() as tmp_dir:
        tmp, counter = Path(tmp_dir), []
        argv = [_materialize(v, tmp, counter) for v in argv]
        out_dir = tmp / "out\x01"
        if isinstance(config, dict):
            config = {k: _materialize(v, tmp, counter) if isinstance(v, tuple) else v
                      for k, v in config.items()}
            if config.get("output_dir") == "x":  # the valid text: a directory of this run
                config["output_dir"] = str(tmp / "config\x01out")
        if config is not None:
            blob = config if isinstance(config, bytes) else \
                json.dumps(config, allow_nan=True).encode()
            (tmp / "config.json").write_bytes(blob)
            argv += ["--config", str(tmp / "config.json")]
        if isinstance(config, dict) and config.get("output_dir") is not None:
            out_dir = config["output_dir"]  # where a run that accepts it writes
        else:
            argv += ["--out", str(out_dir)]
        out, err = io.StringIO(), io.StringIO()
        previous = signal.signal(signal.SIGALRM, _interrupt)
        signal.setitimer(signal.ITIMER_REAL, WALL_S)
        try:
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if code == 0:
            written = list(Path(out_dir).glob("*.json"))
            assert written, (argv, out_dir)
            for path in written:
                json.loads(path.read_text(encoding="utf-8"))
    return argv, code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


# a fixed valid command line around each document key
DOC_RUNS = {"series": ["means-curve", "--points", "8"],
            "mu": ["truncate", "--r1", "0.7", "--eps", "0.01"],
            "phi": ["dynamics", "var", "--n", "8", "--samples", "64"]}


def _one_passing_check(full=False):
    # the battery's entries are tested in test_selfcheck; here only its inputs matter
    return [CheckResult("stand_in", True, "residual 0 (tol 0)")]


@pytest.mark.parametrize("command", list(cli._COMMANDS))
@settings(max_examples=max(1, settings.default.max_examples // 4), deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_every_input_keeps_the_exit_contract(command, data):
    argv, config, inert = data.draw(_invocation(command))
    with mock.patch("bvlab.selfcheck.run_selfcheck", _one_passing_check):  # cli calls it there
        argv, code, out, err, caught = _run(argv, config)
    _check_contract(argv, code, out, err, caught)
    if inert:  # every value is valid, so the first key that cannot act ends the run
        assert code == 2 and json.loads(err)["message"].split()[0] in inert, (argv, err)


def test_scoped_keys_are_the_cli_table():
    assert SCOPED_KEYS == {command: set(scopes) for command, scopes in cli._SCOPES.items()}


def _check_contract(argv, code, out, err, caught):
    assert not caught, (argv, caught)
    assert code in (0, 2, 3), (argv, code, err)
    if code == 0:
        assert err == "", (argv, err)
    else:
        assert out == "", (argv, out)
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
        error = json.loads(err)
        assert isinstance(error, dict) and error["message"], (argv, err)


@pytest.mark.parametrize("key", list(DOC_RUNS))
@settings(max_examples=max(1, settings.default.max_examples // 4), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_document_keeps_the_exit_contract(key, data):
    schema = DOC_KEYS[key]
    doc = data.draw(_document(schema, 5))
    extra = data.draw(st.sampled_from([[], ["--method", "mc"]])) if key == "phi" else []
    _check_contract(*_run([*DOC_RUNS[key], *extra, cli._flag(key), ("doc", schema, doc)], None))


# Each single-key bound: (a command line that ends in the key's flag, the value at the
# bound, the value one step past it).  At 57 blocks of degree 2 the finest scale
# 1.5^(1/2^57) needs a cutoff of 3.6e18, which the shell frequency 2^62 reaches, and at
# 58 one of 7.1e18, which only the next one, 2^63, past the capacity, reaches.  An order2
# grid of five-shell points costs (5 + 5)^2 per point, so 300 of them reach the work
# bound.  The sample count is drawn on the exact route only, which range-checks it; 10^7
# Monte Carlo samples would allocate 1 GB.  The exact route's work is charged at
# n x M^2 x (M + zeros): phi = z^16 under z^2 costs 16^3 a step and finishes in one.
_POTENTIAL = ("doc", "potential", {"coeffs": [[1, 1.0, 0.0]]})
_STEPS = MAX_EXACT_WORK // MIN_ORDER**3
_GRID_POINTS = MAX_GRID_WORK // (5 + 5) ** 2
EDGES = {
    "terms": (["variance", "shell", "--d", "20", "--method", "exact", "--terms"],
              MAX_TERMS, MAX_TERMS + 1),
    "points": (["means-curve", "--d", "2", "--points"], cli._MAX_POINTS, cli._MAX_POINTS + 1),
    "samples-low": (["dynamics", "var", "--phi", _POTENTIAL, "--n", "8", "--samples"], 2, 1),
    "samples-high": (["dynamics", "var", "--phi", _POTENTIAL, "--n", "8", "--samples"],
                     MAX_SAMPLES, MAX_SAMPLES + 1),
    "exact-work": (["dynamics", "var", "--phi", ("doc", "potential", {"coeffs": [[16, 1.0, 0.0]]}),
                    "--n"], _STEPS, _STEPS + 1),
    "r0": (["variance", "shell", "--d", "3", "--method", "cesaro", "--r0"],
           CESARO_R0_MAX, math.nextafter(CESARO_R0_MAX, math.inf)),
    "blocks": (["variance", "shell", "--d", "2", "--method", "block", "--r0", "1.5",
                "--blocks"], 57, 58),
    "grid": (["order2", "--shells", "5", "--grid-d"], ",".join(["16"] * _GRID_POINTS),
             ",".join(["16"] * (_GRID_POINTS + 1))),
}


@pytest.mark.parametrize("past", [False, True], ids=["edge", "past"])
@pytest.mark.parametrize("key", list(EDGES))
def test_single_key_bound_at_its_edge(key, past):
    argv, *values = EDGES[key]
    value = values[past]
    argv, code, out, err, caught = _run(
        [*argv, value if isinstance(value, str) else repr(value)], None)
    _check_contract(argv, code, out, err, caught)
    assert code == 2 if past else code in (0, 3), (argv, code, err)


def test_every_reader_key_has_valid_values():
    readers = {key for _, _, keys in cli._COMMANDS.values() for key, (kind, _) in keys.items()
               if callable(kind)}
    assert readers == set(READER_VALUES)


def _invalid_line(command: str) -> list[str]:
    """The command with a non-ASCII value in its first key that takes one (the
    config path for a command whose own keys are all switches)."""
    keys = cli._COMMANDS[command][2]
    positional = [keys[key][0][0] for key in cli._POSITIONAL if key in keys]
    key = next((key for key, (kind, _) in keys.items()
                if key not in cli._POSITIONAL and kind != "switch"), "config")
    return [command, *positional, cli._flag(key), "\u03c0"]


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_invalid_value_in_a_fresh_interpreter(command, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "BVLAB_OUT"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    argv = _invalid_line(command)
    proc = subprocess.run([sys.executable, "-m", "bvlab.cli", *argv, "--out", str(tmp_path)],
                          env=env, capture_output=True, timeout=60)
    out, err = proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")
    assert proc.returncode == 2, (argv, proc.returncode, err)
    assert out == "" and "Traceback" not in err, (argv, out, err)
    assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
    error = json.loads(err)
    assert isinstance(error, dict) and "\u03c0" in error["message"], (argv, err)
