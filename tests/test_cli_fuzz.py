"""Fuzzing the CLI: whatever the request, the exit code is 0, 2 or 3 and
nothing reaches stderr but a one-line message.

Ring specs are drawn from the spec grammar's alphabet and from its atoms;
configurations from JSON with odd qubit counts, word lengths, context
indices and geometries.  Each example runs under an alarm, so a request
that hangs fails the test instead of stalling the suite.
"""

import contextlib
import io
import json
import signal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringline import cli

ALARM_S = 5


class Hang(BaseException):
    """Raised by the alarm; a BaseException, so main() cannot map it to an
    exit code."""


def _on_alarm(signum, frame):
    raise Hang(f"request still running after {ALARM_S} s")


@pytest.fixture(scope="module")
def alarm():
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def answer(argv):
    out, err = io.StringIO(), io.StringIO()
    signal.alarm(ALARM_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        signal.alarm(0)
    return code, err.getvalue()


def assert_handled(argv):
    code, err = answer(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_CLAIM, cli.EXIT_INPUT), (argv, err)
    assert "Traceback" not in err, (argv, err)


ATOMS = st.one_of(
    st.builds("gf({})".format, st.sampled_from([0, 1, 2, 3, 4, 6, 9, 16, 97])),
    st.builds("gf({}^{})".format, st.sampled_from([1, 2, 3, 5]),
              st.integers(0, 9)),
    st.builds("gf({})[x]/({})".format, st.sampled_from([2, 3, 4]),
              st.text("x^+-*0123 ", max_size=10)))
SPECS = st.one_of(st.text("gfGF()[]x/^+-*0123456789 ", max_size=20),
                  st.lists(ATOMS, min_size=1, max_size=3).map("x".join))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["ring", "line"]), SPECS)
def test_ring_specs_are_handled(alarm, command, spec):
    assert_handled([command, "--ring", spec])


ODD_WORDS = st.one_of(st.text("IXYZ", max_size=4), st.text("IXYZxq", max_size=3),
                      st.integers(0, 3))
ODD_INDICES = st.one_of(st.integers(-1, 5),
                        st.sampled_from([1.0, "0", None, True]))
ODD_N = st.one_of(st.integers(-1, 4), st.sampled_from([1.5, "2", None]))


@st.composite
def configs(draw):
    """Mostly well-formed: n-letter words and in-range indices, each field
    sometimes replaced by an odd value."""
    n = draw(st.integers(0, 3))
    word = st.text("IXYZ", min_size=n, max_size=n)
    observables = draw(st.lists(st.one_of(word, word, ODD_WORDS), max_size=5))
    index = st.integers(0, max(len(observables) - 1, 0))
    context = st.lists(st.one_of(index, index, ODD_INDICES), max_size=4)
    config = {"n": draw(st.one_of(st.just(n), st.just(n), ODD_N)),
              "observables": observables,
              "contexts": draw(st.lists(context, max_size=4))}
    geometry = draw(st.sampled_from([None, "square", "pentagram", "custom",
                                     "hexagon"]))
    if geometry is not None:
        config["geometry"] = geometry
    return config


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["verify", "bks", "entangle"]),
       st.sampled_from(["text", "json"]), configs())
@example("entangle", "text", {"n": 1, "observables": ["X"], "contexts": [[0]]})
@example("verify", "text", {"n": 2, "observables": [], "contexts": [],
                            "geometry": "square"})
def test_configs_are_handled(alarm, tmp_path_factory, command, fmt, config):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(config))
    assert_handled([command, "--config", str(path), "--format", fmt])
