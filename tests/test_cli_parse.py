"""``cli.parse_args`` against argparse.

The oracle is the argparse parser the CLI ran on before its option table
(``tests/cli_oracle.py``), with main's two ``--budget`` checks.  For every
argv both must accept with the same attributes, both print help, or both
refuse; a refusal exits 3 where argparse exited 2, and writes argparse's
stderr byte for byte when argparse's usage line is not wrapped (COLUMNS is
set wide for the comparison).  The help text itself may differ.

Argv are drawn from the CLI's vocabulary: every subcommand and option,
unique and ambiguous prefixes, ``=`` forms, repeats, missing values,
values that start with ``-``, negative budgets, ``--``, stray tokens and
``-h``.  ``ringbench_argv.json`` holds the 216 distinct argv of ringbench's
597 requests at seeds 1, 7 and 11, in first-seen order of
``inputs.generate(workload, seed, 1)`` over the three workloads.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringline import cli

import cli_oracle

HERE = Path(__file__).resolve().parent

OPTIONS = {  # each subcommand's options, as the oracle adds them
    "ring": ["--ring", "--format", "--out", "--check"],
    "line": ["--ring", "--graph", "--format", "--out", "--check"],
    "verify": ["--builtin", "--config", "--format", "--out", "--check"],
    "bks": ["--builtin", "--config", "--format", "--out", "--check"],
    "entangle": ["--builtin", "--config", "--format", "--out", "--check"],
    "search": ["--kind", "--budget", "--full", "--format", "--out", "--check"],
    "correspond": ["--variant", "--permute", "--format", "--out", "--check"],
    "map": ["--ring", "--variant", "--format", "--out", "--check"],
}
ALL_OPTIONS = sorted({n for names in OPTIONS.values() for n in names}
                     | {"--help"})
VALUES = ["squares", "pentagrams", "mermin_square", "mermin_pentagram",
          "text", "json", "dot", "distant", "neighbour", "square",
          "neighbourhood", "jacobson", "gf(4)", "gf(2)[x]/(x^3-x)",
          "cfg.json", "1,0", "0", "5", "-5", "+3", " 7", "5_000", "1.5",
          "-1.5", "-.5", "-5\n", "x", "", "-", "-x", "-a b", "-5x", "-h",
          "-hh", "-hx", "-hhx", "---", "--=x", "--", "search", "line"]


def outcome(parse, argv):
    """(namespace dict or exit code, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "1000"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as e:
            result = e.code
    return result, out.getvalue(), err.getvalue()


def assert_parses_as_argparse(argv):
    want, want_out, want_err = outcome(cli_oracle.parse, argv)
    got, out, err = outcome(cli.parse_args, argv)
    if any(t.startswith("--") and t.endswith("=--") for t in argv):
        # argparse drops an "=--" value and stores [], or refuses later on;
        # the table refuses it where it stands
        assert got == cli.EXIT_INPUT or got == want == 0, argv
        if isinstance(want, dict):
            assert err.endswith(": expected one argument\n"), argv
    elif isinstance(want, dict):
        assert (got, out, err) == (want, "", ""), argv
    elif want == 0:  # help: the wording may differ
        assert (got, err) == (cli.EXIT_OK, ""), argv
        assert out.startswith(want_out.splitlines()[0] + "\n"), argv
    else:
        assert (want, got, out, err) == (2, cli.EXIT_INPUT, "", want_err), argv


@st.composite
def option_tokens(draw, names):
    """An option as a request may spell it: whole or a prefix of it (unique
    or not), either sometimes with an = value."""
    name = draw(st.sampled_from(names))
    spelt = name[:draw(st.integers(2, len(name)))]
    token = draw(st.sampled_from([name, name, spelt]))
    if draw(st.integers(0, 4)) == 0:
        token += "=" + draw(st.sampled_from(VALUES))
    return token


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(list(OPTIONS) * 4 + ["lin", "", "-h",
                                                        "--x", "--", "-5"]))
    names = OPTIONS.get(command, ALL_OPTIONS)
    argv = [command]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.integers(0, 9))
        if kind < 6:  # an option of this command and, mostly, its value
            argv.append(draw(option_tokens(names)))
            if kind < 5:
                argv.append(draw(st.sampled_from(VALUES)))
        elif kind < 8:  # any option, value or prefix
            argv.append(draw(st.one_of(option_tokens(ALL_OPTIONS + ["-h"]),
                                       st.sampled_from(VALUES))))
        else:
            argv.append(draw(st.sampled_from(["--", "-h", "--help", "--he",
                                              "stray", "-5"])))
    return argv


@settings(max_examples=300, deadline=None)
@given(argvs())
@example(["search", "--kind", "pentagrams", "--budget", "-5"])
@example(["search", "--kind=squares", "--budget=0"])
@example(["search", "--kind", "squares", "--budget", "5", "--x"])
@example(["verify", "--builtin", "mermin_square", "--config", "x.json"])
@example(["verify", "--config", "x.json", "--builtin", "bad"])
@example(["verify", "--format", "json"])
@example(["verify", "--c", "x"])
@example(["line", "--ring=gf(4)", "--form", "json"])
@example(["line", "--ring", "-5.5"])
@example(["line", "--ring", "-a b", "--ring", "gf(2)"])
@example(["line", "--ring", "--", "gf(4)"])
@example(["line", "--ring", "gf(4)", "--"])
@example(["line", "--ring", "gf(4)", "stray", "-h"])
@example(["map", "--variant", "jacobson", "--check=yes"])
@example(["-hh"])
@example(["-hx", "line"])
@example(["--=x"])
@example(["--x", "line", "--ring", "gf(4)"])
@example(["--", "line", "--ring", "gf(4)"])
@example(["--"])
@example([])
def test_parse_args_reads_argv_as_argparse(argv):
    assert_parses_as_argparse(argv)


def test_ringbench_requests_parse_as_argparse():
    argvs = json.loads((HERE / "ringbench_argv.json").read_text())
    assert len(argvs) == 216
    for argv in argvs:
        assert_parses_as_argparse(argv)


@pytest.mark.parametrize("argv", [[], ["search"], ["verify"], ["map"]])
def test_help_lists_every_option_of_the_table(capsys, argv):
    with pytest.raises(SystemExit) as e:
        cli.parse_args(argv + ["--help"])
    out = capsys.readouterr().out
    assert e.value.code == cli.EXIT_OK
    assert out.startswith(cli._usage(argv[0] if argv else None) + "\n")
    names = cli.COMMANDS[argv[0]][2] if argv else cli.COMMANDS
    assert all(f"  {name}" in out for name in names)


@pytest.mark.parametrize("argv", [["-h="], ["line", "-h="], ["map", "--help="]])
def test_help_with_an_empty_value_is_refused(capsys, argv):
    assert cli.main(argv) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "error: argument -h/--help: ignored explicit argument ''\n")


def test_import_does_not_load_argparse():
    src = str(HERE.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, ringline.cli; print('argparse' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True).stdout == "False\n"
