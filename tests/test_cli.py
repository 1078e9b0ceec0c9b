"""Command-line interface: output formats, exit codes, determinism."""

import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ringline as rl
from ringline import cli
from ringline import projline as pl
from ringline.rings import _interned
from ringline.magic import PENTAGRAM_EDGE_SLOTS, DeciderDisagreement


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- basic runs and formats -------------------------------------------------

def test_ring_text(capsys):
    code, out, _ = run(capsys, "ring", "--ring", "gf(2)[x]/(x^3-x)")
    assert code == 0
    assert "8 elements" in out
    assert "units: 1 x^2+x+1" in out
    assert "jacobson radical: 0 x^2+x" in out


def test_ring_json(capsys):
    code, out, _ = run(capsys, "ring", "--ring", "gf(4)", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 4
    assert data["jacobson_radical"] == ["0"]
    assert data["quotient_map_is_homomorphism"] is True


def test_line_check(capsys):
    code, out, _ = run(capsys, "line", "--ring", "gf(2)[x]/(x^2-x)", "--check")
    assert code == 0
    assert "9 points" in out
    assert "[PASS] closed-form point count matches enumeration: " \
        "closed form 9, enumeration 9" in out
    assert "[FAIL]" not in out


def test_line_dot(capsys):
    code, out, _ = run(capsys, "line", "--ring", "gf(4)", "--format", "dot")
    assert code == 0
    assert out.startswith("graph") and out.count(" -- ") == 10


def test_verify_check_square(capsys):
    code, out, _ = run(capsys, "verify", "--builtin", "mermin_square",
                       "--check")
    assert code == 0
    assert "magic: True" in out
    assert "[FAIL]" not in out


def test_verify_check_pentagram(capsys):
    code, out, _ = run(capsys, "verify", "--builtin", "mermin_pentagram",
                       "--check")
    assert code == 0
    assert "[FAIL]" not in out


def test_bks_builtin(capsys):
    code, out, _ = run(capsys, "bks", "--builtin", "mermin_square")
    assert code == 0
    assert "NOT colorable" in out
    assert "0 1 2 3 4 5" in out


def test_bks_decides_the_three_qubit_lines(capsys, tmp_path):
    """The 315 lines on all 63 three-qubit observables are decided, not
    refused for their size."""
    words = rl.all_words(3)
    path = _write_config(tmp_path, [w.word for w in words],
                         [list(c) for c in rl.infer_contexts(words, 3)])
    code, out, err = run(capsys, "bks", "--config", path)
    assert (code, err) == (cli.EXIT_OK, "")
    assert out.startswith("BKS colorability for custom configuration: "
                          "NOT colorable\nno valuation; parity certificate")


def test_verify_config_file(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(rl.config_to_json(rl.builtin("mermin_square")))
    code, out, _ = run(capsys, "verify", "--config", str(path))
    assert code == 0
    assert "magic: True" in out


def test_entangle_check(capsys):
    code, out, _ = run(capsys, "entangle", "--builtin", "mermin_square",
                       "--check")
    assert code == 0
    assert "[FAIL]" not in out
    assert "[PASS] row 3 basis is maximally entangled" in out
    assert "[INFO]" not in out


def test_correspond_square_check(capsys):
    code, out, _ = run(capsys, "correspond", "--variant", "square", "--check")
    assert code == 0
    assert "0 mismatching pair(s)" in out
    assert "[FAIL]" not in out


def test_correspond_jacobson_check(capsys):
    code, out, _ = run(capsys, "correspond", "--variant", "jacobson",
                       "--check")
    assert code == 0
    assert "[FAIL]" not in out
    assert "[INFO]" in out


def test_correspond_permuted_jacobson_stars_lie_on_their_edges(capsys):
    """A permutation moves the points, so the edge stars are read off the
    points it places, and the claims about the unpermuted layout are not
    made."""
    code, out, _ = run(capsys, "correspond", "--variant", "jacobson",
                       "--permute", "9,1,2,3,4,5,6,7,8,0", "--check",
                       "--format", "json")
    data = json.loads(out)
    points = [entry["point"] for entry in data["bijection"]]
    stars = {e["edge"]: e["points"] for e in data["edge_star_points"]}
    assert code == 0 and data["claims"]["checked"] == []
    for label, slots in PENTAGRAM_EDGE_SLOTS:
        assert set(stars[label]) <= {points[i] for i in slots}
    # slot 0 (top) now holds (0,1): it is no star, and (1,1) at bottom-right
    # stays the star of the one top edge through slot 9
    assert stars["edge top/lower-left"] == []
    assert stars["edge top/lower-right"] == ["(1,1)"]


def test_map_check(capsys):
    for variant in ("neighbourhood", "jacobson"):
        code, out, _ = run(capsys, "map", "--variant", variant, "--check")
        assert code == 0
        assert "[FAIL]" not in out
        assert "full-set condensation" in out


def test_search_squares_check(capsys):
    code, out, _ = run(capsys, "search", "--kind", "squares", "--check")
    assert code == 0
    assert "10 result(s)" in out
    assert "72 in 1 orbit(s)" in out
    assert "[FAIL]" not in out
    assert ("[PASS] search squares: the built-in square's nine observables "
            "have 72 arrangements in one orbit: 72 in 1 orbit(s) of sizes "
            "[72]") in out


def test_search_squares_check_fails_on_another_orbit(capsys, monkeypatch):
    """The orbit of the built-in square is a checked claim: any other
    report exits 2 and names what it read."""
    monkeypatch.setattr(cli.mg, "square_orbit_report", lambda words: {
        "arrangements": 144, "orbits": 2, "orbit_sizes": [72, 72]})
    code, out, _ = run(capsys, "search", "--kind", "squares", "--check")
    assert code == 2
    assert ("[FAIL] search squares: the built-in square's nine observables "
            "have 72 arrangements in one orbit: 144 in 2 orbit(s) of sizes "
            "[72, 72]") in out


def test_search_pentagrams_budget(capsys):
    code, out, _ = run(capsys, "search", "--kind", "pentagrams",
                       "--budget", "200")
    assert code == 0
    assert "PARTIAL" in out


def test_search_negative_budget_is_an_input_error(capsys):
    for kind in ("pentagrams", "squares"):
        code, out, err = run(capsys, "search", "--kind", kind, "--budget", "-5")
        assert code == 3 and out == ""
        assert "argument --budget: must be >= 0, got -5" in err
    code, out, _ = run(capsys, "search", "--kind", "pentagrams", "--budget", "0")
    assert code == 0 and "0 result(s) [PARTIAL: budget exhausted]" in out


@pytest.mark.parametrize("budget", ["0", "5"])
def test_search_squares_refuses_a_budget(capsys, budget):
    code, out, err = run(capsys, "search", "--kind", "squares",
                         "--budget", budget)
    assert code == 3 and out == ""
    assert "argument --budget: applies to --kind pentagrams only" in err


def test_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, "ring", "--ring", "gf(5)", "--format", "json",
                     "--out", str(path))
    assert code == 0
    assert json.loads(path.read_text())["size"] == 5


@pytest.mark.parametrize("spec", ["gf(2)", "gf(2)[x]/(x^3-x)", "gf(4)xgf(3)",
                                  "gf(2)xgf(2)xgf(2)xgf(2)xgf(2)", "gf(4)"])
def test_line_json_keeps_the_bytes_of_json_dumps(spec):
    """The report holds the catalog's int8 relation itself, written from
    its bytes; the report stays byte for byte what json.dumps(indent=2)
    makes of it with the relation as lists, up to a 243-point product
    line."""
    args = cli.parse_args(
        ["line", "--ring", spec, "--check", "--format", "json"])
    data, lines, dot, claims = cli.run_line(args)
    cli._finish_claims(claims, data, lines)  # as main does
    assert "claims" in data  # a key after the relation
    assert data["relation"].dtype.name == "int8"
    body = cli._render(data, lines, "json", dot)
    listed = dict(data, relation=data["relation"].tolist())
    assert body == json.dumps(listed, indent=2) + "\n"
    if spec == "gf(4)":  # a field's line: q + 1 points, pairwise distant
        report = json.loads(body)
        assert len(report["points"]) == 5
        assert report["relation"] == [[0 if i == j else 2 for j in range(5)]
                                      for i in range(5)]


@pytest.mark.parametrize("data", [
    {"relation": []},
    {"relation": [[]]},
    {"a": "relation", "relation": [[], [1, -2, 300]], "z": {"relation": [0]}},
])
def test_relation_rows_keep_the_bytes_of_json_dumps(data):
    assert cli._render(data, [], "json") == \
        json.dumps(data, indent=2, default=str) + "\n"


_TEXT = st.text(st.one_of(st.characters(),
                          st.sampled_from('"\\/\x00\x1f\x7f\u2028')))
_LEAVES = st.one_of(st.none(), st.booleans(), _TEXT, st.integers(),
                    st.integers(-2 ** 200, 2 ** 200))
_INT_LISTS = st.lists(st.one_of(st.integers(), st.booleans()))
_VALUES = st.recursive(
    st.one_of(_LEAVES, _INT_LISTS, _INT_LISTS.map(tuple)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
        # one object repeated, as the entropy tables of a basis are
        st.tuples(inner, st.integers(1, 3)).map(lambda t: [t[0]] * t[1])),
    max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(_VALUES)
@example([0, False, 1, True, "1", "1"])  # equal, yet written apart
def test_json_writer_keeps_the_bytes_of_json_dumps(value):
    assert cli._render(value, [], "json") == json.dumps(value, indent=2) + "\n"


def test_json_writer_refuses_the_keys_json_refuses():
    with pytest.raises(TypeError):
        cli._render({"a": {(1, 2): 0}}, [], "json")
    with pytest.raises(TypeError):
        json.dumps({"a": {(1, 2): 0}}, indent=2)


@pytest.mark.parametrize("value", [
    [1, 0.5], {"a": Fraction(1, 4)}, {"a": {1: "b"}}, {None: 0}, {True: 0},
], ids=["float", "fraction", "int-key", "none-key", "bool-key"])
def test_json_writer_refuses_what_no_report_holds(value):
    """Reports hold str, int, bool, None, lists, tuples, str-keyed dicts
    and code matrices; anything else is a bug in a runner, not a value to
    print."""
    with pytest.raises(TypeError):
        cli._render(value, [], "json")


_CODES = st.integers(0, 7).flatmap(lambda n: st.lists(
    st.integers(0, 2), min_size=n * n, max_size=n * n).map(
        lambda codes: np.array(codes, dtype=np.int8).reshape(n, n)))


@settings(max_examples=200, deadline=None)
@given(_CODES, st.integers(0, 3))
@example(np.zeros((0, 0), np.int8), 0)
@example(np.ones((1, 1), np.int8), 0)
@example(np.zeros((1, 1), np.int8), 2)
def test_json_writer_writes_a_code_matrix_as_json_dumps(matrix, depth):
    """A square int8 matrix of codes, written from its bytes, reads as
    json.dumps(indent=2) writes its tolist() at any depth of a report."""
    value = matrix
    listed = matrix.tolist()
    for _ in range(depth):
        value, listed = {"relation": value, "z": [0]}, {"relation": listed,
                                                        "z": [0]}
    assert cli._render(value, [], "json") == json.dumps(listed, indent=2) + "\n"


@pytest.mark.parametrize("matrix", [
    np.zeros((2, 2)), np.full((2, 2), 10, dtype=np.int8),
    np.full((2, 2), -1, dtype=np.int8), np.zeros((2, 3), dtype=np.int8),
    np.zeros(3, dtype=np.int8), np.zeros((2, 2), dtype=np.int64),
], ids=["float", "code-10", "negative", "non-square", "1-d", "int64"])
def test_json_writer_refuses_other_arrays(matrix):
    with pytest.raises(TypeError):
        cli._render({"relation": matrix}, [], "json")


def test_search_full_results_are_the_config_json(capsys):
    code, out, _ = run(capsys, "search", "--kind", "squares", "--full",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["results"] == [json.loads(rl.config_to_json(c))
                                          for c in rl.search_squares()]


@pytest.mark.parametrize("argv, search", [
    (("--kind", "squares"), rl.search_squares),
    (("--kind", "pentagrams", "--budget", "2000"),
     lambda: rl.search_pentagrams(2000).results)])
def test_search_full_text_lists_each_result_by_its_contexts(capsys, argv,
                                                           search):
    """Text --full adds one line per result, in result order, with the
    words of each of its contexts; without --full the text has none."""
    code, out, _ = run(capsys, "search", *argv, "--full")
    assert code == 0
    listed = [line for line in out.splitlines() if line.startswith("result ")]
    assert listed == [f"result {i}: " + " | ".join(
        " ".join(o.word for o in c.context_ops(ci))
        for ci in range(len(c.contexts)))
        for i, c in enumerate(search(), 1)]
    code, short, _ = run(capsys, "search", *argv)
    assert code == 0 and listed and short.splitlines() == [
        line for line in out.splitlines() if not line.startswith("result ")]


def test_search_reverifies_only_what_it_shows(capsys, monkeypatch):
    """Without --check, JSON output does not show the re-verification, so
    it is not run; text output and --check still show it."""
    calls = []
    verify = cli.mg.verify_each
    monkeypatch.setattr(cli.mg, "verify_each",
                        lambda cfgs: calls.extend(cfgs) or verify(cfgs))
    code, out, _ = run(capsys, "search", "--kind", "squares", "--format",
                       "json")
    assert code == 0 and not calls
    assert "re-verify" not in out
    code, out, _ = run(capsys, "search", "--kind", "squares")
    assert code == 0 and len(calls) == 10
    assert "all results re-verified magic: True" in out
    code, out, _ = run(capsys, "search", "--kind", "squares", "--check",
                       "--format", "json")
    assert code == 0 and len(calls) == 20
    assert {"claim": "search squares: all results re-verify as magic",
            "ok": True, "detail": ""} in json.loads(out)["claims"]["checked"]


def test_full_pentagram_search_holds_little_besides_its_results(capsys):
    """The search's candidates and their tables are freed once packed, the
    12096 results are compact rows (about 0.26 MB with their one K5
    template) built into configurations as they are read, and the
    re-verification reports are checked one at a time."""
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "search", "--kind", "pentagrams",
                           "--check", "--format", "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_OK and json.loads(out)["count"] == 12096
    # 1.1 MB measured on its own (1.65 MB with one template per shape of
    # contexts), plus a margin for other Python and numpy builds; 5.8 MB
    # with all 12096 results held as configurations
    assert peak < 4e6


# --- entangle ---------------------------------------------------------------

def _entangle(*source):
    """The JSON data of ``ringline entangle`` on one source, and the
    configuration it read."""
    args = cli.parse_args(["entangle", *source])
    return cli.run_entangle(args)[0], cli._load_config(args)


def _write_config(tmp_path, observables, contexts):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": len(observables[0]),
                                "observables": observables,
                                "contexts": contexts}))
    return str(path)


@pytest.mark.parametrize("builtin, seen", [
    ("mermin_square", {True, False}),
    ("mermin_pentagram", {False}),  # every two edges share an observable
    (None, {True, False})])
def test_entangle_unbiasedness_is_mutually_unbiased(builtin, seen, tmp_path):
    if builtin:
        data, cfg = _entangle("--builtin", builtin)
    else:  # product, entangled and overlapping three-qubit bases
        data, cfg = _entangle("--config", _write_config(
            tmp_path, ["ZII", "IZI", "IIZ", "XII", "IXI", "IIX", "XXX", "ZZI",
                       "IZZ", "YYX", "YXY"],
            [[0, 1, 2], [3, 4, 5], [6, 7, 8], [0, 4, 5], [6, 9, 10]]))
    labels = cfg.context_labels
    want = [{"contexts": [labels[a], labels[b]],
             "mutually_unbiased": rl.mutually_unbiased(cfg.context_ops(a),
                                                       cfg.context_ops(b))}
            for a, b in itertools.combinations(range(len(labels)), 2)]
    assert data["unbiasedness"] == want
    assert {p["mutually_unbiased"] for p in want} == seen


@pytest.mark.parametrize("observables, contexts, message", [
    pytest.param(["XI", "IX", "ZI"], [[0, 1], [0, 2]],
                 "XI and ZI do not commute", id="noncommuting"),
    pytest.param(["XI", "IX"], [[0, 1], [0]],
                 "context generates a 2^1-element group; need rank 2",
                 id="rank-deficient"),
    pytest.param(["XI", "IX", "X"], [[0, 1], [0, 2]],
                 "qubit counts differ", id="mixed-qubits"),
    pytest.param(["XI", "IX", "X", "ZI", "IZ"], [[0, 1], [2], [3, 4]],
                 "dimension mismatch", id="different-n"),
])
def test_entangle_refuses_as_the_public_functions_do(observables, contexts,
                                                     message, tmp_path):
    """run_entangle raises what classifying every context and then testing
    every pair with the public functions raises first."""
    path = _write_config(tmp_path, observables, contexts)
    cfg = rl.config_from_json(Path(path).read_text())
    ops = [cfg.context_ops(ci) for ci in range(len(contexts))]
    with pytest.raises(ValueError) as public:
        for c in ops:
            rl.classify_context(c)
        for a, b in itertools.combinations(ops, 2):
            rl.mutually_unbiased(a, b)
    with pytest.raises(ValueError) as ours:
        _entangle("--config", path)
    assert type(ours.value) is type(public.value)
    assert str(ours.value) == str(public.value) == message


# --- exit codes -------------------------------------------------------------

def test_input_error_exit_code(capsys):
    code, _, err = run(capsys, "ring", "--ring", "gf(6)")
    assert code == cli.EXIT_INPUT
    assert "input error" in err


def test_bad_permutation_exit_code(capsys):
    code, _, _ = run(capsys, "correspond", "--variant", "square",
                     "--permute", "0,0,1,2,3,4,5,6,7")
    assert code == cli.EXIT_INPUT


def test_non_integer_permutation_exit_code(capsys):
    code, out, err = run(capsys, "correspond", "--variant", "jacobson",
                         "--permute", "0,1,2,3,4,5,6,7,8,nine")
    assert code == cli.EXIT_INPUT
    assert out == "" and err.startswith("input error: permutation")


def test_map_other_ring_exit_code(capsys):
    code, out, err = run(capsys, "map", "--ring", "gf(4)",
                         "--variant", "jacobson")
    assert code == cli.EXIT_INPUT
    assert out == "" and err.startswith("input error: condensation")


@pytest.mark.parametrize("spec", ["gf(2)[x]/(x^3+x)", "gf(2)[x]/(x+x^3)",
                                  "GF(2)[x]/(x^3 - x)"])
def test_map_accepts_every_spelling_of_its_ring(capsys, spec):
    """The ring is compared, not its spelling: over GF(2), x^3+x is x^3-x."""
    argv = ["map", "--variant", "jacobson", "--check", "--format", "json"]
    want = run(capsys, *argv)
    assert want[0] == cli.EXIT_OK
    assert run(capsys, *argv, "--ring", spec) == want


def test_map_unparsable_ring_exit_code(capsys):
    code, out, err = run(capsys, "map", "--ring", "gf(2)[x]/(x^3-",
                         "--variant", "jacobson")
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err.startswith("input error: cannot parse ring spec")


@pytest.mark.parametrize("spec, where", [
    ("gf(2)[x]/(x^3-", "at position 14 to close the modulus opened at "
                       "position 9"),
    ("gf(2)[x]/(", "at position 10 to close the modulus opened at position 9"),
    ("gf(3)xgf(2)[x]/(x^2+1", "at position 21 to close the modulus opened "
                              "at position 15"),
    ("gf(2)[x]/(x^(2", "at position 14 to close the modulus opened at "
                       "position 9")])
def test_unclosed_modulus_names_the_missing_paren(capsys, spec, where):
    for command in ("ring", "line"):
        code, out, err = run(capsys, command, "--ring", spec)
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err == (f"input error: cannot parse ring spec {spec!r}: "
                       f"missing ')' {where}\n")


@pytest.mark.parametrize("spec, fault", [
    ("gf(2)[x]/(x^2xgf(3)", "'g'"), ("gf(2)[x]/(x^(2)", "'^'")])
def test_paren_inside_a_modulus_is_named_in_the_modulus(capsys, spec, fault):
    for command in ("ring", "line"):
        code, out, err = run(capsys, command, "--ring", spec)
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err == (f"input error: cannot parse ring spec {spec!r}: "
                       f"unexpected {fault} in modulus\n")


def test_internal_value_error_exit_code(capsys, monkeypatch):
    # a ValueError from inside the package is a bug, not bad input
    def boom(variant):
        raise ValueError("forced for the test")
    monkeypatch.setattr("ringline.correspond.condensation", boom)
    code, _, err = run(capsys, "map", "--variant", "jacobson")
    assert code == cli.EXIT_INTERNAL
    assert err == "internal error: ValueError: forced for the test\n"


def test_unknown_argument_exit_code(capsys):
    code, _, _ = run(capsys, "ring", "--ring", "gf(4)", "--bogus")
    assert code == cli.EXIT_INPUT


def test_claim_failure_exit_code(capsys, monkeypatch):
    # force a wrong documented count to exercise the claim-mismatch path
    monkeypatch.setitem(cli._KNOWN_COUNTS, "gf(4)", 6)
    code, out, _ = run(capsys, "line", "--ring", "gf(4)", "--check")
    assert code == cli.EXIT_CLAIM
    assert "[FAIL]" in out
    # the table is matched by ring, so another spelling reads the same count
    code, out, _ = run(capsys, "line", "--ring", "GF(2^2)", "--check")
    assert code == cli.EXIT_CLAIM
    assert "[FAIL] point count of the line over gf(4): expected 6, got 5" in out


@pytest.mark.parametrize("spec, known, count", [
    ("gf(2)[x]/(x^3-x)", "gf(2)[x]/(x^3-x)", 18),
    ("gf(2)[x]/(x^3+x)", "gf(2)[x]/(x^3-x)", 18),
    ("GF(2^1)[x]/(x+x^3)", "gf(2)[x]/(x^3-x)", 18),
    ("gf(2)[x]/(x^2+x)", "gf(2)[x]/(x^2-x)", 9),
    ("GF(2) X GF(2)", "gf(2)xgf(2)", 9),
    ("gf(2^3)", "gf(8)", 9),
    ("gf(2^2)", "gf(4)", 5),
])
def test_known_count_is_found_by_ring_not_spelling(capsys, spec, known, count):
    code, out, _ = run(capsys, "line", "--ring", spec, "--check",
                       "--format", "json")
    assert code == cli.EXIT_OK
    assert {"claim": f"point count of the line over {known}", "ok": True,
            "detail": f"expected {count}, got {count}"} \
        in json.loads(out)["claims"]["checked"]


def test_ring_without_a_known_count_claims_only_the_closed_form(capsys):
    code, out, _ = run(capsys, "line", "--ring", "gf(7)", "--check",
                       "--format", "json")
    assert code == cli.EXIT_OK
    assert [c["claim"] for c in json.loads(out)["claims"]["checked"]] == [
        "closed-form point count matches enumeration"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_line_renders_each_point_once(capsys, monkeypatch, fmt):
    """A point's name is rendered at most once per ring per process: the
    first request on a ring new to the memo names its 18 points, and a
    second request names none."""
    calls = []
    render = rl.ProjPoint.__str__

    def counted(p):
        calls.append(p)
        return render(p)
    monkeypatch.setattr(rl.ProjPoint, "__str__", counted)
    _interned.cache_clear()
    outputs = []
    for want in (18, 0):
        calls.clear()
        code, out, _ = run(capsys, "line", "--ring", "gf(2)[x]/(x^3-x)",
                           "--check", "--format", fmt)
        assert code == cli.EXIT_OK
        assert len(calls) == len(set(calls)) == want
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_each_line_check_request_counts_and_enumerates_once(capsys,
                                                            monkeypatch):
    """The first and a warm ``line --check`` request each call
    ``enumerate_points`` and ``expected_point_count`` once, through the
    module attributes that ringbench's tracer wraps."""
    calls = []
    for name in ("enumerate_points", "expected_point_count"):
        def counted(*args, fn=getattr(pl, name), name=name):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(pl, name, counted)
    _interned.cache_clear()
    assert rl.build_ring("gf(2)[x]/(x^3+x)")._line is None
    for _ in range(2):
        calls.clear()
        code, _, _ = run(capsys, "line", "--ring", "gf(2)[x]/(x^3-x)",
                         "--check", "--format", "json")
        assert code == cli.EXIT_OK
        assert sorted(calls) == ["enumerate_points", "expected_point_count"]
    assert rl.build_ring("gf(2)[x]/(x^3-x)")._line is not None


def test_internal_error_exit_code(capsys, monkeypatch):
    def boom(cfg):
        raise DeciderDisagreement("forced for the test")
    monkeypatch.setattr("ringline.magic.bks_decide", boom)
    code, _, err = run(capsys, "bks", "--builtin", "mermin_square")
    assert code == cli.EXIT_INTERNAL
    assert "internal error" in err


def test_unreadable_paths_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--config", str(tmp_path / "none.json"))
    assert code == cli.EXIT_INPUT
    assert err.startswith("input error: ")
    code, _, err = run(capsys, "ring", "--ring", "gf(4)",
                       "--out", str(tmp_path / "none" / "report.txt"))
    assert code == cli.EXIT_INPUT
    assert err.startswith("input error: ")


def test_unexpected_exception_exit_code(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("forced for the test")
    monkeypatch.setitem(cli.COMMANDS, "ring", (boom, *cli.COMMANDS["ring"][1:]))
    code, out, err = run(capsys, "ring", "--ring", "gf(4)")
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert err == "internal error: RuntimeError: forced for the test\n"


@pytest.mark.parametrize("command", ["verify", "bks", "entangle"])
@pytest.mark.parametrize("n, contexts", [("2", [[0, 1, 5]]),
                                         ("2", [[0, 1, 2], []]),
                                         ("2", [[0, 1, 2.5]]),
                                         ("2", [[0, 1, "2"]]),
                                         ("2", [[0, 1, 2], [0, 0, 1, 1]]),
                                         ("1e400", [[0, 1, 2]]),
                                         ("2.7", [[0, 1, 2]])],
                         ids=["out-of-range", "empty", "float", "string",
                              "repeated", "n-overflow", "n-fraction"])
def test_invalid_config_exit_code(capsys, tmp_path, command, n, contexts):
    path = tmp_path / "cfg.json"
    # n is JSON text: json.dumps cannot write 1e400, which loads as inf
    path.write_text(f'{{"n": {n}, "observables": ["XI", "IX", "XX"], '
                    f'"contexts": {json.dumps(contexts)}}}')
    code, out, err = run(capsys, command, "--config", str(path))
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "bks", "entangle"])
def test_non_numeric_qubit_count_exit_code(capsys, tmp_path, command):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": "two", "observables": ["XI", "IX", "XX"],
                                "contexts": [[0, 1, 2]]}))
    code, out, err = run(capsys, command, "--config", str(path))
    assert code == cli.EXIT_INPUT
    assert out == "" and err.startswith("input error: bad configuration JSON")


@pytest.mark.parametrize("command", ["verify", "bks", "entangle"])
@pytest.mark.parametrize("config, field, what", [
    ({"n": 1, "observables": "XX", "contexts": [[0, 1]]},
     "observables", "a list"),
    ({"n": 2, "observables": {"XI": 0, "IX": 1, "XX": 2},
      "contexts": [[0, 1, 2]]}, "observables", "a list"),
    ({"n": 2, "observables": ["XI", "IX", "XX"], "contexts": {},
      "geometry": "custom"}, "contexts", "a list"),
    ({"n": 2, "observables": ["XI", "IX", "XX"], "contexts": [[0, 1, 2]],
      "geometry": ["square"]}, "geometry", "a string"),
], ids=["observables-string", "observables-object", "contexts-object",
        "geometry-list"])
def test_mistyped_config_field_exit_code(capsys, tmp_path, command, config,
                                         field, what):
    """A string or an object of observables would be read letter by letter
    or key by key, and a geometry that is no string printed as its repr."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, command, "--config", str(path))
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == (f"input error: bad configuration JSON: {field} = "
                   f"{config[field]!r} is not {what}\n")


@pytest.mark.parametrize("command", ["verify", "bks", "entangle"])
@pytest.mark.parametrize("n", [-1, 0])
def test_nonpositive_qubit_count_exit_code(capsys, tmp_path, command, n):
    """A configuration on no qubits, or on fewer, was read as one and
    reported ("configuration: custom on -1 qubits", exit 0)."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": n, "observables": [], "contexts": []}))
    code, out, err = run(capsys, command, "--config", str(path))
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == (f"input error: bad configuration JSON: n = {n} is not a "
                   "positive qubit count\n")


@pytest.mark.parametrize("command", ["verify", "bks", "entangle"])
@pytest.mark.parametrize("text", ["[1, 2]", '"square"', "3", "null", "true"],
                         ids=["array", "string", "number", "null", "true"])
def test_non_object_config_exit_code(capsys, tmp_path, command, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    code, out, err = run(capsys, command, "--config", str(path))
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == "input error: bad configuration JSON: expected an object\n"


@pytest.mark.parametrize("command", ["verify", "bks", "entangle"])
def test_non_utf8_config_exit_code(capsys, tmp_path, command):
    """A file that is no UTF-8 text, here one opening with a UTF-16 byte
    order mark, is bad input, not an internal decoding error."""
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff\xfe" + '{"n": 1}'.encode("utf-16-le"))
    code, out, err = run(capsys, command, "--config", str(path))
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == (f"input error: {path} is not UTF-8 text "
                   "(invalid start byte at byte 0)\n")


@pytest.mark.parametrize("command", ["verify", "bks", "entangle"])
@pytest.mark.parametrize("geometry", ["sqaure", "Square", "hexagon", ""])
def test_unknown_geometry_exit_code(capsys, tmp_path, command, geometry):
    """A misspelt geometry would be checked as custom, skipping the shape
    check that the intended one asks for."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 2, "observables": ["XI", "IX", "XX"],
                                "contexts": [[0, 1, 2]],
                                "geometry": geometry}))
    code, out, err = run(capsys, command, "--config", str(path))
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == (f"input error: unknown geometry {geometry!r}: "
                   "expected square, pentagram or custom\n")


@pytest.mark.parametrize("command, config, want", [
    ("entangle", {"n": 1, "observables": ["X"], "contexts": [[0]]},
     "context 1: X -> product\n"),
    ("verify", {"n": 2, "observables": [], "contexts": [],
                "geometry": "square"},
     "configuration: square on 2 qubits\n"
     "structural error: square needs 9 observables in 6 contexts\n"),
], ids=["one-qubit-basis", "square-without-cells"])
def test_edge_config_is_handled(capsys, tmp_path, command, config, want):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, command, "--config", str(path))
    assert code == cli.EXIT_OK and err == ""
    assert want in out


def test_mixed_qubit_counts_are_reported_by_verify(capsys, tmp_path):
    """verify reports a context of mixed qubit counts as a structural
    error; bks and entangle, which need every context's product, refuse."""
    path = _write_config(tmp_path, ["XI", "IX", "XXX"], [[0, 1, 2]])
    code, out, err = run(capsys, "verify", "--config", path)
    assert (code, err) == (cli.EXIT_OK, "")
    assert out == ("configuration: custom on 2 qubits\n"
                   "  XI IX XXX\n"
                   "context 1: XI IX XXX [NOT commuting, sign ??]"
                   " (qubit counts differ)\n"
                   "structural error: observable qubit-count mismatch\n"
                   "magic: False\n")
    code, out, err = run(capsys, "verify", "--config", path, "--format", "json")
    data = json.loads(out)
    assert code == cli.EXIT_OK and data["bks"] is None and not data["magic"]
    assert data["contexts"][0]["note"] == "qubit counts differ"
    for command in ("bks", "entangle"):
        code, out, err = run(capsys, command, "--config", path)
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err == "input error: qubit counts differ\n"


def test_parser_is_reused_after_a_failed_parse(capsys):
    # a refused request leaves nothing behind: the next one reads as in a
    # fresh process
    argv = ("line", "--ring", "gf(2)[x]/(x^2-x)", "--check", "--format", "json")
    fresh = _run_process(*argv)
    code, _, err = run(capsys, "verify", "--builtin", "mermin_square",
                       "--config", "cfg.json")
    assert code == cli.EXIT_INPUT and "not allowed with" in err
    code, _, _ = run(capsys, "line", "--ring", "gf(4)", "--graph", "both")
    assert code == cli.EXIT_INPUT
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)


def _run_process(*argv, timeout=30):
    """The CLI in a fresh interpreter, killed (and the test failed) after
    `timeout` seconds, so an input that hangs the parser fails the suite."""
    src = str(Path(rl.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [
                   src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "ringline.cli", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env=env)


@pytest.mark.parametrize("spec", ["gf(2)[x]/(x*x)", "gf(2)[x]/(x^2^)",
                                  "gf(99999999999999999999999989)",
                                  "gf(3^100000000)", "gf(1^10000000000)",
                                  "gf(0^10000000000)"])
def test_bad_ring_spec_exits_promptly(spec):
    proc = _run_process("ring", "--ring", spec)
    assert proc.returncode == cli.EXIT_INPUT
    assert proc.stdout == "" and proc.stderr.startswith("input error: ")


def test_huge_exponent_rejected_before_building():
    tracemalloc.start()
    try:
        with pytest.raises(rl.RingError, match="size cap"):
            rl.build_ring("gf(2)[x]/(x^3000000+1)")
        with pytest.raises(rl.RingError, match="number too long"):
            rl.build_ring("gf(2)[x]/(x^" + "9" * 5000 + ")")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a 3,000,001-coefficient list alone is 24 MB


def test_size_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("RINGLINE_SIZE_CAP", "4")
    code, _, err = run(capsys, "ring", "--ring", "gf(8)")
    assert code == cli.EXIT_INPUT
    assert "input error" in err


def test_size_cap_env_refuses_a_ring_already_built(capsys, monkeypatch):
    # one process builds each ring once; the cap still refuses it later
    assert run(capsys, "line", "--ring", "gf(4)xgf(4)", "--check")[0] == 0
    monkeypatch.setenv("RINGLINE_SIZE_CAP", "8")
    code, out, err = run(capsys, "line", "--ring", "GF(4) x GF(2^2)")
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == "input error: product ring exceeds size cap 8\n"


def test_non_integer_size_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("RINGLINE_SIZE_CAP", "lots")
    code, out, err = run(capsys, "line", "--ring", "gf(4)")
    assert code == cli.EXIT_INPUT
    assert out == "" and err.startswith("input error: RINGLINE_SIZE_CAP")


# --- determinism ------------------------------------------------------------

CHECK_RUNS = (
    ("ring", "--ring", "gf(2)[x]/(x^3-x)"),
    ("line", "--ring", "gf(2)[x]/(x^3-x)", "--check"),
    ("line", "--ring", "gf(2)[x]/(x^2-x)", "--check"),
    ("line", "--ring", "gf(2)xgf(2)", "--check"),
    ("line", "--ring", "gf(4)", "--check"),
    ("line", "--ring", "gf(8)", "--check"),
    ("verify", "--builtin", "mermin_square", "--check"),
    ("verify", "--builtin", "mermin_pentagram", "--check"),
    ("bks", "--builtin", "mermin_square"),
    ("bks", "--builtin", "mermin_pentagram"),
    ("entangle", "--builtin", "mermin_square", "--check"),
    ("entangle", "--builtin", "mermin_pentagram", "--check"),
    ("correspond", "--variant", "square", "--check"),
    ("correspond", "--variant", "neighbourhood", "--check"),
    ("correspond", "--variant", "jacobson", "--check"),
    ("map", "--variant", "neighbourhood", "--check"),
    ("map", "--variant", "jacobson", "--check"),
    ("search", "--kind", "squares", "--check", "--full"),
)


def full_check_report(capsys, fmt="text"):
    chunks = []
    for argv in CHECK_RUNS:
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0, argv
        chunks.append(out)
    return "".join(chunks)


def test_check_runs_are_deterministic(capsys):
    first = full_check_report(capsys)
    second = full_check_report(capsys)
    assert first == second
    first_json = full_check_report(capsys, fmt="json")
    assert first_json == full_check_report(capsys, fmt="json")
