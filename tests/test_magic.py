"""Magic configurations: verification, BKS colorability, searches."""

import json

import pytest

import ringline as rl
from ringline.magic import (PENTAGRAM_WORDS, SQUARE_WORDS, Configuration,
                            _grid_canonical)
from ringline.pauli import PauliObservable


def _signs_by_label(report):
    return {c.label: c.sign for c in report.contexts}


# --- built-in configurations ------------------------------------------------

def test_square_verification():
    cfg = rl.builtin("mermin_square")
    report = rl.verify_magic(cfg)
    assert report.structural_errors == ()
    assert all(c.commuting for c in report.contexts)
    assert _signs_by_label(report) == {
        "row 1": 1, "row 2": 1, "row 3": 1,
        "column 1": 1, "column 2": 1, "column 3": -1}
    assert report.magic


def test_pentagram_verification():
    cfg = rl.builtin("mermin_pentagram")
    report = rl.verify_magic(cfg)
    assert report.structural_errors == ()
    assert all(c.commuting for c in report.contexts)
    signs = _signs_by_label(report)
    assert signs.pop("horizontal") == -1
    assert set(signs.values()) == {1} and len(signs) == 4
    assert report.magic


def test_verification_decides_on_its_own_signs(monkeypatch):
    def recompute(ops):
        raise AssertionError("verify_magic recomputed the context signs")
    monkeypatch.setattr("ringline.magic.context_product_sign", recompute)
    for name in ("mermin_square", "mermin_pentagram"):
        assert rl.verify_magic(rl.builtin(name)).magic


def test_pentagram_contexts_are_inferred():
    obs = [PauliObservable(w) for w in PENTAGRAM_WORDS]
    inferred = rl.infer_contexts(obs, 4)
    assert len(inferred) == 5
    cfg = rl.builtin("mermin_pentagram")
    assert {frozenset(c) for c in inferred} == \
        {frozenset(c) for c in cfg.contexts}


def test_unknown_builtin():
    with pytest.raises(rl.ConfigError):
        rl.builtin("nonesuch")


@pytest.mark.parametrize("labels", [("row 1",), ("a",) * 7])
def test_context_labels_must_match_the_contexts(labels):
    square = rl.builtin("mermin_square")
    with pytest.raises(rl.ConfigError, match="context label"):
        Configuration(2, square.observables, square.contexts, "square", labels)


# --- BKS decision -----------------------------------------------------------

def test_square_certificate_spans_all_contexts():
    result = rl.bks_decide(rl.builtin("mermin_square"))
    assert not result.colorable
    assert result.certificate == (0, 1, 2, 3, 4, 5)


def test_pentagram_certificate_spans_all_contexts():
    result = rl.bks_decide(rl.builtin("mermin_pentagram"))
    assert not result.colorable
    assert result.certificate == (0, 1, 2, 3, 4)


def test_colorable_configuration():
    # drop the sign obstruction: a single row context is trivially colorable
    cfg = Configuration(2, tuple(PauliObservable(w)
                                 for w in ("XI", "IX", "XX", "IY")),
                        ((0, 1, 2),), "custom")
    result = rl.bks_decide(cfg)
    assert result.colorable
    prod = 1
    for i in (0, 1, 2):
        prod *= result.valuation[i]
    assert prod == 1  # reproduces the +1 context sign


def test_certificate_parity_property():
    cfg = rl.builtin("mermin_square")
    cert = rl.bks_decide(cfg).certificate
    counts = [0] * 9
    sign_prod = 1
    from ringline.pauli import context_product_sign
    for ci in cert:
        sign_prod *= context_product_sign(cfg.context_ops(ci))
        for i in cfg.contexts[ci]:
            counts[i] += 1
    assert sign_prod == -1
    assert all(c % 2 == 0 for c in counts)


def test_structural_errors():
    obs = tuple(PauliObservable(w) for w in SQUARE_WORDS)
    bad = Configuration(2, obs[:8] + (obs[0],),
                        rl.builtin("mermin_square").contexts, "square")
    assert "duplicate observable" in rl.verify_magic(bad).structural_errors
    short = Configuration(2, obs[:6], ((0, 1, 2), (3, 4, 5)), "square")
    assert any("9 observables" in e
               for e in rl.verify_magic(short).structural_errors)
    pentagram = rl.builtin("mermin_pentagram")
    thin = Configuration(3, pentagram.observables,
                         ((0, 2, 5),) + pentagram.contexts[1:], "pentagram")
    assert rl.verify_magic(thin).structural_errors == (
        "pentagram contexts must have size 4",)
    crossed = Configuration(2, obs, ((0, 1, 2), (3, 4, 5), (6, 7, 8),
                                     (0, 3, 6), (1, 4, 7), (0, 4, 8)),
                            "square")
    assert rl.verify_magic(crossed).structural_errors == (
        "each square observable lies in one row and one column",)


@pytest.mark.parametrize("n, observables, contexts", [
    (-1, (), ()),
    (0, (), ()),
    (0, (PauliObservable("X"),), ((0,),)),
])
def test_configuration_refuses_a_nonpositive_qubit_count(n, observables,
                                                         contexts):
    """A configuration on no qubits, or on fewer, is refused where it is
    built, not verified as an empty or mismatched one."""
    with pytest.raises(rl.ConfigError, match="not a positive qubit count"):
        Configuration(n, observables, contexts, "custom")


@pytest.mark.parametrize("n", [2.5, True, "2", None])
def test_configuration_refuses_a_qubit_count_that_is_no_int(n):
    """Only an int that is no bool counts qubits: a float or a bool is not
    taken as one, and a string or None is a ConfigError, not a TypeError."""
    with pytest.raises(rl.ConfigError, match="not a positive qubit count"):
        Configuration(n, (), (), "custom")


def test_verify_decides_despite_structural_errors():
    """A duplicate observable is a structural error: verify_magic still
    decides colorability on the known signs, but reports no magic."""
    square = rl.builtin("mermin_square")
    cfg = Configuration(2, square.observables + square.observables[:1],
                        square.contexts, "custom")
    report = rl.verify_magic(cfg)
    assert report.structural_errors == ("duplicate observable",)
    assert report.bks == rl.bks_decide(cfg) and not report.bks.colorable
    assert not report.magic


def test_verify_rejects_noncommuting_context():
    cfg = Configuration(1, (PauliObservable("X"), PauliObservable("Y")),
                        ((0, 1),), "custom")
    report = rl.verify_magic(cfg)
    assert not report.contexts[0].commuting
    assert not report.magic


def test_verify_notes_match_the_product_sign_errors():
    """verify_magic tests each pair once, then signs the product; its notes
    are the texts context_product_sign raises."""
    obs = tuple(PauliObservable(w) for w in ("XI", "IX", "XX", "ZI"))
    cfg = Configuration(2, obs, ((0, 1), (0, 1, 2), (0, 3)), "custom")
    report = rl.verify_magic(cfg)
    with pytest.raises(rl.PauliError) as err:
        rl.context_product_sign([obs[0], obs[1]])
    assert [(c.commuting, c.sign, c.note) for c in report.contexts] == [
        (True, None, str(err.value)), (True, 1, ""),
        (False, None, "not pairwise commuting")]
    assert str(err.value) == "context product XX is not a scalar"
    assert report.bks is None and not report.magic


# --- searches ---------------------------------------------------------------

def test_search_squares():
    results = rl.search_squares()
    assert len(results) == 10
    canon = {_grid_canonical(tuple(o.word for o in c.observables))
             for c in results}
    assert _grid_canonical(SQUARE_WORDS) in canon
    for cfg in results:
        assert rl.verify_magic(cfg).magic
        assert not rl.bks_decide(cfg).colorable


def test_square_orbit_report():
    report = rl.square_orbit_report(SQUARE_WORDS)
    assert report == {"arrangements": 72, "orbits": 1, "orbit_sizes": [72]}


def test_search_pentagrams_complete(pentagram_search):
    assert pentagram_search.complete
    assert len(pentagram_search.results) == 12096


def test_search_pentagrams_contains_builtin(pentagram_search):
    ref = rl.builtin("mermin_pentagram")
    key = (frozenset(o.word for o in ref.observables),
           frozenset(frozenset(ref.observables[i].word for i in ctx)
                     for ctx in ref.contexts))
    keys = {(frozenset(o.word for o in c.observables),
             frozenset(frozenset(c.observables[i].word for i in ctx)
                       for ctx in c.contexts))
            for c in pentagram_search.results}
    assert key in keys
    assert len(keys) == len(pentagram_search.results)  # no duplicates


def test_search_pentagram_results_reverify_sample(pentagram_search):
    # full re-verification lives in the acceptance gate; spot-check here
    for cfg in pentagram_search.results[::500]:
        report = rl.verify_magic(cfg)
        assert report.structural_errors == ()
        assert report.magic


def test_search_pentagrams_budget():
    outcome = rl.search_pentagrams(budget=200)
    assert not outcome.complete
    assert len(outcome.results) < 12096


# --- JSON wire format -------------------------------------------------------

def test_config_json_roundtrip():
    cfg = rl.builtin("mermin_pentagram")
    text = rl.config_to_json(cfg)
    back = rl.config_from_json(text)
    assert back.n == cfg.n
    assert back.observables == cfg.observables
    assert back.contexts == cfg.contexts
    assert json.loads(text)["geometry"] == "pentagram"


def test_config_json_errors():
    with pytest.raises(rl.ConfigError):
        rl.config_from_json("{not json")
    with pytest.raises(rl.ConfigError):
        rl.config_from_json('{"n": 2}')
