"""Stabilizer eigenbases: entropies against the density-matrix oracle,
entanglement classes, mutual unbiasedness against the projector oracle."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ringline as rl
from matrix_oracle import (GaussMat, bipartite_entropy_oracle,
                           overlap_table_oracle, projector, signed_states)
from ringline import gf2
from ringline.entangle import (EntangleError, classify_generators,
                               context_generators)
from ringline.pauli import PauliObservable, all_words, symplectic_rows


def _ops(*words):
    return [PauliObservable(w) for w in words]


def _all_contexts():
    square = rl.builtin("mermin_square")
    pent = rl.builtin("mermin_pentagram")
    for cfg in (square, pent):
        for ci in range(len(cfg.contexts)):
            yield cfg.context_ops(ci)


@st.composite
def _maximal_context(draw, n):
    """First n words of a random ordering that commute with and are
    independent of the words already taken; every Lagrangian is reachable."""
    chosen = []
    for w in draw(st.permutations(all_words(n))):
        if all(rl.commutes(w, c) for c in chosen) and \
                gf2.rank(symplectic_rows(chosen + [w])) == len(chosen) + 1:
            chosen.append(w)
            if len(chosen) == n:
                return chosen


# --- eigenbases -------------------------------------------------------------

def test_joint_eigenbasis_needs_full_rank():
    with pytest.raises(EntangleError):
        context_generators(_ops("XI"))


def test_joint_eigenbasis_projectors_resolve_identity():
    basis = signed_states(_ops("XX", "YY", "ZZ"))
    assert len(basis) == 4
    total = projector(basis[0])
    for state in basis[1:]:
        total = total + projector(state)
    # sum of the four rank-one projectors, each carried at 4x scale
    assert total == GaussMat.identity(4).scaled(4)


# --- entropy: primary path vs density-matrix oracle -------------------------

def test_entropy_matches_oracle_everywhere():
    for ops in _all_contexts():
        n = ops[0].n
        parts = [c for size in range(1, n)
                 for c in itertools.combinations(range(1, n + 1), size)]
        entropies = rl.classify_context(ops).entropies
        for b, state in enumerate(signed_states(ops)):
            for part in parts:
                assert entropies[b][part] == \
                    bipartite_entropy_oracle(state, set(part))


def test_entropy_examples():
    bell = rl.classify_context(_ops("XX", "ZZ")).entropies[0]
    assert bell[(1,)] == 1
    product = rl.classify_context(_ops("XI", "IX")).entropies[0]
    assert product[(1,)] == 0
    ghz = rl.classify_context(_ops("XXX", "ZZI", "IZZ")).entropies[0]
    for part in ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3)):
        assert ghz[part] == 1


# --- classification ---------------------------------------------------------

def test_square_context_classes():
    cfg = rl.builtin("mermin_square")
    classes = {cfg.context_labels[ci]:
               rl.classify_context(cfg.context_ops(ci)).classification
               for ci in range(6)}
    assert classes["row 1"] == "product"
    assert classes["row 2"] == "product"
    assert classes["column 1"] == "product"
    assert classes["column 2"] == "product"
    assert classes["column 3"] == "maximally-entangled"
    # frozen computed value; reported with a caveat note by the CLI
    assert classes["row 3"] == "maximally-entangled"


def test_pentagram_horizontal_is_ghz_like():
    cls = rl.classify_context(_ops("XXX", "YYX", "YXY", "XYY"))
    assert cls.classification == "maximally-entangled"
    for table in cls.entropies:
        for part in ((1,), (2,), (3,)):
            assert table[part] == 1


def test_mixed_character_class():
    # Bell pair on qubits 1-2 times a free qubit 3: entropy depends on the cut
    cls = rl.classify_context(_ops("XXI", "ZZI", "IIZ"))
    assert cls.classification == "mixed-character"


def _entropies_match_oracle_per_state(ops):
    """classify_context computes one table; each of the 2^n signed basis
    states must have exactly that table under the density-matrix oracle."""
    n = ops[0].n
    cls = rl.classify_context(ops)
    assert len(cls.entropies) == 2 ** n
    for table, state in zip(cls.entropies, signed_states(ops)):
        assert table == {part: bipartite_entropy_oracle(state, set(part))
                         for size in range(1, n)
                         for part in itertools.combinations(range(1, n + 1),
                                                            size)}


def test_classified_entropies_match_oracle_per_state():
    for ops in _all_contexts():
        _entropies_match_oracle_per_state(ops)


@pytest.mark.parametrize("n", [1, 2, 3])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_random_classified_entropies_match_oracle_per_state(n, data):
    _entropies_match_oracle_per_state(data.draw(_maximal_context(n)))


# --- unbiasedness -----------------------------------------------------------

def test_rows_one_two_mutually_unbiased():
    row1, row2 = _ops("XI", "IX", "XX"), _ops("IY", "YI", "YY")
    assert rl.mutually_unbiased(row1, row2) is True
    table = rl.overlap_table(row1, row2)
    assert all(v == Fraction(1, 4) for row in table for v in row)


def test_overlapping_contexts_not_unbiased():
    # row 1 and column 1 share XI, so some overlaps are 1/2 and others 0
    row1, col1 = _ops("XI", "IX", "XX"), _ops("XI", "IY", "XY")
    assert rl.mutually_unbiased(row1, col1) is False
    table = rl.overlap_table(row1, col1)
    flat = sorted({v for row in table for v in row})
    assert flat == [Fraction(0), Fraction(1, 2)]


@pytest.mark.parametrize("bad, message", [
    pytest.param((), "empty context", id="empty"),
    pytest.param(("XI", "ZI"), "XI and ZI do not commute", id="noncommuting"),
    pytest.param(("XI",), "context generates a 2^1-element group; "
                 "need rank 2", id="rank-deficient"),
    pytest.param(("XI", "X"), "qubit counts differ", id="mixed-qubits"),
    # maximal, but on 1 qubit where the other context has 2
    pytest.param(("X",), "dimension mismatch", id="different-n"),
])
def test_mutually_unbiased_refuses_what_overlap_table_refuses(bad, message):
    good = _ops("XI", "IX")
    for pair in ((_ops(*bad), good), (good, _ops(*bad))):
        with pytest.raises(ValueError) as table_refused:
            rl.overlap_table(*pair)
        with pytest.raises(ValueError) as mu_refused:
            rl.mutually_unbiased(*pair)
        assert str(table_refused.value) == str(mu_refused.value) == message
        assert type(table_refused.value) is type(mu_refused.value)


def test_overlap_rows_sum_to_one():
    table = rl.overlap_table(_ops("XX", "YY", "ZZ"), _ops("XI", "IX", "XX"))
    for row in table:
        assert sum(row) == 1


def test_overlaps_match_projector_oracle_on_builtins():
    for cfg in (rl.builtin("mermin_square"), rl.builtin("mermin_pentagram")):
        for a, b in itertools.combinations(range(len(cfg.contexts)), 2):
            ops_a, ops_b = cfg.context_ops(a), cfg.context_ops(b)
            assert rl.overlap_table(ops_a, ops_b) == \
                overlap_table_oracle(ops_a, ops_b)


@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_random_overlaps_match_projector_oracle(n, data):
    ops_a, ops_b = data.draw(_maximal_context(n)), data.draw(_maximal_context(n))
    table = rl.overlap_table(ops_a, ops_b)
    assert table == overlap_table_oracle(ops_a, ops_b)
    mu = rl.mutually_unbiased(ops_a, ops_b)
    assert mu == all(v == Fraction(1, 2 ** n) for row in table for v in row)


def test_five_qubit_z_and_x_bases_unbiased():
    # beyond the n <= 4 cap of the matrix oracle
    z_basis = [PauliObservable("I" * q + "Z" + "I" * (4 - q)) for q in range(5)]
    x_basis = [PauliObservable("I" * q + "X" + "I" * (4 - q)) for q in range(5)]
    assert rl.mutually_unbiased(z_basis, x_basis)
    table = rl.overlap_table(z_basis, x_basis)
    assert len(table) == 32
    assert all(v == Fraction(1, 32) for row in table for v in row)


def _z_context(n):
    """Z on each of n qubits and their product: the computational basis."""
    return [PauliObservable("I" * q + "Z" + "I" * (n - 1 - q))
            for q in range(n)] + [PauliObservable("Z" * n)]


def test_bases_over_ten_qubits_are_refused():
    """Every report lists the 2^n basis states, so an 11-qubit basis is
    refused, by name of the bound, before any table is made; a 10-qubit
    one is still classified, state by state."""
    big = _z_context(11)
    for refused in (lambda: rl.classify_context(big),
                    lambda: classify_generators(context_generators(big)),
                    lambda: rl.overlap_table(big, big)):
        with pytest.raises(EntangleError, match="^11 qubits: entangle "
                                                "handles at most 10 qubits"):
            refused()
    assert rl.mutually_unbiased(big, big) is False
    report = rl.classify_context(_z_context(10))
    assert report.classification == "product"
    assert len(report.entropies) == 1024
    assert len(report.entropies[0]) == 2 ** 10 - 2


def test_cli_does_not_load_the_matrix_oracle():
    src = os.path.dirname(os.path.dirname(rl.__file__))
    probe = "import sys, ringline.cli; print('ringline.gaussmat' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "False\n"
