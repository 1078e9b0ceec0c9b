"""Pauli words: parsing, products, commutation, against the matrix oracle.

The oracle builds complex128 matrices with numpy Kronecker products and
literal 1j entries, independent of the exact Gaussian-integer matrices in
matrix_oracle and of the package's bitmask phase rule.
"""

import copy
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ringline as rl
from matrix_oracle import to_matrix
from ringline import pauli
from ringline.pauli import LETTERS, PauliError, all_words, symplectic_rows

_ORACLE_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def oracle_matrix(p):
    m = np.eye(1, dtype=complex)
    for c in p.word:
        m = np.kron(m, _ORACLE_SINGLE[c])
    return (1j ** p.phase) * m


# --- construction and parsing ----------------------------------------------

def _all_phased(n_max):
    return [rl.PauliObservable(p.word, k)
            for n in range(1, n_max + 1)
            for p in all_words(n, include_identity=True) for k in range(4)]


def test_masks_are_the_value():
    """from_masks and word parsing build equal, equally hashed values, and
    the derived word parses back to the same masks."""
    for p in _all_phased(3):
        q = rl.PauliObservable.from_masks(p.n, p.x, p.z, p.phase)
        assert q == p and hash(q) == hash(p)
        assert q.word == p.word and len(p.word) == p.n
        assert rl.PauliObservable(p.word, p.phase) == p
        assert p != rl.PauliObservable(p.word, p.phase + 1)
    assert rl.PauliObservable("XI") != rl.PauliObservable("XII")
    assert rl.PauliObservable.from_masks(2, 0b01, 0b11, 6) == \
        rl.PauliObservable("YZ", 2)


def test_multiply_builds_the_parsed_word():
    words = _all_phased(2) + _all_phased(3)[::3]
    for p, q in itertools.product(words, repeat=2):
        if p.n == q.n:
            r = rl.multiply(p, q)
            parsed = rl.PauliObservable(r.word, r.phase)
            assert r == parsed and hash(r) == hash(parsed)


def test_words_are_immutable():
    p = rl.PauliObservable("XY", 1)
    for name in ("n", "x", "z", "phase", "word", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, 0)
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert p == rl.PauliObservable("XY", 1)
    assert pickle.loads(pickle.dumps(p)) == p == copy.deepcopy(p)


@pytest.mark.parametrize("n, x, z", [(0, 0, 0), (2, 4, 0), (2, 0, 7),
                                     (3, -1, 0)])
def test_from_masks_rejects_masks_outside_n_qubits(n, x, z):
    with pytest.raises(PauliError):
        rl.PauliObservable.from_masks(n, x, z)


@pytest.mark.parametrize("word", ["", "XA", 5, ["X", "Y"], None])
def test_bad_words(word):
    with pytest.raises(PauliError):
        rl.PauliObservable(word)


def test_str_phases():
    assert str(rl.PauliObservable("X")) == "X"
    assert str(rl.PauliObservable("X", 1)) == "i*X"
    assert str(rl.PauliObservable("X", 2)) == "-X"
    assert str(rl.PauliObservable("X", 7)) == "-i*X"


def test_all_words_counts():
    assert len(all_words(2)) == 15
    assert len(all_words(2, include_identity=True)) == 16
    assert len(all_words(3)) == 63
    words = [p.word for p in all_words(2)]
    assert words == sorted(words)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("identity", [False, True])
def test_all_words_match_the_parsed_strings(n, identity):
    strings = sorted("".join(t) for t in itertools.product(LETTERS, repeat=n))
    assert all_words(n, identity) == [rl.PauliObservable(w) for w in strings
                                      if identity or set(w) != {"I"}]


def test_all_words_needs_a_qubit():
    with pytest.raises(PauliError):
        all_words(0)


# --- algebra vs the matrix oracle ------------------------------------------

def test_single_qubit_products():
    X, Y, Z = (rl.PauliObservable(c) for c in "XYZ")
    assert rl.multiply(X, Y) == rl.PauliObservable("Z", 1)   # XY = iZ
    assert rl.multiply(Y, X) == rl.PauliObservable("Z", 3)   # YX = -iZ
    assert rl.multiply(X, X) == rl.PauliObservable("I")
    assert rl.multiply(rl.multiply(X, Y), Z) == rl.PauliObservable("I", 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_multiply_matches_matrix_oracle(n):
    words = all_words(n, include_identity=True)
    for p, q in itertools.product(words, repeat=2):
        assert np.array_equal(oracle_matrix(rl.multiply(p, q)),
                              oracle_matrix(p) @ oracle_matrix(q))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_commutes_matches_matrix_oracle(n):
    words = all_words(n, include_identity=True)
    mats = {p.word: oracle_matrix(p) for p in words}
    for p, q in itertools.combinations(words, 2):
        a, b = mats[p.word], mats[q.word]
        assert rl.commutes(p, q) == np.array_equal(a @ b, b @ a)


def _words(n):
    return st.builds(rl.PauliObservable,
                     st.text(alphabet=LETTERS, min_size=n, max_size=n),
                     st.integers(0, 3))


@pytest.mark.parametrize("n", [4, 5])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_words_match_matrix_oracle(n, data):
    p, q = data.draw(_words(n)), data.draw(_words(n))
    a, b = oracle_matrix(p), oracle_matrix(q)
    assert np.array_equal(oracle_matrix(rl.multiply(p, q)), a @ b)
    assert rl.commutes(p, q) == np.array_equal(a @ b, b @ a)


def test_to_matrix_matches_oracle():
    for p in all_words(2, include_identity=True):
        m = to_matrix(p)
        assert np.array_equal(m.re + 1j * m.im, oracle_matrix(p))
    m = to_matrix(rl.PauliObservable("XZ", 3))
    assert np.array_equal(m.re + 1j * m.im,
                          oracle_matrix(rl.PauliObservable("XZ", 3)))


def test_to_matrix_cap():
    with pytest.raises(PauliError):
        to_matrix(rl.PauliObservable("XXXXX"))


# --- context products -------------------------------------------------------

def test_context_product_signs():
    ops = [rl.PauliObservable(w) for w in ("XI", "IX", "XX")]
    assert rl.context_product_sign(ops) == 1
    ops = [rl.PauliObservable(w) for w in ("XX", "YY", "ZZ")]
    assert rl.context_product_sign(ops) == -1


def test_context_product_sign_errors():
    with pytest.raises(PauliError):
        rl.context_product_sign([rl.PauliObservable("X"),
                                 rl.PauliObservable("Y")])  # not commuting
    with pytest.raises(PauliError):
        rl.context_product_sign([rl.PauliObservable("XI"),
                                 rl.PauliObservable("IX")])  # product not scalar


def chain_scalar_sign(ops):
    """scalar_sign as a left-to-right chain of multiply calls, one
    PauliObservable per step."""
    prod = ops[0]
    for op in ops[1:]:
        prod = rl.multiply(prod, op)
    if not prod.is_identity_word():
        raise PauliError(f"context product {prod} is not a scalar")
    if prod.phase not in (0, 2):
        raise PauliError(f"context product is i^{prod.phase} * identity")
    return 1 if prod.phase == 0 else -1


def pairwise_anticommuting(ops):
    """anticommuting_pair as pairwise commutes calls in combinations order."""
    for p, q in itertools.combinations(ops, 2):
        if not rl.commutes(p, q):
            return p, q
    return None


def _outcome(fn, ops):
    try:
        return "value", fn(ops)
    except PauliError as e:
        return "error", str(e)


@st.composite
def word_lists(draw):
    """1-7 phased words on n <= 4 qubits; often closed by the word that
    makes the product scalar, and sometimes with one word on other n."""
    n = draw(st.integers(1, 4))
    ops = draw(st.lists(_words(n), min_size=1, max_size=5))
    if draw(st.booleans()):
        x = z = 0
        for op in ops:
            x, z = x ^ op.x, z ^ op.z
        ops.append(rl.PauliObservable.from_masks(n, x, z,
                                                 draw(st.integers(0, 3))))
    if draw(st.integers(0, 3)) == 0:
        other = draw(st.integers(1, 4).filter(lambda m: m != n))
        ops.insert(draw(st.integers(0, len(ops))), draw(_words(other)))
    return ops


@settings(max_examples=200, deadline=None)
@given(word_lists())
def test_scalar_sign_matches_multiply_chain(ops):
    assert _outcome(pauli.scalar_sign, ops) == \
        _outcome(chain_scalar_sign, ops)


@settings(max_examples=200, deadline=None)
@given(word_lists())
def test_anticommuting_pair_matches_pairwise_commutes(ops):
    got = _outcome(pauli.anticommuting_pair, ops)
    want = _outcome(pairwise_anticommuting, ops)
    assert got == want
    if got[0] == "value" and got[1] is not None:  # the same pair, not a copy
        assert got[1][0] is want[1][0] and got[1][1] is want[1][1]


def test_kernels_cover_every_outcome():
    """The fold's four endings, and a qubit-count mismatch raised at the
    first pair that meets it unless an earlier pair anticommutes."""
    P = rl.PauliObservable
    cases = {("X", "X"): 1, ("XX", "YY", "ZZ"): -1,
             ("X", "Y", "Z"): "context product is i^1 * identity",
             ("XI", "IX"): "context product XX is not a scalar",
             ("X", "Y"): "context product i*Z is not a scalar"}
    for words, want in cases.items():
        ops = [P(w) for w in words]
        assert _outcome(pauli.scalar_sign, ops) == _outcome(
            chain_scalar_sign, ops)
        assert _outcome(pauli.scalar_sign, ops)[1] == want
    x, z, xx = P("X"), P("Z"), P("XX")
    assert pauli.anticommuting_pair([x, z, xx]) == (x, z)
    with pytest.raises(PauliError, match="qubit counts differ"):
        pauli.anticommuting_pair([x, xx, z])
    with pytest.raises(PauliError, match="qubit counts differ"):
        pauli.scalar_sign([x, xx])


# --- symplectic rows --------------------------------------------------------

def test_symplectic_rows():
    ops = [rl.PauliObservable("XZ"), rl.PauliObservable("YI")]
    rows = symplectic_rows(ops)
    # qubit j contributes bit j (x-part) and bit n+j (z-part)
    assert rows[0] == 0b1000 | 0b0001
    assert rows[1] == 0b0101
