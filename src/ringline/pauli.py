"""Exact n-qubit Pauli words with i^k phase tracking.

A word is an n-qubit tensor product over {I, X, Y, Z} (qubit 1 = leftmost
Kronecker factor) times a phase i^k.  It is stored as two integer bitmasks
x and z, where bit j is qubit j+1 and the letters are I = (0, 0),
X = (1, 0), Z = (0, 1), Y = (1, 1); the letter string ``word`` is derived
from the masks, and cached per (n, x, z), for printing and JSON only.
Commutation is the parity of the binary symplectic form; multiplication is
xor on the masks plus a popcount phase rule in the style of Aaronson &
Gottesman, *Improved simulation of stabilizer circuits* (2004).  Both are cross-checked against
exact matrix oracles in the test suite.
"""

from __future__ import annotations

import functools

LETTERS = "IXYZ"
_BITS_LETTER = "IXZY"  # indexed by x | z << 1
_LETTER_MASKS = ((0, 0), (1, 0), (1, 1), (0, 1))  # (x, z) of each of LETTERS


@functools.lru_cache(maxsize=4096)
def _word(n: int, x: int, z: int) -> str:
    """The letter string of the n-qubit word with masks x and z."""
    return "".join([_BITS_LETTER[(x >> j & 1) | (z >> j & 1) << 1]
                    for j in range(n)])


class PauliError(ValueError):
    pass


_new = object.__new__
_set = object.__setattr__


class PauliObservable:
    """An immutable word i^phase * P on n qubits, held as masks (x, z).

    ``PauliObservable("XYZ", phase)`` parses a letter string;
    ``from_masks(n, x, z, phase)`` builds the same value with no string.
    Equality and hashing are on (n, x, z, phase).
    """

    __slots__ = ("n", "x", "z", "phase")

    def __init__(self, word: str, phase: int = 0):
        if not isinstance(word, str) or not word or \
                any(c not in LETTERS for c in word):
            raise PauliError(f"bad Pauli word {word!r}")
        x = z = 0
        for j, c in enumerate(word):
            if c in "XY":
                x |= 1 << j
            if c in "YZ":
                z |= 1 << j
        _set(self, "n", len(word))
        _set(self, "x", x)
        _set(self, "z", z)
        _set(self, "phase", phase % 4)

    @classmethod
    def from_masks(cls, n: int, x: int, z: int,
                   phase: int = 0) -> PauliObservable:
        """The word on n qubits with bitmasks x and z (bit j = qubit j+1)."""
        if n < 1 or (x | z) >> n:  # also catches a negative mask
            raise PauliError(f"masks x={x}, z={z} do not fit {n} qubit(s)")
        self = _new(cls)
        _set(self, "n", n)
        _set(self, "x", x)
        _set(self, "z", z)
        _set(self, "phase", phase % 4)
        return self

    @property
    def word(self) -> str:
        return _word(self.n, self.x, self.z)

    def __setattr__(self, name, value):
        raise AttributeError(f"PauliObservable is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"PauliObservable is immutable; cannot delete {name!r}")

    def __reduce__(self):  # pickle and copy cannot set attributes either
        return PauliObservable.from_masks, (self.n, self.x, self.z, self.phase)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.x == other.x and self.z == other.z
                and self.phase == other.phase and self.n == other.n)

    def __hash__(self):
        return hash((self.n, self.x, self.z, self.phase))

    def is_identity_word(self) -> bool:
        return not (self.x | self.z)

    def __str__(self):
        pre = {0: "", 1: "i*", 2: "-", 3: "-i*"}[self.phase]
        return pre + self.word

    def __repr__(self):
        return f"<Pauli {self}>"


def multiply(p: PauliObservable, q: PauliObservable) -> PauliObservable:
    """p * q.  Writing a word as i^|x & z| X^x Z^z (Y = iXZ), moving q's X
    part past p's Z part costs (-1)^|p.z & q.x|; the result's own Y count
    is divided back out."""
    if p.n != q.n:
        raise PauliError("qubit counts differ")
    x, z = p.x ^ q.x, p.z ^ q.z
    return PauliObservable.from_masks(
        p.n, x, z, p.phase + q.phase + (p.x & p.z).bit_count()
        + (q.x & q.z).bit_count() - (x & z).bit_count()
        + 2 * (p.z & q.x).bit_count())


def commutes(p: PauliObservable, q: PauliObservable) -> bool:
    if p.n != q.n:
        raise PauliError("qubit counts differ")
    return not (p.x & q.z ^ p.z & q.x).bit_count() & 1


def anticommuting_pair(ops: list[PauliObservable]
                       ) -> tuple[PauliObservable, PauliObservable] | None:
    """The first pair (p, q) of ops, in ``itertools.combinations`` order,
    that does not commute; None when every pair commutes.

    Raises PauliError at the first pair, in the same order, whose qubit
    counts differ.
    """
    for i, p in enumerate(ops):
        n, px, pz = p.n, p.x, p.z
        for q in ops[i + 1:]:
            if q.n != n:
                raise PauliError("qubit counts differ")
            if (px & q.z ^ pz & q.x).bit_count() & 1:
                return p, q
    return None


def context_product_sign(ops: list[PauliObservable]) -> int:
    """Sign of the scalar product of a pairwise-commuting context.

    Raises unless the product is exactly +I or -I.
    """
    pair = anticommuting_pair(ops)
    if pair is not None:
        raise PauliError(
            f"context members {pair[0]} and {pair[1]} do not commute")
    return scalar_sign(ops)


def scalar_sign(ops: list[PauliObservable]) -> int:
    """Sign of the product of ops, which must be exactly +I or -I.

    Commutation is not tested here; ``context_product_sign`` tests it.
    The running product i^a X^x Z^z is folded left to right as three
    ints, with the rule of ``multiply``: a word adds its phase and its Y
    count to a, and moving its X part past the Z part so far costs
    2 |z & x|.
    """
    n = ops[0].n
    a = x = z = 0
    for op in ops:
        if op.n != n:
            raise PauliError("qubit counts differ")
        ox, oz = op.x, op.z
        a += op.phase + (ox & oz).bit_count() + 2 * (z & ox).bit_count()
        x ^= ox
        z ^= oz
    if x | z:
        prod = PauliObservable.from_masks(n, x, z, a - (x & z).bit_count())
        raise PauliError(f"context product {prod} is not a scalar")
    a %= 4
    if a not in (0, 2):
        raise PauliError(f"context product is i^{a} * identity")
    return 1 if a == 0 else -1


def all_words(n: int, include_identity: bool = False) -> list[PauliObservable]:
    """All phase-0 words on n qubits, sorted by word string.

    Built from masks, a letter at a time in ``LETTERS`` order, which is
    the order of the strings.
    """
    if n < 1:
        raise PauliError(f"no words on {n} qubits")
    masks = [(0, 0)]
    for j in range(n):  # letter j + 1 is bit j of the masks
        masks = [(x | lx << j, z | lz << j) for x, z in masks
                 for lx, lz in _LETTER_MASKS]
    return [PauliObservable.from_masks(n, x, z) for x, z in masks
            if include_identity or x | z]


def symplectic_rows(ops: list[PauliObservable]) -> list[int]:
    """Bitmask rows (x-part | z-part << n) for GF(2) linear algebra."""
    return [op.x | op.z << op.n for op in ops]
