"""Exact Gaussian-integer matrix oracles for the Pauli and stabilizer code.

The package decides everything by bitmask arithmetic and GF(2) ranks; the
tests compare it against these explicit matrices.  Real and imaginary parts
live in separate int64 numpy arrays, so products, Kronecker products and
traces are exact; entries never leave {0, +-1, +-i} scaled by small powers
of two.  Rank is computed over Q(i) with Fraction arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from ringline.entangle import EntangleError, context_generators
from ringline.pauli import PauliError, PauliObservable


class GaussMat:
    def __init__(self, re, im=None):
        self.re = np.asarray(re, dtype=np.int64)
        self.im = (np.zeros_like(self.re) if im is None
                   else np.asarray(im, dtype=np.int64))
        if self.re.shape != self.im.shape:
            raise ValueError("mismatched real/imaginary shapes")

    @classmethod
    def identity(cls, n: int) -> "GaussMat":
        return cls(np.eye(n, dtype=np.int64))

    @property
    def shape(self):
        return self.re.shape

    def __matmul__(self, other: "GaussMat") -> "GaussMat":
        return GaussMat(self.re @ other.re - self.im @ other.im,
                        self.re @ other.im + self.im @ other.re)

    def __add__(self, other: "GaussMat") -> "GaussMat":
        return GaussMat(self.re + other.re, self.im + other.im)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GaussMat)
                and np.array_equal(self.re, other.re)
                and np.array_equal(self.im, other.im))

    def kron(self, other: "GaussMat") -> "GaussMat":
        return GaussMat(np.kron(self.re, other.re) - np.kron(self.im, other.im),
                        np.kron(self.re, other.im) + np.kron(self.im, other.re))

    def times_i_power(self, k: int) -> "GaussMat":
        k %= 4
        if k == 0:
            return self
        if k == 1:
            return GaussMat(-self.im, self.re)
        if k == 2:
            return GaussMat(-self.re, -self.im)
        return GaussMat(self.im, -self.re)

    def scaled(self, c: int) -> "GaussMat":
        return GaussMat(c * self.re, c * self.im)

    def trace(self) -> tuple[int, int]:
        return (int(np.trace(self.re)), int(np.trace(self.im)))

    def rank(self) -> int:
        """Exact rank over Q(i) by fraction Gaussian elimination."""
        n, m = self.shape
        rows = [[(Fraction(int(self.re[i, j])), Fraction(int(self.im[i, j])))
                 for j in range(m)] for i in range(n)]
        rank = 0
        col = 0
        while rank < n and col < m:
            pivot = None
            for i in range(rank, n):
                if rows[i][col] != (0, 0):
                    pivot = i
                    break
            if pivot is None:
                col += 1
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            pr, pi = rows[rank][col]
            norm = pr * pr + pi * pi
            for i in range(rank + 1, n):
                ar, ai = rows[i][col]
                if (ar, ai) == (0, 0):
                    continue
                # factor = a / p = a * conj(p) / |p|^2
                fr = (ar * pr + ai * pi) / norm
                fi = (ai * pr - ar * pi) / norm
                for j in range(col, m):
                    br, bi = rows[rank][j]
                    cr, ci = rows[i][j]
                    rows[i][j] = (cr - (fr * br - fi * bi),
                                  ci - (fr * bi + fi * br))
            rank += 1
            col += 1
        return rank

    def __repr__(self):
        return f"GaussMat(re={self.re.tolist()}, im={self.im.tolist()})"


_SINGLE = {
    "I": GaussMat([[1, 0], [0, 1]]),
    "X": GaussMat([[0, 1], [1, 0]]),
    "Y": GaussMat([[0, 0], [0, 0]], [[0, -1], [1, 0]]),
    "Z": GaussMat([[1, 0], [0, -1]]),
}


@lru_cache(maxsize=None)
def _word_matrix(word: str) -> GaussMat:
    m = _SINGLE[word[0]]
    for c in word[1:]:
        m = m.kron(_SINGLE[c])
    return m


def to_matrix(p: PauliObservable, cap: int = 4) -> GaussMat:
    """Exact Kronecker-product matrix, leftmost letter outermost."""
    if p.n > cap:
        raise PauliError(f"n={p.n} exceeds the matrix cap {cap}")
    return _word_matrix(p.word).times_i_power(p.phase)


def signed_states(context) -> list[list[tuple[PauliObservable, int]]]:
    """The 2^n joint eigenstates of a maximal context, each as its n
    (generator, sign) pairs over ``context_generators``, in sign-pattern
    order: state b flips the sign of generator i when bit i of b is set."""
    gens = context_generators(context)
    return [[(g, -1 if b >> i & 1 else 1) for i, g in enumerate(gens)]
            for b in range(2 ** len(gens))]


def projector(state: list[tuple[PauliObservable, int]]) -> GaussMat:
    """2^n times the rank-one projector onto the state stabilized by the
    signed generators."""
    dim = 2 ** state[0][0].n
    p = GaussMat.identity(dim)
    for g, sign in state:
        p = p @ (GaussMat.identity(dim) + to_matrix(g).scaled(sign))
    # accumulated product of n factors (I + sG)/... carries 2^n scale
    return p


def overlap_table_oracle(context_a, context_b) -> list[list[Fraction]]:
    """|<a_i|b_j>|^2 as Tr(P_a P_b) of the integer-scaled projectors."""
    basis_a = signed_states(context_a)
    basis_b = signed_states(context_b)
    denom = 4 ** len(basis_a[0])
    table = []
    for sa in basis_a:
        pa = projector(sa)
        row = []
        for sb in basis_b:
            tr_re, tr_im = (pa @ projector(sb)).trace()
            if tr_im != 0:
                raise EntangleError("projector overlap has imaginary part")
            row.append(Fraction(tr_re, denom))
        table.append(row)
    return table


def bipartite_entropy_oracle(state: list[tuple[PauliObservable, int]],
                             part_a: set[int]) -> int:
    """Reduced-density-matrix oracle: entropy = log2 rank(rho_A).

    Valid because stabilizer reduced states have flat spectra; the flatness
    is not assumed silently -- rho_A^2 is checked to be rho_A / rank up to
    the integer scaling used here.
    """
    n = state[0][0].n
    part_a = set(part_a)
    proj = projector(state)  # 2^n * rho
    keep = sorted(part_a)
    traced = [q for q in range(1, n + 1) if q not in part_a]
    if not traced or not keep:
        raise EntangleError("bipartition must be proper")
    rho_a = _partial_trace(proj, n, traced)
    rank = rho_a.rank()
    ent = rank.bit_length() - 1
    if 2 ** ent != rank:
        raise EntangleError("reduced stabilizer state has non-power-of-2 rank")
    # flat-spectrum check: rho_A^2 == rho_A / rank, scaled to integers
    if rho_a @ rho_a != rho_a.scaled(2 ** n // rank):
        raise EntangleError("reduced stabilizer state is not flat-spectrum")
    return ent


def _partial_trace(m: GaussMat, n: int, traced: list[int]) -> GaussMat:
    """Trace qubits out of a 2^n matrix; qubit 1 is the leftmost factor."""
    shape = (2,) * (2 * n)
    re = m.re.reshape(shape)
    im = m.im.reshape(shape)
    for q in sorted(traced, reverse=True):
        axes_count = re.ndim // 2
        # descending removal keeps qubit q at axis q-1 when its turn comes
        re = np.trace(re, axis1=q - 1, axis2=axes_count + q - 1)
        im = np.trace(im, axis1=q - 1, axis2=axes_count + q - 1)
    dim = 2 ** (n - len(traced))
    return GaussMat(re.reshape(dim, dim), im.reshape(dim, dim))
