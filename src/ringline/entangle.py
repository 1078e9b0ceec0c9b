"""Stabilizer eigenbases of commuting contexts: entanglement and unbiasedness.

The joint eigenbasis of a maximal commuting context is a stabilizer basis,
and every question about it is GF(2) linear algebra on the (x, z) bitmask
rows of its generators.  Bipartite entropies are ranks of the generator
matrix restricted to one side of the cut.  Squared overlaps follow García,
Markov & Cross, *Efficient inner-product algorithm for stabilizer states*:
|<a|b>|^2 is 0 when the two states give opposite signs to a Pauli they
both stabilize up to sign, and 2^-(n-k) otherwise, where k is the
dimension of the subgroup the two stabilizer groups share up to sign.
The matrix oracles that check these results live in the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import gf2
from .pauli import (PauliError, PauliObservable, anticommuting_pair, multiply,
                    symplectic_rows)


class EntangleError(ValueError):
    pass


# A basis is reported state by state: 2^n entropy tables, or 2^n rows of
# 2^n overlaps.  At 11 qubits one JSON report already holds 117 MB, so
# larger bases are refused.
MAX_QUBITS = 10


def _bounded(n: int) -> int:
    """n, refused with EntangleError when it is over MAX_QUBITS."""
    if n > MAX_QUBITS:
        raise EntangleError(f"{n} qubits: entangle handles at most "
                            f"{MAX_QUBITS} qubits, as it reports each of "
                            "the 2^n basis states")
    return n


def context_generators(context: list[PauliObservable]
                       ) -> list[PauliObservable]:
    """The n independent generators of a maximal commuting context; its
    2^n joint eigenstates differ only in the signs they give these words.

    Raises EntangleError for an empty or rank-deficient context and
    PauliError for two words that do not commute or differ in length.
    """
    if not context:
        raise EntangleError("empty context")
    n = context[0].n
    pair = anticommuting_pair(context)
    if pair is not None:
        raise PauliError(f"{pair[0]} and {pair[1]} do not commute")
    ind = gf2.independent_indices(symplectic_rows(context))
    if len(ind) != n:
        raise EntangleError(
            f"context generates a 2^{len(ind)}-element group; need rank {n}")
    return [context[i] for i in ind]


def _cut_entropy(words: list[PauliObservable], n: int, mask_a: int) -> int:
    """E = |A| - log2 |S_A|, where A holds the qubits of mask_a (bit q-1
    for qubit q) and S_A is the subgroup of the stabilizers generated by
    words that is supported entirely inside A; its order is read off a
    GF(2) rank of the generator matrix restricted to the complement."""
    mask_b = ((1 << n) - 1) ^ mask_a
    rows = [(g.x & mask_b) | (g.z & mask_b) << n for g in words]
    # 2^(n - rank) group elements restrict trivially to B, i.e. live on A
    return mask_a.bit_count() - (n - gf2.rank(rows))


@dataclass(frozen=True)
class BasisClassification:
    context: tuple[PauliObservable, ...]
    classification: str  # product | maximally-entangled | mixed-character
    entropies: tuple[dict, ...]  # per state: {bipartition tuple: bits}


def classify_generators(gens: list[PauliObservable]) -> tuple[str, dict]:
    """(class, entropy table) of the basis with the n independent commuting
    generators gens, as ``context_generators`` returns them.

    The table maps each bipartition, as the tuple of qubits on side A, to
    its entropy in bits.  Signs do not enter an entropy, so every one of
    the 2^n basis states has this table.  'maximally entangled' means
    every 1-vs-rest bipartition carries exactly 1 bit.  Over MAX_QUBITS
    generators raise EntangleError.
    """
    n = _bounded(len(gens))
    table = {part: _cut_entropy(gens, n, sum(1 << (q - 1) for q in part))
             for size in range(1, n)
             for part in itertools.combinations(range(1, n + 1), size)}
    if all(v == 0 for v in table.values()):  # also one qubit: no cuts at all
        return "product", table
    if all(table[(q,)] == 1 for q in range(1, n + 1)):
        return "maximally-entangled", table
    return "mixed-character", table


def classify_context(context: list[PauliObservable]) -> BasisClassification:
    """product / maximally-entangled / mixed-character for a maximal context,
    with the entropy table of each of its 2^n basis states."""
    gens = context_generators(context)
    cls, table = classify_generators(gens)
    return BasisClassification(tuple(context), cls, (table,) * 2 ** len(gens))


def _product(ops: list[PauliObservable], mask: int) -> PauliObservable:
    """Product of the ops whose index bits are set in mask."""
    prod = PauliObservable.from_masks(ops[0].n, 0, 0)
    for i, op in enumerate(ops):
        if mask >> i & 1:
            prod = multiply(prod, op)
    return prod


def _stacked_rows(gens_a: list[PauliObservable],
                  gens_b: list[PauliObservable]) -> list[int]:
    """Symplectic rows of gens_a followed by gens_b, on the same n."""
    if len(gens_b) != len(gens_a):
        raise EntangleError("dimension mismatch")
    return symplectic_rows(gens_a + gens_b)


def overlap_table(context_a: list[PauliObservable],
                  context_b: list[PauliObservable]) -> list[list[Fraction]]:
    """Exact squared overlaps |<a_i|b_j>|^2 between the two joint eigenbases;
    bases over MAX_QUBITS qubits raise EntangleError."""
    gens_a = context_generators(context_a)
    gens_b = context_generators(context_b)
    n = _bounded(len(gens_a))
    # Each left-null vector v of the stacked rows pairs a product of a's
    # generators (bits of v below n) with a product of b's (bits from n) that
    # is the same Pauli word; the k = 2n - rank vectors span the subgroup the
    # two stabilizer groups share up to sign.
    shared = gf2.left_nullspace(_stacked_rows(gens_a, gens_b))
    clash = [_product(gens_a, v).phase != _product(gens_b, v >> n).phase
             for v in shared]
    nonzero = Fraction(1, 2 ** (n - len(shared)))
    table = []
    # state index i flips the sign of generator j when bit j of i is set,
    # which flips the sign of every shared Pauli whose v uses generator j
    for ia in range(2 ** n):
        row = []
        for ib in range(2 ** n):
            flips = ia | ib << n
            agree = all(c == (v & flips).bit_count() & 1
                        for v, c in zip(shared, clash))
            row.append(nonzero if agree else Fraction(0))
        table.append(row)
    return table


def generators_unbiased(gens_a: list[PauliObservable],
                        gens_b: list[PauliObservable]) -> bool:
    """True iff the bases with these generators, as ``context_generators``
    returns them, share no Pauli up to sign (k = 0): the stacked rows have
    full rank 2n.  Raises EntangleError when n differs."""
    return gf2.rank(_stacked_rows(gens_a, gens_b)) == 2 * len(gens_a)


def mutually_unbiased(context_a: list[PauliObservable],
                      context_b: list[PauliObservable]) -> bool:
    """True iff the two contexts share no Pauli up to sign (k = 0), which
    is exactly when every cross overlap equals 1/2^n."""
    return generators_unbiased(context_generators(context_a),
                               context_generators(context_b))
