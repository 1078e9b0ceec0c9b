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


@dataclass(frozen=True)
class StabilizerGroup:
    n: int
    generators: tuple[tuple[PauliObservable, int], ...]  # (word, sign)

    def __post_init__(self):
        words = [g for g, _ in self.generators]
        if gf2.rank(symplectic_rows(words)) != len(words):
            raise EntangleError("generators are not independent")
        if anticommuting_pair(words) is not None:
            raise EntangleError("generators do not commute")


def _generators(context: list[PauliObservable]) -> list[PauliObservable]:
    """The n independent generators of a maximal commuting context; its
    2^n joint eigenstates differ only in the signs they give these words."""
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


def joint_eigenbasis(context: list[PauliObservable]) -> list[StabilizerGroup]:
    """The 2^n common eigenstates of a maximal commuting context.

    States are returned in sign-pattern order: pattern index b flips the
    sign of independent generator i when bit i of b is set.
    """
    gens = _generators(context)
    n = len(gens)
    return [StabilizerGroup(n, tuple(
        (g, -1 if pattern >> i & 1 else 1) for i, g in enumerate(gens)))
        for pattern in range(2 ** n)]


def bipartite_entropy(state: StabilizerGroup, part_a: set[int]) -> int:
    """Entanglement entropy in bits across part_a vs the rest.

    Qubits are numbered 1..n.  E = |A| - log2 |S_A| where S_A is the
    subgroup of stabilizers supported entirely inside A; its order is read
    off a GF(2) rank of the generator matrix restricted to the complement.
    """
    n = state.n
    part_a = set(part_a)
    if not part_a or part_a >= set(range(1, n + 1)) or \
            not part_a <= set(range(1, n + 1)):
        raise EntangleError(f"bad bipartition {sorted(part_a)} for n={n}")
    mask_b = sum(1 << (q - 1) for q in range(1, n + 1) if q not in part_a)
    rows = [(g.x & mask_b) | (g.z & mask_b) << n for g, _ in state.generators]
    # 2^(n - rank) group elements restrict trivially to B, i.e. live on A
    return len(part_a) - (n - gf2.rank(rows))


@dataclass(frozen=True)
class BasisClassification:
    context: tuple[PauliObservable, ...]
    classification: str  # product | maximally-entangled | mixed-character
    entropies: tuple[dict, ...]  # per state: {bipartition tuple: bits}


def classify_context(context: list[PauliObservable]) -> BasisClassification:
    """product / maximally-entangled / mixed-character for a maximal context.

    'maximally entangled' means every 1-vs-rest bipartition of every basis
    state carries exactly 1 bit.  Signs do not enter an entropy, so the
    2^n basis states share the one table computed here.
    """
    gens = _generators(context)
    n = len(gens)
    state = StabilizerGroup(n, tuple((g, 1) for g in gens))
    table = {part: bipartite_entropy(state, set(part))
             for size in range(1, n)
             for part in itertools.combinations(range(1, n + 1), size)}
    if all(v == 0 for v in table.values()):  # also one qubit: no cuts at all
        cls = "product"
    elif all(table[(q,)] == 1 for q in range(1, n + 1)):
        cls = "maximally-entangled"
    else:
        cls = "mixed-character"
    return BasisClassification(tuple(context), cls, (table,) * 2 ** n)


def _product(ops: list[PauliObservable], mask: int) -> PauliObservable:
    """Product of the ops whose index bits are set in mask."""
    prod = PauliObservable.from_masks(ops[0].n, 0, 0)
    for i, op in enumerate(ops):
        if mask >> i & 1:
            prod = multiply(prod, op)
    return prod


def overlap_table(context_a: list[PauliObservable],
                  context_b: list[PauliObservable]) -> list[list[Fraction]]:
    """Exact squared overlaps |<a_i|b_j>|^2 between the two joint eigenbases."""
    gens_a, gens_b = _generators(context_a), _generators(context_b)
    n = len(gens_a)
    if len(gens_b) != n:
        raise EntangleError("dimension mismatch")
    # Each left-null vector v of the stacked rows pairs a product of a's
    # generators (bits of v below n) with a product of b's (bits from n) that
    # is the same Pauli word; the k = 2n - rank vectors span the subgroup the
    # two stabilizer groups share up to sign.
    shared = gf2.left_nullspace(symplectic_rows(gens_a + gens_b))
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


def mutually_unbiased(context_a: list[PauliObservable],
                      context_b: list[PauliObservable]) -> bool:
    """True iff the two contexts share no Pauli up to sign (k = 0), which
    is exactly when every cross overlap equals 1/2^n."""
    gens_a, gens_b = _generators(context_a), _generators(context_b)
    n = len(gens_a)
    if len(gens_b) != n:
        raise EntangleError("dimension mismatch")
    return gf2.rank(symplectic_rows(gens_a + gens_b)) == 2 * n
