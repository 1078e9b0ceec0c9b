"""Linear algebra over GF(2) with rows stored as Python int bitmasks.

Bit j of a row bitmask is the entry in column j.  Everything is exact;
matrices in this package stay tiny (tens of rows), so every routine reads
one Gaussian elimination with a pivot dictionary.  A *combination* is a
bitmask over row indices: bit i set means row i is xored in.
"""

from __future__ import annotations


def eliminate(rows: list[int]) -> tuple[dict[int, tuple[int, int]], list[int]]:
    """Reduce the rows in order against the pivots of the earlier ones.

    Returns (pivots, null): pivots maps each leading column to its reduced
    row and the combination that produced it, in row order; null lists, in
    row order, the combinations of rows that reduced to zero, a basis of
    {y : y A = 0}.
    """
    piv: dict[int, tuple[int, int]] = {}
    null = []
    for i, row in enumerate(rows):
        comb = 1 << i
        while row:
            p = row.bit_length() - 1
            if p not in piv:
                piv[p] = (row, comb)
                break
            prow, pcomb = piv[p]
            row ^= prow
            comb ^= pcomb
        else:
            null.append(comb)
    return piv, null


def rank(rows: list[int]) -> int:
    """Rank of the matrix with the given bitmask rows."""
    return len(eliminate(rows)[0])


def independent_indices(rows: list[int]) -> list[int]:
    """Indices of a maximal linearly independent subset, greedy in order."""
    # a pivot's combination has the row it came from as its highest bit
    return [comb.bit_length() - 1 for _, comb in eliminate(rows)[0].values()]


def left_nullspace(rows: list[int]) -> list[int]:
    """Basis of {y : y A = 0} as combinations, in row order."""
    return eliminate(rows)[1]


def solve(rows: list[int], rhs: list[int]) -> tuple[int | None, int | None]:
    """(x, None) with A x = b over GF(2), or (None, y) with y A = 0 and
    y . b = 1 when the system is inconsistent.

    ``rows`` are the rows of A, ``rhs`` the right-hand-side bits.  x is a
    bitmask over the columns (free variables 0); y is the first null
    combination that is odd on b.
    """
    b = 0
    for i, bit in enumerate(rhs):
        if bit & 1:
            b |= 1 << i
    piv, null = eliminate(rows)
    for y in null:
        if (y & b).bit_count() & 1:
            return None, y
    x = 0
    for p in sorted(piv):  # ascending: lower bits already decided
        row, comb = piv[p]
        if ((comb & b).bit_count() ^ (row & x).bit_count()) & 1:
            x |= 1 << p
    return x, None
