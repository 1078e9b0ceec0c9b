"""Reference search routines for the tests: the package's earlier
exact-cover extender and grid-transform generator.

``ref_cover_twice`` branches with ``min(..., key=int.bit_count)`` over a
generator of set bits, where the package inlines the loops; it also returns
the number of tree nodes it placed.  ``ref_grid_transforms`` rebuilds the
72 row/column permutations (with or without transposition) of a row-major
3x3 grid as nested tuples, where the package applies precomputed index
permutations.
"""

import itertools


def _bits(mask):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def ref_cover_twice(contexts, c, overlaps, budget=None):
    """(found, complete, nodes), found in the order the search finds them."""
    masks = [m for _, m, _ in contexts]
    holds = {}
    for ci, m in enumerate(masks):
        for o in _bits(m):
            holds[o] = holds.get(o, 0) | 1 << ci
    everything = (1 << len(masks)) - 1
    compat = []
    for a, ma in enumerate(masks):
        members = list(_bits(ma))
        share1 = share2 = 0
        for k, o in enumerate(members):
            share1 |= holds[o]
            for o2 in members[k + 1:]:
                share2 |= holds[o] & holds[o2]
        allowed = everything ^ share1 if 0 in overlaps else 0
        if 1 in overlaps:
            allowed |= share1 & ~share2
        compat.append(allowed & ~(1 << a))
    found = []
    nodes = 0

    def extend(picked, once, allowed):
        nonlocal nodes
        if len(picked) == c:
            if not once:
                found.append(tuple(sorted(picked)))
            return True
        if picked and not once:
            return True
        options = (min((allowed & holds[o] for o in _bits(once)),
                       key=int.bit_count) if once else allowed)
        for ci in _bits(options):
            nodes += 1
            if budget is not None and nodes > budget:
                return False
            shut = 0
            for o in _bits(once & masks[ci]):
                shut |= holds[o]
            if not extend(picked + (ci,), once ^ masks[ci],
                          allowed & compat[ci] & ~shut):
                return False
            allowed &= ~(1 << ci)
        return True

    complete = extend((), 0, everything)
    return found, complete, nodes


def ref_grid_transforms(grid):
    rows = [grid[0:3], grid[3:6], grid[6:9]]
    for mat in (rows, [tuple(r[i] for r in rows) for i in range(3)]):
        for rp in itertools.permutations(range(3)):
            for cp in itertools.permutations(range(3)):
                yield tuple(mat[i][j] for i in rp for j in cp)
