"""Brute-force ring and projective-line oracles on payload arithmetic.

Nothing here reads ``Ring.tables``: units come from scanning products,
admissibility from scanning every determinant completion (c, d) or every
coefficient pair (s, t), and points from canonicalizing every admissible
pair.  The package computes the same answers on its index tables, so the
two share no code path below the payload ``add``/``mul``/``neg``.
"""

import functools
import itertools


def oracle_units(ring) -> frozenset:
    els = ring.elements()
    return frozenset(a for a in els if any(ring.mul(a, b) == ring.one for b in els))


def oracle_det(ring, a, b, c, d):
    return ring.sub(ring.mul(a, d), ring.mul(b, c))


def oracle_admissible(ring, a, b, units=None) -> bool:
    """Some (c, d) completes (a, b) to a unit determinant ad - bc."""
    units = oracle_units(ring) if units is None else units
    ad = {ring.mul(a, d) for d in ring.elements()}
    bc = {ring.mul(b, c) for c in ring.elements()}
    return any(ring.sub(x, y) in units for x in ad for y in bc)


def oracle_unimodular(ring, a, b) -> bool:
    """1 in the ideal (a, b), by brute force over coefficient pairs."""
    for s in ring.elements():
        for t in ring.elements():
            if ring.add(ring.mul(a, s), ring.mul(b, t)) == ring.one:
                return True
    return False


def oracle_canonicalize(ring, a, b, units) -> tuple:
    """Least (u*a, u*b) over the units u, by element value."""
    return min(((ring.mul(u, a), ring.mul(u, b)) for u in units),
               key=lambda p: (ring.el_value(p[0]), ring.el_value(p[1])))


class MemoRing:
    """A ring's payload arithmetic with every result memoized."""

    def __init__(self, ring):
        self.one, self.elements, self.el_value = ring.one, ring.elements, ring.el_value
        self.add = functools.lru_cache(maxsize=None)(ring.add)
        self.mul = functools.lru_cache(maxsize=None)(ring.mul)
        self.sub = functools.lru_cache(maxsize=None)(ring.sub)


def oracle_line(ring) -> tuple[list[tuple], list[list[str]]]:
    """(sorted canonical points as payload pairs, relation as strings),
    canonicalizing every admissible pair."""
    ring = MemoRing(ring)
    units = oracle_units(ring)
    seen = {oracle_canonicalize(ring, a, b, units)
            for a, b in itertools.product(ring.elements(), repeat=2)
            if oracle_admissible(ring, a, b, units)}
    points = sorted(seen, key=lambda p: (ring.el_value(p[0]), ring.el_value(p[1])))
    relation = [["equal" if p == q else
                 "distant" if oracle_det(ring, *p, *q) in units else "neighbour"
                 for q in points] for p in points]
    return points, relation
