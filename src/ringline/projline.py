"""Projective lines over finite rings: points, neighbour/distant relation.

A pair (a, b) over a ring R is *admissible* when it extends to an
invertible 2x2 matrix, i.e. some (c, d) makes ad - bc a unit; over a
commutative ring that holds iff aR + bR = R (Blunck & Havlicek).  Points of
the line are unit-scaling orbits of admissible pairs, represented by the
lexicographically least pair of the orbit.  Two points are *distant* when
their cross-determinant is a unit and *neighbours* otherwise.

Everything runs on the ring's index tables (``Ring.tables``), and a point's
coordinates are element indices: admissibility is looked up per pair of
principal ideals, each admissible pair's canonical code is the least
``u*a, u*b`` over the units u, and the relation is one vectorized
determinant matrix.  Index order is value order, so points sort by
``(a, b)``.  A ring's points are built once and kept with the ring; its
relation is built anew on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rings import MixedRingError, Ring, RingHomomorphism, jacobson_radical

EQUAL, NEIGHBOUR, DISTANT = "equal", "neighbour", "distant"
REL_CODE = {EQUAL: 0, NEIGHBOUR: 1, DISTANT: 2}


class LineError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class ProjPoint:
    ring: Ring
    a: int
    b: int

    def __str__(self):
        names = self.ring.names
        return f"({names[self.a]},{names[self.b]})"

    def __repr__(self):
        return f"<point {self} over {self.ring.spec_str()}>"


def is_admissible(ring: Ring, a: int, b: int) -> bool:
    """True iff aR + bR = R, i.e. some (c, d) completes (a, b) to a unit
    determinant; a unit coordinate decides it at once."""
    a, b = ring.element(a), ring.element(b)
    t = ring.tables
    return bool(t.unit[a] or t.unit[b] or t.unimodular[a, b])


def canonicalize(ring: Ring, a: int, b: int) -> ProjPoint:
    """Lexicographically least representative of the unit-scaling orbit."""
    if not is_admissible(ring, a, b):
        raise LineError(
            f"pair ({ring.el_str(a)},{ring.el_str(b)}) is not admissible")
    t = ring.tables
    code = int(t.orbit_codes(a, b))
    return ProjPoint(ring, code // t.n, code % t.n)


@dataclass(frozen=True)
class LineCatalog:
    """The points of a line and their read-only int8 relation matrix:
    relation[i, j] is 0 equal, 1 neighbour or 2 distant (``REL_CODE``).
    The relation follows from the points, so equality ignores it."""
    ring: Ring
    points: tuple[ProjPoint, ...]
    relation: np.ndarray = field(compare=False)

    def index(self, p: ProjPoint) -> int:
        return self.points.index(p)

    def point_by_str(self, s: str) -> ProjPoint:
        key = s.replace(" ", "")
        for p in self.points:
            if str(p) == key:
                return p
        raise LineError(f"no point {s} on this line")

    def __len__(self):
        return len(self.points)


def _points(ring: Ring) -> tuple[ProjPoint, ...]:
    """The points of ``RingTables.line_pairs``, made once per ring and kept
    on it: a ring in ``build_ring``'s memo keeps its points, and a ring
    that is dropped takes them with it."""
    if ring._line_points is None:
        pa, pb = ring.tables.line_pairs
        ring._line_points = tuple(ProjPoint(ring, a, b)
                                  for a, b in zip(pa.tolist(), pb.tolist()))
    return ring._line_points


def enumerate_points(ring: Ring) -> LineCatalog:
    """All canonical points in lexicographic order plus a new relation
    matrix."""
    t = ring.tables
    pa, pb = t.line_pairs
    points = _points(ring)
    # the determinant a*b' - b*a' is a unit: distant (2), else neighbour (1)
    distant = t.unit_difference[t.mul[pa[:, None], pb], t.mul[pb[:, None], pa]]
    rel = distant.view(np.int8) + np.int8(REL_CODE[NEIGHBOUR])
    rel.flat[::len(rel) + 1] = REL_CODE[EQUAL]
    rel.flags.writeable = False
    return LineCatalog(ring, points, rel)


def pair_relation(p: ProjPoint, q: ProjPoint) -> tuple[str, int]:
    """('equal'|'neighbour'|'distant', the determinant)."""
    if p.ring != q.ring:
        raise MixedRingError("points on lines over different rings")
    t = p.ring.tables
    d = int(t.add[t.mul[p.a, q.b], t.neg[t.mul[p.b, q.a]]])
    if (p.a, p.b) == (q.a, q.b):
        return (EQUAL, d)
    return (DISTANT if t.unit[d] else NEIGHBOUR, d)


def _related(catalog: LineCatalog, p: ProjPoint, which: str) -> set[ProjPoint]:
    row = catalog.relation[catalog.index(p)]
    return {catalog.points[j]
            for j in np.flatnonzero(row == REL_CODE[which]).tolist()}


def neighbourhood(catalog: LineCatalog, p: ProjPoint) -> set[ProjPoint]:
    return _related(catalog, p, NEIGHBOUR)


def distant_points(catalog: LineCatalog, p: ProjPoint) -> set[ProjPoint]:
    return _related(catalog, p, DISTANT)


def distinguished_subsets(catalog: LineCatalog) -> dict[str, set[ProjPoint]]:
    """gf2 subline (0/1 coordinates), both-zero-divisor and unit-unit points.
    A point with a zero coordinate has a unit in the other, so a point
    whose coordinates are both non-units has two zero divisors."""
    ring = catalog.ring
    unit = ring.tables.unit.tolist()
    zero_one = {ring.zero, ring.one}
    return {
        "gf2_subline": {p for p in catalog.points
                        if p.a in zero_one and p.b in zero_one},
        "both_zero_divisor": {p for p in catalog.points
                              if not (unit[p.a] or unit[p.b])},
        "unit_unit": {p for p in catalog.points
                      if unit[p.a] and unit[p.b]},
    }


def expected_point_count(ring: Ring) -> int:
    """Closed-form count (Saniga, Planat, Kibler & Pracna, 2007): R is the
    product of the local rings eR over its primitive idempotents e, and
    the line has the product of (q+1)|J| points over them, J being the
    radical (the non-units) of eR and q = |eR|/|J| its residue field size."""
    t = ring.tables
    elements = range(t.n)
    idempotents = [a for a, aa in zip(elements, t.mul.diagonal().tolist())
                   if aa == a]
    unit = t.unit.tolist()
    count = 1
    for e, row in zip(idempotents, t.mul[idempotents].tolist()):
        if sum(row[f] == f for f in idempotents) == 2:  # only 0, e in eR
            # a in eR is a unit of eR iff a + 1 - e is a unit of R, and
            # (q+1)|J| = |eR| + |J| counts the units once, the rest twice
            shift = t.add[t.add[t.one, t.neg[e]]].tolist()
            count *= sum(2 - unit[shift[a]] for a in elements if row[a] == a)
    return count


def induced_point_map(h: RingHomomorphism, src: LineCatalog,
                      dst: LineCatalog) -> dict[ProjPoint, ProjPoint]:
    """Pointwise image under a ring homomorphism with kernel inside the
    radical: the images of all points are canonicalized in one pass and
    looked up among the target points, whose codes ascend."""
    if src.ring != h.source or dst.ring != h.target:
        raise MixedRingError("catalogs do not match the homomorphism")
    radical = set(jacobson_radical(h.source))
    if not h.kernel() <= radical:
        raise LineError("homomorphism kernel exceeds the radical; "
                        "images need not be admissible")
    T = h.target.tables
    ia = h.img[[p.a for p in src.points]]
    ib = h.img[[p.b for p in src.points]]
    admissible = T.unimodular[ia, ib]
    if not admissible.all():
        raise LineError(f"image of {src.points[int(np.argmin(admissible))]} "
                        "is not admissible")
    codes = [q.a * T.n + q.b for q in dst.points]
    at = np.searchsorted(codes, T.orbit_codes(ia, ib))
    return dict(zip(src.points, [dst.points[k] for k in at.tolist()]))


# ---------------------------------------------------------------------------
# export


def catalog_dot(catalog: LineCatalog, which: str = DISTANT) -> str:
    if which not in (DISTANT, NEIGHBOUR):
        raise LineError("dot export covers the distant or neighbour graph")
    names = [str(p) for p in catalog.points]
    lines = [f'graph "{which} graph over {catalog.ring.spec_str()}" {{']
    lines += [f'  "{name}";' for name in names]
    i, j = np.nonzero(np.triu(catalog.relation == REL_CODE[which]))
    lines += [f'  "{names[a]}" -- "{names[b]}";'
              for a, b in zip(i.tolist(), j.tolist())]
    lines.append("}")
    return "\n".join(lines) + "\n"
