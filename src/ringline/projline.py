"""Projective lines over finite rings: points, neighbour/distant relation.

A pair (a, b) over a ring R is *admissible* when it extends to an
invertible 2x2 matrix, i.e. some (c, d) makes ad - bc a unit; over a
commutative ring that holds iff aR + bR = R (Blunck & Havlicek).  Points of
the line are unit-scaling orbits of admissible pairs, represented by the
lexicographically least pair of the orbit.  Two points are *distant* when
their cross-determinant is a unit and *neighbours* otherwise.

Everything runs on the ring's index tables (``Ring.tables``), and a point's
coordinates are element indices: admissibility is looked up in the ring's
mask of pairs with ea or eb a unit in every local factor eR (e a
primitive idempotent), each admissible pair's canonical code is the least
``u*a, u*b`` over the units u, and the relation is one vectorized
determinant matrix.  Index order is value order, so points sort by
``(a, b)``.  A ring's line is built once and kept with the ring: its
points, their names, the distinguished subsets and, when it is no larger
than the ring's ``add`` table, its relation.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType

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
    determinant; read from ``RingTables.unimodular``."""
    a, b = ring.element(a), ring.element(b)
    return bool(ring.tables.unimodular[a, b])


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
    """The points of a line, their names, and their read-only int8
    relation matrix: relation[i, j] is 0 equal, 1 neighbour or 2 distant
    (``REL_CODE``).  ``subsets`` holds the ``distinguished_subsets`` as
    point indices in the order of the points' names.  All but the points
    follow from them, so equality compares the ring and the points only."""
    ring: Ring
    points: tuple[ProjPoint, ...]
    relation: np.ndarray = field(compare=False)
    names: tuple[str, ...] = field(compare=False)
    subsets: Mapping[str, tuple[int, ...]] = field(compare=False)

    def index(self, p: ProjPoint) -> int:
        return self.points.index(p)

    def point_by_str(self, s: str) -> ProjPoint:
        try:
            return self.points[self.names.index(s.replace(" ", ""))]
        except ValueError:
            raise LineError(f"no point {s} on this line") from None

    def __len__(self):
        return len(self.points)


def _relation(t, pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """The read-only relation among the points (pa[i], pb[i])."""
    # the determinant a*b' - b*a' is a unit: distant (2), else neighbour (1)
    distant = t.unit_difference[t.mul[pa[:, None], pb], t.mul[pb[:, None], pa]]
    rel = distant.view(np.int8) + np.int8(REL_CODE[NEIGHBOUR])
    rel.flat[::len(rel) + 1] = REL_CODE[EQUAL]
    rel.flags.writeable = False
    return rel


def _line(ring: Ring) -> LineCatalog:
    """The catalog kept on the ring (``Ring._line``), made on first use: a
    ring in ``build_ring``'s memo keeps its line, and a ring that is
    dropped takes it with it.  Its relation is None when it would take
    more bytes than the ring's ``add`` table (only rings of three or more
    local factors), so a ring never keeps a relation larger than that
    table."""
    if ring._line is None:
        t = ring.tables
        pa, pb = t.line_pairs
        a, b = pa.tolist(), pb.tolist()
        points = tuple(ProjPoint(ring, x, y) for x, y in zip(a, b))
        names = tuple(map(str, points))
        # a point with a zero coordinate has a unit in the other, so a
        # point whose coordinates are both non-units has two zero divisors
        unit, zero_one = t.unit.tolist(), {ring.zero, ring.one}
        belongs = {
            "gf2_subline": lambda x, y: x in zero_one and y in zero_one,
            "both_zero_divisor": lambda x, y: not (unit[x] or unit[y]),
            "unit_unit": lambda x, y: unit[x] and unit[y],
        }
        order = sorted(range(len(names)), key=names.__getitem__)
        subsets = MappingProxyType({
            k: tuple(i for i in order if test(a[i], b[i]))
            for k, test in belongs.items()})
        relation = (_relation(t, pa, pb) if len(points) ** 2 <= t.add.nbytes
                    else None)
        ring._line = LineCatalog(ring, points, relation, names, subsets)
    return ring._line


def enumerate_points(ring: Ring) -> LineCatalog:
    """All canonical points in lexicographic order, with their names,
    distinguished subsets and relation: the catalog the ring keeps, or a
    copy of it with a new relation when the ring keeps none."""
    line = _line(ring)
    if line.relation is not None:
        return line
    return replace(line, relation=_relation(ring.tables,
                                            *ring.tables.line_pairs))


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
    """gf2 subline (0/1 coordinates), both-zero-divisor and unit-unit
    points, read from ``catalog.subsets``."""
    return {k: {catalog.points[i] for i in v}
            for k, v in catalog.subsets.items()}


def expected_point_count(ring: Ring) -> int:
    """Closed-form count (Saniga, Planat, Kibler & Pracna, 2007): R is the
    product of the local rings eR over its primitive idempotents e, and
    the line has the product of (q+1)|J| points over them, J being the
    radical (the non-units) of eR and q = |eR|/|J| its residue field size.
    (q+1)|J| = |eR| + |J|, read from ``RingTables.local_factors``."""
    return math.prod(size + radical
                     for size, radical in ring.tables.local_factors)


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
    names = catalog.names
    lines = [f'graph "{which} graph over {catalog.ring.spec_str()}" {{']
    lines += [f'  "{name}";' for name in names]
    i, j = np.nonzero(np.triu(catalog.relation == REL_CODE[which]))
    lines += [f'  "{names[a]}" -- "{names[b]}";'
              for a, b in zip(i.tolist(), j.tolist())]
    lines.append("}")
    return "\n".join(lines) + "\n"
