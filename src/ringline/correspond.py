"""Operator-to-point dictionaries between the magic configurations and the
ring-line point sets, plus condensation under the radical quotient map.

The slot bijections are positional: the square reads row-major, the
pentagram reads its layout top to bottom (top vertex, the horizontal four
left to right, the two mid-level inner vertices, the lower inner vertex,
the two bottom outer vertices).  Nothing is inferred from the algebra
here; the layouts anchor the maps and every comparison is then computed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .magic import PENTAGRAM_EDGE_SLOTS, Configuration, builtin
from .pauli import PauliObservable, commutes
from .projline import (DISTANT, REL_CODE, LineCatalog, ProjPoint,
                       distant_points, enumerate_points, induced_point_map)
from .rings import (RingHomomorphism, build_ring, find_isomorphism,
                    quotient_by_radical)

R_CLUB_SPEC = "gf(2)[x]/(x^3-x)"
R_TILDE_SPEC = "gf(2)[x]/(x^2-x)"
R_TILDE_PRODUCT_SPEC = "gf(2)xgf(2)"

# 3x3 slot grid of the nine-point line, row-major; same-row/column points
# are pairwise distant and slot i matches slot i of the magic square.
SQUARE_GRID_POINTS = (
    ("x+1", "1"), ("1", "x"), ("x", "x+1"),
    ("x", "1"), ("1", "x+1"), ("x+1", "x"),
    ("1", "0"), ("0", "1"), ("1", "1"),
)

# ten-point pentagram layouts over gf(2)[x]/(x^3-x), in slot order
NEIGHBOURHOOD_LAYOUT = (
    ("1", "x^2+x"),
    ("x", "x+1"), ("x^2+1", "x"), ("x", "x^2+1"), ("x+1", "x"),
    ("1", "x^2"), ("1", "x^2+1"),
    ("1", "0"),
    ("1", "x"), ("1", "x+1"),
)
JACOBSON_LAYOUT = (
    ("1", "1"),
    ("x", "x+1"), ("x^2+x", "1"), ("1", "x^2+x"), ("x+1", "x"),
    ("x", "x^2+1"), ("x^2+1", "x"),
    ("1", "x^2+x+1"),
    ("1", "0"), ("0", "1"),
)

VARIANTS = ("neighbourhood", "jacobson")


class CorrespondError(ValueError):
    """Bad slot permutation, variant or source ring."""


@lru_cache(maxsize=None)
def club_catalog() -> LineCatalog:
    return enumerate_points(build_ring(R_CLUB_SPEC))


@lru_cache(maxsize=None)
def tilde_catalog() -> LineCatalog:
    return enumerate_points(build_ring(R_TILDE_SPEC))


@lru_cache(maxsize=None)
def club_to_tilde_hom() -> RingHomomorphism:
    """The radical quotient of gf(2)[x]/(x^3-x), landing in gf(2)[x]/(x^2-x).

    The quotient ring is identified with the four-element ring of marks by
    the (unique up to automorphism) exhaustively-verified isomorphism.
    """
    club = club_catalog().ring
    quotient, surjection = quotient_by_radical(club)
    iso = find_isomorphism(quotient, tilde_catalog().ring)
    if iso is None:
        raise RuntimeError("radical quotient is not isomorphic to the mark ring")
    return iso.compose(surjection)


def _points(catalog: LineCatalog, pairs) -> tuple[ProjPoint, ...]:
    ring = catalog.ring
    out = []
    for a, b in pairs:
        p = ProjPoint(ring, ring.element_from_str(a), ring.element_from_str(b))
        if p not in catalog.points:
            raise RuntimeError(f"layout point {p} is not canonical on the line")
        out.append(p)
    return tuple(out)


def square_grid_points() -> tuple[ProjPoint, ...]:
    return _points(tilde_catalog(), SQUARE_GRID_POINTS)


def pentagram_layout_points(variant: str) -> tuple[ProjPoint, ...]:
    layouts = {"neighbourhood": NEIGHBOURHOOD_LAYOUT, "jacobson": JACOBSON_LAYOUT}
    if variant not in layouts:
        raise CorrespondError(f"variant must be one of {VARIANTS}")
    return _points(club_catalog(), layouts[variant])


@dataclass(frozen=True)
class SlotBijection:
    slots: tuple[str, ...]
    observables: tuple[PauliObservable, ...]
    points: tuple[ProjPoint, ...]

    def __post_init__(self):
        if not (len(self.slots) == len(self.observables) == len(self.points)):
            raise ValueError("bijection legs differ in length")
        if len(set(self.points)) != len(self.points):
            raise ValueError("bijection image points are not distinct")


@dataclass(frozen=True)
class GraphComparison:
    commuting: tuple[tuple[bool, ...], ...]
    distant: tuple[tuple[bool, ...], ...]
    isomorphic_under_bijection: bool
    mismatches: tuple[tuple[int, int], ...]


def _distant(catalog: LineCatalog, points) -> np.ndarray:
    """The distant mask among points of the catalog, read off its relation."""
    at = [catalog.index(p) for p in points]
    return catalog.relation[np.ix_(at, at)] == REL_CODE[DISTANT]


def _compare(observables, catalog: LineCatalog, points) -> GraphComparison:
    n = len(observables)
    comm = tuple(tuple(i != j and commutes(observables[i], observables[j])
                       for j in range(n)) for i in range(n))
    dist = tuple(map(tuple, _distant(catalog, points).tolist()))
    mism = tuple((i, j) for i, j in itertools.combinations(range(n), 2)
                 if comm[i][j] != dist[i][j])
    return GraphComparison(comm, dist, not mism, mism)


def square_correspondence(permutation: tuple[int, ...] | None = None
                          ) -> tuple[SlotBijection, GraphComparison]:
    """Row-major slot bijection between the magic square and the 3x3 grid
    of the nine-point line; optional slot permutation for exploration."""
    cfg = builtin("mermin_square")
    points = square_grid_points()
    if permutation is not None:
        points = tuple(points[i] for i in permutation)
    slots = tuple(f"({r},{c})" for r in range(1, 4) for c in range(1, 4))
    bij = SlotBijection(slots, cfg.observables, points)
    return bij, _compare(cfg.observables, tilde_catalog(), points)


PENT_SLOT_NAMES = ("top", "far-left", "mid-left", "mid-right", "far-right",
                   "inner-left", "inner-right", "inner-bottom",
                   "bottom-left", "bottom-right")


def pentagram_correspondence(variant: str,
                             permutation: tuple[int, ...] | None = None
                             ) -> tuple[SlotBijection, GraphComparison]:
    """Positional bijection from the pentagram layout to a ten-point subset
    of the eighteen-point line; the comparison is reported, not asserted."""
    cfg = builtin("mermin_pentagram")
    points = pentagram_layout_points(variant)
    if permutation is not None:
        points = tuple(points[i] for i in permutation)
    bij = SlotBijection(PENT_SLOT_NAMES, cfg.observables, points)
    return bij, _compare(cfg.observables, club_catalog(), points)


def edge_star_points(layout: str | tuple[ProjPoint, ...] = "jacobson"
                     ) -> list[tuple[str, tuple[ProjPoint, ...]]]:
    """Per edge: the points distant to every other point of that edge, on
    a variant's layout or on ten points in slot order (a permuted one)."""
    points = (pentagram_layout_points(layout) if isinstance(layout, str)
              else layout)
    out = []
    for label, slots in PENTAGRAM_EDGE_SLOTS:
        edge = [points[i] for i in slots]
        distant = _distant(club_catalog(), edge)
        np.fill_diagonal(distant, True)
        out.append((label, tuple(p for p, row in zip(edge, distant)
                                 if row.all())))
    return out


@dataclass(frozen=True)
class CondensationReport:
    variant: str
    point_images: dict[ProjPoint, ProjPoint]
    per_edge_images: tuple[tuple[str, tuple[ProjPoint, ...]], ...]
    overall_image: tuple[ProjPoint, ...]
    distant_to_unit_point: tuple[ProjPoint, ...]
    image_minus_distant: tuple[ProjPoint, ...]
    distant_minus_image: tuple[ProjPoint, ...]


def condensation(variant: str) -> CondensationReport:
    """Image of a pentagram layout under the radical-quotient point map,
    compared (informationally) with the points distant to (1,1)."""
    src, dst = club_catalog(), tilde_catalog()
    pmap = induced_point_map(club_to_tilde_hom(), src, dst)
    points = pentagram_layout_points(variant)
    images = {p: pmap[p] for p in points}

    def ordered(pts):
        return tuple(sorted(pts, key=lambda p: (p.a, p.b)))

    per_edge = tuple((label, ordered({images[points[i]] for i in slots}))
                     for label, slots in PENTAGRAM_EDGE_SLOTS)
    overall = ordered(set(images.values()))
    distant = ordered(distant_points(dst, dst.point_by_str("(1,1)")))
    return CondensationReport(
        variant, images, per_edge, overall, distant,
        tuple(p for p in overall if p not in distant),
        tuple(p for p in distant if p not in overall))
