"""Projective-line enumeration, relations, induced maps.

The independent oracle here decides admissibility of a pair (a, b) through
the ideal criterion -- (a, b) extends to an invertible matrix over a
finite commutative ring iff 1 is an a,b-combination -- by brute force over
coefficient pairs in payload arithmetic, which shares no code path with
the package's principal-ideal lookup on the ring tables.
"""

import gc
import itertools
import weakref

import numpy as np
import pytest

import ringline as rl
from ringline.rings import _interned
from ringline.correspond import (JACOBSON_LAYOUT, NEIGHBOURHOOD_LAYOUT,
                                 club_to_tilde_hom)
from ringline.projline import LineError, ProjPoint, catalog_dot
from conftest import counterparts
from ring_oracle import PayloadRing, is_admissible_componentwise, oracle_unimodular


def test_admissibility_matches_ideal_oracle(r_club, r_tilde, gf4):
    for ring in (r_club, r_tilde, gf4):
        payload = PayloadRing(ring)
        els = payload.elements()
        for a, b in itertools.product(ring.elements(), repeat=2):
            assert rl.is_admissible(ring, a, b) == \
                oracle_unimodular(payload, els[a], els[b])


def test_admissibility_examples(r_tilde):
    x = r_tilde.element_from_str("x")
    x1 = r_tilde.element_from_str("x+1")
    assert not rl.is_admissible(r_tilde, x, x)
    assert rl.is_admissible(r_tilde, x, x1)
    assert rl.is_admissible(r_tilde, r_tilde.one, x)


def test_product_componentwise_cross_oracle(r_tilde_prod):
    els = PayloadRing(r_tilde_prod).elements()
    for a, b in itertools.product(r_tilde_prod.elements(), repeat=2):
        assert rl.is_admissible(r_tilde_prod, a, b) == \
            is_admissible_componentwise(r_tilde_prod, els[a], els[b])


# --- canonical points -------------------------------------------------------

def test_canonicalize_unit_rescaling_example(r_club):
    p = rl.canonicalize(r_club, r_club.element_from_str("x^2+x+1"),
                        r_club.element_from_str("x^2"))
    assert str(p) == "(1,x)"


def test_canonicalize_rejects_inadmissible(r_tilde):
    x = r_tilde.element_from_str("x")
    with pytest.raises(LineError):
        rl.canonicalize(r_tilde, x, x)


def test_canonicalize_invariant_under_unit_scaling(r_club, club_catalog):
    for p in club_catalog.points:
        for u in r_club.units():
            q = rl.canonicalize(r_club, r_club.mul(u, p.a), r_club.mul(u, p.b))
            assert q == p


def test_point_counts(club_catalog, tilde_catalog, gf4):
    assert len(club_catalog) == 18
    assert len(tilde_catalog) == 9
    assert len(rl.enumerate_points(gf4)) == 5
    for q in (2, 3, 5, 8):
        f = rl.build_ring(f"gf({q})")
        assert len(rl.enumerate_points(f)) == q + 1


def test_orbit_counting_oracle(r_club, club_catalog):
    # |points| * |units| admissible pairs, since unit scaling acts freely here
    admissible = sum(rl.is_admissible(r_club, a, b)
                     for a, b in itertools.product(r_club.elements(), repeat=2))
    assert admissible == len(club_catalog) * len(r_club.units())


def test_expected_point_count(r_club, r_tilde, r_tilde_prod, gf4):
    assert rl.expected_point_count(gf4) == 5
    assert rl.expected_point_count(rl.build_ring("gf(8)")) == 9
    assert rl.expected_point_count(r_tilde_prod) == 9
    # products in disguise: gf(2) x gf(2)[x]/(x^2) and gf(2) x gf(2)
    assert rl.expected_point_count(r_club) == 18
    assert rl.expected_point_count(r_tilde) == 9
    # gf(3)[x]/(x^3-x) is gf(3) x gf(3) x gf(3): 4^3 points
    assert rl.expected_point_count(rl.build_ring("gf(3)[x]/(x^3-x)")) == 64


# --- relations --------------------------------------------------------------

EQUAL, NEIGHBOUR, DISTANT = 0, 1, 2  # relation codes, as in JSON output


def test_relation_symmetry_and_diagonal(club_catalog):
    rel = club_catalog.relation
    n = len(club_catalog)
    assert rel.dtype == np.int8 and not rel.flags.writeable
    for i in range(n):
        assert rel[i, i] == EQUAL
        for j in range(i + 1, n):
            assert rel[i, j] == rel[j, i]
            assert rel[i, j] in (NEIGHBOUR, DISTANT)


def test_field_line_has_no_neighbours(gf4):
    cat = rl.enumerate_points(gf4)
    for i, j in itertools.combinations(range(len(cat)), 2):
        assert cat.relation[i, j] == DISTANT


def test_pair_relation_witness(tilde_catalog):
    p = tilde_catalog.point_by_str("(1,0)")
    q = tilde_catalog.point_by_str("(1,x)")
    ring = tilde_catalog.ring
    rel, det = rl.pair_relation(p, q)
    assert rel == rl.NEIGHBOUR and ring.el_str(det) == "x"
    rel, det = rl.pair_relation(p, tilde_catalog.point_by_str("(0,1)"))
    assert rel == rl.DISTANT and ring.el_str(det) == "1"


def test_mixed_ring_points_rejected(club_catalog, tilde_catalog):
    with pytest.raises(rl.MixedRingError):
        rl.pair_relation(club_catalog.points[0], tilde_catalog.points[0])


def test_nine_point_line_distant_degree_four(tilde_catalog):
    for p in tilde_catalog.points:
        assert len(rl.distant_points(tilde_catalog, p)) == 4
        assert len(rl.neighbourhood(tilde_catalog, p)) == 4


def test_neighbourhood_of_base_point(club_catalog):
    base = club_catalog.point_by_str("(1,0)")
    expected = {club_catalog.point_by_str(f"({a},{b})")
                for a, b in NEIGHBOURHOOD_LAYOUT if (a, b) != ("1", "0")}
    assert len(expected) == 9
    assert rl.neighbourhood(club_catalog, base) == expected


def test_distinguished_subsets(club_catalog):
    subs = rl.distinguished_subsets(club_catalog)
    as_strs = {k: {str(p) for p in v} for k, v in subs.items()}
    assert as_strs["gf2_subline"] == {"(0,1)", "(1,0)", "(1,1)"}
    assert as_strs["both_zero_divisor"] == \
        {"(x,x+1)", "(x+1,x)", "(x,x^2+1)", "(x^2+1,x)"}
    # (x^2+x+1, 1) rescales to (1, x^2+x+1): two canonical unit-unit points
    assert as_strs["unit_unit"] == {"(1,1)", "(1,x^2+x+1)"}


def test_distinguished_subsets_by_units_and_zero_divisors():
    """The subsets read from the unit mask are the ones the ring's lists of
    units and zero divisors define."""
    for spec in ("gf(2)[x]/(x^3-x)", "gf(4)xgf(3)", "gf(3)[x]/(x^2)",
                 "gf(2)xgf(2)xgf(2)", "gf(5)"):
        ring = rl.build_ring(spec)
        catalog = rl.enumerate_points(ring)
        units, zd = set(ring.units()), set(ring.zero_divisors())
        zero_one = {ring.zero, ring.one}
        both = {name: {p for p in catalog.points if p.a in s and p.b in s}
                for name, s in (("gf2_subline", zero_one),
                                ("both_zero_divisor", zd),
                                ("unit_unit", units))}
        assert rl.distinguished_subsets(catalog) == both, spec


def test_ten_point_layout_is_union_of_distinguished_sets(club_catalog):
    subs = rl.distinguished_subsets(club_catalog)
    hom = club_to_tilde_hom()
    tilde_cat = rl.enumerate_points(hom.target)
    pmap = rl.induced_point_map(hom, club_catalog, tilde_cat)
    others = set()
    for p in subs["gf2_subline"]:
        others |= counterparts(pmap, p)
    layout = {club_catalog.point_by_str(f"({a},{b})")
              for a, b in JACOBSON_LAYOUT}
    assert layout == subs["gf2_subline"] | others | subs["both_zero_divisor"]


# --- induced point maps -----------------------------------------------------

def test_induced_map_examples(club_catalog):
    hom = club_to_tilde_hom()
    tilde_cat = rl.enumerate_points(hom.target)
    pmap = rl.induced_point_map(hom, club_catalog, tilde_cat)
    assert str(pmap[club_catalog.point_by_str("(x^2+1,x)")]) == "(x+1,x)"
    assert str(pmap[club_catalog.point_by_str("(1,x^2+x)")]) == "(1,0)"
    assert str(pmap[club_catalog.point_by_str("(1,1)")]) == "(1,1)"


def test_induced_map_fibers_have_size_two(club_catalog):
    hom = club_to_tilde_hom()
    tilde_cat = rl.enumerate_points(hom.target)
    pmap = rl.induced_point_map(hom, club_catalog, tilde_cat)
    fibers = {}
    for p, img in pmap.items():
        fibers.setdefault(img, set()).add(p)
    assert set(fibers) == set(tilde_cat.points)
    assert all(len(f) == 2 for f in fibers.values())


def test_induced_map_preserves_distance(club_catalog):
    hom = club_to_tilde_hom()
    tilde_cat = rl.enumerate_points(hom.target)
    pmap = rl.induced_point_map(hom, club_catalog, tilde_cat)
    for p, q in itertools.combinations(club_catalog.points, 2):
        if rl.pair_relation(p, q)[0] == rl.DISTANT:
            assert rl.pair_relation(pmap[p], pmap[q])[0] == rl.DISTANT


def test_induced_map_requires_kernel_in_radical(r_club, club_catalog):
    # collapse everything to zero except the multiplicative identity: the
    # kernel is far larger than the radical and the map must be refused
    t = r_club.tables
    img = np.where(np.arange(t.n) == t.one, t.one, t.zero)
    bad = rl.RingHomomorphism(r_club, r_club, img)
    with pytest.raises(LineError, match="^homomorphism kernel exceeds the "
                                        "radical; images need not be admissible$"):
        rl.induced_point_map(bad, club_catalog, club_catalog)


def test_induced_map_refuses_the_first_inadmissible_image(r_club, club_catalog):
    # not a homomorphism: 0 and 1 stay, everything else goes to x, so the
    # kernel is {0} but pairs of zero divisors land on the pair (x, x)
    t = r_club.tables
    x = r_club.element_from_str("x")
    img = np.where(np.isin(np.arange(t.n), [t.zero, t.one]), np.arange(t.n), x)
    bad = rl.RingHomomorphism(r_club, r_club, img)
    first = next(p for p in club_catalog.points
                 if not rl.is_admissible(r_club, bad(p.a), bad(p.b)))
    assert first != club_catalog.points[0]
    with pytest.raises(LineError) as err:
        rl.induced_point_map(bad, club_catalog, club_catalog)
    assert str(err.value) == f"image of {first} is not admissible"


def test_jacobson_counterparts(club_catalog):
    hom = club_to_tilde_hom()
    tilde_cat = rl.enumerate_points(hom.target)
    pmap = rl.induced_point_map(hom, club_catalog, tilde_cat)
    def other(s):
        return {str(q) for q in
                counterparts(pmap, club_catalog.point_by_str(s))}
    assert other("(1,0)") == {"(1,x^2+x)"}
    assert other("(0,1)") == {"(x^2+x,1)"}
    assert other("(1,1)") == {"(1,x^2+x+1)"}


def test_jacobson_counterpart_trivial_over_field(gf4):
    cat = rl.enumerate_points(gf4)
    _, hom = rl.quotient_by_radical(gf4)
    qcat = rl.enumerate_points(hom.target)
    pmap = rl.induced_point_map(hom, cat, qcat)
    for p in cat.points:
        assert counterparts(pmap, p) == set()


# --- export -----------------------------------------------------------------

def test_catalog_dot(gf4, tilde_catalog):
    dot = catalog_dot(rl.enumerate_points(gf4))
    assert dot.count(" -- ") == 10  # complete graph on 5 points
    dot_n = catalog_dot(tilde_catalog, rl.NEIGHBOUR)
    assert dot_n.count(" -- ") == 9 * 4 // 2
    with pytest.raises(LineError):
        catalog_dot(tilde_catalog, "equal")


def test_point_by_str(tilde_catalog):
    assert str(tilde_catalog.point_by_str("( 1 , x )")) == "(1,x)"
    with pytest.raises(LineError):
        tilde_catalog.point_by_str("(x,x)")


# --- the points kept with their ring --------------------------------------


def test_points_are_built_once_and_relations_on_every_call():
    """A ring whose relation would take more bytes than its add table
    (27 points: 729 bytes, against 8 x 8 intp entries, 512 bytes) keeps
    its points, names and subsets, but gets a new relation on every
    call."""
    ring = rl.build_ring("gf(2)xgf(2)xgf(2)")
    first, second = rl.enumerate_points(ring), rl.enumerate_points(ring)
    assert (ring.size, len(first)) == (8, 27)
    assert len(first) ** 2 > ring.tables.add.nbytes
    assert first.points is second.points
    assert first.names is second.names and first.subsets is second.subsets
    assert first.relation is not second.relation
    assert not np.shares_memory(first.relation, second.relation)
    assert (first.relation == second.relation).all()
    pa, pb = ring.tables.line_pairs
    assert [(p.a, p.b) for p in first.points] == list(zip(pa.tolist(),
                                                          pb.tolist()))
    for array in (pa, pb, ring.tables.unit_difference, first.relation):
        assert not array.flags.writeable


def test_a_ring_within_the_bound_keeps_its_whole_catalog(r_club):
    first = rl.enumerate_points(r_club)
    assert len(first) ** 2 <= r_club.tables.add.nbytes
    assert rl.enumerate_points(r_club) is first
    assert not first.relation.flags.writeable
    with pytest.raises(TypeError):
        first.subsets["unit_unit"] = ()


def test_points_are_slotted_and_rings_hash_as_their_spec_key(r_club):
    p = rl.enumerate_points(r_club).points[0]
    assert not hasattr(p, "__dict__")
    assert hash(r_club) == hash(r_club.spec_key)


def test_points_live_and_die_with_their_ring():
    """The memo keeps a ring with its line; once it forgets a ring that
    nothing else holds, the ring, its index arrays, its relation and its
    points go (each point holds its ring, so none is left once the ring is
    gone)."""
    ring = rl.build_ring("gf(3)[x]/(x^2+x+2)")
    catalog = rl.enumerate_points(ring)
    points = len(catalog)
    refs = [weakref.ref(ring), weakref.ref(ring.tables),
            weakref.ref(ring.tables.line_pairs[0]),
            weakref.ref(catalog.relation)]
    del catalog
    del ring
    gc.collect()
    assert all(r() is not None for r in refs)
    assert sum(type(o) is ProjPoint and o.ring is refs[0]()
               for o in gc.get_objects()) == points
    _interned.cache_clear()
    gc.collect()
    assert all(r() is None for r in refs)
