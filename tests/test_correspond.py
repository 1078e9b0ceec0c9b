"""Slot bijections between magic configurations and line point sets,
edge stars, and condensation under the radical-quotient point map."""

import pytest

import ringline as rl
from ringline import correspond as co


def _strs(points):
    return tuple(str(p) for p in points)


# --- square -----------------------------------------------------------------

def test_square_correspondence_is_exact():
    bij, cmp = co.square_correspondence()
    assert cmp.isomorphic_under_bijection
    assert cmp.mismatches == ()
    assert [sum(row) for row in cmp.commuting] == [4] * 9
    assert [sum(row) for row in cmp.distant] == [4] * 9


def test_square_grid_rows_and_columns_distant():
    points = co.square_grid_points()
    for r in range(3):
        for c1 in range(3):
            for c2 in range(c1 + 1, 3):
                row_pair = (points[3 * r + c1], points[3 * r + c2])
                col_pair = (points[3 * c1 + r], points[3 * c2 + r])
                assert rl.pair_relation(*row_pair)[0] == rl.DISTANT
                assert rl.pair_relation(*col_pair)[0] == rl.DISTANT


def test_square_correspondence_breaks_under_bad_permutation():
    # swapping two grid slots must be detected by the pair scan
    perm = (1, 0, 2, 3, 4, 5, 6, 7, 8)
    _, cmp = co.square_correspondence(perm)
    assert not cmp.isomorphic_under_bijection
    assert cmp.mismatches


# --- pentagram --------------------------------------------------------------

def test_pentagram_layouts_are_canonical_points():
    for variant in co.VARIANTS:
        points = co.pentagram_layout_points(variant)
        assert len(set(points)) == 10
    with pytest.raises(ValueError):
        co.pentagram_layout_points("nonesuch")


def test_pentagram_comparison_reported_not_exact():
    # frozen computed mismatch counts; adjacency preservation fails for
    # both ten-point layouts and the report must say by how much
    _, cmp_n = co.pentagram_correspondence("neighbourhood")
    assert not cmp_n.isomorphic_under_bijection
    assert len(cmp_n.mismatches) == 30
    _, cmp_j = co.pentagram_correspondence("jacobson")
    assert not cmp_j.isomorphic_under_bijection
    assert len(cmp_j.mismatches) == 22
    # the commuting graph is 6-regular for every pentagram slot
    assert [sum(row) for row in cmp_j.commuting] == [6] * 10


def test_edge_stars_jacobson():
    stars = dict(co.edge_star_points("jacobson"))
    assert _strs(stars["edge top/lower-left"]) == ("(1,1)",)
    assert _strs(stars["edge top/lower-right"]) == ("(1,1)",)
    assert _strs(stars["edge left/lower-right"]) == ("(1,x^2+x+1)",)
    assert _strs(stars["edge right/lower-left"]) == ("(1,x^2+x+1)",)
    assert stars["horizontal"] == ()


def test_edge_stars_of_a_layout_by_name_or_by_points():
    points = co.pentagram_layout_points("jacobson")
    assert co.edge_star_points(points) == co.edge_star_points("jacobson")


def test_edge_stars_neighbourhood_all_empty():
    assert all(pts == () for _, pts in co.edge_star_points("neighbourhood"))


# --- condensation -----------------------------------------------------------

def test_condensation_neighbourhood():
    rep = co.condensation("neighbourhood")
    edges = dict(rep.per_edge_images)
    assert _strs(edges["horizontal"]) == ("(x,x+1)", "(x+1,x)")
    assert _strs(rep.overall_image) == \
        ("(1,0)", "(1,x)", "(1,x+1)", "(x,x+1)", "(x+1,x)")


def test_condensation_jacobson():
    rep = co.condensation("jacobson")
    edges = dict(rep.per_edge_images)
    assert len(edges["horizontal"]) == 4
    assert _strs(edges["horizontal"]) == \
        ("(0,1)", "(1,0)", "(x,x+1)", "(x+1,x)")
    assert _strs(rep.overall_image) == \
        ("(0,1)", "(1,0)", "(1,1)", "(x,x+1)", "(x+1,x)")
    # informational comparison with the distant-to-(1,1) set
    assert _strs(rep.image_minus_distant) == ("(1,1)",)
    assert rep.distant_minus_image == ()


def test_distant_to_unit_point():
    for variant in co.VARIANTS:
        rep = co.condensation(variant)
        assert _strs(rep.distant_to_unit_point) == \
            ("(0,1)", "(1,0)", "(x,x+1)", "(x+1,x)")


def test_condensation_images_consistent_with_point_map():
    hom = co.club_to_tilde_hom()
    pmap = rl.induced_point_map(hom, co.club_catalog(), co.tilde_catalog())
    assert list(pmap) == list(co.club_catalog().points)
    for p, img in pmap.items():
        assert rl.canonicalize(hom.target, hom(p.a), hom(p.b)) == img
    for variant in co.VARIANTS:
        rep = co.condensation(variant)
        assert rep.point_images == {p: pmap[p] for p in rep.point_images}


def test_quotient_hom_is_validated():
    hom = co.club_to_tilde_hom()
    assert rl.validate_hom(hom)
    assert hom.source.spec_str() == co.club_catalog().ring.spec_str()
    assert hom.target.spec_str() == co.tilde_catalog().ring.spec_str()
    # kernel is exactly the radical of the source ring
    assert hom.kernel() == set(rl.jacobson_radical(hom.source))
