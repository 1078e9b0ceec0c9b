"""Ring construction, arithmetic, classification, radical and quotients.

Derived expected values are computed by a standalone polynomial oracle
(plain int lists, reduction by repeated substitution) that shares no code
with the package.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

import ringline as rl
from ringline.rings import RingError, _interned, build_ring, find_isomorphism


# --- independent oracle: GF(2)[x] mod x^3 - x as int lists -----------------

def oracle_mul_mod2_x3x(a, b):
    """a, b little-endian coefficient lists mod 2; product mod x^3 - x."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] ^= ai & bj
    while len(prod) > 3:
        top = prod.pop()
        if top:
            prod[len(prod) - 2] ^= 1  # x^(d) -> x^(d-2) since x^3 = x
    while len(prod) < 3:
        prod.append(0)
    return prod


def test_oracle_sanity():
    # x * x^2 = x^3 = x
    assert oracle_mul_mod2_x3x([0, 1, 0], [0, 0, 1]) == [0, 1, 0]


# --- construction -----------------------------------------------------------

def test_build_ring_sizes():
    assert build_ring("gf(2)[x]/(x^3-x)").size == 8
    assert build_ring("gf(2)xgf(2)").size == 4
    assert build_ring("gf(4)").size == 4
    assert build_ring("gf(8)").size == 8
    assert build_ring("gf(3)").size == 3
    assert build_ring("GF(2) x GF(2) x GF(2)").size == 8


def test_build_ring_errors():
    with pytest.raises(RingError):
        build_ring("gf(6)")
    with pytest.raises(RingError):
        build_ring("gf(7")
    with pytest.raises(RingError):
        build_ring("gf(2)^")
    with pytest.raises(RingError):
        rl.GaloisField(2, 2, modulus=(0, 0, 1))  # x^2 is reducible
    with pytest.raises(RingError):
        build_ring("gf(2)[x]/(x^9)", size_cap=256)  # 512 elements


@pytest.mark.parametrize("build, message", [
    (lambda: rl.GaloisField(4), "4 is not prime"),
    (lambda: rl.GaloisField(2, 2, modulus=(1, 1)),  # x + 1: degree 1
     "modulus must be monic of degree k"),
    (lambda: rl.QuotientRing(build_ring("gf(2)xgf(2)"), (0, 1)),
     "quotient base must be a Galois field"),
    (lambda: rl.QuotientRing(rl.GaloisField(2), (0, 2, 1)),
     "modulus coefficients must be base-field indices"),
    (lambda: rl.QuotientRing(rl.GaloisField(3), (1, 0, 2)),  # 2x^2 + 1
     "modulus must be monic$"),
    (lambda: rl.QuotientRing(rl.GaloisField(2), (1,) + (0,) * 8 + (1,)),
     "quotient ring exceeds size cap 256"),  # 512 elements
    (lambda: rl.ProductRing([rl.GaloisField(2)]),
     "product needs at least two factors"),
], ids=["gf-not-prime", "gf-modulus-degree", "quotient-base",
        "quotient-coefficient", "quotient-not-monic", "quotient-cap",
        "product-one-factor"])
def test_ring_constructors_refuse_bad_arguments(build, message):
    with pytest.raises(RingError, match=message):
        build()


def test_field_over_the_cap_is_refused_before_any_big_work():
    tracemalloc.start()
    try:
        with pytest.raises(RingError, match="size cap"):
            rl.GaloisField(3, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10  # 3 ** 10**6 alone is a 1.6-million-bit int
    # a trial division up to the square root of this prime runs for minutes
    with pytest.raises(RingError, match="size cap"):
        rl.GaloisField(2 ** 61 - 1)


def test_structural_equality():
    assert build_ring("gf(4)") == build_ring("gf(4)")
    # same size, different construction: never silently identified
    assert build_ring("gf(4)") != build_ring("gf(2)[x]/(x^2+x+1)")
    assert build_ring("gf(2)xgf(2)") != build_ring("gf(2)[x]/(x^2-x)")


def test_gf4_modulus_choice():
    f = build_ring("gf(4)")
    # lexicographically smallest irreducible quadratic: x^2 + x + 1
    assert f.modulus == (1, 1, 1)


def test_gf8_modulus_choice():
    f = build_ring("gf(8)")
    assert f.modulus == (1, 1, 0, 1)  # x^3 + x + 1


# --- one ring per spelling --------------------------------------------------

@pytest.mark.parametrize("spellings", [
    ["gf(2)[x]/(x^3-x)", "gf(2)[x]/(x^3+x)", "GF(2^1)[x]/(x+x^3)",
     "gf(2)[x]/(x^3 + 3x + 2x^2 + 2)"],
    ["gf(8)", "gf(2^3)", "GF(8)"],
    ["gf(4)xgf(4)", "gf(2^2) x GF(4)"],
    ["gf(9)[x]/(x^2)", "gf(3^2)[x]/(x^2+3x+3)"],
], ids=["x3-x", "gf8", "product", "quotient"])
def test_every_spelling_of_a_ring_is_one_object(spellings):
    first = build_ring(spellings[0])
    assert all(build_ring(s) is first for s in spellings)


def test_factors_and_base_fields_are_shared():
    gf4 = build_ring("gf(4)")
    product = build_ring("gf(4)xgf(2)xgf(2^2)")
    assert product.factors[0] is product.factors[2] is gf4
    assert product.factors[1] is build_ring("gf(2)")
    assert build_ring("gf(2^2)[x]/(x^2)").base is gf4


def test_a_built_ring_is_refused_under_a_smaller_cap():
    for spec, message in [("gf(8)", "GF\\(8\\^1\\) exceeds size cap 4"),
                          ("gf(4)[x]/(x^2)", "quotient ring exceeds size cap 8"),
                          ("gf(4)xgf(4)", "product ring exceeds size cap 8")]:
        cap = 4 if spec == "gf(8)" else 8
        ring = build_ring(spec)
        with pytest.raises(RingError, match=message):
            build_ring(spec, size_cap=cap)
        assert build_ring(spec) is ring


@pytest.mark.parametrize("spec", ["gf(6)", "gf(2^0)", "gf(2)[x]/(x^9)",
                                  "gf(2)[x]/(1)", "gf(3)[x]/(2x^2+1)",
                                  "gf(16)xgf(16)xgf(2)", "gf(2)xx"])
def test_a_refusal_is_never_cached(spec):
    refusals = []
    for _ in range(2):
        with pytest.raises(RingError) as info:
            build_ring(spec)
        refusals.append((type(info.value), str(info.value)))
    assert refusals[0] == refusals[1]


def test_shared_tables_are_read_only():
    ring = build_ring("gf(2)[x]/(x^3-x)")
    t = ring.tables
    local_units = [units for _, units in t.local_units]
    assert len(local_units) == 2  # GF(2) x GF(2)[x]/((x+1)^2)
    for table in (t.add, t.mul, t.neg, t.unit, t.unimodular, *local_units):
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = table[(0,) * table.ndim]
    spelt = build_ring("gf(2)[x]/(x^3+x)").tables
    assert t.unimodular is spelt.unimodular
    assert t.local_units is spelt.local_units


def test_the_ring_memo_stays_within_its_bound():
    bound = _interned.cache_info().maxsize
    # every monic polynomial over GF(2) of degree 1 to 5: 62 distinct rings
    specs = [f"gf(2)[x]/(x^{d}" + "".join(f"+{c}*x^{e}" for e, c in
                                          enumerate(low)) + ")"
             for d in range(1, 6)
             for low in itertools.product((0, 1), repeat=d)]
    assert len({build_ring(s).spec_key for s in specs}) == len(specs) > bound
    assert _interned.cache_info().currsize <= bound


# --- arithmetic -------------------------------------------------------------

def _op(ring, op, *names):
    """ring.op on the elements named, printed."""
    return ring.el_str(getattr(ring, op)(*map(ring.element_from_str, names)))


def test_arith_defining_relation(r_club):
    assert _op(r_club, "mul", "x", "x^2") == "x"


def test_arith_zero_divisor_product(r_tilde):
    assert _op(r_tilde, "mul", "x", "x+1") == "0"


def test_arith_unit_square_matches_oracle(r_club):
    # (x^2+x+1)^2 via the independent oracle, then frozen
    assert oracle_mul_mod2_x3x([1, 1, 1], [1, 1, 1]) == [1, 0, 0]
    assert _op(r_club, "mul", "x^2+x+1", "x^2+x+1") == "1"


def test_ring_arith_dispatch(r_club):
    assert _op(r_club, "mul", "x", "x") == "x^2"
    assert _op(r_club, "add", "x", "x") == "0"
    assert _op(r_club, "neg", "x") == "x"
    x = r_club.element_from_str("x")
    assert r_club.el_str(r_club.mul(x, r_club.mul(x, x))) == "x"  # x^3


def test_ring_laws_exhaustive(r_club, r_tilde, gf4):
    for ring in (r_club, r_tilde, gf4):
        els = ring.elements()
        for a, b in itertools.product(els, repeat=2):
            assert ring.add(a, b) == ring.add(b, a)
            assert ring.mul(a, b) == ring.mul(b, a)
        for a, b, c in itertools.product(els, repeat=3):
            assert ring.mul(a, ring.mul(b, c)) == ring.mul(ring.mul(a, b), c)
            assert ring.add(a, ring.add(b, c)) == ring.add(ring.add(a, b), c)
            assert ring.mul(a, ring.add(b, c)) == \
                ring.add(ring.mul(a, b), ring.mul(a, c))


# --- classification ---------------------------------------------------------

def test_classify_examples(r_club, r_tilde, gf4):
    kind, inv = gf4.classify(gf4.element_from_str("x"))
    assert kind == "unit" and gf4.mul(gf4.element_from_str("x"), inv) == gf4.one
    kind, wit = r_tilde.classify(r_tilde.element_from_str("x"))
    assert kind == "zero-divisor" and wit != r_tilde.zero
    assert [r_club.el_str(u) for u in r_club.units()] == ["1", "x^2+x+1"]


def test_classification_partitions(r_club, r_tilde, gf4, r_tilde_prod):
    for ring in (r_club, r_tilde, gf4, r_tilde_prod):
        kinds = [ring.classify(a)[0] for a in ring.elements()]
        assert kinds.count("zero") == 1
        assert kinds.count("unit") + kinds.count("zero-divisor") == ring.size - 1


def test_unit_counts(r_club, r_tilde, gf4):
    assert len(r_club.units()) == 2
    assert len(r_tilde.units()) == 1
    assert len(gf4.units()) == 3
    for q in (2, 3, 5, 8):
        f = build_ring(f"gf({q})")
        assert len(f.units()) == q - 1


# --- radical and quotient ---------------------------------------------------

def test_radical(r_club, r_tilde, gf4):
    # (x^2+x)^2 = 0 under the oracle
    assert oracle_mul_mod2_x3x([0, 1, 1], [0, 1, 1]) == [0, 0, 0]
    assert [r_club.el_str(a) for a in rl.jacobson_radical(r_club)] == \
        ["0", "x^2+x"]
    assert rl.jacobson_radical(gf4) == [gf4.zero]
    assert rl.jacobson_radical(r_tilde) == [r_tilde.zero]


def test_quotient_by_radical(r_club, gf4):
    q, hom = rl.quotient_by_radical(r_club)
    assert q.size == 4
    assert rl.validate_hom(hom)
    # x^2 - x = x^2 + x lies in the radical, so x^2 and x share a coset
    assert hom(r_club.element_from_str("x^2")) == \
        hom(r_club.element_from_str("x"))
    # representatives are the lexicographically minimal coset members
    assert [q.el_str(a) for a in q.elements()] == ["0", "1", "x", "x+1"]
    qf, homf = rl.quotient_by_radical(gf4)
    assert qf.size == 4 and rl.validate_hom(homf)
    assert all(homf(a) == a for a in gf4.elements())


def test_quotient_isomorphic_to_product(r_club, r_tilde_prod, r_tilde):
    q, _ = rl.quotient_by_radical(r_club)
    assert find_isomorphism(q, r_tilde_prod) is not None
    assert find_isomorphism(q, r_tilde) is not None
    assert find_isomorphism(r_tilde, r_tilde_prod) is not None


def test_mark_ring_matches_product_classification(r_tilde, r_tilde_prod):
    # the two constructions of the four-mark ring classify identically
    iso = find_isomorphism(r_tilde, r_tilde_prod)
    assert iso is not None
    for a in r_tilde.elements():
        assert r_tilde.classify(a)[0] == r_tilde_prod.classify(iso(a))[0]


def test_units_lift_through_quotient(r_club):
    q, hom = rl.quotient_by_radical(r_club)
    for a in r_club.elements():
        assert r_club.tables.unit[a] == q.tables.unit[hom(a)]


def _swap(ring, a, b):
    """The index permutation exchanging the elements named a and b."""
    img = np.arange(ring.size)
    i, j = map(ring.element_from_str, (a, b))
    img[i], img[j] = j, i
    return img


def test_validate_hom_rejects_bad_maps(r_tilde, r_club):
    bad = rl.RingHomomorphism(r_tilde, r_tilde, _swap(r_tilde, "0", "1"))
    assert rl.validate_hom(bad) is False  # a plain bool, as JSON writes it
    for img in (np.arange(3), np.arange(5), np.arange(4).reshape(2, 2),
                [0, 1, 2, 4], [0, 1, 2, -1]):
        assert not rl.validate_hom(rl.RingHomomorphism(r_tilde, r_tilde, img))
    # the range is the target's: 5 indexes the source, not the target
    assert not rl.validate_hom(rl.RingHomomorphism(r_club, r_tilde,
                                                   [0, 1, 2, 3, 0, 1, 2, 5]))
    # x -> x+1 on the mark ring: exhaustive verdict
    assert rl.validate_hom(rl.RingHomomorphism(
        r_tilde, r_tilde, _swap(r_tilde, "x", "x+1"))) is True


def test_tilde_swap_is_automorphism(r_tilde):
    # open question: downstream claims must be invariant under x <-> x+1
    swap = rl.RingHomomorphism(r_tilde, r_tilde, _swap(r_tilde, "x", "x+1"))
    assert rl.validate_hom(swap)


def test_hom_img_is_a_read_only_copy(r_tilde):
    img = _swap(r_tilde, "x", "x+1")
    swap = rl.RingHomomorphism(r_tilde, r_tilde, img)
    img[:] = 0
    assert swap(r_tilde.element_from_str("x")) == r_tilde.element_from_str("x+1")
    assert swap.img.dtype == np.intp and not swap.img.flags.writeable


def test_compose_matches_applying_in_turn(r_club):
    q, surjection = rl.quotient_by_radical(r_club)
    h = find_isomorphism(q, build_ring("gf(2)xgf(2)"))
    composed = h.compose(surjection)
    assert rl.validate_hom(composed)
    for a in r_club.elements():
        assert composed(a) == h(surjection(a))
    with pytest.raises(rl.MixedRingError):
        surjection.compose(h)


# --- element indices ----------------------------------------------------------

BAD_INDICES = [-1, -8, 8, 9]  # -1 would wrap to the last element; 8 = size


@pytest.mark.parametrize("bad", BAD_INDICES)
@pytest.mark.parametrize("call", [
    lambda ring, bad: ring.add(bad, 1),
    lambda ring, bad: ring.add(1, bad),
    lambda ring, bad: ring.mul(bad, 1),
    lambda ring, bad: ring.mul(1, bad),
    lambda ring, bad: ring.neg(bad),
    lambda ring, bad: ring.el_str(bad),
    lambda ring, bad: ring.classify(bad),
    lambda ring, bad: rl.is_admissible(ring, bad, 1),
    lambda ring, bad: rl.is_admissible(ring, 1, bad),
    lambda ring, bad: rl.canonicalize(ring, bad, 1),
    lambda ring, bad: rl.canonicalize(ring, 1, bad),
], ids=["add-a", "add-b", "mul-a", "mul-b", "neg", "el_str", "classify",
        "is_admissible-a", "is_admissible-b", "canonicalize-a",
        "canonicalize-b"])
def test_bad_element_index_is_a_ring_error(r_club, call, bad):
    """An index outside 0..size-1 is refused, not wrapped or left to
    numpy's IndexError; a ring of 8 elements takes 0..7."""
    assert r_club.size == 8
    with pytest.raises(RingError, match=f"element index {bad} out of range"):
        call(r_club, bad)


def test_non_integer_element_index_is_a_ring_error(r_club):
    with pytest.raises(RingError, match="is not an integer"):
        r_club.add("x", 1)
    assert r_club.add(np.int64(7), True) == r_club.add(7, 1)
