"""The ring table kernel against payload arithmetic and brute-force oracles.

The payload arithmetic is ``ring_oracle.PayloadRing``, which recomputes each
ring from its construction data and never reads the tables; its elements in
value order are the labels of the ring's indices.

Random rings are GF(p^k)[x]/(f) for random monic f, Galois fields and
two-factor products, all of at most 32 elements.  The sweep covers every
monic f over every GF(q) with q^deg f <= 32, and every two-factor product
of at most 32 elements whose factors are fields or quotients of degree >= 2
(a degree-1 quotient is a relabelled field).  Four larger fields, up to
256 elements, are checked on a seeded sample of pairs.
"""

import functools
import itertools
import math
import random

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ringline as rl
from ringline.rings import GaloisField, ProductRing, QuotientRing
from ring_oracle import (MemoRing, PayloadRing, oracle_line, oracle_units,
                         oracle_unimodular)

MAX_SIZE = 32
FIELDS = [(p, k) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
          for k in range(1, 6) if p ** k <= MAX_SIZE]


@st.composite
def atoms(draw, limit):
    p, k = draw(st.sampled_from([f for f in FIELDS if f[0] ** f[1] <= limit]))
    field = GaloisField(p, k)
    deg = draw(st.integers(0, max(d for d in range(1, 6)
                                  if field.size ** d <= limit)))
    if deg == 0:
        return field
    coeffs = draw(st.lists(st.sampled_from(field.elements()),
                           min_size=deg, max_size=deg))
    return QuotientRing(field, tuple(coeffs) + (field.one,))


@st.composite
def small_rings(draw):
    if draw(st.booleans()):
        return draw(atoms(MAX_SIZE))
    left = draw(atoms(MAX_SIZE // 2))
    return ProductRing([left, draw(atoms(MAX_SIZE // left.size))])


@settings(max_examples=20, deadline=None)
@given(small_rings())
def test_tables_match_payload_arithmetic(ring):
    t, payload = ring.tables, PayloadRing(ring)
    els = payload.elements()
    assert t.n == ring.size == len(els)
    assert (els[t.zero], els[t.one]) == (payload.zero, payload.one)
    for i, a in enumerate(els):
        assert els[t.neg[i]] == payload.neg(a)
        for j, b in enumerate(els):
            assert els[t.add[i, j]] == payload.add(a, b)
            assert els[t.mul[i, j]] == payload.mul(a, b)
    assert {els[i] for i in ring.units()} == oracle_units(payload)


@pytest.mark.parametrize("spec", ["gf(64)", "gf(128)", "gf(243)", "gf(256)"])
def test_large_field_tables_match_payload_on_sampled_pairs(spec):
    ring = rl.build_ring(spec)
    t, payload = ring.tables, PayloadRing(ring)
    els = payload.elements()
    rng = random.Random(ring.size)
    for _ in range(2000):
        i, j = rng.randrange(ring.size), rng.randrange(ring.size)
        assert els[t.neg[i]] == payload.neg(els[i])
        assert els[t.add[i, j]] == payload.add(els[i], els[j])
        assert els[t.mul[i, j]] == payload.mul(els[i], els[j])


@settings(max_examples=20, deadline=None)
@given(small_rings(), st.data())
def test_admissibility_matches_ideal_oracle(ring, data):
    # a unit coordinate short-circuits, so one coordinate is always a non-unit
    memo = MemoRing(ring)
    index = {a: i for i, a in enumerate(memo.elements())}
    nonunits = sorted(set(memo.elements()) - oracle_units(memo),
                      key=memo.el_value)
    for _ in range(3):
        a = data.draw(st.sampled_from(nonunits))
        b = data.draw(st.sampled_from(memo.elements()))
        i, j = index[a], index[b]
        assert rl.is_admissible(ring, i, j) == oracle_unimodular(memo, a, b)
        assert rl.is_admissible(ring, j, i) == oracle_unimodular(memo, b, a)


def _quotients():
    for p, k in FIELDS:
        field = GaloisField(p, k)
        yield field
        for deg in itertools.count(1):
            if field.size ** deg > MAX_SIZE:
                break
            for coeffs in itertools.product(field.elements(), repeat=deg):
                yield QuotientRing(field, coeffs + (field.one,))


@functools.cache
def _sweep():
    atoms_ = list(_quotients())
    factors = [r for r in atoms_
               if isinstance(r, GaloisField) or r.deg >= 2]
    products = [ProductRing([a, b]) for a, b in itertools.product(factors, repeat=2)
                if a.size * b.size <= MAX_SIZE]
    return tuple(atoms_ + products)


def test_sweep_closed_form_and_brute_force():
    rings = _sweep()
    assert len(rings) > 700
    brute = 0
    for ring in rings:
        catalog = rl.enumerate_points(ring)
        assert rl.expected_point_count(ring) == len(catalog), ring
        if ring.size <= 9:
            brute += 1
            points, relation = oracle_line(ring)
            els = PayloadRing(ring).elements()
            assert [(els[p.a], els[p.b]) for p in catalog.points] == points, ring
            assert catalog.relation.tolist() == relation, ring
    assert brute > 50


def test_sweep_lines_read_from_the_memo_match_the_oracle():
    """A second enumeration hands back the catalog the ring keeps, or its
    points with a new relation when that would outgrow the add table, and
    on every sweep ring it is the oracle's line, relation included."""
    for ring in _sweep():
        first, memo = rl.enumerate_points(ring), rl.enumerate_points(ring)
        assert memo.points is first.points, ring
        kept = len(first) ** 2 <= ring.tables.add.nbytes
        assert (memo is first) == kept, ring
        assert (memo.relation is first.relation) == kept, ring
        points, relation = oracle_line(ring)
        els = PayloadRing(ring).elements()
        assert [(els[p.a], els[p.b]) for p in memo.points] == points, ring
        assert memo.relation.tolist() == relation, ring


def _many_factor_products():
    f2, f3, f4 = GaloisField(2), GaloisField(3), GaloisField(2, 2)
    return [ProductRing(factors) for factors in (
        [f2, f2, f2], [f2, f3, f2], [f4, f2, f2], [f3, f3, f3],
        [f2, f2, f2, f2], [f2, QuotientRing(f2, (0, 0, 1)), f3])]


def _local_factors(ring) -> tuple[tuple[int, int], ...]:
    """(|eR|, |J(eR)|) per primitive idempotent e, from the definitions:
    e is primitive when 0 and e are the only idempotents f with ef = f,
    and the radical of eR is its non-units, those a with no b in eR
    making ab = e."""
    mul, els = ring.tables.mul.tolist(), ring.elements()
    idempotents = [e for e in els if mul[e][e] == e]
    out = []
    for e in idempotents:
        if e != ring.zero and all(f in (ring.zero, e) for f in idempotents
                                  if mul[e][f] == f):
            local = {mul[e][a] for a in els}
            radical = [a for a in local if e not in {mul[a][b] for b in local}]
            out.append((len(local), len(radical)))
    return tuple(out)


def test_kept_lines_equal_a_fresh_computation():
    """On every sweep ring and six products of three or four factors, all
    built by their constructors, the kept line equals a fresh computation:
    names as the points render, each distinguished subset as the indices
    of the points whose coordinates lie in it (in name order), the closed
    form from the local factors, and the relation from the determinants on
    the add, mul and neg tables.  A relation within the add table's bytes
    is kept read-only and handed back on every call; a larger one is new
    on every call.  With at most two local factors a line has at most
    (1.5)^2 |R| points, so only rings of three or more are past the bound:
    45 sweep products with a non-local quotient factor, and four of the
    six products here."""
    past = []
    for ring in _sweep() + tuple(_many_factor_products()):
        catalog = rl.enumerate_points(ring)
        points, t = catalog.points, ring.tables
        names = [str(p) for p in points]
        assert list(catalog.names) == names, ring
        order = sorted(range(len(points)), key=names.__getitem__)
        for name, members in (("gf2_subline", {ring.zero, ring.one}),
                              ("both_zero_divisor", set(ring.zero_divisors())),
                              ("unit_unit", set(ring.units()))):
            assert catalog.subsets[name] == tuple(
                i for i in order
                if points[i].a in members and points[i].b in members), ring
        factors = _local_factors(ring)
        assert t.local_factors == factors, ring
        assert rl.expected_point_count(ring) == len(catalog) == math.prod(
            size + radical for size, radical in factors), ring
        a = np.array([p.a for p in points])
        b = np.array([p.b for p in points])
        det = t.add[t.mul[a[:, None], b], t.neg[t.mul[b[:, None], a]]]
        want = np.where(t.unit[det], 2, 1)
        np.fill_diagonal(want, 0)
        assert np.array_equal(catalog.relation, want), ring
        assert not catalog.relation.flags.writeable, ring
        again = rl.enumerate_points(ring)
        if len(points) ** 2 <= t.add.nbytes:
            assert again is catalog, ring
        else:
            past.append(ring)
            assert len(factors) >= 3, ring
            assert again.points is points and again.names is catalog.names
            assert again.relation is not catalog.relation, ring
            assert np.array_equal(again.relation, want), ring
    assert len(past) == 45 + 4


def test_sweep_names_round_trip():
    for ring in _sweep():
        for a in ring.elements():
            assert ring.element_from_str(ring.el_str(a)) == a, ring


def test_single_pair_paths_agree_with_the_tables():
    """On every sweep ring of at most 16 elements, the one-pair and
    one-element functions agree with the vectorized catalog and tables:
    each admissible pair canonicalizes to a catalog point (and together
    they reach them all), ``pair_relation`` reads as ``catalog.relation``,
    and ``add``/``mul``/``neg``/``classify`` return plain ints."""
    codes = {rl.EQUAL: 0, rl.NEIGHBOUR: 1, rl.DISTANT: 2}
    for ring in _sweep():
        if ring.size > 16:
            continue
        t, catalog = ring.tables, rl.enumerate_points(ring)
        points, reached = set(catalog.points), set()
        for a, b in itertools.product(ring.elements(), repeat=2):
            assert rl.is_admissible(ring, a, b) == t.unimodular[a, b], ring
            if t.unimodular[a, b]:
                p = rl.canonicalize(ring, a, b)
                assert p in points and type(p.a) is type(p.b) is int, ring
                reached.add(p)
            else:
                with pytest.raises(rl.LineError):
                    rl.canonicalize(ring, a, b)
        assert reached == points, ring
        for (i, p), (j, q) in itertools.combinations_with_replacement(
                enumerate(catalog.points), 2):
            rel, det = rl.pair_relation(p, q)
            assert codes[rel] == catalog.relation[i, j], (ring, p, q)
            assert type(det) is int
        add, mul, neg = t.add.tolist(), t.mul.tolist(), t.neg.tolist()
        for a in ring.elements():
            assert ring.element_from_str(ring.el_str(a)) == a, ring
            assert type(ring.neg(a)) is int and ring.neg(a) == neg[a]
            for b in ring.elements():
                assert type(ring.add(a, b)) is int and ring.add(a, b) == add[a][b]
                assert type(ring.mul(a, b)) is int and ring.mul(a, b) == mul[a][b]
            kind, w = ring.classify(a)
            if kind == "unit":
                assert type(w) is int and ring.mul(a, w) == ring.one, ring
            elif kind == "zero-divisor":
                assert type(w) is int and w != ring.zero, ring
                assert ring.mul(a, w) == ring.zero, ring
            else:
                assert (a, w) == (ring.zero, None), ring


def test_sweep_radical_quotient():
    """R/J on the least coset representatives: its tables are R's payload
    arithmetic followed by the surjection (checked on i <= j, the tables
    being symmetric)."""
    for ring in _sweep():
        q, hom = rl.quotient_by_radical(ring)
        radical = rl.jacobson_radical(ring)
        assert q.size * len(radical) == ring.size, ring
        assert rl.validate_hom(hom), ring
        assert hom.kernel() == set(radical), ring
        payload, t = PayloadRing(ring), q.tables
        els = payload.elements()
        index = {a: i for i, a in enumerate(els)}
        # R/J's element i is named as its rep in R, so it has the rep's label
        q_els = [els[ring.element_from_str(name)] for name in q.names]
        assert (t.add == t.add.T).all() and (t.mul == t.mul.T).all(), ring
        for i, j in itertools.combinations_with_replacement(range(t.n), 2):
            a, b = q_els[i], q_els[j]
            assert t.add[i, j] == hom(index[payload.add(a, b)]), ring
            assert t.mul[i, j] == hom(index[payload.mul(a, b)]), ring


@pytest.mark.parametrize("spec,points", [("gf(2)[x]/(x^8)", 384),
                                         ("gf(16)xgf(16)", 289)])
def test_cap_sized_lines(spec, points):
    ring = rl.build_ring(spec)
    assert len(rl.enumerate_points(ring)) == rl.expected_point_count(ring) == points
