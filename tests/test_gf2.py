"""The one GF(2) elimination against brute-force spans and the package's
earlier routines (``gf2_oracle``), and the BKS certificate it yields."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

import ringline as rl
from ringline import gf2, magic
from gf2_oracle import (brute_rank, ref_certificate, ref_left_nullspace,
                        ref_solve, span)


@st.composite
def systems(draw):
    ncols = draw(st.integers(1, 12))
    rows = draw(st.lists(st.integers(0, (1 << ncols) - 1), max_size=14))
    rhs = draw(st.lists(st.integers(0, 1), min_size=len(rows),
                        max_size=len(rows)))
    return rows, rhs, ncols


def _combine(rows, y):
    out = 0
    for i, row in enumerate(rows):
        if y >> i & 1:
            out ^= row
    return out


@settings(max_examples=300, deadline=None)
@given(systems())
def test_elimination_against_brute_force(system):
    rows, _, _ = system
    r = brute_rank(rows)
    assert gf2.rank(rows) == r
    null = gf2.left_nullspace(rows)
    assert all(y and _combine(rows, y) == 0 for y in null)
    assert len(span(null)) == 1 << len(null)  # independent
    assert len(null) == len(rows) - r
    # greedy in order: row i is kept iff it is outside the earlier rows' span
    assert gf2.independent_indices(rows) == [
        i for i, row in enumerate(rows) if row not in span(rows[:i])]


@settings(max_examples=300, deadline=None)
@given(systems())
def test_solve_proves_its_answer(system):
    rows, rhs, _ = system
    x, y = gf2.solve(rows, rhs)
    assert (x is None) != (y is None)
    if x is not None:
        assert [(row & x).bit_count() & 1 for row in rows] == rhs
    else:
        assert _combine(rows, y) == 0
        assert sum(rhs[i] for i in range(len(rows)) if y >> i & 1) & 1


@settings(max_examples=300, deadline=None)
@given(systems())
def test_basis_and_certificate_match_the_reference(system):
    rows, rhs, ncols = system
    assert gf2.left_nullspace(rows) == ref_left_nullspace(rows, ncols)
    x, y = gf2.solve(rows, rhs)
    assert x == ref_solve(rows, rhs)
    assert y == (ref_certificate(rows, rhs, ncols) if x is None else None)


PINNED = {"n": 3,
          "observables": ["IXX", "IXZ", "IYY", "XIX", "XIZ", "XZI", "XZX",
                          "YIY", "YZY", "ZXX", "ZXZ", "ZYY"],
          "contexts": [[1, 4, 8, 11], [0, 3, 8, 11], [3, 5, 10, 11],
                       [3, 6, 7, 8], [2, 6, 7, 9], [1, 2, 10, 11],
                       [0, 2, 9, 11], [4, 5, 9, 11]]}


def test_certificate_skips_an_even_null_vector():
    """Two dependent context sets, the first with an even sign sum: the
    certificate is the second."""
    cfg = rl.config_from_json(json.dumps(PINNED))
    masks = [magic._mask(c) for c in cfg.contexts]
    rhs = [rl.context_product_sign(cfg.context_ops(ci)) == -1
           for ci in range(len(cfg.contexts))]
    null = gf2.left_nullspace(masks)
    odd = sum(1 << i for i, bit in enumerate(rhs) if bit)
    assert [(y & odd).bit_count() & 1 for y in null] == [0, 1]
    assert rl.bks_decide(cfg).certificate == (0, 2, 3, 4, 5, 7)
    assert null[1] == sum(1 << i for i in (0, 2, 3, 4, 5, 7))
