"""End-to-end acceptance gate: twelve numbered criteria, each printed as a
single pass/fail line in the terminal summary.

Everything here is exact; there are no tolerances anywhere.  Derived
quantities are checked against the independent oracles (complex-matrix
Pauli algebra, reduced-density-matrix entropies) rather than against the
modules under test alone.
"""

import itertools

import numpy as np
import pytest

import ringline as rl
from conftest import counterparts, record_acceptance
from matrix_oracle import bipartite_entropy_oracle, signed_states
from ringline import cli
from ringline import correspond as co
from ringline.magic import SQUARE_WORDS, _grid_canonical
from ringline.pauli import PauliObservable, all_words


def check(num, title, ok, detail=""):
    assert record_acceptance(num, title, ok, detail), f"criterion {num}: {title}"


# --- 1: point counts --------------------------------------------------------

def test_criterion_01_point_counts(club_catalog, tilde_catalog, gf4):
    ok = len(club_catalog) == 18 and len(tilde_catalog) == 9
    gf4_cat = rl.enumerate_points(gf4)
    ok &= len(gf4_cat) == 5
    ok &= {str(p) for p in gf4_cat.points} == \
        {"(0,1)", "(1,0)", "(1,1)", "(1,x)", "(1,x+1)"}
    for q in (2, 3, 4, 5, 8):
        cat = rl.enumerate_points(rl.build_ring(f"gf({q})"))
        ok &= len(cat) == q + 1
    check(1, "line point counts 18 / 9 / q+1 and the 5-point field line", ok)


# --- 2: nine-point grid -----------------------------------------------------

def test_criterion_02_grid(tilde_catalog):
    points = co.square_grid_points()
    ok = set(points) == set(tilde_catalog.points)
    for r in range(3):
        for i, j in itertools.combinations(range(3), 2):
            ok &= rl.pair_relation(points[3 * r + i],
                                   points[3 * r + j])[0] == rl.DISTANT
            ok &= rl.pair_relation(points[3 * i + r],
                                   points[3 * j + r])[0] == rl.DISTANT
    ok &= all(len(rl.distant_points(tilde_catalog, p)) == 4
              for p in tilde_catalog.points)
    check(2, "nine points fill the grid, rows/columns distant, degree 4", ok)


# --- 3: square verification -------------------------------------------------

def test_criterion_03_square():
    cfg = rl.builtin("mermin_square")
    report = rl.verify_magic(cfg)
    signs = {c.label: c.sign for c in report.contexts}
    ok = all(c.commuting for c in report.contexts)
    ok &= signs == {"row 1": 1, "row 2": 1, "row 3": 1,
                    "column 1": 1, "column 2": 1, "column 3": -1}
    result = rl.bks_decide(cfg)
    ok &= report.magic and not result.colorable
    ok &= result.certificate == (0, 1, 2, 3, 4, 5)
    check(3, "magic square: signs, all-six-context parity certificate", ok)


# --- 4: pentagram verification ----------------------------------------------

def test_criterion_04_pentagram():
    cfg = rl.builtin("mermin_pentagram")
    inferred = rl.infer_contexts(list(cfg.observables), 4)
    ok = len(inferred) == 5
    ok &= {frozenset(c) for c in inferred} == {frozenset(c)
                                              for c in cfg.contexts}
    report = rl.verify_magic(cfg)
    signs = {c.label: c.sign for c in report.contexts}
    ok &= signs.pop("horizontal") == -1
    ok &= list(signs.values()) == [1, 1, 1, 1]
    result = rl.bks_decide(cfg)
    ok &= report.magic and result.certificate == (0, 1, 2, 3, 4)
    check(4, "magic pentagram: 5 inferred contexts, signs, full certificate",
          ok)


# --- 5: neighbourhood -------------------------------------------------------

def test_criterion_05_neighbourhood(club_catalog):
    base = club_catalog.point_by_str("(1,0)")
    layout = {club_catalog.point_by_str(f"({a},{b})")
              for a, b in co.NEIGHBOURHOOD_LAYOUT}
    ok = rl.neighbourhood(club_catalog, base) == layout - {base}
    hom = co.club_to_tilde_hom()
    tilde_cat = rl.enumerate_points(hom.target)
    pmap = rl.induced_point_map(hom, club_catalog, tilde_cat)
    ok &= {str(p) for p in counterparts(pmap, base)} == {"(1,x^2+x)"}
    check(5, "neighbourhood of (1,0) is the nine layout points; "
             "counterpart (1,x^2+x)", ok)


# --- 6: ten-point structure and edge stars ----------------------------------

def test_criterion_06_ten_point_structure(club_catalog):
    subs = rl.distinguished_subsets(club_catalog)
    hom = co.club_to_tilde_hom()
    tilde_cat = rl.enumerate_points(hom.target)
    pmap = rl.induced_point_map(hom, club_catalog, tilde_cat)
    others = set()
    for p in subs["gf2_subline"]:
        others |= counterparts(pmap, p)
    layout = {club_catalog.point_by_str(f"({a},{b})")
              for a, b in co.JACOBSON_LAYOUT}
    ok = layout == subs["gf2_subline"] | others | subs["both_zero_divisor"]
    stars = dict(co.edge_star_points("jacobson"))
    strs = {k: tuple(str(p) for p in v) for k, v in stars.items()}
    ok &= strs["edge top/lower-left"] == ("(1,1)",)
    ok &= strs["edge top/lower-right"] == ("(1,1)",)
    ok &= strs["edge left/lower-right"] == ("(1,x^2+x+1)",)
    ok &= strs["edge right/lower-left"] == ("(1,x^2+x+1)",)
    ok &= strs["horizontal"] == ()
    check(6, "ten points = subline + counterparts + zero-divisor pairs; "
             "edge stars", ok)


# --- 7: condensation --------------------------------------------------------

def test_criterion_07_condensation():
    rep_n = co.condensation("neighbourhood")
    rep_j = co.condensation("jacobson")
    ok = tuple(str(p) for p in dict(rep_n.per_edge_images)["horizontal"]) == \
        ("(x,x+1)", "(x+1,x)")
    ok &= len(dict(rep_j.per_edge_images)["horizontal"]) == 4
    ok &= {str(p) for p in rep_j.distant_to_unit_point} == \
        {"(1,0)", "(0,1)", "(x,x+1)", "(x+1,x)"}
    # the full-set comparison stays informational, never pass/fail
    info = (f"informational: jacobson image "
            f"{[str(p) for p in rep_j.overall_image]}, image-only "
            f"{[str(p) for p in rep_j.image_minus_distant]}")
    check(7, "condensation: 2- and 4-point horizontal images, distant set",
          ok, info)


# --- 8: square correspondence -----------------------------------------------

def test_criterion_08_square_correspondence():
    _, cmp = co.square_correspondence()
    ok = cmp.isomorphic_under_bijection and cmp.mismatches == ()
    ok &= [sum(r) for r in cmp.commuting] == [4] * 9
    ok &= [sum(r) for r in cmp.distant] == [4] * 9
    check(8, "square slots: commuting adjacency == distant adjacency, "
             "degree 4", ok)


# --- 9: oracle equivalence --------------------------------------------------

_ORACLE_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _oracle_matrix(word):
    m = np.eye(1, dtype=complex)
    for c in word:
        m = np.kron(m, _ORACLE_SINGLE[c])
    return m


def test_criterion_09_oracle_equivalence():
    ok = True
    for n in (1, 2, 3):
        words = all_words(n, include_identity=True)
        mats = {p.word: _oracle_matrix(p.word) for p in words}
        for p, q in itertools.product(words, repeat=2):
            prod = rl.multiply(p, q)
            want = mats[p.word] @ mats[q.word]
            ok &= np.array_equal((1j ** prod.phase) * mats[prod.word], want)
            ok &= rl.commutes(p, q) == np.array_equal(
                mats[p.word] @ mats[q.word], mats[q.word] @ mats[p.word])
    for name in ("mermin_square", "mermin_pentagram"):
        cfg = rl.builtin(name)
        parts = [c for size in range(1, cfg.n)
                 for c in itertools.combinations(range(1, cfg.n + 1), size)]
        for ci in range(len(cfg.contexts)):
            ops = cfg.context_ops(ci)
            entropies = rl.classify_context(ops).entropies
            for b, state in enumerate(signed_states(ops)):
                for part in parts:
                    ok &= entropies[b][part] == \
                        bipartite_entropy_oracle(state, set(part))
    check(9, "algebra agrees with the matrix oracle; entropies with the "
             "density-matrix oracle (n <= 3)", ok)


# --- 10: entanglement -------------------------------------------------------

def test_criterion_10_entanglement():
    cfg = rl.builtin("mermin_square")
    classes = {cfg.context_labels[ci]:
               rl.classify_context(cfg.context_ops(ci)).classification
               for ci in range(6)}
    # row 3, XY YX ZZ, is the Bell basis
    ok = classes["row 3"] == classes["column 3"] == "maximally-entangled"
    ok &= all(classes[l] == "product"
              for l in ("row 1", "row 2", "column 1", "column 2"))
    mu = rl.mutually_unbiased(cfg.context_ops(0), cfg.context_ops(1))
    table = rl.overlap_table(cfg.context_ops(0), cfg.context_ops(1))
    from fractions import Fraction
    ok &= mu and all(v == Fraction(1, 4) for row in table for v in row)
    horiz = rl.classify_context(
        [PauliObservable(w) for w in ("XXX", "YYX", "YXY", "XYY")])
    ok &= horiz.classification == "maximally-entangled"
    ok &= all(t[(q,)] == 1 for t in horiz.entropies for q in (1, 2, 3))
    check(10, "entanglement classes, 1/4 unbiasedness, GHZ-like horizontal "
              "edge", ok)


# --- 11: searches -----------------------------------------------------------

def test_criterion_11_searches(pentagram_search):
    squares = rl.search_squares()
    ok = _grid_canonical(SQUARE_WORDS) in \
        {_grid_canonical(tuple(o.word for o in c.observables))
         for c in squares}
    orbit = rl.square_orbit_report(SQUARE_WORDS)
    ok &= orbit == {"arrangements": 72, "orbits": 1, "orbit_sizes": [72]}
    ref = rl.builtin("mermin_pentagram")
    key = (frozenset(o.word for o in ref.observables),
           frozenset(frozenset(ref.observables[i].word for i in ctx)
                     for ctx in ref.contexts))
    ok &= pentagram_search.complete
    ok &= any((frozenset(o.word for o in c.observables),
               frozenset(frozenset(c.observables[i].word for i in ctx)
                         for ctx in c.contexts)) == key
              for c in pentagram_search.results)
    ok &= all(rl.verify_magic(c).magic and not rl.bks_decide(c).colorable
              for c in itertools.chain(squares, pentagram_search.results))
    check(11, "searches find the built-ins; every result re-verifies magic",
          ok, f"{len(squares)} squares, {len(pentagram_search.results)} "
              "pentagrams")


# --- 12: determinism --------------------------------------------------------

_CHECK_RUNS = (
    ("ring", "--ring", "gf(2)[x]/(x^3-x)"),
    ("line", "--ring", "gf(2)[x]/(x^3-x)", "--check"),
    ("line", "--ring", "gf(2)[x]/(x^2-x)", "--check"),
    ("line", "--ring", "gf(2)xgf(2)", "--check"),
    ("line", "--ring", "gf(4)", "--check"),
    ("line", "--ring", "gf(8)", "--check"),
    ("verify", "--builtin", "mermin_square", "--check"),
    ("verify", "--builtin", "mermin_pentagram", "--check"),
    ("bks", "--builtin", "mermin_square"),
    ("bks", "--builtin", "mermin_pentagram"),
    ("entangle", "--builtin", "mermin_square", "--check"),
    ("entangle", "--builtin", "mermin_pentagram", "--check"),
    ("correspond", "--variant", "square", "--check"),
    ("correspond", "--variant", "neighbourhood", "--check"),
    ("correspond", "--variant", "jacobson", "--check"),
    ("map", "--variant", "neighbourhood", "--check"),
    ("map", "--variant", "jacobson", "--check"),
    ("search", "--kind", "squares", "--check", "--full"),
    ("search", "--kind", "pentagrams", "--check", "--budget", "20000"),
)


def _full_check_report(capsys):
    chunks = []
    for argv in _CHECK_RUNS:
        code = cli.main(list(argv))
        out = capsys.readouterr().out
        assert code == 0, argv
        chunks.append(out)
    return "".join(chunks)


def test_criterion_12_determinism(capsys):
    first = _full_check_report(capsys)
    second = _full_check_report(capsys)
    ok = first == second and len(first) > 0
    check(12, "two consecutive full --check runs are byte-identical", ok,
          f"{len(first)} bytes per run")
