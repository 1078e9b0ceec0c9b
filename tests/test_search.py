"""The context enumerator, the direct grid and five-context searches and
the sign-taking BKS decider against brute-force oracles: a scan of every
size-subset for contexts, every subset of 6 or 5 contexts for the
searches, and a numpy scan of every +-1 assignment for the decider."""

import collections
import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ringline as rl
from ringline import cli
from ringline.magic import (DeciderDisagreement, _bits, _contexts, _decide,
                            _pentagram_sets)
from ringline import magic
from ringline.pauli import (PauliObservable, all_words, commutes,
                            context_product_sign)
from gf2_oracle import ref_solve
from search_oracle import (columns, ref_cover_twice, ref_grid_canonical,
                           ref_grid_transforms, ref_verify_each)


def oracle_contexts(words, size):
    """Every size-subset that pairwise commutes with product +-I, as
    (index tuple, bitmask, sign), in combinations order."""
    out = []
    for idxs in itertools.combinations(range(len(words)), size):
        ops = [words[i] for i in idxs]
        if all(commutes(a, b) for a, b in itertools.combinations(ops, 2)):
            try:
                sign = context_product_sign(ops)
            except rl.PauliError:  # product is not +-I
                continue
            out.append((idxs, sum(1 << i for i in idxs), sign))
    return out


def pentagram_rows(*args):
    """``_pentagram_sets`` with its sets read as index tuples, in the order
    found."""
    found, complete = _pentagram_sets(*args)
    return [tuple(r) for r in found.tolist()], complete


def oracle_cover_twice(masks, c, m):
    """Every connected set of c contexts covering each of their m
    observables exactly twice or not at all, any two sharing exactly one
    observable."""
    found = []
    for combo in itertools.combinations(range(len(masks)), c):
        if any((masks[a] & masks[b]).bit_count() != 1
               for a, b in itertools.combinations(combo, 2)):
            continue
        counts = [sum(masks[ci] >> o & 1 for ci in combo) for o in range(m)]
        if set(counts) - {0, 2}:
            continue
        reached = {combo[0]}
        for _ in combo:
            reached |= {b for a in reached for b in combo
                        if masks[a] & masks[b]}
        if len(reached) == c:
            found.append(combo)
    return found


@pytest.mark.parametrize("n, size, identity, count",
                         [(2, 3, False, 15), (3, 4, False, 945),
                          (3, 3, False, 315), (1, 1, True, 1),
                          (2, 4, True, 15)])  # {a, b, ab, I}
def test_contexts_match_subset_scan(n, size, identity, count):
    words = all_words(n, include_identity=identity)
    expected = oracle_contexts(words, size)
    assert _contexts(words, size) == expected
    assert rl.infer_contexts(words, size) == [idx for idx, _, _ in expected]
    assert len(expected) == count


@st.composite
def phased_word_lists(draw):
    """Up to 12 distinct words of the 64 on three qubits, the identity
    included, each with a random phase, in a random order."""
    words = draw(st.lists(st.sampled_from(all_words(3, include_identity=True)),
                          max_size=12, unique=True))
    return [PauliObservable.from_masks(3, w.x, w.z, draw(st.integers(0, 3)))
            for w in words]


@settings(max_examples=150, deadline=None)
@given(phased_word_lists(), st.integers(1, 4))
def test_contexts_match_subset_scan_on_phased_words(words, size):
    assert _contexts(words, size) == oracle_contexts(words, size)


@st.composite
def repeated_word_lists(draw):
    """Up to 16 words on 1 to 3 qubits, the identity included, drawn with
    repeats and in a random order."""
    pool = all_words(draw(st.integers(1, 3)), include_identity=True)
    return draw(st.lists(st.sampled_from(pool), max_size=16))


@settings(max_examples=100, deadline=None)
@given(repeated_word_lists(), st.integers(1, 4))
def test_contexts_come_out_sorted(words, size):
    """The clique walk lists the contexts sorted by index tuple, with no
    sort after it, also when words repeat and come in any order."""
    found = _contexts(words, size)
    assert found == sorted(found) == oracle_contexts(words, size)


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_contexts_refuse_mixed_qubit_counts(size):
    """Words on two qubit counts are refused at any size, as ``commutes``
    refuses a pair of them."""
    words = all_words(2) + [PauliObservable("XYZ")]
    with pytest.raises(rl.PauliError, match="qubit counts differ"):
        _contexts(words, size)


def _grid(lines):
    """The six lines as a 3x3 grid: its cells row-major and the product of
    their signs, or None when they are not three disjoint rows each
    meeting three columns once."""
    for rows in itertools.combinations(lines, 3):
        cols = [l for l in lines if l not in rows]
        if all(not a[1] & b[1] for a, b in itertools.combinations(rows, 2)) \
                and all((r[1] & c[1]).bit_count() == 1
                        for r in rows for c in cols):
            prod = 1
            for _, _, sign in lines:
                prod *= sign
            return tuple((r[1] & c[1]).bit_length() - 1
                         for r in rows for c in cols), prod
    return None


def _grid_lines(grid):
    """The rows, then the columns, of a row-major 3x3 grid."""
    return [grid[0:3], grid[3:6], grid[6:9],
            grid[0::3], grid[1::3], grid[2::3]]


def test_square_search_matches_six_line_scan():
    words = all_words(2)
    lines = _contexts(words, 3)
    magic_sets = set()
    grids = []
    for combo in itertools.combinations(range(len(lines)), 6):
        grid = _grid([lines[ci] for ci in combo])
        if grid is not None:
            grids.append(combo)
            if grid[1] == -1:
                magic_sets.add(frozenset(frozenset(words[i].word
                                                   for i in lines[ci][0])
                                         for ci in combo))
    assert len(grids) == len(magic_sets) == 10
    at = {mask: ci for ci, (_, mask, _) in enumerate(lines)}
    found = [tuple(sorted(at[magic._mask(line)] for line in _grid_lines(g)))
             for g in magic._magic_grids(words)]
    assert sorted(found) == grids
    squares = {frozenset(frozenset(cfg.observables[i].word for i in ctx)
                       for ctx in cfg.contexts) for cfg in rl.search_squares()}
    assert squares == magic_sets


def test_orbit_report_skips_a_prism():
    """Six lines of three, each meeting three others, that close two
    triangles: an exact double cover that is no grid."""
    words = ("IIX", "IXI", "IXX", "IYI", "IYX", "XII", "XXI", "XIX", "XYI")
    found, _, _ = ref_cover_twice(
        _contexts([PauliObservable(w) for w in words], 3), 6, {0, 1})
    assert len(found) == 1
    assert rl.square_orbit_report(words) == \
        {"arrangements": 0, "orbits": 0, "orbit_sizes": []}


def _cover_grids(words):
    """The earlier square search: every connected twice-cover by six
    contexts of three, any two sharing at most one observable, kept when
    it is a 3x3 grid whose signs multiply to -1; as canonical grids."""
    contexts = _contexts(words, 3)
    found, complete, _ = ref_cover_twice(contexts, 6, {0, 1})
    assert complete
    grids = filter(None, [_grid([contexts[ci] for ci in s]) for s in found])
    return {ref_grid_canonical(g) for g, sign in grids if sign == -1}


@st.composite
def two_qubit_word_lists(draw):
    """The 15 two-qubit words and up to 6 repeats of them, shuffled, then
    cut to at least 9: a repeated word lets two contexts share two
    observables, and most lists still hold grids."""
    words = all_words(2)
    words = draw(st.permutations(words + draw(
        st.lists(st.sampled_from(words), max_size=6))))
    return words[:draw(st.integers(9, len(words)))]


@settings(max_examples=100, deadline=None)
@given(two_qubit_word_lists())
def test_grid_search_finds_the_cover_grids(words):
    """The direct grid search finds each magic grid the earlier cover and
    grid test found, and each once, in its least arrangement."""
    grids = magic._magic_grids(words)
    assert grids == [ref_grid_canonical(g) for g in grids]
    assert len(set(grids)) == len(grids)
    assert set(grids) == _cover_grids(words)


def test_grids_come_out_in_their_least_arrangement():
    """Each grid is built in the least of its 72 arrangements, so the
    square search takes it as it is: on the 15 two-qubit words, and on the
    built-in square's words shuffled, alone or with more words."""
    rng = random.Random(48)
    lists = [all_words(2)]
    for _ in range(200):
        extra = rng.sample(all_words(2), rng.randint(0, 6))
        lists.append(rng.sample(list(map(PauliObservable, magic.SQUARE_WORDS))
                                + extra, 9 + len(extra)))
    for words in lists:
        grids = magic._magic_grids(words)
        assert grids and grids == [ref_grid_canonical(g) for g in grids]


def test_three_qubit_grid_search():
    """3360 grids at three qubits, as the earlier cover and grid test found
    and as |Sp(6, 2)| / 432 counts: each found once, each a 3x3 grid of
    contexts whose signs multiply to -1, in well under 2 s of CPU, each
    in the least of its 72 arrangements."""
    words = all_words(3)
    sign_of = {mask: sign for _, mask, sign in _contexts(words, 3)}
    start = time.process_time()
    grids = magic._magic_grids(words)
    elapsed = time.process_time() - start
    assert len(set(grids)) == len(grids) == 3360
    for grid in grids:
        # nine distinct cells: the rows are disjoint, and each meets each
        # column in its one cell
        assert len(set(grid)) == 9
        assert grid == ref_grid_canonical(grid)
        prod = 1
        for line in _grid_lines(grid):
            prod *= sign_of[magic._mask(line)]
        assert prod == -1
    assert elapsed < 2  # 0.2-0.4 s measured on a 2-core host


@st.composite
def pentagram_families(draw):
    """(contexts, m): distinct masks of 4 out of m = 10-12 observables, as
    sorted (cells, mask, sign) triples like ``_contexts``': 0-2 copies of
    the built-in pentagram's masks, each with its observables relabelled,
    and up to 8 random masks."""
    m = draw(st.integers(10, 12))
    masks = set()
    for _ in range(draw(st.integers(0, 2))):
        label = draw(st.permutations(range(m)))
        masks |= {sum(1 << label[o] for o in _bits(mask))
                  for mask in magic._PENTAGRAM_MASKS}
    masks |= {sum(1 << o for o in cells) for cells in draw(st.lists(
        st.sets(st.integers(0, m - 1), min_size=4, max_size=4), max_size=8))}
    return sorted((tuple(_bits(mask)), mask, 1) for mask in masks), m


def k5_tree(masks):
    """The nodes of ``_pentagram_sets``' tree over contexts with these
    masks, in order, one per context a, b, c and d placed, each as its
    level ("a" to "d") and the number of sets it finds: found by testing
    each later context against the masks, with no lookup."""
    nodes = []
    for ai, a in enumerate(masks):
        nodes.append(("a", 0))
        # the later contexts meeting a at each of its cells alone
        b_s, c_s, d_s, e_s = ([x for x in masks[ai + 1:] if x & a == 1 << o]
                              for o in _bits(a))
        for b in b_s:
            nodes.append(("b", 0))
            for c in c_s:
                if (b & c).bit_count() != 1:
                    continue
                nodes.append(("c", 0))
                for d in d_s:
                    if (b & d).bit_count() == (c & d).bit_count() == 1 \
                            and not b & c & d:
                        nodes.append(("d", sum(
                            all((x & e).bit_count() == 1 for x in (b, c, d))
                            and not (b & c | b & d | c & d) & e
                            for e in e_s)))
    return nodes


@settings(max_examples=150, deadline=None)
@given(pentagram_families())
def test_pentagram_sets_match_subset_scan(family):
    """Every set of 5 contexts that meet pairwise once, found once."""
    contexts, m = family
    found, complete = pentagram_rows(contexts)
    assert complete
    assert sorted(found) == oracle_cover_twice([c[1] for c in contexts], 5, m)


# the built-in's five contexts and one more, on cells 0, 1, 2 and 4: a
# tree with nodes at every level, and c nodes with and without a d below
_PENTAGRAM_AND_ONE = sorted((tuple(_bits(mask)), mask, 1) for mask in
                            magic._PENTAGRAM_MASKS + [0b10111])


@settings(max_examples=60, deadline=None)
@given(pentagram_families())
@example((_PENTAGRAM_AND_ONE, 10))
def test_pentagram_sets_cut_every_budget_to_a_prefix(family):
    """A budget keeps the sets found within its nodes, in order, and the
    search completes exactly when the budget reaches the tree's nodes;
    a cut at a node of any level reads incomplete."""
    contexts, _ = family
    found, _ = pentagram_rows(contexts)
    finds = [f for _, f in k5_tree([c[1] for c in contexts])]
    assert sum(finds) == len(found)
    for budget in range(len(finds) + 2):
        cut, complete = pentagram_rows(contexts, budget)
        assert cut == found[:sum(finds[:budget])]
        assert complete == (budget >= len(finds))


def test_pentagram_sets_match_the_reference_cover():
    """The 12096 three-qubit sets are the connected twice-covers that the
    earlier exact cover found, each once.  The tree's work is pinned: 945
    a, 11400 b, 44760 c and 12096 d nodes, 69201 in all, each d node
    finding one set, and a budget one short of them all cuts it."""
    contexts = _contexts(all_words(3), 4)
    found, complete = pentagram_rows(contexts)
    want, _, _ = ref_cover_twice(contexts, 5, {1})
    assert complete and len(set(found)) == len(found) == 12096
    assert set(found) == set(want)
    assert pentagram_rows(contexts, 69201) == (found, True)
    assert pentagram_rows(contexts, 69200) == (found, False)
    nodes = k5_tree([c[1] for c in contexts])
    assert collections.Counter(nodes) == {
        ("a", 0): 945, ("b", 0): 11400, ("c", 0): 44760, ("d", 1): 12096}


def test_grid_transforms_match_the_reference():
    grids = [tuple(o.word for o in cfg.observables)
             for cfg in rl.search_squares()]
    grids.append(tuple("abcdefghi"))  # nine distinct cells: every move shows
    for grid in grids:
        assert magic._grid_transforms(grid) == list(ref_grid_transforms(grid))
        assert ref_grid_canonical(grid) == min(ref_grid_transforms(grid))


def oracle_exhaustive_valuation(masks, signs, m):
    """The first +-1 assignment, in assignment order, reproducing every
    sign, by a numpy popcount scan of all 2^m assignments; None if none."""
    assigns = np.arange(1 << m, dtype=np.uint32)  # bit i set: observable i is -1
    ok = np.ones(len(assigns), dtype=bool)
    for mask, sign in zip(masks, signs):
        ok &= ((np.bitwise_count(assigns & np.uint32(mask)) & 1)
               == (0 if sign == 1 else 1))
    hits = np.nonzero(ok)[0]
    if len(hits) == 0:
        return None
    e = int(hits[0])
    return {i: (-1 if (e >> i) & 1 else 1) for i in range(m)}


@st.composite
def larger_systems(draw):
    m = draw(st.integers(1, 14))
    masks = draw(st.lists(st.integers(1, (1 << m) - 1), min_size=1,
                          max_size=m + 3))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(masks),
                          max_size=len(masks)))
    return masks, signs, m


@settings(max_examples=200, deadline=None)
@given(larger_systems())
def test_exhaustive_valuation_matches_numpy_scan(system):
    """The decider finds a valuation exactly when the scan of every
    assignment does."""
    colorable = oracle_exhaustive_valuation(*system) is not None
    assert _decide(*system).colorable == colorable


def _system_at(m, contexts, seed, colorable):
    """Seeded contexts on m observables, signed by a hidden valuation, with
    one sign flipped when the system must not be colorable."""
    rnd = random.Random(seed)
    masks = [rnd.getrandbits(m) | 1 << rnd.randrange(m)
             for _ in range(contexts)]
    hidden = rnd.getrandbits(m)
    signs = [-1 if (mask & hidden).bit_count() & 1 else 1 for mask in masks]
    if not colorable:
        masks.append(masks[0] ^ masks[1])
        signs.append(signs[0] * signs[1] * -1)
    return masks, signs


@pytest.mark.parametrize("m, contexts, colorable", [
    (19, 12, True), (19, 25, False), (20, 12, True), (20, 12, False)])
def test_exhaustive_valuation_at_the_cap(m, contexts, colorable):
    """Seeded systems of 19 and 20 observables, the largest the numpy scan
    covers quickly: the decider agrees with it."""
    masks, signs = _system_at(m, contexts, m * contexts, colorable)
    got = oracle_exhaustive_valuation(masks, signs, m)
    assert (got is not None) == colorable
    assert _decide(masks, signs, m).colorable == colorable


def test_three_qubit_lines_are_decided():
    """All 315 three-qubit lines on their 63 observables, too many for a
    scan: the answer is a certificate that passes its own parity check."""
    words = all_words(3)
    lines = rl.infer_contexts(words, 3)
    assert (len(words), len(lines)) == (63, 315)
    cfg = rl.Configuration(3, tuple(words), tuple(lines), "custom")
    result = rl.bks_decide(cfg)
    assert not result.colorable
    covered, prod = 0, 1
    for ci in result.certificate:
        covered ^= sum(1 << i for i in lines[ci])
        prod *= context_product_sign([words[i] for i in lines[ci]])
    assert covered == 0 and prod == -1


def test_decision_at_the_cap_is_small():
    """One 20-observable decision holds a few small integers, well under
    the 168 MB of a bit matrix of all assignments."""
    masks, signs = _system_at(20, 12, 7, True)
    cfg = rl.Configuration(3, tuple(all_words(3)[:20]), tuple(
        tuple(i for i in range(20) if mask >> i & 1) for mask in masks),
        "custom")
    tracemalloc.start()
    try:
        assert rl.bks_decide(cfg, signs).colorable
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


@st.composite
def signed_systems(draw):
    m = draw(st.integers(1, 12))
    masks = draw(st.lists(st.integers(1, (1 << m) - 1), min_size=1,
                          max_size=8))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(masks),
                          max_size=len(masks)))
    return masks, signs, m


@settings(max_examples=200, deadline=None)
@given(signed_systems())
def test_decider_core_proves_its_answer(system):
    """A valuation proves colorability and a certificate its absence, so
    checking whichever came back checks the answer."""
    masks, signs, m = system
    result = _decide(masks, signs, m)  # raises if its answer fails its check
    if result.colorable:
        for mask, sign in zip(masks, signs):
            prod = 1
            for i in range(m):
                if mask >> i & 1:
                    prod *= result.valuation[i]
            assert prod == sign
    else:
        covered, prod = 0, 1
        for ci in result.certificate:
            covered ^= masks[ci]
            prod *= signs[ci]
        assert covered == 0 and prod == -1


SQUARE_MASKS = [0b111, 0b111000, 0b111000000, 0b1001001, 0b10010010,
                0b100100100]  # rows, then columns, of a 3x3 grid
SQUARE_SIGNS = [1, 1, 1, 1, 1, -1]


@pytest.mark.parametrize("gf2_answer, signs", [
    ((None, 1 << 5), SQUARE_SIGNS),     # odd sign product, uncovered rows
    ((None, 0b111111), [1] * 6),        # a colorable system
    ((1, None), [1] * 6),               # observable 0 valued -1
], ids=["uncovered", "disagree", "violated"])  # violated: row 1, column 1
def test_decider_core_rejects_a_false_answer(monkeypatch, gf2_answer, signs):
    monkeypatch.setattr(magic.gf2, "solve", lambda *args: gf2_answer)
    with pytest.raises(DeciderDisagreement):
        _decide(SQUARE_MASKS, signs, 9)


# --- decisions shared within one request --------------------------------------

def _lying_gf2(rows, rhs):
    """A GF(2) solver that finds every system solved by all +1."""
    return 0, None


def test_shared_search_decisions_still_cross_check(monkeypatch):
    monkeypatch.setattr(magic.gf2, "solve", _lying_gf2)
    with pytest.raises(DeciderDisagreement):
        rl.search_pentagrams()


def test_shared_verify_decisions_still_cross_check(monkeypatch,
                                                   pentagram_search):
    results = list(pentagram_search.results[:3])
    monkeypatch.setattr(magic.gf2, "solve", _lying_gf2)
    with pytest.raises(DeciderDisagreement):
        list(rl.verify_each(results))
    with pytest.raises(DeciderDisagreement):
        rl.verify_magic(results[0])


def _mixed_batch():
    """Configurations whose contexts share words, labels, or neither."""
    square = rl.builtin("mermin_square")
    words = square.observables
    phased = words[:8] + (PauliObservable("ZZ", 2),)  # -ZZ flips two signs
    x, y = PauliObservable("X"), PauliObservable("Y")
    xi, ix, xx, zi = (PauliObservable(w) for w in ("XI", "IX", "XX", "ZI"))
    rows = square.contexts
    return [
        square,
        # the same count and signs, but other columns and certificates
        rl.Configuration(2, words, rows[:1] + rows, "custom"),
        rl.Configuration(2, words, rows[:2] + rows[1:], "custom"),
        rl.Configuration(2, words, square.contexts, "square"),  # other labels
        rl.Configuration(2, phased, square.contexts, "square"),
        rl.Configuration(1, (x, y), ((0, 1),), "custom"),  # not commuting
        rl.Configuration(2, (xi, ix, xx, zi), ((0, 1), (0, 1, 2), (0, 3)),
                         "custom"),  # XI IX is no scalar
        rl.Configuration(2, (xi, ix, PauliObservable("XXX")),
                         ((0, 1, 2), (0, 1)), "custom"),  # mixed qubit counts
        rl.Configuration(2, words[3:6] + words[:3], ((3, 4, 5), (0, 1, 2)),
                         "custom", ("row 1", "again")),
        rl.Configuration(1, (x,), ((0,),), "custom"),  # one word, no scalar
        rl.Configuration(1, (PauliObservable("I"),), ((0,),), "custom"),
        square,
    ]


def test_verify_each_matches_one_at_a_time(pentagram_search):
    batch = _mixed_batch()
    for results in (rl.search_squares(), pentagram_search.results[::97],
                    batch, batch[::-1]):
        assert list(rl.verify_each(results)) == [rl.verify_magic(c)
                                                 for c in results]


def _same_reports(configs):
    """verify_each's reports, which equal the reference's."""
    reports = list(rl.verify_each(configs))
    assert reports == list(ref_verify_each(configs))
    return reports


def test_verify_each_matches_the_reference(pentagram_search):
    """Search results read as rows of word ids, or as configurations, and
    a mixed batch either way round: the reports of the earlier verifier."""
    results = pentagram_search.results
    assert all(r.magic for r in _same_reports(results))
    _same_reports(list(results))
    _same_reports(results[::97])
    batch = _mixed_batch()
    _same_reports(batch)
    _same_reports(batch[::-1])


@pytest.mark.parametrize("replace, message", [
    pytest.param(lambda words, i, j: words[j], "duplicate observable",
                 id="repeated"),
    pytest.param(lambda words, i, j: PauliObservable(words[i].word, 2),
                 "observables must have phase 0", id="phased"),
    pytest.param(lambda words, i, j: PauliObservable(words[i].word + "I"),
                 "observable qubit-count mismatch", id="other-count"),
])
def test_result_rows_refuse_words_they_cannot_read_as_ids(replace, message,
                                                          pentagram_search):
    """Rows are read as ids of distinct phase-0 words on the template's
    qubit count: a word list that repeats a word, or holds a phased word
    or one on another count, is refused when the table is made.  The first
    row, read as a configuration, has that structural error."""
    results = pentagram_search.results
    row = results._observables[0].tolist()
    words = list(results._words)
    words[row[0]] = replace(words, row[0], row[1])
    with pytest.raises(ValueError, match=f"^63 words: {message}$"):
        magic._ResultRows(words, results._template, results._observables)
    cfg = results._template._with_observables(tuple(words[i] for i in row))
    assert rl.verify_magic(cfg).structural_errors == (message,)


@pytest.mark.parametrize("value", ["repeat", -1, 63])
def test_result_rows_refuse_a_row_that_is_not_word_ids(value,
                                                       pentagram_search):
    """A row that repeats an index, or holds one below 0 or past the last
    word, is refused when the table is made: verify_each keys a row's
    contexts by their sorted ids alone, so a repeated word would go
    unreported in a row whose context checks an earlier row shares."""
    results = pentagram_search.results
    rows = results._observables[:10].copy()
    rows[5, 1] = rows[5, 0] if value == "repeat" else value
    with pytest.raises(ValueError, match="a row repeats a word or holds no "
                                         "word's index"):
        magic._ResultRows(results._words, results._template, rows)
    assert len(magic._ResultRows(results._words, results._template,
                                 rows[:0])) == 0


@pytest.mark.parametrize("budget, count", [(0, 0), (1, 0), (5000, 973)])
def test_verify_each_reads_cut_searches_as_the_reference(budget, count):
    """A search cut by its budget, with fewer shapes or none, is read in
    blocks as the configurations it holds."""
    results = rl.search_pentagrams(budget).results
    assert len(results) == count
    assert all(r.magic for r in _same_reports(results))


def test_verify_each_reads_slices_as_the_reference(pentagram_search):
    """Slices inside one block, across the reader's block edge, and empty
    ones read as the configurations they hold."""
    results = pentagram_search.results
    for part in (results[1000:1100], results[1000:2100], results[5:5],
                 results[12096:], results[::-1]):
        _same_reports(part)


def _colorable_rows(results):
    """The search rows read in a template whose last context repeats its
    first: every row is colorable."""
    template = results._template
    again = rl.Configuration(3, template.observables,
                             template.contexts[:4] + template.contexts[:1],
                             "custom")
    return magic._ResultRows(results._words, again, results._observables)


def test_verify_each_decides_each_colorable_report_once(monkeypatch,
                                                        pentagram_search):
    """Colorable rows share their reports as the others do: one decision
    per distinct report (8 among 300 rows), and the search's own rows
    share their decisions too."""
    results = pentagram_search.results[:300]
    rows = _colorable_rows(results)
    calls = _counting(monkeypatch, "bks_decide")
    reports = list(rl.verify_each(rows))
    assert all(r.bks.colorable for r in reports)
    assert len(calls) == len({id(r) for r in reports}) == \
        len({r.contexts for r in reports}) == 8
    assert [cfg.geometry for cfg, _ in calls] == ["custom"] * 8
    del calls[:]
    assert all(r.magic for r in rl.verify_each(results))
    assert 0 < len(calls) <= 32
    assert reports == _same_reports(rows)


def test_a_shared_valuation_is_read_only(pentagram_search):
    """A valuation served to many rows refuses item assignment, and equals
    the dict built from the reference solver's answer for its signs."""
    rows = _colorable_rows(pentagram_search.results[:300])
    reports = list(rl.verify_each(rows))
    shared = {id(r): r for r in reports}
    assert len(shared) < len(reports)
    masks = list(map(magic._mask, rows._template.contexts))
    for report in shared.values():
        valuation = report.bks.valuation
        with pytest.raises(TypeError):
            valuation[0] = -valuation[0]
        x = ref_solve(masks, [c.sign == -1 for c in report.contexts])
        assert valuation == {i: -1 if x >> i & 1 else 1 for i in range(10)}
    assert reports == list(ref_verify_each(rows))


@st.composite
def unusual_batches(draw):
    """Small configurations of one- and two-qubit words, some phased,
    repeated or on another qubit count than the configuration's, with
    one-observable contexts among others, then relabelled copies and
    copies with other words in the same shape, all shuffled."""
    words = st.builds(PauliObservable, st.text("IXYZ", min_size=1, max_size=2),
                      st.sampled_from([0, 0, 0, 1, 2]))
    batch = []
    for _ in range(draw(st.integers(1, 3))):
        pool = draw(st.lists(words, min_size=1, max_size=4))
        observables = tuple(draw(st.lists(st.sampled_from(pool), min_size=1,
                                          max_size=6)))
        m = len(observables)
        contexts = tuple(map(tuple, draw(st.lists(
            st.lists(st.integers(0, m - 1), min_size=1, max_size=min(3, m),
                     unique=True), min_size=1, max_size=4))))
        labels = draw(st.sampled_from([(), tuple("abcd"[:len(contexts)])]))
        cfg = rl.Configuration(draw(st.integers(1, 2)), observables, contexts,
                               draw(st.sampled_from(["custom", "square",
                                                     "pentagram"])), labels)
        other = tuple(draw(st.lists(st.sampled_from(pool), min_size=m,
                                    max_size=m)))
        batch += [cfg, _relabel(cfg, draw(st.permutations(range(m)))),
                  cfg._with_observables(other), cfg]
    return draw(st.permutations(batch))


@settings(max_examples=150, deadline=None)
@given(unusual_batches())
def test_verify_each_matches_the_reference_on_odd_words(batch):
    _same_reports(batch)


def test_verify_each_reads_search_rows_without_building_them(
        monkeypatch, pentagram_search):
    """On the search's own rows, each of the 945 distinct context keys is
    tested once, and a configuration is built only to be decided."""
    pairs = _counting(monkeypatch, "anticommuting_pair")
    decided = _counting(monkeypatch, "bks_decide")
    built = []
    with_observables = rl.Configuration._with_observables
    monkeypatch.setattr(rl.Configuration, "_with_observables",
                        lambda cfg, obs: built.append(obs)
                        or with_observables(cfg, obs))
    assert all(r.magic for r in rl.verify_each(pentagram_search.results))
    assert len(pairs) == len({_word_key(ops) for ops, in pairs}) == 945
    assert 0 < len(decided) <= 32 and len(built) == len(decided)


def _word_key(ops):
    return tuple((o.n, o.x, o.z, o.phase) for o in ops)


def test_verify_each_checks_each_distinct_context_once(monkeypatch,
                                                       pentagram_search):
    """Commutation and sign run once per distinct context words per call,
    also across labels; nothing is kept for the next call.  A context of
    plain words (distinct, phase 0, on the configuration's qubit count)
    counts as the set of its words, and is checked in the order the words
    were first read; any other in its own order."""
    results = list(pentagram_search.results) + _mixed_batch()
    pairs = _counting(monkeypatch, "anticommuting_pair")
    signs = _counting(monkeypatch, "scalar_sign")
    reports = list(rl.verify_each(results))
    first = {}  # a word's key -> when it was first read
    for cfg in results:
        for o in cfg.observables:
            first.setdefault(_word_key([o]), len(first))
    keys, commuting = set(), set()
    for cfg, report in zip(results, reports):
        plain = (len(set(cfg.observables)) == len(cfg.observables)
                 and all(o.n == cfg.n and not o.phase
                         for o in cfg.observables))
        for ci, ctx in enumerate(report.contexts):
            key = _word_key(cfg.context_ops(ci))
            if plain:
                key = tuple(sorted(key, key=lambda k: first[(k,)]))
            keys.add(key)
            if ctx.commuting:
                commuting.add(key)
    assert sorted(_word_key(ops) for ops, in pairs) == sorted(keys)
    assert sorted(_word_key(ops) for ops, in signs) == sorted(commuting)
    assert len(keys) > 945 and len(commuting) > 945
    list(rl.verify_each(results[:1]))
    assert len(pairs) == len(keys) + 5


def test_search_results_are_valid_configurations(pentagram_search):
    """Results after the first of a shape skip validation; built afresh
    they are equal."""
    for cfg in pentagram_search.results[::97]:
        assert rl.Configuration(cfg.n, cfg.observables, cfg.contexts,
                                cfg.geometry) == cfg
    first = pentagram_search.results[0]
    with pytest.raises(rl.ConfigError):
        first._with_observables(first.observables[:9])


def _counting(monkeypatch, name):
    calls = []
    fn = getattr(magic, name)
    monkeypatch.setattr(magic, name,
                        lambda *args: calls.append(args) or fn(*args))
    return calls


def test_verify_each_decides_each_distinct_system_once(monkeypatch):
    """The same template and signs share one report, colorable or not; the
    same template with other signs gets its own decision, and so does a
    relabelling, whose certificate, naming contexts only, is equal."""
    square = rl.builtin("mermin_square")
    z_grid = rl.Configuration(2, tuple(PauliObservable(w) for w in (
        "ZI", "IZ", "ZZ", "IZ", "ZI", "ZZ", "ZZ", "ZZ", "II")),
        square.contexts, "square")  # every context has sign +1
    wider = rl.Configuration(2, z_grid.observables + (PauliObservable("XZ"),),
                             z_grid.contexts, "custom")  # one more valued
    moved = _relabel(square, (8, 0, 7, 1, 6, 2, 5, 3, 4))
    calls = _counting(monkeypatch, "bks_decide")
    first, other, again, more, shared, other_again = rl.verify_each(
        [square, z_grid, square, wider, moved, z_grid])
    assert [cfg for cfg, _ in calls] == [square, z_grid, wider, moved]
    assert shared.bks == first.bks and shared.bks is not first.bks
    assert other_again is other == rl.verify_magic(z_grid)
    assert [c.sign for c in other.contexts] == [1] * 6
    assert not first.bks.colorable and other.bks.colorable
    assert again is first
    assert len(other.bks.valuation) == 9 and len(more.bks.valuation) == 10
    assert [first, other, more] == [rl.verify_magic(c)
                                    for c in (square, z_grid, wider)]


def test_verify_each_decides_once_per_template_and_signs(monkeypatch,
                                                       pentagram_search):
    """Squares and pentagrams interleaved in one list, two templates: the
    reference's reports, from one decision per template and sign
    pattern."""
    batch = rl.search_squares() + list(pentagram_search.results[::40])
    random.Random(5).shuffle(batch)
    calls = _counting(monkeypatch, "bks_decide")
    reports = list(rl.verify_each(batch))
    decided = [(cfg.contexts, tuple(signs)) for cfg, signs in calls]
    systems = {(cfg.contexts, tuple(context_product_sign(cfg.context_ops(ci))
                                    for ci in range(len(cfg.contexts))))
               for cfg in batch}
    assert len({contexts for contexts, _ in systems}) == 2
    assert sorted(decided) == sorted(systems) and len(systems) > 2
    monkeypatch.undo()
    assert reports == list(ref_verify_each(batch))
    assert all(r.magic for r in reports)


def test_result_rows_refuse_a_table_they_cannot_key(pentagram_search):
    """Rows are keyed by one context size, each context's ids as one int64
    in base len(words): a template of mixed sizes, or of none, and a word
    list too long for the key are refused."""
    results = pentagram_search.results
    template, rows = results._template, results._observables
    contexts = template.contexts
    for other in (contexts[:4] + (contexts[4][:3],), ()):
        with pytest.raises(ValueError, match="one context size"):
            magic._ResultRows(results._words, rl.Configuration(
                3, template.observables, other, "custom"), rows)
    most = 55108  # the most words w with w ** 4 < 2 ** 63
    assert most ** 4 < 2 ** 63 <= (most + 1) ** 4
    words = all_words(8)  # 65535 distinct words
    template = rl.Configuration(8, tuple(words[:10]), contexts, "pentagram")
    magic._ResultRows(words[:most], template, rows)
    with pytest.raises(ValueError, match="55109 words"):
        magic._ResultRows(words[:most + 1], template, rows)


def _relabel(cfg, perm):
    """cfg with its observable i moved to place perm[i] and its contexts
    remapped to match, each context keeping its order."""
    observables = [None] * len(perm)
    for i, place in enumerate(perm):
        observables[place] = cfg.observables[i]
    return rl.Configuration(cfg.n, tuple(observables),
                            tuple(tuple(perm[i] for i in ctx)
                                  for ctx in cfg.contexts),
                            cfg.geometry, cfg.context_labels)


@st.composite
def relabelling_bases(draw):
    """A built-in's observables in a list of its contexts drawn with
    repeats (colorable, or not, with certificates of many shapes), or
    distinct two-qubit words in random contexts, which may not commute."""
    name = draw(st.sampled_from(["mermin_square", "mermin_pentagram", None]))
    if name is None:
        words = draw(st.lists(st.sampled_from(all_words(2)), min_size=1,
                              max_size=9, unique=True))
        contexts = st.lists(st.integers(0, len(words) - 1), min_size=1,
                            max_size=min(3, len(words)), unique=True)
        return rl.Configuration(2, tuple(words), tuple(
            map(tuple, draw(st.lists(contexts, min_size=1, max_size=8)))),
            "custom")
    cfg = rl.builtin(name)
    return rl.Configuration(cfg.n, cfg.observables, tuple(draw(
        st.lists(st.sampled_from(cfg.contexts), min_size=1, max_size=8))),
        "custom")


@settings(max_examples=150, deadline=None)
@given(st.lists(relabelling_bases(), min_size=1, max_size=3), st.data())
def test_decisions_are_invariant_under_relabelling(bases, data):
    """Relabelling the observables keeps colorability and, when there is
    no valuation, the very certificate: the sharing in ``verify_each`` and
    ``search_pentagrams`` rests on this."""
    batch = []
    for cfg in bases:
        m = len(cfg.observables)
        signs = data.draw(st.lists(st.sampled_from([1, -1]),
                                   min_size=len(cfg.contexts),
                                   max_size=len(cfg.contexts)))
        copies = [_relabel(cfg, data.draw(st.permutations(range(m))))
                  for _ in range(2)]
        result = rl.bks_decide(cfg, signs)
        for copy in copies:
            moved = rl.bks_decide(copy, signs)
            assert moved.colorable == result.colorable
            if not result.colorable:
                assert moved.certificate == result.certificate
        batch += [cfg, *copies]
    batch += batch[::-1]
    assert list(rl.verify_each(batch)) == [rl.verify_magic(c) for c in batch]


def test_search_results_are_a_read_only_sequence(pentagram_search):
    results = pentagram_search.results
    listed = list(results)
    assert len(results) == len(listed) == 12096
    assert results[-1] == listed[-1] and results[5000] == listed[5000]
    assert list(results[100:3000:7]) == listed[100:3000:7]
    assert len(results[::97]) == len(listed[::97])
    assert len(results[12096:]) == 0
    with pytest.raises(IndexError):
        results[12096]
    with pytest.raises(TypeError):
        results[1.0]
    with pytest.raises(TypeError):
        results[0] = listed[1]


def test_search_decides_each_distinct_system_once(monkeypatch):
    """One ``_decide`` per distinct (sorted column masks, signs), among
    which is every result's system; every pentagram's columns are the 10
    pairs of its 5 contexts, so the full search decides at most 32."""
    calls = _counting(monkeypatch, "_decide")
    for budget in (20000, None):
        del calls[:]
        results = rl.search_pentagrams(budget=budget).results
        decided = [(columns(masks, m), tuple(signs))
                   for masks, signs, m in calls]
        assert len(set(decided)) == len(decided)
        # verify_each below decides again, after `decided` is taken
        systems = {(columns(list(map(magic._mask, c.contexts)), 10),
                    tuple(r.sign for r in report.contexts))
                   for c, report in zip(results, rl.verify_each(results))}
        assert systems <= set(decided)
    assert len(results) == 12096 and len(decided) <= 32
    # results of one shape share one contexts tuple, and one label tuple
    assert len({id(c.contexts) for c in results}) == \
        len({c.contexts for c in results})
    assert len({id(c.context_labels) for c in results}) == 1


def test_search_decides_on_the_builtin_masks_alone(monkeypatch):
    """Each of the search's decisions is made on the built-in pentagram's
    masks, one per sign pattern, not on a candidate's own."""
    calls = _counting(monkeypatch, "_decide")
    assert len(rl.search_pentagrams().results) == 12096
    assert 0 < len(calls) <= 32
    assert all(masks is magic._PENTAGRAM_MASKS and m == 10
               for masks, _, m in calls)


def test_every_pentagram_candidate_has_the_builtin_columns():
    """Every set the full three-qubit search returns is the built-in
    pentagram's system up to relabelling its observables: its sorted
    columns are those of ``_PENTAGRAM_MASKS``, on which it is decided."""
    contexts = _contexts(all_words(3), 4)
    masks = [m for _, m, _ in contexts]
    found, complete = pentagram_rows(contexts)
    want = (0,) * 54 + columns(magic._PENTAGRAM_MASKS, 10)
    assert complete and len(found) == 12096
    assert all(columns([masks[ci] for ci in s], 64) == want
               for s in found)


def test_full_pentagram_cover_is_compact():
    """The full three-qubit search returns its sets as one read-only uint16
    table, not as 12096 tuples (1.29 MB traced)."""
    contexts = _contexts(all_words(3), 4)
    tracemalloc.start()
    try:
        found, complete = _pentagram_sets(contexts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert complete and found.dtype == np.uint16 and found.shape == (12096, 5)
    assert not found.flags.writeable
    # 0.45 MB measured: 0.12 MB the table, 0.09 MB the 946 `below` masks
    assert peak < 0.6e6


def test_pentagram_sets_refuse_contexts_past_uint16():
    """Each set's indices are kept as uint16: a family of more contexts
    is refused before any table is read off it (these would not unpack)."""
    with pytest.raises(ValueError, match="65537 contexts"):
        _pentagram_sets([None] * 65537)


def test_search_results_read_one_k5_template(pentagram_search):
    """Every result's contexts are the template's own K5 tuple, and slot k
    holds the one word shared by the words of its contexts p and q, (p, q)
    the k-th pair of five.  Read from the words, each result's contexts
    are enumerated contexts in index order, and the results come in the
    order ``_pentagram_sets`` finds them."""
    results = pentagram_search.results
    template = results._template
    assert template.contexts == ((0, 1, 2, 3), (0, 4, 5, 6), (1, 4, 7, 8),
                                 (2, 5, 7, 9), (3, 6, 8, 9))
    words = all_words(3)
    contexts = _contexts(words, 4)
    at = {frozenset(words[i].word for i in cells): ci
          for ci, (cells, _, _) in enumerate(contexts)}
    found = []
    for cfg in results:
        assert cfg.contexts is template.contexts
        lines = [frozenset(o.word for o in cfg.context_ops(v))
                 for v in range(5)]
        for k, (p, q) in enumerate(itertools.combinations(range(5), 2)):
            assert lines[p] & lines[q] == {cfg.observables[k].word}
        assert len({o.word for o in cfg.observables}) == 10
        found.append(tuple(at[line] for line in lines))
    assert found == pentagram_rows(contexts)[0]


@pytest.mark.parametrize("budget, count", [
    (0, 0), (1, 0), (5000, 973), (20000, 3716), (69200, 12096)])
def test_cut_search_results_are_a_prefix_of_the_full_results(
        budget, count, pentagram_search):
    """A search cut by its budget returns the full search's first results,
    each in the same places: the results are listed in the order found."""
    cut = rl.search_pentagrams(budget)
    assert not cut.complete and len(cut.results) == count
    assert list(cut.results) == list(pentagram_search.results[:count])


def _clear_memos():
    """Forget the square search, the orbit reports and the built-ins, so
    the next calls compute them as a new process's first calls do."""
    for memo in (magic._squares, magic._square_orbits, magic._builtin):
        memo.cache_clear()


def test_grid_search_decides_each_distinct_sign_pattern_once(monkeypatch):
    """Every grid is decided on the same masks, so one ``_decide`` per
    distinct tuple of row and column signs serves all grids with it."""
    _clear_memos()
    calls = _counting(monkeypatch, "_decide")
    squares = rl.search_squares()
    decided = [tuple(signs) for _, signs, _ in calls]
    assert len(set(decided)) == len(decided)
    assert {tuple(r.sign for r in rl.verify_magic(s).contexts)
            for s in squares} <= set(decided)


def test_square_search_hands_each_call_a_new_list_of_the_same_squares():
    """The search runs once per process: every call gets a new list of the
    same frozen configurations, so a caller's edits reach no later call."""
    first, second = rl.search_squares(), rl.search_squares()
    assert first == second and first is not second
    assert all(a is b for a, b in zip(first, second, strict=True))
    kept = list(second)
    first.reverse()
    first.append(None)
    assert rl.search_squares() == second == kept


def test_square_orbit_report_hands_each_call_a_new_report():
    """Reports are kept by the tuple of words, so a list of the same words
    reads the same report, and each call gets its own dict and list."""
    first = rl.square_orbit_report(magic.SQUARE_WORDS)
    first["orbit_sizes"].append(1)
    first["orbits"] = 2
    again = rl.square_orbit_report(list(magic.SQUARE_WORDS))
    assert again == {"arrangements": 72, "orbits": 1, "orbit_sizes": [72]}
    assert again["orbit_sizes"] is not rl.square_orbit_report(
        magic.SQUARE_WORDS)["orbit_sizes"]


@pytest.mark.parametrize("bad", ["XQ", "", ["XI"], 7])
def test_refusals_are_never_kept(bad):
    """A bad word and an unknown built-in are refused on every call, and
    each built-in is one object per process."""
    _clear_memos()
    for _ in range(2):
        with pytest.raises(rl.PauliError):
            rl.square_orbit_report(magic.SQUARE_WORDS[:8] + (bad,))
        with pytest.raises(rl.ConfigError):
            rl.builtin(bad)
    assert rl.square_orbit_report(magic.SQUARE_WORDS)["arrangements"] == 72
    for name in ("mermin_square", "mermin_pentagram"):
        assert rl.builtin(name) is rl.builtin(name)


def test_a_warm_squares_request_only_reverifies(monkeypatch, capsys):
    """The first squares request in a process runs the grid search, for the
    results and for the orbit; a second runs neither, and prints the same.
    Both re-verify the 10 results: 15 context checks, 3 decisions."""
    _clear_memos()
    counted = {name: _counting(monkeypatch, name) for name in (
        "_magic_grids", "_contexts", "bks_decide", "_context_check")}
    outs = []
    for searches in (2, 0):
        for calls in counted.values():
            calls.clear()
        assert cli.main(["search", "--kind", "squares", "--check",
                         "--format", "json"]) == 0
        outs.append(capsys.readouterr().out)
        assert {name: len(calls) for name, calls in counted.items()} == {
            "_magic_grids": searches, "_contexts": searches,
            "bks_decide": 3, "_context_check": 15}
    assert outs[0] == outs[1]
