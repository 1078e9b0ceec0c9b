"""Observable configurations with contexts: magic verification, BKS
colorability, and exhaustive square/pentagram searches.

A *context* is a pairwise-commuting set of observables whose product is
+-identity.  A configuration is *magic* when no +-1 valuation of its
observables reproduces every context sign; non-colorability is certified
by a parity argument (a subset of contexts covering every observable an
even number of times while the signs multiply to -1) and double-checked by
brute force over all assignments.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import gf2
from .pauli import (PauliError, PauliObservable, all_words,
                    anticommuting_pair, commutes, context_product_sign,
                    scalar_sign)


class ConfigError(ValueError):
    pass


class DeciderDisagreement(RuntimeError):
    """The exhaustive and GF(2) BKS deciders disagreed; a bug, never policy."""


@functools.lru_cache(maxsize=64)
def _default_labels(count: int) -> tuple[str, ...]:
    """The labels "context 1" .. "context count", one tuple per count."""
    return tuple([f"context {i + 1}" for i in range(count)])


@dataclass(frozen=True, slots=True)
class Configuration:
    n: int
    observables: tuple[PauliObservable, ...]
    contexts: tuple[tuple[int, ...], ...]
    geometry: str  # square | pentagram | custom
    context_labels: tuple[str, ...] = ()

    def __post_init__(self):
        m = len(self.observables)
        for ctx in self.contexts:
            if not ctx:
                raise ConfigError("empty context")
            seen = 0
            for i in ctx:
                if type(i) is not int and (not isinstance(i, int)
                                           or isinstance(i, bool)):
                    raise ConfigError(f"context index {i!r} is not an integer")
                if not 0 <= i < m:
                    raise ConfigError(f"context index {i} out of range "
                                      f"0..{m - 1}")
                seen |= 1 << i
            # a repeat is reported after the index checks, as they come first
            if seen.bit_count() != len(ctx):
                raise ConfigError(f"context {list(ctx)} repeats an observable")
        if not self.context_labels:
            object.__setattr__(self, "context_labels",
                               _default_labels(len(self.contexts)))

    def context_ops(self, ci: int) -> list[PauliObservable]:
        return [self.observables[i] for i in self.contexts[ci]]

    def structural_errors(self) -> list[str]:
        n, observables, contexts = self.n, self.observables, self.contexts
        words = set()
        phased = mismatched = False
        for o in observables:
            words.add((o.n, o.x, o.z))
            phased = phased or o.phase != 0
            mismatched = mismatched or o.n != n
        errs = []
        if len(words) != len(observables):
            errs.append("duplicate observable")
        if phased:
            errs.append("observables must have phase 0")
        if mismatched:
            errs.append("observable qubit-count mismatch")
        if self.geometry == "square":
            name, m, c, size, twice = ("square", 9, 6, 3,
                                       "one row and one column")
        elif self.geometry == "pentagram":
            name, m, c, size, twice = ("pentagram", 10, 5, 4,
                                       "exactly 2 contexts")
        else:
            return errs
        if len(observables) != m or len(contexts) != c:
            errs.append(f"{name} needs {m} observables in {c} contexts")
            return errs
        counts = [0] * m
        for ctx in contexts:
            if len(ctx) != size:
                errs.append(f"{name} contexts must have size {size}")
                return errs
            for i in ctx:
                counts[i] += 1
        if counts.count(2) != m:
            errs.append(f"each {name} observable lies in {twice}")
        return errs


@dataclass(frozen=True, slots=True)
class ContextReport:
    label: str
    commuting: bool
    sign: int | None
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    contexts: tuple[ContextReport, ...]
    structural_errors: tuple[str, ...]
    magic: bool
    bks: BksResult | None = None  # decided whenever every sign is known


@dataclass(frozen=True)
class BksResult:
    valuation: dict[int, int] | None = None
    certificate: tuple[int, ...] | None = None  # context indices

    @property
    def colorable(self) -> bool:
        return self.valuation is not None


# ---------------------------------------------------------------------------
# built-in configurations

SQUARE_WORDS = ("XI", "IX", "XX",
                "IY", "YI", "YY",
                "XY", "YX", "ZZ")
_SQUARE_CONTEXTS = ((0, 1, 2), (3, 4, 5), (6, 7, 8),
                    (0, 3, 6), (1, 4, 7), (2, 5, 8))
_SQUARE_LABELS = ("row 1", "row 2", "row 3", "column 1", "column 2", "column 3")

# Pentagram slots, reading the layout top to bottom:
# 0 top vertex; 1-4 the horizontal line left to right; 5, 6 the mid-level
# inner vertices; 7 the lower inner vertex; 8, 9 the bottom outer vertices.
PENTAGRAM_WORDS = ("YII",
                   "XXX", "YYX", "YXY", "XYY",
                   "IIX", "IIY",
                   "XII",
                   "IYI", "IXI")
PENTAGRAM_EDGE_SLOTS = (
    ("edge top/lower-left", (0, 2, 5, 8)),
    ("edge top/lower-right", (0, 3, 6, 9)),
    ("edge left/lower-right", (1, 5, 7, 9)),
    ("edge right/lower-left", (4, 6, 7, 8)),
    ("horizontal", (1, 2, 3, 4)),
)


def infer_contexts(observables: list[PauliObservable],
                   size: int) -> list[tuple[int, ...]]:
    """All size-subsets that pairwise commute with product +-identity."""
    return [idx for idx, _, _ in _contexts(observables, size)]


def builtin(name: str) -> Configuration:
    if name == "mermin_square":
        return _grid_config(SQUARE_WORDS)
    if name == "mermin_pentagram":
        obs = tuple(PauliObservable(w) for w in PENTAGRAM_WORDS)
        inferred = {frozenset(c) for c in infer_contexts(list(obs), 4)}
        expected = {frozenset(slots) for _, slots in PENTAGRAM_EDGE_SLOTS}
        if inferred != expected:
            raise DeciderDisagreement(
                "inferred pentagram contexts do not match the edge layout")
        labels, contexts = zip(*PENTAGRAM_EDGE_SLOTS)
        return Configuration(3, obs, tuple(contexts), "pentagram", labels)
    raise ConfigError(f"unknown builtin {name!r}")


# ---------------------------------------------------------------------------
# verification and colorability


def verify_magic(cfg: Configuration) -> VerificationReport:
    return verify_many([cfg])[0]


def verify_many(configs) -> list[VerificationReport]:
    """``verify_magic`` of each configuration, in order.

    Each configuration gets its own structural check, commutation test
    and context signs from its words.  Configurations with the same
    observable count, context masks and signs pose the same BKS system,
    so they share one decision (and its ``BksResult``), made by
    ``bks_decide`` on the first of them.  Equal context reports are one
    object.  Nothing is kept between calls.
    """
    decided = {}  # (observable count, masks, signs) -> BksResult
    made = {}  # (label, commuting, sign, note) -> the one ContextReport
    out = []
    for cfg in configs:
        errs = tuple(cfg.structural_errors())
        observables, labels = cfg.observables, cfg.context_labels
        reports = []
        masks = []
        signs = []
        for ci, ctx in enumerate(cfg.contexts):
            masks.append(_mask(ctx))
            ops = [observables[i] for i in ctx]
            try:
                comm = anticommuting_pair(ops) is None
                note = "" if comm else "not pairwise commuting"
            except PauliError as e:  # qubit counts differ: a structural error
                comm, note = False, str(e)
            sign = None
            if comm:
                try:
                    sign = scalar_sign(ops)
                except PauliError as e:
                    note = str(e)
            signs.append(sign)
            fields = (labels[ci], comm, sign, note)
            report = made.get(fields)
            if report is None:
                report = made[fields] = ContextReport(*fields)
            reports.append(report)
        bks = None
        if None not in signs:
            key = (len(observables), tuple(masks), tuple(signs))
            bks = decided.get(key)
            if bks is None:
                bks = decided[key] = bks_decide(cfg, signs)
        magic = not errs and bks is not None and not bks.colorable
        out.append(VerificationReport(tuple(reports), errs, magic, bks))
    return out


def _context_signs(cfg: Configuration) -> list[int]:
    return [context_product_sign(cfg.context_ops(ci))
            for ci in range(len(cfg.contexts))]


def _mask(ctx) -> int:
    """The bitmask of a context's distinct observable indices."""
    mask = 0
    for i in ctx:
        mask |= 1 << i
    return mask


@functools.cache
def _parities(m: int) -> tuple[int, ...]:
    """For each i < m, the 2^m-bit integer whose bit e is bit i of e.

    Each is built by doubling a block of 2^i zeros then 2^i ones; the
    cache holds at most 210 of them (i < m <= 20), about 5 MB.
    """
    out = []
    for i in range(m):
        width = 1 << i
        p = ((1 << width) - 1) << width
        width <<= 1
        while width < 1 << m:
            p |= p << width
            width <<= 1
        out.append(p)
    return tuple(out)


def _exhaustive_valuation(masks: list[int], signs: list[int], m: int):
    """Scan all +-1 assignments; None when no valuation reproduces the signs.

    Assignment e makes observable i -1 when bit i of e is set.  The
    assignments that satisfy every context so far are the set bits of one
    2^m-bit integer; a context keeps those whose -1 count on it is odd for
    sign -1 (the xor of its observables' parity patterns) and even for +1.
    The valuation is the lowest such e.
    """
    if m > 20:
        raise ConfigError("exhaustive decider capped at 20 observables")
    parity = _parities(m)
    everything = (1 << (1 << m)) - 1
    ok = everything
    for mask, sign in zip(masks, signs):
        odd = 0
        while mask:  # the set bits of mask, as in _bits, inlined
            low = mask & -mask
            odd ^= parity[low.bit_length() - 1]
            mask ^= low
        ok &= everything ^ odd if sign == 1 else odd
    if not ok:
        return None
    e = (ok & -ok).bit_length() - 1
    return {i: (-1 if (e >> i) & 1 else 1) for i in range(m)}


def _gf2_decide(masks: list[int], signs: list[int], m: int):
    """(valuation or None, certificate or None) from one GF(2) solve; the
    certificate is the first dependent set of contexts with odd sign sum."""
    x, y = gf2.solve(masks, [0 if s == 1 else 1 for s in signs])
    if x is None:
        certificate = []
        while y:
            low = y & -y
            certificate.append(low.bit_length() - 1)
            y ^= low
        return None, tuple(certificate)
    return {i: (-1 if (x >> i) & 1 else 1) for i in range(m)}, None


def bks_decide(cfg: Configuration, signs: list[int] | None = None) -> BksResult:
    """Two independent deciders, cross-checked; loud failure on disagreement.

    ``signs`` are the context signs when the caller has already computed
    them from the words; by default they are computed here.
    """
    if signs is None:
        signs = _context_signs(cfg)
    return _decide([_mask(c) for c in cfg.contexts], signs, len(cfg.observables))


def _decide(masks: list[int], signs: list[int], m: int) -> BksResult:
    """bks_decide on known signs: context i holds the observables of bit
    mask masks[i] (out of m) and has product sign signs[i]."""
    exhaustive = _exhaustive_valuation(masks, signs, m)
    valuation, certificate = _gf2_decide(masks, signs, m)
    if (exhaustive is None) != (valuation is None):
        raise DeciderDisagreement(
            "exhaustive and GF(2) BKS deciders disagree on solvability")
    if valuation is not None:
        negative = 0
        for i, v in valuation.items():
            if v == -1:
                negative |= 1 << i
        for mask, sign in zip(masks, signs):
            if (mask & negative).bit_count() & 1 != (sign == -1):
                raise DeciderDisagreement(
                    "returned valuation violates a context")
        return BksResult(valuation=valuation)
    odd, prod = 0, 1  # odd: the observables covered an odd number of times
    for ci in certificate:
        odd ^= masks[ci]
        prod *= signs[ci]
    if prod != -1 or odd:
        raise DeciderDisagreement("returned certificate fails the parity check")
    return BksResult(certificate=certificate)


# ---------------------------------------------------------------------------
# searches


def _bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _contexts(words: list[PauliObservable], size: int) -> list[tuple]:
    """All contexts of `size` observables among `words`, as sorted
    (index tuple, bitmask, sign) triples.

    Grows commuting cliques of size - 1 members over commutation bitsets;
    their product fixes the last member, which must come later in `words`.
    Products are folded on masks as in ``pauli.scalar_sign``.
    """
    comm = [0] * len(words)
    for i, j in itertools.combinations(range(len(words)), 2):
        if commutes(words[i], words[j]):
            comm[i] |= 1 << j
            comm[j] |= 1 << i
    at: dict[tuple[int, int], list[int]] = {}
    for i, w in enumerate(words):
        at.setdefault((w.x, w.z), []).append(i)
    # word i is i^a X^x Z^z with a its phase plus its Y count
    xza = [(w.x, w.z, w.phase + (w.x & w.z).bit_count()) for w in words]
    out = []

    def grow(members: tuple, a: int, x: int, z: int, cands: int):
        # the members' product is i^a X^x Z^z; cands: the later words
        # that commute with every member
        if len(members) == size - 1:
            for last in at.get((x, z), ()):
                wx, _, wa = xza[last]
                full = a + wa + 2 * (z & wx).bit_count()  # product i^full
                if cands >> last & 1 and full % 2 == 0:
                    idx = members + (last,)
                    out.append((idx, _mask(idx), 1 if full % 4 == 0 else -1))
            return
        for i in _bits(cands):
            wx, wz, wa = xza[i]
            grow(members + (i,), a + wa + 2 * (z & wx).bit_count(),
                 x ^ wx, z ^ wz, cands & comm[i] & -(2 << i))

    grow((), 0, 0, 0, (1 << len(words)) - 1)
    return sorted(out)


def _cover_twice(contexts: list[tuple], c: int, overlaps: set[int],
                 budget: int | None = None):
    """Sets of c contexts that cover each of their observables exactly
    twice, any two sharing a number of observables in `overlaps`, a
    nonempty subset of {0, 1}.

    Exact cover with multiplicity 2 in the style of Knuth's *Dancing
    Links*, on bitsets: each step branches on the observable covered once
    that the fewest remaining contexts can cover a second time, and a
    context once tried is left out of its later siblings.  A set that
    closes before c contexts is dropped, so only connected sets are found.
    ``budget`` caps the tree nodes (contexts placed).  Returns the sets as
    sorted index tuples, and whether the search completed.
    """
    if not overlaps or not overlaps <= {0, 1}:
        raise ValueError(f"overlaps {overlaps} is not a nonempty subset of {{0, 1}}")
    masks = [m for _, m, _ in contexts]
    holds = {}  # observable's bit -> bitset of the contexts holding it
    for ci, m in enumerate(masks):
        for o in _bits(m):
            holds[1 << o] = holds.get(1 << o, 0) | 1 << ci
    everything = (1 << len(masks)) - 1
    # context -> bitset of the contexts it may be picked with
    compat = []
    for a, ma in enumerate(masks):
        members = [1 << o for o in _bits(ma)]
        share1 = share2 = 0  # contexts sharing >= 1, >= 2 observables with a
        for k, o in enumerate(members):
            share1 |= holds[o]
            for o2 in members[k + 1:]:
                share2 |= holds[o] & holds[o2]
        allowed = everything ^ share1 if 0 in overlaps else 0
        if 1 in overlaps:
            allowed |= share1 & ~share2
        compat.append(allowed & ~(1 << a))
    found = []
    nodes = 0
    limit = math.inf if budget is None else budget

    def extend(picked: tuple, once: int, allowed: int) -> bool:
        nonlocal nodes
        if picked and not once:
            return True
        if once:  # the first fewest, as min() would pick, lowest bit first
            options, fewest, rest = 0, -1, once
            while rest:
                low = rest & -rest
                rest ^= low
                cands = allowed & holds[low]
                k = cands.bit_count()
                if fewest < 0 or k < fewest:
                    options, fewest = cands, k
                    if not k:
                        break
        else:
            options = allowed
        last = len(picked) == c - 1  # a context placed here closes the set
        while options:
            bit = options & -options
            options ^= bit
            ci = bit.bit_length() - 1
            nodes += 1
            if nodes > limit:
                return False
            mask = masks[ci]
            if last:
                if once == mask:
                    found.append(tuple(sorted(picked + (ci,))))
                continue
            shut = 0  # contexts through an observable now covered twice
            twice = once & mask
            while twice:
                low = twice & -twice
                twice ^= low
                shut |= holds[low]
            if not extend(picked + (ci,), once ^ mask,
                          allowed & compat[ci] & ~shut):
                return False
            allowed &= ~bit
        return True

    return found, extend((), 0, everything)


@dataclass(frozen=True)
class SearchOutcome:
    results: tuple[Configuration, ...]
    complete: bool


_SQUARE_MASKS = [_mask(c) for c in _SQUARE_CONTEXTS]


def _magic_grids(words: list[PauliObservable]) -> list[tuple[str, ...]]:
    """One row-major arrangement of each magic 3x3 grid of contexts among
    `words`; the rows are the grid's first context and the two contexts
    disjoint from it."""
    contexts = _contexts(words, 3)
    grids = []
    for grid_set in _cover_twice(contexts, 6, {0, 1})[0]:
        lines = [contexts[ci] for ci in grid_set]
        rows = [l for l in lines if l is lines[0] or not l[1] & lines[0][1]]
        cols = [l for l in lines if l not in rows]
        if rows[1][1] & rows[2][1]:
            continue  # the lines close a triangle: not a grid
        signs = [sign for _, _, sign in rows + cols]
        if _decide(_SQUARE_MASKS, signs, 9).colorable:
            continue
        grids.append(tuple(words[(r & c).bit_length() - 1].word
                           for _, r, _ in rows for _, c, _ in cols))
    return grids


# The 72 row/column permutations, with or without transposition, of a
# row-major 3x3 grid, each as the getter of its cells in their new order.
_GRID_TRANSFORMS = tuple(
    operator.itemgetter(*(mat[i][j] for i in rp for j in cp))
    for mat in (((0, 1, 2), (3, 4, 5), (6, 7, 8)),
                ((0, 3, 6), (1, 4, 7), (2, 5, 8)))
    for rp in itertools.permutations(range(3))
    for cp in itertools.permutations(range(3)))


def _grid_transforms(grid: tuple[str, ...]) -> list[tuple[str, ...]]:
    return [transform(grid) for transform in _GRID_TRANSFORMS]


def _grid_canonical(grid: tuple[str, ...]) -> tuple[str, ...]:
    return min(_grid_transforms(grid))


def _grid_config(grid: tuple[str, ...]) -> Configuration:
    return Configuration(2, tuple(PauliObservable(w) for w in grid),
                         _SQUARE_CONTEXTS, "square", _SQUARE_LABELS)


def search_squares() -> list[Configuration]:
    """Exhaustive two-qubit magic squares, deduplicated up to row/column
    permutation and transposition."""
    canon = {_grid_canonical(g) for g in _magic_grids(all_words(2))}
    return [_grid_config(g) for g in sorted(canon)]


def square_orbit_report(words: tuple[str, ...]) -> dict:
    """Magic arrangements of a fixed 9-observable set and their symmetry orbits."""
    orbits = [set(_grid_transforms(g))
              for g in _magic_grids([PauliObservable(w) for w in words])]
    return {
        "arrangements": len(set().union(*orbits)),
        "orbits": len(orbits),
        "orbit_sizes": sorted(map(len, orbits), reverse=True),
    }


def search_pentagrams(budget: int | None = None) -> SearchOutcome:
    """Exhaustive three-qubit magic pentagrams: 5 contexts of 4 observables,
    any two sharing exactly one observable, no +-1 valuation.

    ``budget`` caps the number of search-tree nodes; when it is hit the
    results found so far are returned with ``complete=False``.

    Every candidate is decided, but candidates whose remapped contexts and
    signs coincide pose one system, decided once per call; results with
    the same contexts share one tuple of them.
    """
    words = all_words(3)  # sorted by word, so index order is word order
    contexts = _contexts(words, 4)
    found, complete = _cover_twice(contexts, 5, {1}, budget)
    # Row r of `held` lists the observables of candidate r context by
    # context.  A candidate's contexts come in index order, which is the
    # order of their observable tuples, and hold each of its 10 observables
    # twice; renumbering the observables by rank keeps that order, so each
    # row's remapped contexts are already sorted.  Indices < 63 fit int8.
    pents = np.array(found, dtype=np.intp).reshape(-1, 5)
    held = np.array([idx for idx, _, _ in contexts],
                    dtype=np.int8)[pents].reshape(-1, 20)
    signs = np.array([sign for _, _, sign in contexts], dtype=np.int8)[pents]
    obs = np.sort(held, axis=1)[:, ::2]
    rank = (held[:, :, None] > obs[:, None, :]).sum(axis=2, dtype=np.int8)
    order = np.lexsort(np.hstack([obs, rank]).T[::-1])  # by (obs, contexts)
    shapes = {}  # remapped contexts, flat -> the one tuple of them
    decided = {}  # (remapped contexts, signs) -> colorable
    results = []
    for start in range(0, len(order), 1024):  # lists for 1024 rows at a time
        block = order[start:start + 1024]
        for obs_idx, flat, sign in zip(obs[block].tolist(),
                                       rank[block].tolist(),
                                       signs[block].tolist()):
            flat, sign = tuple(flat), tuple(sign)
            colorable = decided.get((flat, sign))
            if colorable is None:
                colorable = decided[flat, sign] = _decide(
                    [_mask(flat[k:k + 4]) for k in range(0, 20, 4)],
                    list(sign), 10).colorable
            if colorable:
                continue
            ctxs = shapes.get(flat)
            if ctxs is None:
                ctxs = shapes[flat] = tuple(zip(*[iter(flat)] * 4))
            results.append(Configuration(
                3, tuple([words[i] for i in obs_idx]), ctxs, "pentagram"))
    return SearchOutcome(tuple(results), complete)


# ---------------------------------------------------------------------------
# JSON wire format


def config_dict(cfg: Configuration) -> dict:
    """The JSON object of a configuration, as ``config_to_json`` writes it."""
    return {
        "n": cfg.n,
        "observables": [o.word for o in cfg.observables],
        "contexts": [list(c) for c in cfg.contexts],
        "geometry": cfg.geometry,
    }


def config_to_json(cfg: Configuration) -> str:
    return json.dumps(config_dict(cfg), indent=2)


def config_from_json(text: str) -> Configuration:
    try:
        data = json.loads(text)
        n = data["n"]
        if type(n) is not int:  # also rejects bools, fractions and 1e400
            raise ConfigError(f"bad configuration JSON: n = {n!r} "
                              "is not an integer")
        return Configuration(
            n,
            tuple(PauliObservable(w) for w in data["observables"]),
            tuple(tuple(c) for c in data["contexts"]),
            str(data.get("geometry", "custom")))
    except (ConfigError, PauliError):
        raise
    except (KeyError, TypeError, ValueError) as e:  # ValueError: bad JSON
        raise ConfigError(f"bad configuration JSON: {e}") from e
