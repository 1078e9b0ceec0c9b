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

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .pauli import (PauliError, PauliObservable, all_words, commutes,
                    context_product_sign, multiply)


class ConfigError(ValueError):
    pass


class DeciderDisagreement(RuntimeError):
    """The exhaustive and GF(2) BKS deciders disagreed; a bug, never policy."""


@dataclass(frozen=True)
class Configuration:
    n: int
    observables: tuple[PauliObservable, ...]
    contexts: tuple[tuple[int, ...], ...]
    geometry: str  # square | pentagram | custom
    context_labels: tuple[str, ...] = ()

    def __post_init__(self):
        for ctx in self.contexts:
            if not ctx:
                raise ConfigError("empty context")
            for i in ctx:
                if not isinstance(i, int) or isinstance(i, bool):
                    raise ConfigError(f"context index {i!r} is not an integer")
                if not 0 <= i < len(self.observables):
                    raise ConfigError(f"context index {i} out of range "
                                      f"0..{len(self.observables) - 1}")
            if len(set(ctx)) != len(ctx):
                raise ConfigError(f"context {list(ctx)} repeats an observable")
        if not self.context_labels:
            object.__setattr__(self, "context_labels",
                               tuple(f"context {i+1}"
                                     for i in range(len(self.contexts))))

    def context_ops(self, ci: int) -> list[PauliObservable]:
        return [self.observables[i] for i in self.contexts[ci]]

    def structural_errors(self) -> list[str]:
        errs = []
        words = [o.word for o in self.observables]
        if len(set(words)) != len(words):
            errs.append("duplicate observable")
        if any(o.phase != 0 for o in self.observables):
            errs.append("observables must have phase 0")
        if any(o.n != self.n for o in self.observables):
            errs.append("observable qubit-count mismatch")
        counts = [0] * len(self.observables)
        for ctx in self.contexts:
            for i in ctx:
                counts[i] += 1
        if self.geometry == "square":
            if len(self.observables) != 9 or len(self.contexts) != 6:
                errs.append("square needs 9 observables in 6 contexts")
            elif any(len(c) != 3 for c in self.contexts):
                errs.append("square contexts must have size 3")
            elif any(c != 2 for c in counts):
                errs.append("each square observable lies in one row and one column")
        elif self.geometry == "pentagram":
            if len(self.observables) != 10 or len(self.contexts) != 5:
                errs.append("pentagram needs 10 observables in 5 contexts")
            elif any(len(c) != 4 for c in self.contexts):
                errs.append("pentagram contexts must have size 4")
            elif any(c != 2 for c in counts):
                errs.append("each pentagram observable lies in exactly 2 contexts")
        return errs


@dataclass(frozen=True)
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
    bks: BksResult | None = None  # decided only for sound configurations


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
    out = []
    for idxs in itertools.combinations(range(len(observables)), size):
        ops = [observables[i] for i in idxs]
        if all(commutes(a, b) for a, b in itertools.combinations(ops, 2)):
            prod = ops[0]
            for op in ops[1:]:
                prod = multiply(prod, op)
            if prod.is_identity_word() and prod.phase in (0, 2):
                out.append(idxs)
    return out


def builtin(name: str) -> Configuration:
    if name == "mermin_square":
        return Configuration(2, tuple(PauliObservable(w) for w in SQUARE_WORDS),
                             _SQUARE_CONTEXTS, "square", _SQUARE_LABELS)
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
    errs = tuple(cfg.structural_errors())
    reports = []
    all_good = True
    for ci, ctx in enumerate(cfg.contexts):
        ops = cfg.context_ops(ci)
        comm = all(commutes(a, b) for a, b in itertools.combinations(ops, 2))
        sign = None
        note = ""
        if comm:
            try:
                sign = context_product_sign(ops)
            except PauliError as e:
                note = str(e)
        else:
            note = "not pairwise commuting"
        if sign is None:
            all_good = False
        reports.append(ContextReport(cfg.context_labels[ci], comm, sign, note))
    bks = bks_decide(cfg) if all_good and not errs else None
    magic = bks is not None and not bks.colorable
    return VerificationReport(tuple(reports), errs, magic, bks)


def _context_signs(cfg: Configuration) -> list[int]:
    return [context_product_sign(cfg.context_ops(ci))
            for ci in range(len(cfg.contexts))]


def _exhaustive_valuation(cfg: Configuration, signs: list[int]):
    """Scan all +-1 assignments; None when no valuation reproduces the signs."""
    m = len(cfg.observables)
    if m > 20:
        raise ConfigError("exhaustive decider capped at 20 observables")
    assigns = np.arange(1 << m, dtype=np.uint32)  # bit i set: observable i is -1
    ok = np.ones(len(assigns), dtype=bool)
    for ctx, sign in zip(cfg.contexts, signs):
        mask = np.uint32(sum(1 << i for i in ctx))
        ok &= (np.bitwise_count(assigns & mask) & 1) == (0 if sign == 1 else 1)
    hits = np.nonzero(ok)[0]
    if len(hits) == 0:
        return None
    e = int(hits[0])
    return {i: (-1 if (e >> i) & 1 else 1) for i in range(m)}


def _gf2_decide(cfg: Configuration, signs: list[int]):
    """(valuation or None, certificate or None) via GF(2) linear algebra."""
    m = len(cfg.observables)
    rows = []
    for ctx in cfg.contexts:
        r = 0
        for i in ctx:
            r |= 1 << i
        rows.append(r)
    rhs = [0 if s == 1 else 1 for s in signs]
    x = gf2.solve(rows, rhs)
    if x is not None:
        return {i: (-1 if (x >> i) & 1 else 1) for i in range(m)}, None
    basis = gf2.left_nullspace(rows, m)
    # first combination of null vectors with odd sign product, deterministic
    for r in range(1, len(basis) + 1):
        for combo in itertools.combinations(range(len(basis)), r):
            y = 0
            for i in combo:
                y ^= basis[i]
            t = sum((y >> c) & 1 for c, b in enumerate(rhs) if b) % 2
            if t == 1:
                cert = tuple(c for c in range(len(cfg.contexts)) if (y >> c) & 1)
                return None, cert
    raise DeciderDisagreement("unsolvable system without an odd certificate")


def bks_decide(cfg: Configuration) -> BksResult:
    """Two independent deciders, cross-checked; loud failure on disagreement."""
    signs = _context_signs(cfg)
    exhaustive = _exhaustive_valuation(cfg, signs)
    valuation, certificate = _gf2_decide(cfg, signs)
    if (exhaustive is None) != (valuation is None):
        raise DeciderDisagreement(
            "exhaustive and GF(2) BKS deciders disagree on solvability")
    if valuation is not None:
        _check_valuation(cfg, signs, valuation)
        return BksResult(valuation=valuation)
    _check_certificate(cfg, signs, certificate)
    return BksResult(certificate=certificate)


def _check_valuation(cfg, signs, valuation):
    for ctx, sign in zip(cfg.contexts, signs):
        prod = 1
        for i in ctx:
            prod *= valuation[i]
        if prod != sign:
            raise DeciderDisagreement("returned valuation violates a context")


def _check_certificate(cfg, signs, certificate):
    counts = [0] * len(cfg.observables)
    prod = 1
    for ci in certificate:
        prod *= signs[ci]
        for i in cfg.contexts[ci]:
            counts[i] += 1
    if prod != -1 or any(c % 2 for c in counts):
        raise DeciderDisagreement("returned certificate fails the parity check")


# ---------------------------------------------------------------------------
# searches


def _lines(words: list[PauliObservable]) -> set[frozenset]:
    """Unordered commuting triples {a, b, ab} with scalar +-I product."""
    by_word = {w.word: w for w in words}
    lines = set()
    for a, b in itertools.combinations(words, 2):
        if not commutes(a, b):
            continue
        c = multiply(a, b)
        if c.is_identity_word() or c.word not in by_word:
            continue
        if c.word in (a.word, b.word):
            continue
        lines.add(frozenset((a.word, b.word, c.word)))
    return lines


def _grid_transforms(grid: tuple[str, ...]):
    rows = [grid[0:3], grid[3:6], grid[6:9]]
    for mat in (rows, [tuple(r[i] for r in rows) for i in range(3)]):
        for rp in itertools.permutations(range(3)):
            for cp in itertools.permutations(range(3)):
                yield tuple(mat[i][j] for i in rp for j in cp)


def _grid_canonical(grid: tuple[str, ...]) -> tuple[str, ...]:
    return min(_grid_transforms(grid))


def _grid_config(grid: tuple[str, ...]) -> Configuration:
    return Configuration(2, tuple(PauliObservable(w) for w in grid),
                         _SQUARE_CONTEXTS, "square", _SQUARE_LABELS)


def _magic_grids_from_lines(lines: set[frozenset]):
    """All magic 3x3 arrangements whose rows come from the given line set."""
    line_list = sorted(lines, key=lambda s: tuple(sorted(s)))
    for trip in itertools.combinations(line_list, 3):
        if len(trip[0] | trip[1] | trip[2]) != 9:
            continue
        r0 = tuple(sorted(trip[0]))
        for p0 in itertools.permutations(r0):
            for p1 in itertools.permutations(sorted(trip[1])):
                for p2 in itertools.permutations(sorted(trip[2])):
                    cols = [frozenset((p0[j], p1[j], p2[j])) for j in range(3)]
                    if any(c not in lines for c in cols):
                        continue
                    grid = p0 + p1 + p2
                    cfg = _grid_config(grid)
                    signs = _context_signs(cfg)
                    if signs.count(-1) % 2 == 1:
                        yield grid


def search_squares() -> list[Configuration]:
    """Exhaustive two-qubit magic squares, deduplicated up to row/column
    permutation and transposition."""
    lines = _lines(all_words(2))
    canon = {_grid_canonical(g) for g in _magic_grids_from_lines(lines)}
    return [_grid_config(g) for g in sorted(canon)]


def square_orbit_report(words: tuple[str, ...]) -> dict:
    """Magic arrangements of a fixed 9-observable set and their symmetry orbits."""
    obs = [PauliObservable(w) for w in words]
    lines = {l for l in _lines(obs) if l <= set(words)}
    arrangements = set()
    # rows may be any ordered triple of disjoint lines, in any row order
    line_list = sorted(lines, key=lambda s: tuple(sorted(s)))
    for trip in itertools.permutations(line_list, 3):
        if len(trip[0] | trip[1] | trip[2]) != 9:
            continue
        for p0 in itertools.permutations(sorted(trip[0])):
            for p1 in itertools.permutations(sorted(trip[1])):
                for p2 in itertools.permutations(sorted(trip[2])):
                    cols = [frozenset((p0[j], p1[j], p2[j])) for j in range(3)]
                    if any(c not in lines for c in cols):
                        continue
                    grid = p0 + p1 + p2
                    if _context_signs(_grid_config(grid)).count(-1) % 2 == 1:
                        arrangements.add(grid)
    orbits: dict[tuple, int] = {}
    for g in arrangements:
        orbits[_grid_canonical(g)] = orbits.get(_grid_canonical(g), 0) + 1
    return {
        "arrangements": len(arrangements),
        "orbits": len(orbits),
        "orbit_sizes": sorted(orbits.values(), reverse=True),
    }


@dataclass(frozen=True)
class SearchOutcome:
    results: tuple[Configuration, ...]
    complete: bool


def _pentagram_contexts(words: list[PauliObservable]):
    """All 4-element contexts as (index tuple, membership mask, sign)."""
    n_words = len(words)
    by_word = {w.word: i for i, w in enumerate(words)}
    comm = [0] * n_words
    for i, j in itertools.combinations(range(n_words), 2):
        if commutes(words[i], words[j]):
            comm[i] |= 1 << j
            comm[j] |= 1 << i
    out = []
    for i in range(n_words):
        for j in range(i + 1, n_words):
            if not (comm[i] >> j) & 1:
                continue
            for k in range(j + 1, n_words):
                if not ((comm[i] >> k) & 1 and (comm[j] >> k) & 1):
                    continue
                prod3 = multiply(multiply(words[i], words[j]), words[k])
                if prod3.is_identity_word():
                    continue
                l = by_word[prod3.word]
                if l <= k:
                    continue
                sign = context_product_sign([words[i], words[j],
                                             words[k], words[l]])
                mask = (1 << i) | (1 << j) | (1 << k) | (1 << l)
                out.append(((i, j, k, l), mask, sign))
    out.sort()
    return out


def search_pentagrams(budget: int | None = None) -> SearchOutcome:
    """Exhaustive three-qubit magic pentagrams: 5 contexts of 4 observables,
    every observable in exactly two contexts, no +-1 valuation.

    ``budget`` caps the number of search-tree nodes; when it is hit the
    results found so far are returned with ``complete=False``.
    """
    words = all_words(3)
    contexts = _pentagram_contexts(words)
    nc = len(contexts)
    compat = [set() for _ in range(nc)]
    for a in range(nc):
        for b in range(a + 1, nc):
            inter = contexts[a][1] & contexts[b][1]
            if inter and inter & (inter - 1) == 0:  # exactly one shared slot
                compat[a].add(b)
    results = []
    nodes = 0
    exhausted = False

    def expected_pop(m):  # all pairwise intersections distinct
        return 4 * m - m * (m - 1) // 2

    def extend(chosen: list[int], union: int, candidates: list[int]):
        nonlocal nodes, exhausted
        if exhausted:
            return
        if len(chosen) == 5:
            if bin(union).count("1") == 10:
                results.append(tuple(chosen))
            return
        for c in candidates:
            nodes += 1
            if budget is not None and nodes > budget:
                exhausted = True
                return
            new_union = union | contexts[c][1]
            if bin(new_union).count("1") != expected_pop(len(chosen) + 1):
                continue
            new_cands = [d for d in candidates if d > c and d in compat[c]]
            extend(chosen + [c], new_union, new_cands)

    for start in range(nc):
        if exhausted:
            break
        extend([start], contexts[start][1], sorted(compat[start]))

    configs = []
    for combo in results:
        signs = [contexts[c][2] for c in combo]
        obs_idx = sorted({i for c in combo for i in contexts[c][0]})
        remap = {w: i for i, w in enumerate(obs_idx)}
        ctxs = tuple(sorted(tuple(sorted(remap[i] for i in contexts[c][0]))
                            for c in combo))
        cfg = Configuration(3, tuple(words[i] for i in obs_idx), ctxs,
                            "pentagram")
        # magic filter: certificate must exist
        if not bks_decide(cfg).colorable:
            configs.append(cfg)
    configs.sort(key=lambda c: (tuple(o.word for o in c.observables), c.contexts))
    return SearchOutcome(tuple(configs), not exhausted)


# ---------------------------------------------------------------------------
# JSON wire format


def config_to_json(cfg: Configuration) -> str:
    return json.dumps({
        "n": cfg.n,
        "observables": [o.word for o in cfg.observables],
        "contexts": [list(c) for c in cfg.contexts],
        "geometry": cfg.geometry,
    }, indent=2)


def config_from_json(text: str) -> Configuration:
    try:
        data = json.loads(text)
        return Configuration(
            int(data["n"]),
            tuple(PauliObservable(w) for w in data["observables"]),
            tuple(tuple(c) for c in data["contexts"]),
            str(data.get("geometry", "custom")))
    except (ConfigError, PauliError):
        raise
    except (KeyError, TypeError, ValueError) as e:  # ValueError: bad JSON or n
        raise ConfigError(f"bad configuration JSON: {e}") from e
