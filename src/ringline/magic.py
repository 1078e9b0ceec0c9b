"""Observable configurations with contexts: magic verification, BKS
colorability, and exhaustive square/pentagram searches.

A *context* is a pairwise-commuting set of observables whose product is
+-identity.  A configuration is *magic* when no +-1 valuation of its
observables reproduces every context sign; non-colorability is certified
by a parity argument (a subset of contexts covering every observable an
even number of times while the signs multiply to -1).  One GF(2)
elimination returns either a valuation or such a certificate, and each
answer is checked as the proof it is before it is returned.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from array import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import gf2
from .pauli import (PauliError, PauliObservable, all_words,
                    anticommuting_pair, context_product_sign, scalar_sign)


class ConfigError(ValueError):
    pass


class DeciderDisagreement(RuntimeError):
    """A BKS answer failed its proof check; a bug, never policy."""


@dataclass(frozen=True, slots=True)
class Configuration:
    n: int
    observables: tuple[PauliObservable, ...]
    contexts: tuple[tuple[int, ...], ...]
    geometry: str  # square | pentagram | custom
    context_labels: tuple[str, ...] = ()

    def __post_init__(self):
        if (isinstance(self.n, bool) or not isinstance(self.n, int)
                or self.n < 1):
            raise ConfigError(f"n = {self.n!r} is not a positive qubit count")
        if self.geometry not in ("square", "pentagram", "custom"):
            raise ConfigError(f"unknown geometry {self.geometry!r}: "
                              "expected square, pentagram or custom")
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
            object.__setattr__(self, "context_labels", tuple(
                [f"context {i + 1}" for i in range(len(self.contexts))]))
        elif len(self.context_labels) != len(self.contexts):
            raise ConfigError(f"{len(self.context_labels)} context label(s) "
                              f"for {len(self.contexts)} context(s)")

    def _with_observables(self, observables: tuple) -> Configuration:
        """This configuration with as many other observables in its places.

        Nothing is validated again: the contexts, checked when this one was
        built, index the same number of observables.
        """
        if len(observables) != len(self.observables):
            raise ConfigError(f"{len(observables)} observable(s) in place "
                              f"of {len(self.observables)}")
        out = object.__new__(Configuration)
        put = object.__setattr__
        put(out, "n", self.n)
        put(out, "observables", observables)
        put(out, "contexts", self.contexts)
        put(out, "geometry", self.geometry)
        put(out, "context_labels", self.context_labels)
        return out

    def context_ops(self, ci: int) -> list[PauliObservable]:
        return [self.observables[i] for i in self.contexts[ci]]


def _observable_errors(n: int, keys: list[tuple]) -> list[str]:
    """The structural errors of n-qubit observables given by their keys
    (n, x, z, phase): a duplicate word, a phase, another qubit count."""
    errs = []
    if len({k[:3] for k in keys}) != len(keys):
        errs.append("duplicate observable")
    if any([k[3] for k in keys]):
        errs.append("observables must have phase 0")
    if any([k[0] != n for k in keys]):
        errs.append("observable qubit-count mismatch")
    return errs


def _shape_errors(geometry: str, m: int, contexts) -> list[str]:
    """The structural errors of m observables in `contexts` for a geometry."""
    if geometry == "square":
        name, want, c, size, twice = ("square", 9, 6, 3,
                                      "one row and one column")
    elif geometry == "pentagram":
        name, want, c, size, twice = ("pentagram", 10, 5, 4,
                                      "exactly 2 contexts")
    else:
        return []
    if m != want or len(contexts) != c:
        return [f"{name} needs {want} observables in {c} contexts"]
    counts = [0] * m
    for ctx in contexts:
        if len(ctx) != size:
            return [f"{name} contexts must have size {size}"]
        for i in ctx:
            counts[i] += 1
    if counts.count(2) != m:
        return [f"each {name} observable lies in {twice}"]
    return []


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
    """A valuation, read-only as ``verify_each`` shares its reports, or a
    parity certificate."""
    valuation: Mapping[int, int] | None = None
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


_BUILTINS = ("mermin_square", "mermin_pentagram")


def builtin(name: str) -> Configuration:
    """The built-in configuration called ``name``: ``mermin_square`` or
    ``mermin_pentagram``; any other name raises ``ConfigError``.

    Each is built once per process, on its first request, and every call
    returns that one frozen ``Configuration``.  A refusal is never kept.
    """
    if name not in _BUILTINS:
        raise ConfigError(f"unknown builtin {name!r}")
    return _builtin(name)


@functools.lru_cache(maxsize=len(_BUILTINS))
def _builtin(name: str) -> Configuration:
    if name == "mermin_square":
        return _grid_config(tuple(PauliObservable(w) for w in SQUARE_WORDS))
    obs = tuple(PauliObservable(w) for w in PENTAGRAM_WORDS)
    labels, contexts = zip(*PENTAGRAM_EDGE_SLOTS)
    return Configuration(3, obs, contexts, "pentagram", labels)


# ---------------------------------------------------------------------------
# verification and colorability


def verify_magic(cfg: Configuration) -> VerificationReport:
    return next(verify_each([cfg]))


def verify_each(configs):
    """Yield the verification report of each configuration, in order, one
    at a time: a caller that keeps none of the reports never holds them all.

    Each configuration gets its own structural check and is read from its
    own words, as a row of word ids: each word's (n, x, z, phase) is
    interned once per call as a small int.  Within one call, every
    distinct context key gets one commutation test and one sign.  A key is
    its members' ids sorted when the row's words are plain (distinct,
    phase 0 and on the configuration's qubit count), so a context is one
    set of words; otherwise it is the ids in order, as the note on mixed
    qubit counts depends on which pair comes first.  Every template
    (geometry, observable count and contexts) gets its shape check once,
    and configurations with the same template, labels, context checks and
    structural errors share one report, decided once (its valuation, if
    any, is read-only).  Observable errors are looked for only in a row
    that repeats an id or holds a phased word or one on another qubit
    count.  Nothing is kept between calls.

    Configurations are read one at a time, and search results
    (``_ResultRows``) in numpy blocks of 1024 rows: each context's sorted
    ids are keyed as one int, the block's distinct keys are checked, and a
    row takes the report of an earlier row with the same context checks.
    A row that repeats an id or holds a word of another kind is read on
    its own, and a configuration is built from a row only when it goes to
    ``bks_decide``.
    """
    index = {}  # (n, x, z, phase) -> the word's id
    words = []  # id -> the first word interned to it
    qubits = []  # id -> its word's qubit count, or None if it is phased
    kinds = set()  # the values in qubits

    def intern(o: PauliObservable) -> int:
        key = (o.n, o.x, o.z, o.phase)
        i = index.get(key)
        if i is None:
            i = index[key] = len(words)
            words.append(o)
            qubits.append(None if o.phase else o.n)
            kinds.add(qubits[-1])
        return i

    # (geometry, count, contexts) -> (errors, getters, shared), shared:
    # (labels, checks, errors) -> the template's report
    templates = {}
    checked = {}  # context key -> (commuting, sign, note)

    def check_of(key: tuple) -> tuple:
        found = checked.get(key)
        if found is None:
            found = checked[key] = _context_check([words[i] for i in key])
        return found

    def read(template: Configuration, ids: list,
             cfg: Configuration | None = None) -> VerificationReport:
        # the report of the words `ids` in template's places; cfg is the
        # configuration they make, if it is built
        key = (template.geometry, len(ids), template.contexts)
        known = templates.get(key)
        if known is None:
            known = templates[key] = (tuple(_shape_errors(*key)), [
                operator.itemgetter(*ctx) if len(ctx) > 1
                else lambda ids, i=ctx[0]: (ids[i],)
                for ctx in template.contexts], {})
        errs, getters, shared = known
        n = template.n
        # a row can hold a phased word or one on another count only if some
        # word interned so far is one
        plain = len(set(ids)) == len(ids) and (
            kinds == {n} or {*map(qubits.__getitem__, ids)} == {n})
        if plain:  # distinct plain words on n check alike in any order
            checks = [check_of(tuple(sorted(get(ids)))) for get in getters]
        else:
            errs = tuple(_observable_errors(n, [
                (o.n, o.x, o.z, o.phase) for o in map(words.__getitem__, ids)
            ])) + errs
            checks = [check_of(get(ids)) for get in getters]
        labels = template.context_labels
        report_key = (labels, tuple(checks), errs)
        report = shared.get(report_key)
        if report is None:
            signs = [sign for _, sign, _ in checks]
            bks = None
            if None not in signs:
                if cfg is None:
                    cfg = template._with_observables(
                        tuple(map(words.__getitem__, ids)))
                bks = bks_decide(cfg, signs)
            magic = not errs and bks is not None and not bks.colorable
            report = VerificationReport(tuple([
                ContextReport(label, *check)
                for label, check in zip(labels, checks)]), errs, magic, bks)
            shared[report_key] = report
        return report

    def read_blocks(rows: _ResultRows):
        template, base = rows._template, len(rows._words)
        # the smallest dtypes keep each block's temporaries small
        ids_of = np.array(list(map(intern, rows._words)),
                          dtype=np.min_scalar_type(base))
        contexts = np.array(template.contexts, dtype=np.min_scalar_type(
            rows._observables.shape[1]))
        place = [base ** j for j in reversed(range(contexts.shape[1]))]
        qubit = np.array([0 if q is None else q for q in qubits])
        # check -> its number; context key -> its check's number, and the
        # key -1 of a row read on its own -> -1
        codes, coded = {}, {-1: -1}
        found = {}  # check numbers -> their report
        for start in range(0, len(rows), 1024):
            ids = ids_of[rows._observables[start:start + 1024]]
            # key -1: the row repeats an id or holds a word of another kind
            ordered = np.sort(ids, axis=1)
            keys = np.sort(ids[:, contexts], axis=2) @ place
            keys[(ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
                 | (qubit[ids] != template.n).any(axis=1)] = -1
            keys, inverse = np.unique(keys, return_inverse=True)
            code = []
            for key in keys.tolist():
                if key not in coded:
                    coded[key] = codes.setdefault(check_of(tuple(
                        [key // p % base for p in place])), len(codes))
                code.append(coded[key])
            for r, row in enumerate(map(tuple, np.array(code)[
                    inverse.reshape(len(ids), -1)].tolist())):
                report = found.get(row)
                if report is None:
                    report = read(template, ids[r].tolist())
                    if row[0] >= 0:
                        found[row] = report
                yield report

    if isinstance(configs, _ResultRows):
        yield from read_blocks(configs)
        return
    for cfg in configs:
        yield read(cfg, list(map(intern, cfg.observables)), cfg)


def _context_check(ops: list[PauliObservable]) -> tuple:
    """(commuting, sign, note) of a context of the observables ops."""
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
    return comm, sign, note


def _mask(ctx) -> int:
    """The bitmask of a context's distinct observable indices."""
    mask = 0
    for i in ctx:
        mask |= 1 << i
    return mask


def bks_decide(cfg: Configuration, signs: list[int] | None = None) -> BksResult:
    """A valuation, or a parity certificate that none exists, from one
    GF(2) elimination; either answer is checked as a proof (the valuation
    against every context, the certificate by its parity) and a failed
    check raises ``DeciderDisagreement``.

    ``signs`` are the context signs when the caller has already computed
    them from the words; by default they are computed here.
    """
    if signs is None:
        signs = [context_product_sign(cfg.context_ops(ci))
                 for ci in range(len(cfg.contexts))]
    return _decide([_mask(c) for c in cfg.contexts], signs, len(cfg.observables))


def _decide(masks: list[int], signs: list[int], m: int) -> BksResult:
    """bks_decide on known signs: context i holds the observables of bit
    mask masks[i] (out of m) and has product sign signs[i].

    One ``gf2.solve`` gives x, the mask of the observables valued -1, or
    y, the first dependent set of contexts with odd sign sum; the mask is
    checked against every context before it becomes a valuation.
    """
    x, y = gf2.solve(masks, [0 if s == 1 else 1 for s in signs])
    if x is not None:
        for mask, sign in zip(masks, signs):
            if (mask & x).bit_count() & 1 != (sign == -1):
                raise DeciderDisagreement(
                    "returned valuation violates a context")
        return BksResult(valuation=MappingProxyType(
            {i: -1 if x >> i & 1 else 1 for i in range(m)}))
    certificate = tuple(_bits(y))
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
    """All contexts of `size` observables among `words`, as (index tuple,
    bitmask, sign) triples, sorted by index tuple.

    Grows commuting cliques of size - 2 members over bitsets of the later
    words each word commutes with, then closes each in one flat loop: a
    candidate j, and the word their product fixes, which must come after
    j.  Products are folded on masks as in ``pauli.scalar_sign``.  Every
    word is taken lowest first, so the contexts come out sorted.
    """
    if any(w.n != words[0].n for w in words):
        raise PauliError("qubit counts differ")
    # word i is i^a X^x Z^z with a its phase plus its Y count
    xza = [(w.x, w.z, w.phase + (w.x & w.z).bit_count()) for w in words]
    at: dict[tuple[int, int], list[int]] = {}
    later = []  # word i -> the later words commuting with it
    for i, (x, z, _) in enumerate(xza):
        at.setdefault((x, z), []).append(i)
        later.append(sum([1 << j for j, (wx, wz, _) in enumerate(xza)
                          if j > i and not (x & wz ^ z & wx).bit_count() & 1]))
    out = []

    def close(members: tuple, a: int, x: int, z: int, cands: int):
        # the members' product is i^a X^x Z^z; cands: the later words
        # that commute with every member
        if len(members) < size - 2:
            for i in _bits(cands):
                wx, wz, wa = xza[i]
                close(members + (i,), a + wa + 2 * (z & wx).bit_count(),
                      x ^ wx, z ^ wz, cands & later[i])
            return
        base = _mask(members)
        while cands:
            low = cands & -cands
            cands ^= low
            j = low.bit_length() - 1
            wx, wz, wa = xza[j]
            a_j = a + wa + 2 * (z & wx).bit_count()
            z_j, fits = z ^ wz, cands & later[j]
            for last in at.get((x ^ wx, z_j), ()):
                lx, _, la = xza[last]
                full = a_j + la + 2 * (z_j & lx).bit_count()  # product i^full
                if fits >> last & 1 and full % 2 == 0:
                    out.append(((*members, j, last), base | low | 1 << last,
                                1 if full % 4 == 0 else -1))

    if size == 1:  # a word that is +-identity on its own
        out = [((i,), 1 << i, 1 if xza[i][2] % 4 == 0 else -1)
               for i in at.get((0, 0), ()) if xza[i][2] % 2 == 0]
    elif size > 1:
        close((), 0, 0, 0, (1 << len(words)) - 1)
    del close  # it holds itself through its closure: free the tables now
    return out


def _incidence(contexts: list[tuple],
               reverse: bool = False) -> tuple[dict, list[int]]:
    """(at, holds) of a family of contexts: ``at`` maps each context's mask
    to its index, and ``holds[o]`` is the bitset of the contexts holding
    observable o, in which bit ci stands for context ci, or with
    ``reverse`` bit ``len(contexts) - 1 - ci``."""
    at = {mask: ci for ci, (_, mask, _) in enumerate(contexts)}
    holds = [0] * max(at, default=0).bit_length()
    last = len(contexts) - 1
    for ci, (cells, _, _) in enumerate(contexts):
        bit = 1 << (last - ci if reverse else ci)
        for o in cells:
            holds[o] |= bit
    return at, holds


def _pentagram_sets(contexts: list[tuple], budget: int | None = None):
    """Sets of 5 contexts of 4 observables, any two sharing exactly one
    observable: each is K5, its contexts the vertices and its 10
    observables the edges.  ``contexts`` are sorted (cells, mask, sign)
    triples of 4 cells, as ``_contexts`` returns them.  Returns the sets
    as the rows of a read-only (k, 5) uint16 array, each row a set's
    context indices sorted, in the order found, and whether the search
    completed.

    Each set is found once, from its lowest context a, whose cells are
    o1 < o2 < o3 < o4.  Contexts b, c and d are placed through o1, o2 and
    o3 in turn: each is later than a and meets a there alone, the three
    pairwise meet once, and d avoids the cell that b and c share.  The
    fifth context then holds o4 and the one cell off a that each of b, c
    and d holds alone, and is looked up by that mask.  Its cells are all
    above o1, as b's, c's and d's are, so it comes after a.

    The tree is walked in one flat loop over bitsets of contexts, each
    candidate set computed at the level where it is fixed.  Bit
    ``last - ci`` of a bitset stands for context ci, so a set's earliest
    context is its highest bit: ``bit_length`` reads it and one AND with
    ``below`` clears it.  No bitset is ANDed with a negative int, which
    CPython does through a two's-complement copy, so d's exclusion of the
    cell b and c share is read from a positive complement, ``avoid``.

    ``budget`` caps the tree nodes, one per context placed (a, b, c or d;
    the fifth is a lookup), which ``search --kind pentagrams --budget``
    counts; the search completed when it counted no more than that.  Each
    set found is appended, unsorted, to one uint16 array, which the result
    views without a copy and sorts row by row in place, so a family of
    more than 65536 contexts is refused.
    """
    if len(contexts) > 1 << 16:
        raise ValueError(f"{len(contexts)} contexts: at most 65536 fit uint16")
    last = len(contexts) - 1
    at, holds = _incidence(contexts, reverse=True)
    once = []  # context -> the contexts sharing exactly one observable with it
    for ci, (cells, _, _) in enumerate(contexts):
        share1 = share2 = 0  # contexts sharing >= 1, >= 2 observables with it
        for k, o in enumerate(cells):
            share1 |= holds[o]
            for o2 in cells[k + 1:]:
                share2 |= holds[o] & holds[o2]
        once.append(share1 & ~share2 & ~(1 << last - ci))
    below = [(1 << p) - 1 for p in range(last + 2)]  # the bits below bit p
    avoid = [below[-1] ^ h for h in holds]  # o -> the contexts without o
    found = array("H")
    limit = math.inf if budget is None else budget

    def place() -> int:
        # the nodes counted: all of them, or limit + 1 at the cut
        nodes = 0
        for ai, ((o1, o2, o3, o4), a, _) in enumerate(contexts):
            nodes += 1
            if nodes > limit:
                return nodes
            meet_a = once[ai] & below[last - ai]  # later, meeting a once
            bs, h2, h3 = (holds[o] & meet_a for o in (o1, o2, o3))
            top, off = 1 << o4, ~a
            while bs:
                p = bs.bit_length() - 1
                bs &= below[p]
                nodes += 1
                if nodes > limit:
                    return nodes
                b = last - p
                mb = contexts[b][1]
                cs, ds_b = h2 & once[b], h3 & once[b]
                while cs:
                    p = cs.bit_length() - 1
                    cs &= below[p]
                    nodes += 1
                    if nodes > limit:
                        return nodes
                    c = last - p
                    mc = contexts[c][1]
                    ds = ds_b & once[c] & avoid[(mb & mc).bit_length() - 1]
                    mbc = mb ^ mc
                    while ds:
                        p = ds.bit_length() - 1
                        ds &= below[p]
                        nodes += 1
                        if nodes > limit:
                            return nodes
                        d = last - p
                        e = at.get(top | (mbc ^ contexts[d][1]) & off)
                        if e is not None:
                            found.extend((ai, b, c, d, e))
        return nodes

    complete = place() <= limit
    sets = np.frombuffer(found, dtype=np.uint16).reshape(-1, 5)
    sets.sort(axis=1)
    sets.flags.writeable = False
    return sets, complete


@dataclass(frozen=True)
class SearchOutcome:
    """A search's results and whether it ran to the end of its tree.

    ``results`` is a read-only sequence of configurations: ``len``, an int
    index, a slice and iteration.  A pentagram search keeps compact rows
    and builds each configuration as it is read (see ``_ResultRows``), so
    a caller that reads them one at a time never holds them all.
    """

    results: Sequence[Configuration]
    complete: bool


class _ResultRows(Sequence):
    """Search results kept as compact rows, each built as it is read.

    Row i is result i's observables, as indices into ``words``, in the
    places of ``template``: one validated configuration, whose placeholder
    observables a read replaces with the row's through
    ``_with_observables``.  An int index or iteration builds
    configurations; a slice is a view of the same kind, so the results are
    never all held as objects at once.

    ``verify_each`` keys each context of a row as one int64, its ids as
    digits in base ``len(words)``, so a table is refused, with a
    ``ValueError``, unless its template's contexts have one size and such
    a key fits.
    """

    __slots__ = ("_words", "_template", "_observables")

    def __init__(self, words, template, observables):
        sizes = {len(ctx) for ctx in template.contexts}
        if len(sizes) != 1:
            raise ValueError(f"template contexts of sizes {sorted(sizes)}: "
                             "rows are keyed by one context size")
        if len(words) ** sizes.pop() >= 2 ** 63:
            raise ValueError(f"{len(words)} words: a context's key would not "
                             "fit int64")
        self._words, self._template = words, template
        self._observables = observables

    def __len__(self) -> int:
        return len(self._observables)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _ResultRows(self._words, self._template,
                               self._observables[i])
        return self._build(self._observables[operator.index(i)].tolist())

    def __iter__(self):
        for start in range(0, len(self), 1024):  # listed 1024 rows at a time
            for row in self._observables[start:start + 1024].tolist():
                yield self._build(row)

    def _build(self, row: list[int]) -> Configuration:
        return self._template._with_observables(
            tuple(map(self._words.__getitem__, row)))


_SQUARE_MASKS = [_mask(c) for c in _SQUARE_CONTEXTS]
_PENTAGRAM_MASKS = [_mask(c) for _, c in PENTAGRAM_EDGE_SLOTS]
# A search result's layout, the incidence of K5: observable k is where
# contexts p and q meet, (p, q) = _K5_PAIRS[k], so context v holds the
# observables of the pairs through v: (0, 1, 2, 3), (0, 4, 5, 6), ...
_K5_PAIRS = tuple(itertools.combinations(range(5), 2))
_K5_CONTEXTS = tuple(tuple(k for k, pair in enumerate(_K5_PAIRS) if v in pair)
                     for v in range(5))


def _magic_grids(words: list[PauliObservable]) -> list[tuple[int, ...]]:
    """Each magic 3x3 grid of contexts among `words` once, as indices into
    `words` in its least arrangement: found from its lowest context a, as
    its first row, with the later contexts through a's cells in turn as
    its columns.  The second row, through the first column's lowest cell
    off a, takes one cell off a from each column: it is looked up by mask
    among the 4 such, and the third row, the mask of the cells left, too.
    Both rows exist only if the columns meet a there alone and are
    disjoint, so the lookups enforce those rules.  Neither holds a's
    lowest cell, the grid's lowest, so both come after a.  The grids are
    decided once per pattern of their signs."""
    contexts = _contexts(words, 3)
    at, holds = _incidence(contexts)
    found = []  # each grid's rows, then its columns, as context indices
    for ai, ((o1, o2, o3), a, _) in enumerate(contexts):
        later = -(2 << ai)
        for c1 in _bits(holds[o1] & later):
            m1 = contexts[c1][1] & ~a  # a column's cells off a
            for c2 in _bits(holds[o2] & later):
                m2 = contexts[c2][1] & ~a
                for c3 in _bits(holds[o3] & later):
                    m3 = contexts[c3][1] & ~a
                    for q, r in itertools.product((m2 & -m2, m2 & m2 - 1),
                                                  (m3 & -m3, m3 & m3 - 1)):
                        row2 = m1 & -m1 | q | r
                        row3 = (m1 | m2 | m3) ^ row2
                        if row2 in at and row3 in at:
                            found.append((ai, at[row2], at[row3], c1, c2, c3))
    grids, colorable = [], {}  # colorable: by the signs of the 6 lines
    for grid in found:
        lines = [contexts[ci] for ci in grid]
        signs = tuple([sign for _, _, sign in lines])
        if signs not in colorable:
            colorable[signs] = _decide(_SQUARE_MASKS, signs, 9).colorable
        if not colorable[signs]:
            grids.append(tuple((row[1] & col[1]).bit_length() - 1
                               for row in lines[:3] for col in lines[3:]))
    return grids


# The 72 row/column permutations, with or without transposition, of a
# row-major 3x3 grid, each as the getter of its cells in their new order.
_GRID_TRANSFORMS = tuple(
    operator.itemgetter(*(mat[i][j] for i in rp for j in cp))
    for mat in (((0, 1, 2), (3, 4, 5), (6, 7, 8)),
                ((0, 3, 6), (1, 4, 7), (2, 5, 8)))
    for rp in itertools.permutations(range(3))
    for cp in itertools.permutations(range(3)))


def _grid_transforms(grid: tuple) -> list[tuple]:
    return [transform(grid) for transform in _GRID_TRANSFORMS]


def _grid_config(observables: tuple[PauliObservable, ...]) -> Configuration:
    return Configuration(2, observables, _SQUARE_CONTEXTS, "square",
                         _SQUARE_LABELS)


def search_squares() -> list[Configuration]:
    """Exhaustive two-qubit magic squares, deduplicated up to row/column
    permutation and transposition: 10, each in its least arrangement, in
    the order of those arrangements.

    The search is a constant of the two-qubit Pauli group, so it runs once
    per process, on the first call.  Every call returns a new list of the
    same frozen configurations.
    """
    return list(_squares())


@functools.lru_cache(maxsize=1)
def _squares() -> tuple[Configuration, ...]:
    """The 10 squares, sorted, each in the least arrangement it is found in."""
    words = all_words(2)  # sorted by word, so index order is word order
    return tuple([_grid_config(tuple([words[i] for i in g]))
                  for g in sorted(_magic_grids(words))])


def square_orbit_report(words: Sequence[str]) -> dict:
    """Magic arrangements of a fixed 9-observable set and their symmetry
    orbits: ``arrangements``, ``orbits`` and the ``orbit_sizes``, largest
    first.

    Reports are kept per process by ``tuple(words)``, the 8 most recently
    used, so a list and a tuple of the same words share one.  Every call returns
    a new dict with a new ``orbit_sizes`` list.  A bad word raises
    ``PauliError`` on every call: a refusal is never kept.
    """
    words = tuple(words)
    for w in words:  # an unhashable word could not key the memo
        if not isinstance(w, str):
            raise PauliError(f"bad Pauli word {w!r}")
    arrangements, sizes = _square_orbits(words)
    return {"arrangements": arrangements, "orbits": len(sizes),
            "orbit_sizes": list(sizes)}


@functools.lru_cache(maxsize=8)
def _square_orbits(words: tuple[str, ...]) -> tuple[int, tuple[int, ...]]:
    orbits = [set(_grid_transforms(g))
              for g in _magic_grids([PauliObservable(w) for w in words])]
    return (len(set().union(*orbits)),
            tuple(sorted(map(len, orbits), reverse=True)))


def search_pentagrams(budget: int | None = None) -> SearchOutcome:
    """Exhaustive three-qubit magic pentagrams: 5 contexts of 4 observables,
    any two sharing exactly one observable, no +-1 valuation.

    ``budget`` caps the number of search-tree nodes, one per context
    placed by ``_pentagram_sets`` (69201 in all); when it is hit the
    results found so far are returned with ``complete=False``.  The
    results come in the order the search finds them, so a cut search
    returns a prefix of the full one.

    The candidates arrive as ``_pentagram_sets``' read-only (k, 5) uint16
    table of context indices, each row in index order.  Any two of a
    candidate's 5 contexts share one observable, so its 10 observables are
    the 10 pairs of its contexts, as in the built-in: it is decided on
    ``_PENTAGRAM_MASKS`` with its own signs, once per sign pattern.  Each
    magic candidate becomes one compact row (see ``_ResultRows``) in the
    places of one template, the incidence of K5: observable k is the word
    its contexts p and q share, (p, q) the k-th of ``_K5_PAIRS``.
    """
    words = all_words(3)  # sorted by word, so index order is word order
    contexts = _contexts(words, 4)
    pents, complete = _pentagram_sets(contexts, budget)
    # one decision per sign pattern serves all candidates with it: bit j of
    # a candidate's byte is set when its j-th context has sign -1
    negative = np.array([sign < 0 for _, _, sign in contexts])
    pattern = np.packbits(negative[pents], axis=1, bitorder="little")[:, 0]
    magic = np.zeros(32, dtype=bool)  # sign pattern -> no valuation meets it
    for p in np.flatnonzero(np.bincount(pattern, minlength=32)).tolist():
        signs = [-1 if p >> v & 1 else 1 for v in range(5)]
        magic[p] = not _decide(_PENTAGRAM_MASKS, signs, 10).colorable
    pents = pents[magic[pattern]]
    del pattern
    # The meets, one column at a time: the masks of contexts p and q share
    # one bit, whose index, the count of the bits below it, is the word's
    # (< 63, so int8).
    masks = np.array([mask for _, mask, _ in contexts], dtype=np.uint64)
    observables = np.empty((len(pents), len(_K5_PAIRS)), dtype=np.int8)
    for k, (p, q) in enumerate(_K5_PAIRS):
        meet = masks[pents[:, p]]
        meet &= masks[pents[:, q]]
        meet -= 1
        observables[:, k] = np.bitwise_count(meet)
    template = Configuration(3, tuple(words[:10]), _K5_CONTEXTS, "pentagram")
    return SearchOutcome(_ResultRows(words, template, observables), complete)


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


def _field(data: dict, name: str, kind: type, what: str, *default):
    """data[name] (or the default), refused unless exactly of type kind:
    a bool or a float is no int, a string or an object no list."""
    value = data.get(name, *default) if default else data[name]
    if type(value) is not kind:
        raise ConfigError(f"bad configuration JSON: {name} = {value!r} "
                          f"is not {what}")
    return value


def config_from_json(text: str) -> Configuration:
    try:
        data = json.loads(text)
        if type(data) is not dict:
            raise ConfigError("bad configuration JSON: expected an object")
        n = _field(data, "n", int, "an integer")
        if n < 1:
            raise ConfigError(f"bad configuration JSON: n = {n!r} is not a "
                              "positive qubit count")
        words = _field(data, "observables", list, "a list")
        contexts = _field(data, "contexts", list, "a list")
        return Configuration(
            n,
            tuple(PauliObservable(w) for w in words),
            tuple(tuple(c) for c in contexts),
            _field(data, "geometry", str, "a string", "custom"))
    except (ConfigError, PauliError):
        raise
    except (KeyError, TypeError, ValueError) as e:  # ValueError: bad JSON
        raise ConfigError(f"bad configuration JSON: {e}") from e
