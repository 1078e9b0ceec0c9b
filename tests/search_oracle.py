"""Reference search routines for the tests: the package's earlier
exact cover, grid-transform generator, grid canonical form and batch
verifier, and the
sorted column masks of a system of contexts.

``ref_cover_twice`` is the exact cover both searches once ran on, branching
with ``min(..., key=int.bit_count)`` over a generator of set bits; it also
returns the number of tree nodes it placed.  It keeps the ``overlaps`` rule
the package's cover had when it also found the squares: with overlaps
{0, 1} it is the earlier square search's cover, and with {1} the earlier
pentagram search's; the package now finds both by direct searches, over
3x3 grids and over five contexts.  ``ref_grid_transforms`` rebuilds the
72 row/column permutations (with or without transposition) of a row-major
3x3 grid as nested tuples, where the package applies precomputed index
permutations.  ``ref_grid_canonical`` takes the least of those 72
arrangements, where the package builds it directly from the smallest cell.
``ref_verify_each`` re-verifies each configuration from its observables,
keying each context by their (n, x, z, phase) tuples, where the package
interns each word as a small int and reads search results as rows of those
ints.
"""

import itertools

from ringline import magic
from ringline.magic import ContextReport, VerificationReport
from ringline.pauli import PauliError, anticommuting_pair, scalar_sign


def _bits(mask):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def columns(masks, m):
    """The sorted column masks of the system whose context i holds the
    observables of bit mask masks[i], out of m: for each observable, the
    bitset of the contexts that hold it.

    Which sets of contexts XOR to zero depends on these alone, not on how
    the observables are numbered.  ``gf2.eliminate`` takes pivot rows
    greedily in row order, so its null combinations, and the first odd
    one that ``_decide`` returns as the certificate, are the same for
    every system with the same columns and signs: ``ref_verify_each``
    shares one certificate among them, where ``verify_each`` shares
    reports only among configurations of one template.
    """
    cols = [0] * m
    for ci, mask in enumerate(masks):
        for o in _bits(mask):
            cols[o] |= 1 << ci
    return tuple(sorted(cols))


def ref_cover_twice(contexts, c, overlaps, budget=None):
    """(found, complete, nodes), found in the order the search finds them."""
    masks = [m for _, m, _ in contexts]
    holds = {}
    for ci, m in enumerate(masks):
        for o in _bits(m):
            holds[o] = holds.get(o, 0) | 1 << ci
    everything = (1 << len(masks)) - 1
    compat = []
    for a, ma in enumerate(masks):
        members = list(_bits(ma))
        share1 = share2 = 0
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

    def extend(picked, once, allowed):
        nonlocal nodes
        if len(picked) == c:
            if not once:
                found.append(tuple(sorted(picked)))
            return True
        if picked and not once:
            return True
        options = (min((allowed & holds[o] for o in _bits(once)),
                       key=int.bit_count) if once else allowed)
        for ci in _bits(options):
            nodes += 1
            if budget is not None and nodes > budget:
                return False
            shut = 0
            for o in _bits(once & masks[ci]):
                shut |= holds[o]
            if not extend(picked + (ci,), once ^ masks[ci],
                          allowed & compat[ci] & ~shut):
                return False
            allowed &= ~(1 << ci)
        return True

    complete = extend((), 0, everything)
    return found, complete, nodes


def ref_grid_transforms(grid):
    rows = [grid[0:3], grid[3:6], grid[6:9]]
    for mat in (rows, [tuple(r[i] for r in rows) for i in range(3)]):
        for rp in itertools.permutations(range(3)):
            for cp in itertools.permutations(range(3)):
                yield tuple(mat[i][j] for i in rp for j in cp)


def ref_grid_canonical(grid):
    """The least of a grid's 72 arrangements, by taking the minimum over
    all of them, as the package once did."""
    return min(magic._grid_transforms(grid))


def ref_verify_each(configs):
    """The verification report of each configuration, in order; equal
    context reports are one object, and a certificate serves every
    configuration with the same sorted column masks and signs."""
    shapes = {}  # (geometry, count, contexts) -> (columns, shape errors)
    checked = {}  # context key -> (commuting, sign, note)
    made = {}  # (label, commuting, sign, note) -> the one ContextReport
    certified = {}  # (columns, signs) -> BksResult with a certificate
    for cfg in configs:
        observables, contexts = cfg.observables, cfg.contexts
        shape_key = (cfg.geometry, len(observables), contexts)
        shape = shapes.get(shape_key)
        if shape is None:
            shape = shapes[shape_key] = (
                columns([magic._mask(ctx) for ctx in contexts],
                        len(observables)),
                magic._shape_errors(*shape_key))
        cols, shape_errs = shape
        keys = [(o.n, o.x, o.z, o.phase) for o in observables]
        errs = tuple(magic._observable_errors(cfg.n, keys) + shape_errs)
        reports, signs = [], []
        for label, ctx in zip(cfg.context_labels, contexts):
            key = tuple([keys[i] for i in ctx])
            fields = (label, *_ref_context_check(checked, key, ctx,
                                                 observables))
            report = made.get(fields)
            if report is None:
                report = made[fields] = ContextReport(*fields)
            reports.append(report)
            signs.append(report.sign)
        bks = None
        if None not in signs:
            system = (cols, tuple(signs))
            bks = certified.get(system)
            if bks is None:
                bks = magic.bks_decide(cfg, signs)
                if not bks.colorable:
                    certified[system] = bks
        is_magic = not errs and bks is not None and not bks.colorable
        yield VerificationReport(tuple(reports), errs, is_magic, bks)


def _ref_context_check(checked, key, ctx, observables):
    check = checked.get(key)
    if check is not None:
        return check
    ops = [observables[i] for i in ctx]
    try:
        comm = anticommuting_pair(ops) is None
        note = "" if comm else "not pairwise commuting"
    except PauliError as e:
        comm, note = False, str(e)
    sign = None
    if comm:
        try:
            sign = scalar_sign(ops)
        except PauliError as e:
            note = str(e)
    check = checked[key] = (comm, sign, note)
    return check
