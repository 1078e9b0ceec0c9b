"""Reference GF(2) routines for the tests: a separate elimination per
question, and brute-force spans.

``ref_solve``, ``ref_left_nullspace`` and ``ref_certificate`` are the
package's earlier solver, null-space basis and parity-certificate search:
the null space is found by transposing the rows bit by bit and eliminating
the columns, and the certificate is the first combination of null vectors,
by size then index, that is odd on the right-hand side.  ``span`` lists
every xor of a set of rows, for counting ranks without elimination.
"""

import itertools


def _parity(x):
    return bin(x).count("1") & 1


def span(rows):
    """Every xor of a subset of rows, as a set."""
    out = {0}
    for row in rows:
        out |= {s ^ row for s in out}
    return out


def brute_rank(rows):
    return len(span(rows)).bit_length() - 1


def ref_solve(rows, rhs):
    """One solution x of A x = b (free variables 0), or None."""
    piv = {}
    for mask, b in zip(rows, rhs):
        b &= 1
        while mask:
            p = mask.bit_length() - 1
            if p in piv:
                pm, pb = piv[p]
                mask ^= pm
                b ^= pb
            else:
                piv[p] = (mask, b)
                break
        if not mask and b:
            return None
    x = 0
    for p in sorted(piv):
        mask, b = piv[p]
        if b ^ _parity(mask & ~(1 << p) & x):
            x |= 1 << p
    return x


def _nullspace(rows, ncols):
    """Basis of {x : A x = 0}, eliminating the columns of A in order."""
    piv = {}
    basis = []
    for j in range(ncols):
        vec = 0
        for i, row in enumerate(rows):
            if row & (1 << j):
                vec |= 1 << i
        comb = 1 << j
        while vec:
            p = vec.bit_length() - 1
            if p in piv:
                pv, pc = piv[p]
                vec ^= pv
                comb ^= pc
            else:
                piv[p] = (vec, comb)
                break
        if not vec:
            basis.append(comb)
    return basis


def ref_left_nullspace(rows, ncols):
    """Basis of {y : y A = 0}: the null space of the transpose."""
    trows = []
    for j in range(ncols):
        r = 0
        for i, row in enumerate(rows):
            if row & (1 << j):
                r |= 1 << i
        trows.append(r)
    return _nullspace(trows, len(rows))


def ref_certificate(rows, rhs, ncols):
    """The first combination of left-null vectors odd on rhs, or None."""
    basis = ref_left_nullspace(rows, ncols)
    for r in range(1, len(basis) + 1):
        for combo in itertools.combinations(range(len(basis)), r):
            y = 0
            for i in combo:
                y ^= basis[i]
            if sum((y >> c) & 1 for c, b in enumerate(rhs) if b) % 2:
                return y
    return None
