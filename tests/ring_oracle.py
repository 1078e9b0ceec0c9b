"""Brute-force ring and projective-line oracles on payload arithmetic.

``PayloadRing(ring)`` recomputes a ring's arithmetic from its construction
data alone: GF(p^k) as polynomials over the integers mod p reduced by its
modulus, F[x]/(f) as polynomials over ``PayloadRing(F)`` reduced by f, and
a product componentwise.  Its elements are payload labels listed in value
order, so the package's element i is the i-th of them.  Nothing here but
the two table oracles at the end reads ``Ring.tables`` or the ring's
table-backed ``add``/``mul``/``neg``: units come from scanning products,
admissibility from scanning every determinant completion (c, d) or every
coefficient pair (s, t), and points from listing the unit orbit of every
admissible pair.  The package computes the same answers on its index
tables, so the two share no code path below the element labels.

The table oracles ``ideal_unimodular`` and ``nilpotents`` read the index
tables but not the ring's split into local rings, which the package reads
admissibility and the radical from: they decide the whole admissibility
mask per pair of principal ideals and the radical by iterated squaring.
"""

import functools
import itertools

import numpy as np

from ringline.rings import GaloisField, ProductRing, QuotientRing


class IntegersMod:
    """Z/p on plain ints: the coefficients of GF(p^k)."""

    def __init__(self, p):
        self.p, self.size, self.zero, self.one = p, p, 0, 1

    def elements(self):
        return list(range(self.p))

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def el_value(self, a):
        return a


class PayloadRing:
    """A ring's payload arithmetic from its construction data only."""

    def __init__(self, ring):
        self.factors = None
        if isinstance(ring, ProductRing):
            self.factors = [MemoRing(f) for f in ring.factors]
            self.zero = tuple(f.zero for f in self.factors)
            self.one = tuple(f.one for f in self.factors)
            self._elements = list(itertools.product(
                *[f.elements() for f in self.factors]))
        else:
            if isinstance(ring, QuotientRing):  # modulus as base indices
                self.coeff = MemoRing(ring.base)
                base_els = self.coeff.elements()
                self.modulus = tuple(base_els[c] for c in ring.modulus)
            elif isinstance(ring, GaloisField):  # GF(p) has modulus x
                self.coeff = IntegersMod(ring.p)
                self.modulus = ring.modulus
            else:
                raise TypeError(f"no construction data for {ring!r}")
            d = len(self.modulus) - 1
            C = self.coeff
            self.zero = (C.zero,) * d
            self.one = (C.one,) + (C.zero,) * (d - 1)
            self._elements = sorted(itertools.product(C.elements(), repeat=d),
                                    key=self.el_value)
        self.size = len(self._elements)

    def elements(self):
        """All elements, in value order."""
        return list(self._elements)

    def el_value(self, a):
        """Lexicographic in the coefficients, the highest power most
        significant; products compare factor by factor."""
        if self.factors:
            return tuple(f.el_value(x) for f, x in zip(self.factors, a))
        C = self.coeff
        return sum(C.el_value(c) * C.size ** i for i, c in enumerate(a))

    def add(self, a, b):
        parts = self.factors or itertools.repeat(self.coeff)
        return tuple(f.add(x, y) for f, x, y in zip(parts, a, b))

    def neg(self, a):
        parts = self.factors or itertools.repeat(self.coeff)
        return tuple(f.neg(x) for f, x in zip(parts, a))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.factors:
            return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))
        C, f = self.coeff, self.modulus
        d = len(f) - 1
        out = [C.zero] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai != C.zero:
                for j, bj in enumerate(b):
                    out[i + j] = C.add(out[i + j], C.mul(ai, bj))
        for top in range(2 * d - 2, d - 1, -1):  # subtract lead * x^(top-d) * f
            lead = out[top]
            if lead != C.zero:
                for i in range(d + 1):
                    out[top - d + i] = C.sub(out[top - d + i], C.mul(lead, f[i]))
        return tuple(out[:d])


class MemoRing(PayloadRing):
    """PayloadRing with every add/mul/neg/sub and el_value result memoized."""

    def __init__(self, ring):
        super().__init__(ring)
        for op in ("add", "mul", "neg", "sub", "el_value"):
            setattr(self, op, functools.lru_cache(maxsize=None)(getattr(self, op)))


def oracle_units(ring: PayloadRing) -> frozenset:
    els = ring.elements()
    return frozenset(a for a in els if any(ring.mul(a, b) == ring.one for b in els))


def oracle_unimodular(ring: PayloadRing, a, b) -> bool:
    """1 in the ideal (a, b), by brute force over coefficient pairs."""
    for s in ring.elements():
        for t in ring.elements():
            if ring.add(ring.mul(a, s), ring.mul(b, t)) == ring.one:
                return True
    return False


def is_admissible_componentwise(ring: ProductRing, a, b) -> bool:
    """Product-ring cross-oracle: admissible iff unimodular in every factor."""
    return all(oracle_unimodular(PayloadRing(f), x, y)
               for f, x, y in zip(ring.factors, a, b))


def oracle_line(ring) -> tuple[list[tuple], list[list[int]]]:
    """(sorted canonical points as payload pairs, relation as codes 0 equal,
    1 neighbour, 2 distant), on the positions of the payloads in value
    order.  Each product is computed once per unordered pair, the rings
    being commutative, and gives the principal ideals aR; a is a unit iff
    1 is in aR.  A pair (a, b) is admissible when some (c, d) makes
    ad - bc a unit, i.e. some x in aR and y in bR have x - y a unit; that
    is scanned once per pair of principal ideals.  Each admissible pair's
    unit orbit is listed once, and its least pair is a point."""
    ring = PayloadRing(ring)
    els = ring.elements()
    at = {a: i for i, a in enumerate(els)}
    n = len(els)
    mul = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            mul[i][j] = mul[j][i] = at[ring.mul(els[i], els[j])]
    ideal = [frozenset(row) for row in mul]
    unit = [at[ring.one] in aR for aR in ideal]

    @functools.cache
    def sub(x, y):
        return at[ring.sub(els[x], els[y])]

    @functools.cache
    def admissible(aR, bR):
        return any(unit[sub(x, y)] for x in aR for y in bR)

    points, seen = [], set()
    for a, b in itertools.product(range(n), repeat=2):
        if (a, b) not in seen and admissible(ideal[a], ideal[b]):
            orbit = {(mul[u][a], mul[u][b]) for u in range(n) if unit[u]}
            seen |= orbit
            points.append(min(orbit))
    points.sort()
    relation = [[0] * len(points) for _ in points]
    for i, j in itertools.combinations(range(len(points)), 2):
        (a, b), (c, d) = points[i], points[j]
        relation[i][j] = relation[j][i] = 2 if unit[sub(mul[a][d],
                                                        mul[b][c])] else 1
    return [(els[a], els[b]) for a, b in points], relation


def ideal_unimodular(t) -> np.ndarray:
    """n x n mask of the pairs (a, b) with aR + bR = R, on ``RingTables``
    t, decided once per pair of distinct principal ideals: 1 lies in
    I + J iff 1 - y lies in I for some y in J."""
    n = t.n
    member = np.zeros((n, n), dtype=bool)  # member[a, x]: x in aR
    member[np.arange(n)[:, None], t.mul] = True
    number = {}  # a membership row's bytes -> its ideal's number
    ideal_of = np.array([number.setdefault(row.tobytes(), len(number))
                         for row in member])
    # the dict keeps its keys in order of their numbers
    ideals = np.frombuffer(b"".join(number), dtype=bool).reshape(-1, n)
    one_minus = t.add[t.one, t.neg]
    comaximal = (ideals[:, one_minus].astype(np.int32)
                 @ ideals.T.astype(np.int32)) > 0
    return comaximal[ideal_of[:, None], ideal_of[None, :]]


def nilpotents(t) -> list[int]:
    """The nilpotent elements of ``RingTables`` t, the Jacobson radical of
    a finite commutative ring: a is nilpotent iff a^(2^k) = 0 for
    2^k > |R|, found by repeated table squaring."""
    power = np.arange(t.n)
    for _ in range(t.n.bit_length()):
        power = t.mul[power, power]
    return np.flatnonzero(power == t.zero).tolist()
