"""Brute-force ring and projective-line oracles on payload arithmetic.

``PayloadRing(ring)`` recomputes a ring's arithmetic from its construction
data alone: GF(p^k) as polynomials over the integers mod p reduced by its
modulus, F[x]/(f) as polynomials over ``PayloadRing(F)`` reduced by f, and
a product componentwise.  Its elements are payload labels listed in value
order, so the package's element i is the i-th of them.  Nothing here reads
``Ring.tables`` or the ring's table-backed ``add``/``mul``/``neg``: units
come from scanning
products, admissibility from scanning every determinant completion (c, d)
or every coefficient pair (s, t), and points from canonicalizing every
admissible pair.  The package computes the same answers on its index
tables, so the two share no code path below the element labels.
"""

import functools
import itertools

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


def oracle_det(ring: PayloadRing, a, b, c, d):
    return ring.sub(ring.mul(a, d), ring.mul(b, c))


def oracle_admissible(ring: PayloadRing, a, b, units=None) -> bool:
    """Some (c, d) completes (a, b) to a unit determinant ad - bc."""
    units = oracle_units(ring) if units is None else units
    ad = {ring.mul(a, d) for d in ring.elements()}
    bc = {ring.mul(b, c) for c in ring.elements()}
    return any(ring.sub(x, y) in units for x in ad for y in bc)


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


def oracle_canonicalize(ring: PayloadRing, a, b, units) -> tuple:
    """Least (u*a, u*b) over the units u, by element value."""
    return min(((ring.mul(u, a), ring.mul(u, b)) for u in units),
               key=lambda p: (ring.el_value(p[0]), ring.el_value(p[1])))


def oracle_line(ring) -> tuple[list[tuple], list[list[int]]]:
    """(sorted canonical points as payload pairs, relation as codes 0 equal,
    1 neighbour, 2 distant), canonicalizing every admissible pair of the
    ring's payloads."""
    ring = MemoRing(ring)
    units = oracle_units(ring)
    seen = {oracle_canonicalize(ring, a, b, units)
            for a, b in itertools.product(ring.elements(), repeat=2)
            if oracle_admissible(ring, a, b, units)}
    points = sorted(seen, key=lambda p: (ring.el_value(p[0]), ring.el_value(p[1])))
    relation = [[0 if p == q else 2 if oracle_det(ring, *p, *q) in units else 1
                 for q in points] for p in points]
    return points, relation
