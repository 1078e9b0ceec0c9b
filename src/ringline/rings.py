"""Small finite commutative rings with unity, built exactly.

A ring is one table-backed ``Ring``: integer ``add``/``mul`` index tables
(``Ring.tables``) plus one printed name per element.  An element is its
index, a plain int: every operation takes and returns indices, and index
order is value order.  Three constructors build rings:

  * ``GaloisField(p, k)`` -- GF(p^k), coefficient vectors modulo an
    irreducible polynomial (auto-selected lexicographically if not given);
  * ``QuotientRing(base_field, modulus)`` -- GF(q)[x]/(f) for an arbitrary
    monic f, the home of zero-divisors and nilpotents;
  * ``ProductRing(factors)`` -- direct products such as GF(2) x GF(2);

and ``quotient_by_radical`` builds R/J on the least coset representatives.
Each constructor validates its input and builds the tables by vectorized
digit arithmetic over its parts' tables; none defines element arithmetic.
Every operation, structural question (units, zero-divisors, radical,
homomorphism validity) and printed name is a table lookup, and a ring
homomorphism is an index array from one ring's tables into another's.
Admissibility, the local factors and the radical are all read from one
split of the ring into its local rings (``RingTables.local_units``).  The
oracles the tables are checked against live in the tests.  Ring sizes are
capped (default 256) and every answer is exact.

``build_ring`` reads a spec string such as ``"gf(2)[x]/(x^3-x)"`` into
canonical atoms and builds each ring it names once per process, in a
bounded memo keyed by those atoms and the size cap: every spelling of one
ring gives the same object, whose tables are therefore read-only.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

DEFAULT_SIZE_CAP = 256


class RingError(ValueError):
    """Bad ring specification or ill-formed ring operation."""


class MixedRingError(RingError):
    """Operands drawn from different rings."""


def _prime_power(q: int) -> tuple[int, int] | None:
    """(p, k) with p prime and p ** k == q, or None; p is prime iff this
    is (p, 1)."""
    if q < 2:
        return None
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    k = 0
    while q % p == 0:
        q, k = q // p, k + 1
    return (p, k) if q == 1 else None


def within_cap(q: int, k: int, size_cap: int) -> bool:
    """q ** k <= size_cap, never computing a huge power."""
    return q < 2 or (k <= size_cap.bit_length() and q ** k <= size_cap)


# ---------------------------------------------------------------------------
# choosing and validating a modulus over GF(p), coefficients little-endian


def _pmod(a, m, p):
    """a mod m over GF(p); a and m monic."""
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        shift = len(a) - 1 - dm
        for i in range(len(m)):
            a[shift + i] = (a[shift + i] - lead * m[i]) % p
        while a and a[-1] == 0:
            a.pop()
    return tuple(a)


def _poly_irreducible(m: tuple[int, ...], p: int) -> bool:
    """Brute-force divisor check: no monic divisor of degree 1..deg/2."""
    deg = len(m) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for coeffs in itertools.product(range(p), repeat=d):
            div = coeffs + (1,)
            if not _pmod(m, div, p):
                return False
    return True


def _lex_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically (by coefficient value) smallest monic irreducible."""
    for c in _digit_labels(range(p), k):  # in value order
        if _poly_irreducible(c + (1,), p):
            return c + (1,)
    raise RingError(f"no irreducible polynomial of degree {k} over GF({p})")


# ---------------------------------------------------------------------------
# table kernel


def _poly_tables(add, mul, neg, modulus: tuple[int, ...]):
    """add/mul tables of F[x]/(f) from F's index tables (index 0 is zero).

    ``modulus`` holds the monic f's coefficients as F indices, little-endian.
    Element v of the quotient has the base-|F| digits of v as the indices of
    its coefficients, little-endian.  a * b is the sum over j of b_j times
    a * x^j, built in d multiply-by-x passes.
    """
    q, d = len(neg), len(modulus) - 1
    weights = q ** np.arange(d)
    digits = (np.arange(q ** d)[:, None] // weights) % q
    sums = add[digits[:, None, :], digits[None, :, :]] @ weights
    scaled = mul[:, digits] @ weights  # scaled[c, v] = c * v
    low = neg[list(modulus[:-1])] @ weights  # x^d = -(f - x^d)
    times_x = sums[digits[:, :-1] @ weights[1:], scaled[digits[:, -1], low]]
    prod, power = np.zeros_like(sums), np.arange(q ** d)  # power = a * x^j
    for j in range(d):
        prod = sums[prod, scaled[digits[None, :, j], power[:, None]]]
        power = times_x[power]
    return sums, prod


def _digit_labels(coeffs: list, d: int) -> list[tuple]:
    """Length-d little-endian tuples over ``coeffs`` in the order of
    ``_poly_tables``: the first slot varies fastest."""
    return [c[::-1] for c in itertools.product(coeffs, repeat=d)]


class RingTables:
    """A ring in index form on the elements 0..n-1.

    ``add`` and ``mul`` are n x n index tables, ``neg`` the additive
    inverses, ``unit`` the unit mask; ``zero`` and ``one`` are the indices
    of the two identities.  ``build_ring`` shares one ring among all its
    callers, so every array here is read-only.
    """

    def __init__(self, add: np.ndarray, mul: np.ndarray):
        self.n = len(add)
        self.add, self.mul = add, mul
        identity = np.arange(self.n)
        self.zero = int(np.argmax((add == identity).all(axis=1)))
        self.one = int(np.argmax((mul == identity).all(axis=1)))
        self.neg = np.argmax(add == self.zero, axis=1)
        self.unit = (mul == self.one).any(axis=1)
        for table in (self.add, self.mul, self.neg, self.unit):
            table.flags.writeable = False

    def orbit_codes(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per pair of indices (a[i], b[i]), the least code u*a * n + u*b
        over the units u: the code of the lexicographically least pair of
        its unit orbit.  One unit at a time keeps the temporaries at the
        size of a."""
        best = None
        for u in np.flatnonzero(self.unit):
            code = self.mul[u, a] * self.n + self.mul[u, b]
            best = code if best is None else np.minimum(best, code)
        return best

    @cached_property
    def unit_difference(self) -> np.ndarray:
        """n x n read-only mask: [x, y] is True iff x - y is a unit."""
        mask = self.unit[self.add[:, self.neg]]
        mask.flags.writeable = False
        return mask

    @cached_property
    def line_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The points of the ring's projective line as two read-only index
        arrays (a, b): the least pair of each unit orbit of unimodular
        pairs, in ascending order of a * n + b."""
        a, b = np.nonzero(self.unimodular)  # row-major: a*n + b ascends
        least = self.orbit_codes(a, b) == a * self.n + b
        a, b = a[least], b[least]
        a.flags.writeable = b.flags.writeable = False
        return a, b

    @cached_property
    def local_units(self) -> tuple[tuple[int, np.ndarray], ...]:
        """The ring as the product of its local rings eR: one pair (e,
        units) per primitive idempotent e (0 and e are the only idempotents
        f with ef = f), in index order, units[a] being True iff ea is a
        unit of eR, i.e. iff ea + 1 - e is a unit of the ring; read-only."""
        idempotents = np.flatnonzero(self.mul.diagonal() == np.arange(self.n))
        below = self.mul[idempotents[:, None], idempotents] == idempotents
        primitive = idempotents[below.sum(axis=1) == 2]
        one_minus = self.add[self.one, self.neg[primitive]]
        units = self.unit[self.add[self.mul[primitive], one_minus[:, None]]]
        units.flags.writeable = False
        return tuple(zip(primitive.tolist(), units))

    @cached_property
    def local_factors(self) -> tuple[tuple[int, int], ...]:
        """(|eR|, |J(eR)|) for each primitive idempotent e: eR is the set
        of a with ea = a, and J(eR) its non-units."""
        factors = []
        for e, units in self.local_units:
            local = self.mul[e] == np.arange(self.n)
            factors.append((int(local.sum()), int((local & ~units).sum())))
        return tuple(factors)

    @cached_property
    def unimodular(self) -> np.ndarray:
        """n x n read-only mask of the pairs (a, b) with aR + bR = R: those
        with ea or eb a unit of eR in every local factor eR."""
        mask = np.ones((self.n, self.n), dtype=bool)
        for _, units in self.local_units:
            mask &= units[:, None] | units[None, :]
        mask.flags.writeable = False
        return mask


# ---------------------------------------------------------------------------
# rings


class Ring:
    """A finite commutative ring whose elements are the indices 0..size-1.

    ``names`` are the elements' printed forms in index order (distinct,
    without spaces), ``add``/``mul`` the index tables.
    """

    def __init__(self, spec_key: tuple, spec_text: str, names: list[str],
                 add: np.ndarray, mul: np.ndarray):
        self.spec_key = spec_key
        self._hash = hash(spec_key)  # points hash their ring on every lookup
        self._spec_text = spec_text
        self.tables = RingTables(add, mul)
        self.size = self.tables.n
        self.zero, self.one = self.tables.zero, self.tables.one
        self.names = names
        self._by_name = {name: i for i, name in enumerate(names)}
        # projline's catalog of this ring's line, built on first use and
        # kept here, so that it lives and dies with the ring
        self._line = None

    def __eq__(self, other):
        return isinstance(other, Ring) and self.spec_key == other.spec_key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<Ring {self.spec_str()} ({self.size} elements)>"

    def spec_str(self) -> str:
        return self._spec_text

    def elements(self) -> list[int]:
        return list(range(self.size))

    def element(self, a) -> int:
        """a as an element index; RingError unless 0 <= a < size (indexing
        would wrap a negative index or raise IndexError past the end)."""
        try:
            i = operator.index(a)
        except TypeError:
            raise RingError(f"element index {a!r} is not an integer") from None
        if not 0 <= i < self.size:
            raise RingError(f"element index {i} out of range 0..{self.size - 1}"
                            f" in {self.spec_str()}")
        return i

    def add(self, a: int, b: int) -> int:
        return int(self.tables.add[self.element(a), self.element(b)])

    def mul(self, a: int, b: int) -> int:
        return int(self.tables.mul[self.element(a), self.element(b)])

    def neg(self, a: int) -> int:
        return int(self.tables.neg[self.element(a)])

    def el_str(self, a: int) -> str:
        return self.names[self.element(a)]

    def element_from_str(self, s: str) -> int:
        """Look an element up by its printed form (whitespace-insensitive)."""
        try:
            return self._by_name[s.replace(" ", "")]
        except KeyError:
            raise RingError(f"no element {s!r} in {self.spec_str()}") from None

    def classify(self, a: int) -> tuple[str, int | None]:
        """('zero', None) | ('unit', inverse) | ('zero-divisor', annihilator).

        The annihilator is the least nonzero one; the three classes
        partition any finite commutative ring.
        """
        t = self.tables
        a = self.element(a)
        if a == t.zero:
            return ("zero", None)
        row = t.mul[a]
        if t.unit[a]:
            return ("unit", int(np.argmax(row == t.one)))
        ann = np.flatnonzero(row == t.zero)
        ann = ann[ann != t.zero]
        if not len(ann):
            raise AssertionError("finite commutative ring trichotomy violated")
        return ("zero-divisor", int(ann[0]))

    def units(self) -> list[int]:
        return np.flatnonzero(self.tables.unit).tolist()

    def zero_divisors(self) -> list[int]:
        t = self.tables
        return [i for i in np.flatnonzero(~t.unit).tolist() if i != t.zero]


class GaloisField(Ring):
    """GF(p^k); element v is the polynomial whose little-endian
    coefficients are the base-p digits of v."""

    def __init__(self, p: int, k: int = 1, modulus: tuple[int, ...] | None = None,
                 size_cap: int = DEFAULT_SIZE_CAP):
        if k < 1:
            raise RingError("extension degree must be >= 1")
        if not within_cap(p, k, size_cap):  # before trial division up to sqrt p
            raise RingError(f"GF({p}^{k}) exceeds size cap {size_cap}")
        if _prime_power(p) != (p, 1):
            raise RingError(f"{p} is not prime")
        if k == 1:
            modulus = (0, 1)  # x; unused
        elif modulus is None:
            modulus = _lex_irreducible(p, k)
        else:
            if len(modulus) - 1 != k or modulus[-1] != 1:
                raise RingError("modulus must be monic of degree k")
            if not _poly_irreducible(modulus, p):
                raise RingError("modulus is reducible; not a field")
        self.p, self.k, self.modulus = p, k, modulus
        r = np.arange(p)
        add, mul = np.add.outer(r, r) % p, np.multiply.outer(r, r) % p
        if k > 1:
            add, mul = _poly_tables(add, mul, -r % p, modulus)
        digits = [str(v) for v in range(p)]
        names = [poly_str(a, digits) for a in _digit_labels(range(p), k)]
        super().__init__(("gf", p, k, modulus),
                         f"gf({p})" if k == 1 else f"gf({p}^{k})",
                         names, add, mul)


def poly_str(c: tuple[int, ...], names: list[str]) -> str:
    """The polynomial with little-endian coefficient indices c, printed with
    ``names[v]`` for coefficient v; index 0 is zero and 1 is one, as in
    every GF(p^k)."""
    terms = []
    for i in range(len(c) - 1, -1, -1):
        v = c[i]
        if v == 0:
            continue
        if i == 0:
            terms.append(names[v])
        else:
            xs = "x" if i == 1 else f"x^{i}"
            terms.append(xs if v == 1 else f"{names[v]}*{xs}")
    return "+".join(terms) if terms else "0"


class QuotientRing(Ring):
    """F[x]/(f) for a field F and monic f, given as little-endian F indices;
    element v is the polynomial whose little-endian coefficients are the
    F elements of the base-|F| digits of v."""

    def __init__(self, base: GaloisField, modulus: tuple[int, ...],
                 size_cap: int = DEFAULT_SIZE_CAP):
        if not isinstance(base, GaloisField):
            raise RingError("quotient base must be a Galois field")
        modulus = tuple(modulus)
        if len(modulus) < 2:
            raise RingError("modulus must have degree >= 1")
        if not all(0 <= c < base.size for c in modulus):
            raise RingError("modulus coefficients must be base-field indices")
        if modulus[-1] != base.one:
            raise RingError("modulus must be monic")
        self.base = base
        self.modulus = modulus
        self.deg = len(modulus) - 1
        if not within_cap(base.size, self.deg, size_cap):
            raise RingError(f"quotient ring exceeds size cap {size_cap}")
        F = base.tables
        add, mul = _poly_tables(F.add, F.mul, F.neg, modulus)
        coeffs = base.names if base.k == 1 else [f"({n})" for n in base.names]
        names = [poly_str(a, coeffs)
                 for a in _digit_labels(range(base.size), self.deg)]
        mod = poly_str(modulus, [str(v) for v in range(base.size)])
        super().__init__(("quot", base.spec_key, modulus),
                         f"{base.spec_str()}[x]/({mod})", names, add, mul)


class ProductRing(Ring):
    """Direct product; element indices are the factors' indices in mixed
    radix with the first factor most significant."""

    def __init__(self, factors: list[Ring], size_cap: int = DEFAULT_SIZE_CAP):
        if len(factors) < 2:
            raise RingError("product needs at least two factors")
        self.factors = tuple(factors)
        size = reduce(lambda a, b: a * b, (f.size for f in factors))
        if size > size_cap:
            raise RingError(f"product ring exceeds size cap {size_cap}")
        idx = np.arange(size)
        add = np.zeros((size, size), dtype=np.intp)
        mul = np.zeros_like(add)
        stride = size
        for f in factors:
            stride //= f.size
            d = (idx // stride) % f.size
            add += f.tables.add[d[:, None], d[None, :]] * stride
            mul += f.tables.mul[d[:, None], d[None, :]] * stride
        names = ["(" + ",".join(n) + ")"
                 for n in itertools.product(*[f.names for f in factors])]
        super().__init__(("prod",) + tuple(f.spec_key for f in factors),
                         "x".join(f.spec_str() for f in factors),
                         names, add, mul)


# ---------------------------------------------------------------------------
# spec-string parser (case and spaces are ignored)
#
# ring := atom ('x' atom)*
# atom := 'gf(' q ['^' k] ')' ['[x]/(' poly ')']
# poly := one or more terms, each after any run of '+'/'-' signs
# term := c ['*'] | [c ['*']] 'x' ['^' e]
#
# q is a prime, or a prime power when '^k' is absent.  A sign holds until the
# next sign (x^2-x1 is x^2 - x - 1), a trailing sign is ignored, like terms
# add up mod p, and the modulus must be monic of degree >= 1.

_ATOM = re.compile(r"gf\((\d+)(?:\^(\d+))?\)(?:\[x\]/\(([^)]*)(\)?))?(x(?=gf\())?")
_TERM = re.compile(r"([+-]*)(?:(\d+)\*?)?(x(?:\^(\d+))?)?")


def build_ring(spec_text: str, size_cap: int = DEFAULT_SIZE_CAP) -> Ring:
    """The ring a spec string names.  Every spelling of one ring gives the
    same object while it stays in the memo, so its tables and admissibility
    mask are built once per process."""
    return _interned(_parse_spec(spec_text, size_cap), size_cap)


def _parse_spec(spec_text: str, size_cap: int) -> tuple:
    """The spec's canonical atoms ``(p, k, modulus or None)`` of GF(p^k)
    and of GF(p^k)[x]/(f), f's little-endian coefficients reduced mod p,
    and nothing built.  Each atom is refused here if it is malformed or
    over the size cap, before any factor is built; the modulus degree and
    the size of a product are left to ``QuotientRing`` and
    ``ProductRing``."""
    text = spec_text.lower().replace(" ", "")

    def fail(msg):
        raise RingError(f"cannot parse ring spec {spec_text!r}: {msg}")

    def num(digits):
        try:
            return int(digits)
        except ValueError:  # past Python's limit on digits in an int string
            fail(f"number too long ({len(digits)} digits)")

    def terms(poly):  # {exponent: integer coefficient}
        coeffs, sign, pos = {}, 1, 0
        while pos < len(poly):
            signs, c, xs, e = (m := _TERM.match(poly, pos)).groups()
            if signs:
                sign = -1 if signs[-1] == "-" else 1
            if c is None and xs is None:  # no term: only signs may end poly
                if m.end() < len(poly):
                    fail(f"unexpected {poly[m.end()]!r} in modulus")
                break
            exp = (num(e) if e else 1) if xs else 0
            coeffs[exp] = coeffs.get(exp, 0) + sign * (num(c) if c else 1)
            pos = m.end()
        return coeffs or fail("empty modulus polynomial")

    atoms, pos, more = [], 0, True
    while more:  # an 'x' separator promises one more atom
        if not (m := _ATOM.match(text, pos)):
            fail(f"expected an atom gf(...) at position {pos}")
        poly = terms(m[3]) if m[4] else None
        atoms.append((num(m[1]), num(m[2] or "1"), poly))
        if m[4] == "":  # the modulus runs to the end of the spec
            fail(f"missing ')' at position {len(text)} to close the modulus "
                 f"opened at position {m.start(3) - 1}")
        pos, more = m.end(), m[5]
    if pos < len(text):
        fail(f"unexpected input at position {pos}")
    canonical = []
    for q, k, coeffs in atoms:
        if q > size_cap or not within_cap(q, k, size_cap):
            raise RingError(f"GF({q}^{k}) exceeds size cap {size_cap}")
        if not (pk := _prime_power(q)) or (k != 1 and pk[1] != 1):
            fail(f"{q} is not {'a prime power' if k == 1 else 'prime'}")
        p, k = pk[0], pk[1] * k
        if k < 1:
            raise RingError("extension degree must be >= 1")
        f = None
        if coeffs is not None:
            if not within_cap(p ** k, deg := max(coeffs), size_cap):
                raise RingError(f"quotient ring exceeds size cap {size_cap}")
            # integer c mod p lifts to c * 1, the element of index c
            f = tuple(coeffs.get(i, 0) % p for i in range(deg + 1))
            if f[-1] != 1:
                fail("modulus must be monic")
        canonical.append((p, k, f))
    return tuple(canonical)


@functools.lru_cache(maxsize=32)
def _interned(atoms: tuple, size_cap: int) -> Ring:
    """The ring of ``_parse_spec``'s atoms; factors and base fields come
    through this memo too, so a new product or quotient reuses them."""
    if len(atoms) > 1:
        return ProductRing([_interned((a,), size_cap) for a in atoms],
                           size_cap=size_cap)
    (p, k, modulus), = atoms
    if modulus is None:
        return GaloisField(p, k, size_cap=size_cap)
    return QuotientRing(_interned(((p, k, None),), size_cap), modulus,
                        size_cap=size_cap)


# ---------------------------------------------------------------------------
# homomorphisms, radical, quotient


@dataclass(frozen=True, eq=False)
class RingHomomorphism:
    """A map of rings as an index array: ``img[i]`` is the target index of
    source element i.  ``img`` is kept as a read-only intp copy; equality
    and hashing are by identity (``eq=False``), since an array compares
    elementwise."""
    source: Ring
    target: Ring
    img: np.ndarray

    def __post_init__(self):
        img = np.array(self.img, dtype=np.intp)
        img.flags.writeable = False
        object.__setattr__(self, "img", img)

    def __call__(self, a: int) -> int:
        return int(self.img[a])

    def kernel(self) -> set[int]:
        return set(np.flatnonzero(self.img == self.target.zero).tolist())

    def compose(self, inner: "RingHomomorphism") -> "RingHomomorphism":
        """self o inner (inner applied first)."""
        if inner.target != self.source:
            raise MixedRingError("composition rings do not match")
        return RingHomomorphism(inner.source, self.target, self.img[inner.img])


def _is_hom(R: RingTables, S: RingTables, img: np.ndarray) -> bool:
    """img (R index -> S index) preserves 0, 1, + and *."""
    pair = (img[:, None], img[None, :])
    # a numpy comparison is a numpy bool: bool() keeps the answer plain
    return bool(img[R.zero] == S.zero and img[R.one] == S.one
                and np.array_equal(img[R.add], S.add[pair])
                and np.array_equal(img[R.mul], S.mul[pair]))


def validate_hom(h: RingHomomorphism) -> bool:
    """Exhaustive check, on the tables: preserves 0, 1, + and *."""
    R, S, img = h.source.tables, h.target.tables, h.img
    if img.shape != (R.n,) or img.min() < 0 or img.max() >= S.n:
        return False
    return _is_hom(R, S, img)


def jacobson_radical(ring: Ring) -> list[int]:
    """The Jacobson radical, in a finite commutative ring its nilpotent
    elements: the a with ea a non-unit of eR in every local factor eR."""
    radical = np.ones(ring.size, dtype=bool)
    for _, units in ring.tables.local_units:
        radical &= ~units
    return np.flatnonzero(radical).tolist()


def quotient_by_radical(ring: Ring) -> tuple[Ring, RingHomomorphism]:
    """Quotient ring on lexicographically minimal coset reps + surjection."""
    t = ring.tables
    J = jacobson_radical(ring)
    rep = t.add[:, J].min(axis=1)  # least member of a + J; index order is value order
    reps = np.flatnonzero(rep == np.arange(t.n))
    coset_of = np.searchsorted(reps, rep)
    block = np.ix_(reps, reps)
    q = Ring(("coset", ring.spec_key, tuple(J)),
             f"({ring.spec_str()})/J", [ring.names[r] for r in reps],
             coset_of[t.add[block]], coset_of[t.mul[block]])
    hom = RingHomomorphism(ring, q, coset_of)
    assert ring.size % len(J) == 0 and q.size == ring.size // len(J)
    return q, hom


def find_isomorphism(A: Ring, B: Ring) -> RingHomomorphism | None:
    """Exhaustive ring-isomorphism search (intended for tiny rings only)."""
    if A.size != B.size:
        return None
    if A.size > 16:
        raise RingError("isomorphism search is exhaustive; ring too large")
    R, S = A.tables, B.tables
    a_idx = [i for i in range(R.n) if i not in (R.zero, R.one)]
    b_idx = [j for j in range(S.n) if j not in (S.zero, S.one)]
    img = np.empty(R.n, dtype=np.intp)
    img[R.zero], img[R.one] = S.zero, S.one
    for perm in itertools.permutations(b_idx):
        img[a_idx] = perm
        if _is_hom(R, S, img):
            return RingHomomorphism(A, B, img)
    return None
