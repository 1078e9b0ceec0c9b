"""Small finite commutative rings with unity, built exactly.

Three constructors cover everything in scope:

  * ``GaloisField(p, k)`` -- GF(p^k), coefficient vectors modulo an
    irreducible polynomial (auto-selected lexicographically if not given);
  * ``QuotientRing(base_field, modulus)`` -- GF(q)[x]/(f) for an arbitrary
    monic f, the home of zero-divisors and nilpotents;
  * ``ProductRing(factors)`` -- direct products such as GF(2) x GF(2).

All elements are canonical immutable payloads (nested tuples of small
ints); equality of payloads is equality of elements.  The payload
arithmetic builds and prints elements.  Every structural question (units,
zero-divisors, radical, homomorphism validity) is answered from the ring's
``tables``: element i is the i-th element in ``el_value`` order, and integer
``add``/``mul`` tables over those indices are built once per ring, on first
use, by vectorized digit arithmetic (no payload call per pair).  Ring sizes
are capped (default 256) and every answer is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

DEFAULT_SIZE_CAP = 256


class RingError(ValueError):
    """Bad ring specification or ill-formed ring operation."""


class MixedRingError(RingError):
    """Operands drawn from different rings."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p), coefficients little-endian int tuples


def _ptrim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _padd(a, b, p):
    n = max(len(a), len(b))
    return _ptrim(tuple(((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                        for i in range(n)))


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(tuple(out))


def _pmod(a, m, p):
    """a mod m over GF(p); m monic."""
    a = list(_ptrim(a))
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
            div = tuple(coeffs) + (1,)
            if not _pmod(m, div, p):
                return False
    return True


def _lex_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically (by coefficient value) smallest monic irreducible."""
    best = None
    for value in range(p ** k):
        c = []
        v = value
        for _ in range(k):
            c.append(v % p)
            v //= p
        m = tuple(c) + (1,)
        if _poly_irreducible(m, p):
            best = m
            break
    if best is None:
        raise RingError(f"no irreducible polynomial of degree {k} over GF({p})")
    return best


def _poly_value(c: tuple[int, ...], p: int) -> int:
    return sum(ci * p ** i for i, ci in enumerate(c))


# ---------------------------------------------------------------------------
# table kernel


def _poly_tables(add, mul, neg, modulus: tuple[int, ...]):
    """add/mul tables of F[x]/(f) from F's index tables (index 0 is zero).

    ``modulus`` holds the monic f's coefficients as F indices, little-endian.
    Element v of the quotient has the base-|F| digits of v as the indices of
    its coefficients, little-endian, which is ``el_value`` order.
    """
    q, d = len(neg), len(modulus) - 1
    weights = q ** np.arange(d)
    digits = (np.arange(q ** d)[:, None] // weights) % q
    left, right = digits[:, None, :], digits[None, :, :]
    sums = add[left, right] @ weights
    coeff = [0] * (2 * d - 1)
    for i in range(d):
        for j in range(d):
            coeff[i + j] = add[coeff[i + j], mul[left[..., i], right[..., j]]]
    for top in range(2 * d - 2, d - 1, -1):  # subtract lead * x^(top-d) * f
        lead = coeff[top]
        for i in range(d):
            coeff[top - d + i] = add[coeff[top - d + i], neg[mul[lead, modulus[i]]]]
    return sums, sum(coeff[i] * weights[i] for i in range(d))


class RingTables:
    """A ring in index form: element i is ``els[i]``, in ``el_value`` order.

    ``add`` and ``mul`` are n x n index tables, ``neg`` the additive
    inverses, ``unit`` the unit mask; ``zero`` and ``one`` are indices and
    ``index`` maps payloads back to indices.
    """

    def __init__(self, ring: "Ring", add: np.ndarray, mul: np.ndarray):
        self.els = ring.sorted_elements()
        self.n = len(self.els)
        self.index = {a: i for i, a in enumerate(self.els)}
        self.add, self.mul = add, mul
        self.zero, self.one = self.index[ring.zero], self.index[ring.one]
        self.neg = np.argmax(add == self.zero, axis=1)
        self.unit = (mul == self.one).any(axis=1)

    @cached_property
    def unimodular(self) -> np.ndarray:
        """n x n mask of the pairs (a, b) with aR + bR = R.

        Decided once per pair of distinct principal ideals: 1 lies in
        I + J iff 1 - y lies in I for some y in J.
        """
        n = self.n
        member = np.zeros((n, n), dtype=bool)  # member[a, x]: x in aR
        member[np.arange(n)[:, None], self.mul] = True
        ideals, ideal_of = np.unique(member, axis=0, return_inverse=True)
        one_minus = self.add[self.one, self.neg]
        comaximal = (ideals[:, one_minus].astype(np.int32)
                     @ ideals.T.astype(np.int32)) > 0
        ideal_of = ideal_of.reshape(-1)
        return comaximal[ideal_of[:, None], ideal_of[None, :]]


# ---------------------------------------------------------------------------
# rings


class Ring:
    """Common interface: payload-level exact arithmetic plus element tables."""

    spec_key: tuple
    size: int

    # -- subclasses implement ------------------------------------------------
    def elements(self) -> list:
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    @property
    def zero(self):
        raise NotImplementedError

    @property
    def one(self):
        raise NotImplementedError

    def el_str(self, a) -> str:
        raise NotImplementedError

    def el_value(self, a):
        """Total-order key; lexicographic in the payload coefficients."""
        raise NotImplementedError

    def spec_str(self) -> str:
        raise NotImplementedError

    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(add, mul) index tables in ``sorted_elements`` order."""
        raise NotImplementedError

    # -- shared machinery ----------------------------------------------------
    def __eq__(self, other):
        return isinstance(other, Ring) and self.spec_key == other.spec_key

    def __hash__(self):
        return hash(self.spec_key)

    def __repr__(self):
        return f"<Ring {self.spec_str()} ({self.size} elements)>"

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def pow(self, a, e: int):
        if e < 0:
            raise RingError("negative exponents unsupported")
        out = self.one
        for _ in range(e):
            out = self.mul(out, a)
        return out

    def sorted_elements(self) -> list:
        return sorted(self.elements(), key=self.el_value)

    @cached_property
    def tables(self) -> RingTables:
        return RingTables(self, *self._tables())

    def classify(self, a) -> tuple[str, object | None]:
        """('zero', None) | ('unit', inverse) | ('zero-divisor', annihilator).

        The annihilator is the least nonzero one; the three classes
        partition any finite commutative ring.
        """
        t = self.tables
        i = t.index[a]
        if i == t.zero:
            return ("zero", None)
        row = t.mul[i]
        if t.unit[i]:
            return ("unit", t.els[np.argmax(row == t.one)])
        ann = np.flatnonzero(row == t.zero)
        ann = ann[ann != t.zero]
        if not len(ann):
            raise AssertionError("finite commutative ring trichotomy violated")
        return ("zero-divisor", t.els[ann[0]])

    def units(self) -> list:
        t = self.tables
        return [t.els[i] for i in np.flatnonzero(t.unit)]

    def zero_divisors(self) -> list:
        t = self.tables
        return [t.els[i] for i in np.flatnonzero(~t.unit) if i != t.zero]

    def is_unit(self, a) -> bool:
        t = self.tables
        return bool(t.unit[t.index[a]])

    def element_from_str(self, s: str):
        """Look an element up by its printed form (whitespace-insensitive)."""
        key = s.replace(" ", "")
        for a in self.elements():
            if self.el_str(a).replace(" ", "") == key:
                return a
        raise RingError(f"no element {s!r} in {self.spec_str()}")


class GaloisField(Ring):
    """GF(p^k); payload = little-endian coefficient tuple of length k."""

    def __init__(self, p: int, k: int = 1, modulus: tuple[int, ...] | None = None,
                 size_cap: int = DEFAULT_SIZE_CAP):
        if not is_prime(p):
            raise RingError(f"{p} is not prime")
        if k < 1:
            raise RingError("extension degree must be >= 1")
        if p ** k > size_cap:
            raise RingError(f"GF({p}^{k}) exceeds size cap {size_cap}")
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
        self.size = p ** k
        self.spec_key = ("gf", p, k, modulus)
        self._elements = [self._pad(c) for c in
                          (self._unrank(v) for v in range(self.size))]

    def _pad(self, c):
        return tuple(c) + (0,) * (self.k - len(c))

    def _unrank(self, v):
        out = []
        for _ in range(self.k):
            out.append(v % self.p)
            v //= self.p
        return tuple(out)

    def elements(self):
        return list(self._elements)

    def add(self, a, b):
        return self._pad(_padd(a, b, self.p))

    def mul(self, a, b):
        if self.k == 1:
            return ((a[0] * b[0]) % self.p,)
        return self._pad(_pmod(_pmul(a, b, self.p), self.modulus, self.p))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def _tables(self):
        r = np.arange(self.p)
        add = np.add.outer(r, r) % self.p
        mul = np.multiply.outer(r, r) % self.p
        if self.k == 1:
            return add, mul
        return _poly_tables(add, mul, -r % self.p, self.modulus)

    @property
    def zero(self):
        return (0,) * self.k

    @property
    def one(self):
        return (1,) + (0,) * (self.k - 1)

    def el_str(self, a):
        if self.k == 1:
            return str(a[0])
        return poly_str(a)

    def el_value(self, a):
        return _poly_value(a, self.p)

    def spec_str(self):
        if self.k == 1:
            return f"gf({self.p})"
        return f"gf({self.p}^{self.k})"


def poly_str(c: tuple[int, ...], var: str = "x",
             coeff_str=lambda v: str(v), coeff_is_zero=lambda v: v == 0,
             coeff_is_one=lambda v: v == 1) -> str:
    terms = []
    for i in range(len(c) - 1, -1, -1):
        v = c[i]
        if coeff_is_zero(v):
            continue
        if i == 0:
            terms.append(coeff_str(v))
        else:
            xs = var if i == 1 else f"{var}^{i}"
            terms.append(xs if coeff_is_one(v) else f"{coeff_str(v)}*{xs}")
    return "+".join(terms) if terms else "0"


class QuotientRing(Ring):
    """F[x]/(f) for a field F and monic f; payload = tuple of F payloads."""

    def __init__(self, base: GaloisField, modulus: tuple, spec_text: str | None = None,
                 size_cap: int = DEFAULT_SIZE_CAP):
        if not isinstance(base, GaloisField):
            raise RingError("quotient base must be a Galois field")
        modulus = tuple(modulus)
        if len(modulus) < 2:
            raise RingError("modulus must have degree >= 1")
        if modulus[-1] != base.one:
            raise RingError("modulus must be monic")
        self.base = base
        self.modulus = modulus
        self.deg = len(modulus) - 1
        self.size = base.size ** self.deg
        if self.size > size_cap:
            raise RingError(f"quotient ring exceeds size cap {size_cap}")
        self.spec_key = ("quot", base.spec_key, modulus)
        self._spec_text = spec_text
        self._elements = list(itertools.product(base.elements(), repeat=self.deg))
        # itertools.product varies the last slot fastest; payloads are
        # little-endian, so sort by value for the canonical enumeration.
        self._elements.sort(key=self.el_value)

    def elements(self):
        return list(self._elements)

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def mul(self, a, b):
        F = self.base
        out = [F.zero] * (2 * self.deg - 1)
        for i, ai in enumerate(a):
            if ai != F.zero:
                for j, bj in enumerate(b):
                    out[i + j] = F.add(out[i + j], F.mul(ai, bj))
        # reduce modulo the monic modulus
        for top in range(len(out) - 1, self.deg - 1, -1):
            lead = out[top]
            if lead == F.zero:
                continue
            shift = top - self.deg
            for i in range(self.deg + 1):
                out[shift + i] = F.sub(out[shift + i], F.mul(lead, self.modulus[i]))
        return tuple(out[: self.deg])

    def _tables(self):
        F = self.base.tables
        return _poly_tables(F.add, F.mul, F.neg,
                            tuple(F.index[c] for c in self.modulus))

    @property
    def zero(self):
        return (self.base.zero,) * self.deg

    @property
    def one(self):
        return (self.base.one,) + (self.base.zero,) * (self.deg - 1)

    def el_str(self, a):
        F = self.base
        return poly_str(a,
                        coeff_str=lambda v: (F.el_str(v) if F.k == 1
                                             else "(" + F.el_str(v) + ")"),
                        coeff_is_zero=lambda v: v == F.zero,
                        coeff_is_one=lambda v: v == F.one)

    def el_value(self, a):
        q = self.base.size
        return sum(self.base.el_value(ci) * q ** i for i, ci in enumerate(a))

    def spec_str(self):
        if self._spec_text:
            return self._spec_text
        mod = poly_str(tuple(self.base.el_value(c) for c in self.modulus))
        return f"{self.base.spec_str()}[x]/({mod})"


class ProductRing(Ring):
    """Direct product; payload = tuple of factor payloads, componentwise ops."""

    def __init__(self, factors: list[Ring], size_cap: int = DEFAULT_SIZE_CAP):
        if len(factors) < 2:
            raise RingError("product needs at least two factors")
        self.factors = tuple(factors)
        self.size = reduce(lambda a, b: a * b, (f.size for f in factors))
        if self.size > size_cap:
            raise RingError(f"product ring exceeds size cap {size_cap}")
        self.spec_key = ("prod",) + tuple(f.spec_key for f in factors)
        self._elements = [tuple(t) for t in
                          itertools.product(*[f.elements() for f in factors])]

    def elements(self):
        return list(self._elements)

    def add(self, a, b):
        return tuple(f.add(x, y) for f, x, y in zip(self.factors, a, b))

    def mul(self, a, b):
        return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))

    def neg(self, a):
        return tuple(f.neg(x) for f, x in zip(self.factors, a))

    def _tables(self):
        """Mixed radix, the first factor most significant (``el_value`` is
        the tuple of factor values)."""
        idx = np.arange(self.size)
        add = np.zeros((self.size, self.size), dtype=np.intp)
        mul = np.zeros_like(add)
        stride = self.size
        for f in self.factors:
            stride //= f.size
            d = (idx // stride) % f.size
            add += f.tables.add[d[:, None], d[None, :]] * stride
            mul += f.tables.mul[d[:, None], d[None, :]] * stride
        return add, mul

    @property
    def zero(self):
        return tuple(f.zero for f in self.factors)

    @property
    def one(self):
        return tuple(f.one for f in self.factors)

    def el_str(self, a):
        return "(" + ",".join(f.el_str(x) for f, x in zip(self.factors, a)) + ")"

    def el_value(self, a):
        return tuple(f.el_value(x) for f, x in zip(self.factors, a))

    def spec_str(self):
        return "x".join(f.spec_str() for f in self.factors)


class CosetRing(Ring):
    """Quotient of a finite ring by an ideal, on minimal coset representatives."""

    def __init__(self, base: Ring, ideal: frozenset):
        self.base = base
        self.ideal = ideal
        t = base.tables
        # least coset member; index order is el_value order
        self._rep_idx = t.add[:, [t.index[j] for j in ideal]].min(axis=1)
        self._reps = np.flatnonzero(self._rep_idx == np.arange(t.n))
        self.rep_of = {a: t.els[r] for a, r in zip(t.els, self._rep_idx)}
        self._elements = [t.els[r] for r in self._reps]
        self.size = len(self._reps)
        self.spec_key = ("coset", base.spec_key, tuple(sorted(ideal, key=base.el_value)))

    def elements(self):
        return list(self._elements)

    def _tables(self):
        t = self.base.tables
        coset_of = np.searchsorted(self._reps, self._rep_idx)
        block = np.ix_(self._reps, self._reps)
        return coset_of[t.add[block]], coset_of[t.mul[block]]

    def add(self, a, b):
        return self.rep_of[self.base.add(a, b)]

    def mul(self, a, b):
        return self.rep_of[self.base.mul(a, b)]

    def neg(self, a):
        return self.rep_of[self.base.neg(a)]

    @property
    def zero(self):
        return self.rep_of[self.base.zero]

    @property
    def one(self):
        return self.rep_of[self.base.one]

    def el_str(self, a):
        return self.base.el_str(a)

    def el_value(self, a):
        return self.base.el_value(a)

    def spec_str(self):
        return f"({self.base.spec_str()})/J"


# ---------------------------------------------------------------------------
# elements as values


@dataclass(frozen=True)
class RingElement:
    ring: Ring
    payload: tuple

    def _coerce(self, other) -> "RingElement":
        if not isinstance(other, RingElement):
            raise MixedRingError(f"cannot combine {other!r} with a ring element")
        if other.ring != self.ring:
            raise MixedRingError(
                f"operands from different rings: {self.ring.spec_str()} vs "
                f"{other.ring.spec_str()}")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        return RingElement(self.ring, self.ring.add(self.payload, other.payload))

    def __sub__(self, other):
        other = self._coerce(other)
        return RingElement(self.ring, self.ring.sub(self.payload, other.payload))

    def __mul__(self, other):
        other = self._coerce(other)
        return RingElement(self.ring, self.ring.mul(self.payload, other.payload))

    def __neg__(self):
        return RingElement(self.ring, self.ring.neg(self.payload))

    def __pow__(self, e: int):
        return RingElement(self.ring, self.ring.pow(self.payload, e))

    def __str__(self):
        return self.ring.el_str(self.payload)

    def __repr__(self):
        return f"<{self} in {self.ring.spec_str()}>"

    @property
    def value(self):
        return self.ring.el_value(self.payload)


def el(ring: Ring, name: str) -> RingElement:
    """Element by printed name, e.g. el(r, 'x^2+x')."""
    return RingElement(ring, ring.element_from_str(name))


def ring_arith(ring: Ring, op: str, *operands):
    """Dispatch form of the arithmetic: op in {add, mul, neg, sub, pow}."""
    ops = {"add": ring.add, "mul": ring.mul, "neg": ring.neg, "sub": ring.sub,
           "pow": ring.pow}
    if op not in ops:
        raise RingError(f"unknown op {op!r}")
    payloads = []
    for o in operands:
        if isinstance(o, RingElement):
            if o.ring != ring:
                raise MixedRingError("operand from a different ring")
            payloads.append(o.payload)
        else:
            payloads.append(o)
    return RingElement(ring, ops[op](*payloads))


# ---------------------------------------------------------------------------
# spec-string parser
#
# ring := atom ('x' atom)*
# atom := 'gf(' p ['^' k] ')' [ '[x]/(' poly ')' ]
# poly := sum of terms 'c', 'x', 'c*x^e', with +/- and coefficients mod p


def build_ring(spec_text: str, size_cap: int = DEFAULT_SIZE_CAP) -> Ring:
    text = spec_text.lower().replace(" ", "")
    pos = 0
    factors = []

    def fail(msg):
        raise RingError(f"cannot parse ring spec {spec_text!r}: {msg}")

    def read_int(s, i):
        """(value, end) of the digit run at s[i:]; value None if empty."""
        j = i
        while j < len(s) and s[j].isdigit():
            j += 1
        try:
            return (int(s[i:j]) if j > i else None), j
        except ValueError:  # past Python's limit on digits in an int string
            fail(f"number too long at position {i}")

    def parse_int():
        nonlocal pos
        value, end = read_int(text, pos)
        if value is None:
            fail(f"expected integer at position {pos}")
        pos = end
        return value

    def within_cap(q, k):  # q ** k <= size_cap, never computing a huge power
        return q < 2 or (k <= size_cap.bit_length() and q ** k <= size_cap)

    def expect(tok):
        nonlocal pos
        if not text.startswith(tok, pos):
            fail(f"expected {tok!r} at position {pos}")
        pos += len(tok)

    def parse_poly_text(ptext, p):
        # returns {exponent: coefficient mod p}
        coeffs: dict[int, int] = {}
        i = 0
        sign = 1
        if not ptext:
            fail("empty modulus polynomial")
        while i < len(ptext):
            ch = ptext[i]
            if ch == "+":
                sign = 1
                i += 1
                continue
            if ch == "-":
                sign = -1
                i += 1
                continue
            # term: [coeff]['*']['x'['^'exp]]
            start = i
            c, i = read_int(ptext, i)
            if c is None:
                c = 1
            elif i < len(ptext) and ptext[i] == "*":
                i += 1
            e = 0
            if i < len(ptext) and ptext[i] == "x":
                e = 1
                i += 1
                if i < len(ptext) and ptext[i] == "^":
                    e, i = read_int(ptext, i + 1)
                    if e is None:
                        fail("missing exponent")
            if i == start:
                fail(f"unexpected {ptext[i]!r} in modulus")
            coeffs[e] = (coeffs.get(e, 0) + sign * c) % p
        if not coeffs:
            fail("empty modulus polynomial")
        return coeffs

    def parse_atom():
        nonlocal pos
        expect("gf(")
        p = parse_int()
        k = 1
        if pos < len(text) and text[pos] == "^":
            pos += 1
            k = parse_int()
        expect(")")
        if p > size_cap or not within_cap(p, k):
            raise RingError(f"GF({p}^{k}) exceeds size cap {size_cap}")
        if not is_prime(p):
            # gf(q) with q a prime power means GF(q)
            if k != 1:
                fail(f"{p} is not prime")
            base = 2
            while base * base <= p:
                kk, q = 0, p
                while q % base == 0:
                    q //= base
                    kk += 1
                if q == 1:
                    p, k = base, kk
                    break
                base += 1
            else:
                fail(f"{p} is not a prime power")
        field = GaloisField(p, k, size_cap=size_cap)
        if text.startswith("[x]/(", pos):
            pos += len("[x]/(")
            depth = 1
            start = pos
            while pos < len(text) and depth:
                if text[pos] == "(":
                    depth += 1
                elif text[pos] == ")":
                    depth -= 1
                pos += 1
            if depth:
                fail("unbalanced parentheses in modulus")
            ptext = text[start:pos - 1]
            coeffs = parse_poly_text(ptext, p if field.k == 1 else field.p)
            deg = max(coeffs)
            if not within_cap(field.size, deg):
                raise RingError(f"quotient ring exceeds size cap {size_cap}")
            intcoeffs = [coeffs.get(i, 0) for i in range(deg + 1)]
            # lift integer coefficients into the base field (c -> c * 1)
            fcoeffs = []
            for c in intcoeffs:
                acc = field.zero
                for _ in range(c % field.p):
                    acc = field.add(acc, field.one)
                fcoeffs.append(acc)
            if fcoeffs[-1] == field.zero:
                fail("modulus has zero leading coefficient")
            if fcoeffs[-1] != field.one:
                fail("modulus must be monic")
            return QuotientRing(field, tuple(fcoeffs), size_cap=size_cap)
        return field

    factors.append(parse_atom())
    while pos < len(text):
        if text[pos] == "x" and text.startswith("gf(", pos + 1):
            pos += 1
            factors.append(parse_atom())
        else:
            fail(f"unexpected input at position {pos}")
    if len(factors) == 1:
        return factors[0]
    return ProductRing(factors, size_cap=size_cap)


# ---------------------------------------------------------------------------
# homomorphisms, radical, quotient


@dataclass(frozen=True)
class RingHomomorphism:
    source: Ring
    target: Ring
    table: dict  # payload -> payload

    def __call__(self, a):
        if isinstance(a, RingElement):
            return RingElement(self.target, self.table[a.payload])
        return self.table[a]

    def kernel(self) -> set:
        z = self.target.zero
        return {a for a in self.source.elements() if self.table[a] == z}

    def compose(self, inner: "RingHomomorphism") -> "RingHomomorphism":
        """self o inner (inner applied first)."""
        if inner.target != self.source:
            raise MixedRingError("composition rings do not match")
        return RingHomomorphism(inner.source, self.target,
                                {a: self.table[b] for a, b in inner.table.items()})


def _is_hom(R: RingTables, S: RingTables, img: np.ndarray) -> bool:
    """img (R index -> S index) preserves 0, 1, + and *."""
    pair = (img[:, None], img[None, :])
    return (img[R.zero] == S.zero and img[R.one] == S.one
            and np.array_equal(img[R.add], S.add[pair])
            and np.array_equal(img[R.mul], S.mul[pair]))


def validate_hom(h: RingHomomorphism) -> bool:
    """Exhaustive check, on the tables: preserves 0, 1, + and *."""
    R, S, t = h.source.tables, h.target.tables, h.table
    if set(t) != set(R.els) or not all(t[a] in S.index for a in R.els):
        return False
    return _is_hom(R, S, np.array([S.index[t[a]] for a in R.els]))


def jacobson_radical(ring: Ring) -> list:
    """Nilpotent elements (= Jacobson radical for finite commutative rings).

    a is nilpotent iff a^(2^k) = 0 for 2^k > |R|: repeated table squaring.
    """
    t = ring.tables
    power = np.arange(t.n)
    for _ in range(t.n.bit_length()):
        power = t.mul[power, power]
    return [t.els[i] for i in np.flatnonzero(power == t.zero)]


def quotient_by_radical(ring: Ring) -> tuple[Ring, RingHomomorphism]:
    """Quotient ring on lexicographically minimal coset reps + surjection."""
    J = frozenset(jacobson_radical(ring))
    q = CosetRing(ring, J)
    hom = RingHomomorphism(ring, q, {a: q.rep_of[a] for a in ring.elements()})
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
            return RingHomomorphism(A, B, {R.els[i]: S.els[j]
                                           for i, j in enumerate(img)})
    return None
