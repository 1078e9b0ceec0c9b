"""The ring-spec language that ``build_ring`` accepts, pinned by outcome.

Two seeded corpora of spec strings are run through ``build_ring``; each
outcome is the repr of ``(text, spec_key, spec_str(), names)`` for an
accepted string or ``(text, exception type name)`` for a refused one, and
the sha256 of all outcomes must match the committed digest.  Any change to
which strings are accepted, to the ring built, or to the type of a refusal
changes the digest.  The refusal texts are not pinned, except "number too
long".  The edge-case table states the language's quirks one by one.
"""

import hashlib
import random

import pytest

from ringline.rings import RingError, build_ring

FREE_PIECES = ["gf(", "<n>", ")", "^", "[x]/(", "x", "+", "-", "*", " ",
               "(", "[", "]", "/", "GF("]
FREE_WEIGHTS = [10, 10, 10, 2, 3, 6, 1, 1, 1, 1, 1, 1, 1, 1, 2]
NUMBERS = list(range(17)) + [25, 27, 32, 49, 64, 81, 121, 125, 128, 243,
                             256, 257, 1000]
MOD_PIECES = ["x", "x^2", "x^3", "+", "-", "<d>", "*", "^"]
MOD_FIELDS = [1, 2, 3, 4, 5, 6, 7, 8, 9]


def _free_form(rng):
    pieces = rng.choices(FREE_PIECES, FREE_WEIGHTS, k=rng.randint(1, 10))
    return "".join(str(rng.choice(NUMBERS)) if p == "<n>" else p
                   for p in pieces)


def _modulus_spec(rng):
    pieces = [str(rng.randint(0, 12)) if p == "<d>" else p
              for p in rng.choices(MOD_PIECES, k=rng.randint(1, 8))]
    return f"gf({rng.choice(MOD_FIELDS)})[x]/({''.join(pieces)})"


def _outcome(text):
    try:
        ring = build_ring(text)
    except Exception as e:  # a new exception type must change the digest
        return repr((text, type(e).__name__)), False
    return repr((text, ring.spec_key, ring.spec_str(), ring.names)), True


CORPORA = {
    # name: (generator, seed, size, accepted, sha256 of the outcomes)
    "free-form": (_free_form, 1, 20000, 17,
                  "da28d0c184776d8d20305a99d496588213fb624152f7536261c4beeb71c9a68b"),
    "modulus": (_modulus_spec, 2, 10000, 973,
                "fe7a28d0e5bf8b24a1930a61627eb3c3bb39a32d1527b43f62e4ea48963d08c4"),
}


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_corpus_outcomes_match_digest(name):
    make, seed, size, accepted, digest = CORPORA[name]
    rng = random.Random(seed)
    outcomes = [_outcome(make(rng)) for _ in range(size)]
    sha = hashlib.sha256("\n".join(o for o, _ in outcomes).encode())
    assert (sum(ok for _, ok in outcomes), sha.hexdigest()) == (accepted,
                                                                digest)


QUIRKS = [
    # a sign holds until the next sign: x^2-x1 is x^2 - x - 1
    ("gf(3)[x]/(x^2-x1)", "gf(3)[x]/(x^2+2*x+2)"),
    ("gf(3)[x]/(x^2--x)", "gf(3)[x]/(x^2+2*x)"),
    ("gf(3)[x]/(-x^2+x+1)", RingError),  # -x^2 is not monic
    # a trailing sign is ignored
    ("gf(2)[x]/(x^2+x+1+)", "gf(2)[x]/(x^2+x+1)"),
    ("gf(2)[x]/(x^2-)", "gf(2)[x]/(x^2)"),
    # 2* is the constant 2, and 2x is 2x
    ("gf(3)[x]/(x^2+2*)", "gf(3)[x]/(x^2+2)"),
    ("gf(3)[x]/(x^2+2x+1)", "gf(3)[x]/(x^2+2*x+1)"),
    ("gf(3)[x]/(x^2+2*x^1)", "gf(3)[x]/(x^2+2*x)"),
    ("gf(3)[x]/(x^2+x^0)", "gf(3)[x]/(x^2+1)"),
    # like terms add up, coefficients mod p
    ("gf(3)[x]/(x^2+x+x+4)", "gf(3)[x]/(x^2+2*x+1)"),
    ("gf(2)[x]/(x^3+x^3+x^3)", "gf(2)[x]/(x^3)"),
    # a zero or non-unit leading coefficient is refused
    ("gf(3)[x]/(3x^2+x)", RingError),
    ("gf(3)[x]/(x^2+2x^2)", RingError),
    ("gf(3)[x]/(2x^2+1)", RingError),
    ("gf(2)[x]/(x^3+x^3+x)", RingError),
    # gf(q) with q a prime power is GF(q); case and spaces are ignored
    ("gf(4)", "gf(2^2)"),
    ("gf(2^2)", "gf(2^2)"),
    ("GF(2) X GF(3)", "gf(2)xgf(3)"),
    ("gf(4)[x]/(x^2+x+1)", "gf(2^2)[x]/(x^2+x+1)"),
    ("gf(2)[x]/(x^2)xgf(3)", "gf(2)[x]/(x^2)xgf(3)"),
    ("gf(٣)", "gf(3)"),  # any decimal digit is a digit
    ("gf(²)", RingError),  # a superscript two is not
    ("gf(1)", RingError),
    ("gf(0)", RingError),
    ("gf(6)", RingError),
    ("gf(4^2)", RingError),
    ("gf(2^0)", RingError),
    ("gf(2)x", RingError),
    ("gf(2)xx", RingError),
    ("xgf(2)", RingError),
    ("", RingError),
    ("gf()", RingError),
    ("gf(2", RingError),
    ("gf(2)^", RingError),
    ("gf(2)[x]/()", RingError),
    ("gf(2)[x]/(+)", RingError),
    ("gf(2)[x]/(x(1))", RingError),
    ("gf(2)[x]/((x))", RingError),
    ("gf(2)[x]/(x", RingError),
    ("gf(2)[x]/(x^)", RingError),
    ("gf(2)[x]/(x^2^)", RingError),
    ("gf(2)[x]/(x*x)", RingError),
    ("gf(2)[x]/(*x)", RingError),
    ("gf(2)[x]/(x^2+y)", RingError),
    ("gf(2)[x]/(1)", RingError),
    ("gf(2)[x]/(0)", RingError),
    ("gf(2)[x]/(x^2)[x]/(x)", RingError),
    # the size cap is checked before any power or table is computed
    ("gf(257)", RingError),
    ("gf(2^9)", RingError),
    ("gf(2^99999999999999999999)", RingError),
    ("gf(1000000000000000000000000000057)", RingError),
    ("gf(2)[x]/(x^99999999999999999999)", RingError),
    ("gf(2)[x]/(x^9)", RingError),
    ("gf(2)[x]/(x^8)", "gf(2)[x]/(x^8)"),
    ("gf(16)xgf(16)xgf(2)", RingError),
]


@pytest.mark.parametrize("text, want", QUIRKS)
def test_spec_quirks(text, want):
    if want is RingError:
        with pytest.raises(RingError):
            build_ring(text)
    else:
        ring = build_ring(text)
        assert ring.spec_str() == want
        assert build_ring(want).spec_key == ring.spec_key


@pytest.mark.parametrize("text", [
    "gf(" + "7" * 5000 + ")",
    "gf(2^" + "7" * 5000 + ")",
    "gf(2)[x]/(x^" + "7" * 5000 + ")",
    "gf(2)[x]/(" + "7" * 5000 + "x+1)",
])
def test_number_too_long_is_refused(text):
    with pytest.raises(RingError, match="number too long"):
        build_ring(text)
