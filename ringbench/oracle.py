"""Independent checker for ringline answers.

Nothing here imports ringline.  Ring facts come from the benchmark's own
parse of the spec string and its own factorisation of the modulus; Pauli
facts come from the benchmark's own (x, z) bitmask algebra.  Every check
returns a list of problems; an empty list means the answer is accepted.
"""

from __future__ import annotations

import itertools
import json
import math
import re

# ---------------------------------------------------------------------------
# rings: spec parsing and the closed-form structure of each factor


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            k, r = 0, q
            while r % p == 0:
                r //= p
                k += 1
            if r != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, k
    raise ValueError(f"{q} is not a prime power")


def _poly_from_text(text: str, p: int) -> list[int]:
    """Little-endian coefficients mod p of a polynomial such as 'x^3+2*x-1'."""
    coeffs: dict[int, int] = {}
    for sign, c, var, exp in re.findall(r"([+-]?)(\d*)\*?(x?)(?:\^(\d+))?",
                                        text):
        if not (c or var):
            continue
        e = (int(exp) if exp else 1) if var else 0
        v = int(c) if c else 1
        coeffs[e] = (coeffs.get(e, 0) + (-v if sign == "-" else v)) % p
    deg = max(e for e, v in coeffs.items() if v) if any(coeffs.values()) else 0
    return [coeffs.get(i, 0) for i in range(deg + 1)]


def _pdiv_exact(a: list[int], m: list[int], p: int) -> list[int] | None:
    """a / m over F_p when m divides a, else None."""
    a = list(a)
    inv = pow(m[-1], p - 2, p)
    q = [0] * (len(a) - len(m) + 1)
    while len(a) >= len(m):
        lead = a[-1] * inv % p
        shift = len(a) - len(m)
        q[shift] = lead
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - lead * mi) % p
        while a and a[-1] == 0:
            a.pop()
    return q if not a else None


def _monic_polys(p: int, d: int):
    for tail in itertools.product(range(p), repeat=d):
        yield list(tail) + [1]


def factor_degrees(f: list[int], p: int) -> list[tuple[int, int]]:
    """(degree, multiplicity) of the monic irreducible factors of f over F_p,
    by trial division with every monic polynomial of rising degree."""
    out = []
    d = 1
    while len(f) > 1:
        if 2 * d > len(f) - 1:  # what is left is irreducible
            out.append((len(f) - 1, 1))
            break
        for g in _monic_polys(p, d):
            mult = 0
            while len(f) > 1:
                q = _pdiv_exact(f, g, p)
                if q is None:
                    break
                f, mult = q, mult + 1
            if mult:
                out.append((d, mult))
        d += 1
    return out


def local_factors(spec: str) -> list[tuple[int, int]]:
    """The ring as a product of local rings F_Q[t]/(t^e), as (Q, e) pairs."""
    text = spec.lower().replace(" ", "")
    out = []
    for atom in re.split(r"x(?=gf\()", text):
        m = re.fullmatch(r"gf\((\d+)(?:\^(\d+))?\)(?:\[x\]/\((.*)\))?", atom)
        if not m:
            raise ValueError(f"cannot parse ring atom {atom!r}")
        p, k = int(m.group(1)), int(m.group(2) or 1)
        if not _is_prime(p):
            p, k = _prime_power(p)
        q = p ** k
        if m.group(3) is None:
            out.append((q, 1))
            continue
        f = _poly_from_text(m.group(3), p)
        # an F_p-irreducible factor of degree d splits over F_q into
        # gcd(d, k) factors of degree d / gcd(d, k)
        for d, e in factor_degrees(f, p):
            g = math.gcd(d, k)
            out += [(q ** (d // g), e)] * g
    return out


def ring_facts(spec: str) -> dict:
    """Closed forms: size, units, radical, residue ring, points of the line,
    and the number of points distant to any given point."""
    facts = {"size": 1, "units": 1, "radical": 1, "residue": 1,
             "points": 1, "distant": 1}
    for q, e in local_factors(spec):
        j = q ** (e - 1)
        facts["size"] *= q * j
        facts["units"] *= (q - 1) * j
        facts["radical"] *= j
        facts["residue"] *= q
        facts["points"] *= (q + 1) * j
        facts["distant"] *= q * j
    return facts


# ---------------------------------------------------------------------------
# Pauli words as (x, z) bitmasks; phases in powers of i

_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}


def _xz(word: str) -> tuple[int, int]:
    x = z = 0
    for j, c in enumerate(word):
        bx, bz = _BITS[c]
        x |= bx << j
        z |= bz << j
    return x, z


def _word(x: int, z: int, n: int) -> str:
    return "".join("IXZY"[((x >> j) & 1) | (((z >> j) & 1) << 1)]
                   for j in range(n))


def commute(a: str, b: str) -> bool:
    ax, az = _xz(a)
    bx, bz = _xz(b)
    return bin((ax & bz) ^ (az & bx)).count("1") % 2 == 0


def _letter_phase(a: str, b: str) -> int:
    """k with a*b = i^k * (third letter), for single-qubit letters."""
    if "I" in (a, b) or a == b:
        return 0
    return 1 if (a + b) in ("XY", "YZ", "ZX") else 3


def product(words: list[str]) -> tuple[str, int]:
    """(word, k) with the ordered product equal to i^k * word."""
    n = len(words[0])
    acc, k = "I" * n, 0
    for w in words:
        ax, az = _xz(acc)
        wx, wz = _xz(w)
        k += sum(_letter_phase(a, b) for a, b in zip(acc, w))
        acc = _word(ax ^ wx, az ^ wz, n)
    return acc, k % 4


def context_sign(words: list[str]) -> int | None:
    """+1 or -1 for a pairwise-commuting context with scalar product."""
    if not all(commute(a, b) for a, b in itertools.combinations(words, 2)):
        return None
    w, k = product(words)
    if set(w) != {"I"} or k % 2:
        return None
    return 1 if k == 0 else -1


def colorable(observables: list[str], contexts: list[list[int]]) -> bool:
    """Whether some +-1 valuation meets every context sign: Gaussian
    elimination of the incidence rows with the sign bits as right side."""
    pivots: dict[int, tuple[int, int]] = {}
    for ctx in contexts:
        mask = sum(1 << i for i in ctx)
        rhs = context_sign([observables[i] for i in ctx]) == -1
        while mask:
            low = mask & -mask
            if low not in pivots:
                pivots[low] = (mask, rhs)
                break
            pm, pr = pivots[low]
            mask, rhs = mask ^ pm, rhs ^ pr
        if not mask and rhs:
            return False
    return True


def group_words(words: list[str]) -> set[str]:
    """Non-identity words of the group the context generates, signs dropped."""
    n = len(words[0])
    out = {(0, 0)}
    for w in words:
        wx, wz = _xz(w)
        out |= {(x ^ wx, z ^ wz) for x, z in out}
    return {_word(x, z, n) for x, z in out} - {"I" * n}


def entropy(group: set[str], part_a: tuple[int, ...], n: int) -> int:
    """Entropy in bits of a stabilizer state across qubits part_a (1-based)
    versus the rest: |A| - log2 of the stabilizers supported on A."""
    on_a = 1 + sum(all(w[q - 1] == "I" for q in range(1, n + 1)
                       if q not in part_a) for w in group)
    return len(part_a) - (on_a.bit_length() - 1)


# ---------------------------------------------------------------------------
# answer checks: each returns a list of problems


def _claims_ok(data: dict) -> list[str]:
    bad = [c["claim"] for c in data.get("claims", {}).get("checked", [])
           if not c["ok"]]
    return [f"claim failed: {c}" for c in bad]


def check_line(spec: str, data: dict) -> list[str]:
    f = ring_facts(spec)
    pts, rel = data["points"], data["relation"]
    errs = []
    if len(pts) != f["points"] or len(set(pts)) != len(pts):
        errs.append(f"{len(pts)} points, closed form {f['points']}")
    if len(rel) != len(pts) or any(len(r) != len(pts) for r in rel):
        return errs + ["relation matrix has the wrong shape"]
    for i, row in enumerate(rel):
        if row[i] != 0 or any(row[j] != rel[j][i] for j in range(len(row))):
            errs.append(f"relation row {i} is not symmetric with a zero diagonal")
            break
        if row.count(2) != f["distant"] or row.count(0) != 1:
            errs.append(f"point {pts[i]} has {row.count(2)} distant points, "
                        f"closed form {f['distant']}")
            break
    return errs + _claims_ok(data)


def check_ring(spec: str, data: dict) -> list[str]:
    f = ring_facts(spec)
    got = {"size": data["size"], "units": len(data["units"]),
           "radical": len(data["jacobson_radical"]),
           "residue": data["quotient_size"]}
    errs = [f"{k} {got[k]}, closed form {f[k]}" for k in got if got[k] != f[k]]
    if len(set(data["elements"])) != f["size"]:
        errs.append("elements are not distinct")
    if len(data["zero_divisors"]) != f["size"] - f["units"] - 1:
        errs.append("zero-divisor count does not complete the trichotomy")
    if not data["quotient_map_is_homomorphism"]:
        errs.append("quotient map is not a homomorphism")
    return errs


def check_bks(cfg: dict, result: dict) -> list[str]:
    """A valuation must meet every context sign; a certificate must cover
    every observable an even number of times with sign product -1."""
    obs, ctxs = cfg["observables"], cfg["contexts"]
    signs = [context_sign([obs[i] for i in c]) for c in ctxs]
    if "valuation" in result:
        val = {int(k): v for k, v in result["valuation"].items()}
        if sorted(val) != list(range(len(obs))) or \
                any(v not in (1, -1) for v in val.values()):
            return ["valuation does not assign +-1 to every observable"]
        for c, s in zip(ctxs, signs):
            if math.prod(val[i] for i in c) != s:
                return [f"valuation violates context {c}"]
        return []
    cert = result.get("certificate_contexts")
    if not cert or len(set(cert)) != len(cert) or \
            not all(0 <= ci < len(ctxs) for ci in cert):
        return ["certificate is not a set of context indices"]
    counts = [0] * len(obs)
    for ci in cert:
        for i in ctxs[ci]:
            counts[i] += 1
    if any(c % 2 for c in counts):
        return ["certificate covers an observable an odd number of times"]
    if math.prod(signs[ci] for ci in cert) != -1:
        return ["certificate sign product is not -1"]
    return []


def check_verify(cfg: dict, data: dict) -> list[str]:
    obs, ctxs = cfg["observables"], cfg["contexts"]
    errs = []
    if data["observables"] != obs or len(data["contexts"]) != len(ctxs):
        return ["observables or contexts do not match the input"]
    for c, rep in zip(ctxs, data["contexts"]):
        words = [obs[i] for i in c]
        if rep["observables"] != words or \
                rep["commuting"] != all(commute(a, b) for a, b
                                        in itertools.combinations(words, 2)) \
                or rep["sign"] != context_sign(words):
            errs.append(f"context {rep['label']} misreported")
    want_magic = not colorable(obs, ctxs)
    if data["magic"] != want_magic:
        errs.append(f"magic {data['magic']}, expected {want_magic}")
    if data["bks"] is None:
        errs.append("no BKS result")
    else:
        if ("valuation" in data["bks"]) == want_magic:
            errs.append("BKS result has the wrong kind")
        errs += check_bks(cfg, data["bks"])
    return errs + _claims_ok(data)


def check_bks_answer(cfg: dict, data: dict) -> list[str]:
    want = colorable(cfg["observables"], cfg["contexts"])
    errs = [] if data["colorable"] == want else \
        [f"colorable {data['colorable']}, expected {want}"]
    if ("valuation" in data["result"]) != data["colorable"]:
        errs.append("result kind contradicts the colorable flag")
    return errs + check_bks(cfg, data["result"])


def check_entangle(cfg: dict, data: dict) -> list[str]:
    obs, ctxs, n = cfg["observables"], cfg["contexts"], cfg["n"]
    if len(data["contexts"]) != len(ctxs):
        return ["context count does not match the input"]
    parts = [p for size in range(1, n)
             for p in itertools.combinations(range(1, n + 1), size)]
    groups = []
    errs = []
    for c, rep in zip(ctxs, data["contexts"]):
        words = [obs[i] for i in c]
        group = group_words(words)
        groups.append(group)
        table = {"-".join(map(str, p)): entropy(group, p, n) for p in parts}
        if rep["observables"] != words or \
                any(t != table for t in rep["entropies"]) or \
                len(rep["entropies"]) != 2 ** n:
            errs.append(f"entropies of {rep['label']} misreported")
        singles = [table[str(q)] for q in range(1, n + 1)]
        cls = ("product" if not any(table.values()) else
               "maximally-entangled" if all(v == 1 for v in singles) else
               "mixed-character")
        if rep["class"] != cls:
            errs.append(f"{rep['label']} is {cls}, reported {rep['class']}")
    pairs = list(itertools.combinations(range(len(ctxs)), 2))
    if len(data["unbiasedness"]) != len(pairs):
        return errs + ["unbiasedness table has the wrong length"]
    for (a, b), rep in zip(pairs, data["unbiasedness"]):
        # stabilizer bases are unbiased iff their groups share no word
        if rep["mutually_unbiased"] != (not groups[a] & groups[b]):
            errs.append(f"unbiasedness of contexts {a} and {b} misreported")
    return errs + _claims_ok(data)


SEARCH_COUNTS = {"squares": 10, "pentagrams": 12096}
SQUARE_ORBIT = {"arrangements": 72, "orbits": 1, "orbit_sizes": [72]}


def check_search(kind: str, data: dict) -> list[str]:
    errs = []
    if data["count"] != SEARCH_COUNTS[kind] or not data["complete"]:
        errs.append(f"{data['count']} {kind}, expected {SEARCH_COUNTS[kind]}")
    if not data["builtin_found"]:
        errs.append("built-in configuration not found")
    if kind == "squares" and data.get("builtin_orbit") != SQUARE_ORBIT:
        errs.append(f"orbit report {data.get('builtin_orbit')}")
    return errs + _claims_ok(data)


def check_correspond(variant: str, data: dict) -> list[str]:
    size = 9 if variant == "square" else 10
    bij = data["bijection"]
    errs = []
    if len(bij) != size or len({b["point"] for b in bij}) != size:
        errs.append("bijection is not one-to-one on the layout")
    if data["isomorphic_under_bijection"] != (not data["mismatches"]):
        errs.append("isomorphism flag contradicts the mismatch list")
    return errs + _claims_ok(data)


def check_map(data: dict) -> list[str]:
    errs = []
    if len(data["point_images"]) != 10:
        errs.append("condensation does not map ten points")
    if set(data["overall_image"]) != set(data["point_images"].values()):
        errs.append("overall image is not the union of the point images")
    return errs + _claims_ok(data)


def check_answer(req: dict, rc: int, out: str, configs: dict) -> list[str]:
    """Check one CLI answer; ``req`` is the generated request."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        data = json.loads(out)
    except ValueError:
        return ["output is not JSON"]
    argv = req["argv"]
    cmd = argv[0]
    opt = dict(zip(argv[1::2], argv[2::2]))
    cfg = configs.get(opt.get("--config")) or BUILTINS.get(opt.get("--builtin"))
    try:
        if cmd == "line":
            return check_line(opt["--ring"], data)
        if cmd == "ring":
            return check_ring(opt["--ring"], data)
        if cmd == "verify":
            return check_verify(cfg, data)
        if cmd == "bks":
            return check_bks_answer(cfg, data)
        if cmd == "entangle":
            return check_entangle(cfg, data)
        if cmd == "search":
            return check_search(opt["--kind"], data)
        if cmd == "correspond":
            return check_correspond(opt["--variant"], data)
        if cmd == "map":
            return check_map(data)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        return [f"malformed answer: {type(e).__name__}: {e}"]
    return [f"no checker for {cmd}"]


# the two built-in configurations, as the paper states them
SQUARE = {"n": 2, "geometry": "square",
          "observables": ["XI", "IX", "XX", "IY", "YI", "YY", "XY", "YX", "ZZ"],
          "contexts": [[0, 1, 2], [3, 4, 5], [6, 7, 8],
                       [0, 3, 6], [1, 4, 7], [2, 5, 8]]}
PENTAGRAM = {"n": 3, "geometry": "pentagram",
             "observables": ["YII", "XXX", "YYX", "YXY", "XYY",
                             "IIX", "IIY", "XII", "IYI", "IXI"],
             "contexts": [[0, 2, 5, 8], [0, 3, 6, 9], [1, 5, 7, 9],
                          [4, 6, 7, 8], [1, 2, 3, 4]]}
BUILTINS = {"mermin_square": SQUARE, "mermin_pentagram": PENTAGRAM}
