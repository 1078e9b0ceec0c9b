"""Seeded inputs for the three workloads.

Every input comes from ``random.Random(seed)``: ring spec spellings,
request order and custom configuration JSON.  The same seed gives
byte-identical inputs; another seed gives other spellings, other
configurations and another order.  The *multiset of request types* of a
workload is fixed, so that per-run costs, medians and exact counts do not
depend on the seed.

Each workload's median and tail percentile fall inside a block of one
request type that takes 0.1 s or more.  The host switches between a fast
and a slow mode (about 1.45x apart) on a scale of 0.1 to 1 s, so a median
over shorter requests flips between the two modes from run to run.

Why each workload:

* ``line-sweep`` -- ``line --ring SPEC --check`` over rings of 2 to 16
  elements: fields, local quotients, non-local quotients and products.
  ``rings`` and ``projline`` do almost all the work; ``pauli`` and
  ``magic`` are never reached.
* ``pentagram-search`` -- the full ``search --kind pentagrams --check``,
  40 ``search --kind squares --check`` requests and seeded
  pentagram-shaped ``verify --config`` requests.  All of its time is
  ``pauli`` and ``magic``; it never calls ``rings``.  The full search is
  the one request that cannot give a median on its own.
* ``check-sweep`` -- every ``--check`` subcommand on both built-ins, plus
  ``verify``/``bks``/``entangle`` on seeded custom configurations of 10 to
  20 observables, colorable and not.  Many short requests, so ``cli``
  rendering, ``entangle`` and ``correspond`` matter; a few 20-observable
  decisions make the tail and the peak memory.
"""

from __future__ import annotations

import itertools
import json
import random

from oracle import (BUILTINS, PENTAGRAM, colorable, commute, context_sign,
                    group_words)

JSON = ["--format", "json"]

# ---------------------------------------------------------------------------
# ring spec spellings


def _poly_text(coeffs: list[int], p: int, rng: random.Random) -> str:
    """One of many spellings of a polynomial over F_p: term order, signs,
    explicit unit coefficients and spaces vary."""
    terms = []
    for e, c in enumerate(coeffs):
        if not c:
            continue
        neg = p > 2 and rng.random() < 0.5 or p == 2 and rng.random() < 0.3
        v = (p - c) if neg else c
        mono = "" if e == 0 else ("x" if e == 1 and rng.random() < 0.7
                                  else f"x^{e}")
        if e == 0:
            body = str(v)
        elif v == 1 and rng.random() < 0.7:
            body = mono
        else:
            body = f"{v}*{mono}"
        terms.append(("-" if neg else "+", body))
    rng.shuffle(terms)
    sp = " " if rng.random() < 0.3 else ""
    text = "".join(f"{sp}{s}{sp}{b}" for s, b in terms).strip()
    return text[1:].strip() if text.startswith("+") else text


def _atom_text(p: int, k: int, mod: list[int] | None,
               rng: random.Random) -> str:
    base = f"gf({p ** k})" if k == 1 or rng.random() < 0.6 else f"gf({p}^{k})"
    if rng.random() < 0.3:
        base = base.upper()
    if mod is None:
        return base
    return f"{base}[x]/({_poly_text(mod, p, rng)})"


def spell(ring: tuple, rng: random.Random) -> str:
    """A seeded spelling of a ring given as ((p, k, modulus or None), ...)."""
    return "x".join(_atom_text(p, k, mod, rng) for p, k, mod in ring)


def _gf(p: int, k: int = 1) -> tuple:
    return (p, k, None)


def _quot(p: int, *coeffs: int, k: int = 1) -> tuple:
    """gf(p^k)[x]/(f), f given by little-endian coefficients mod p."""
    return (p, k, list(coeffs))


# Line cost grows like |R|^4.  The plan has three cost bands: 18 rings of
# 2 to 13 elements below, 28 requests of one 8-element ring in the middle
# (the median falls in the middle of that block), and 18 rings of 16
# elements above (the tail percentile falls inside the block of products).
# The middle ring costs ~0.2 s, long enough that one request averages over
# the host's switches between its fast and slow modes.
BELOW = [
    (_gf(2),), (_gf(3),), (_gf(2, 2),), (_gf(5),), (_gf(7),), (_gf(2, 3),),
    (_gf(3, 2),), (_gf(11),), (_gf(13),),
    (_quot(2, 0, 0, 1),), (_quot(2, 1, 0, 1),),       # local: x^2, (x+1)^2
    (_quot(2, 0, 1, 1),), (_quot(3, 1, 0, 1),),       # x(x+1); x^2+1 is irreducible mod 3
    (_quot(3, 0, 0, 1),),                             # local, 9 elements
    (_gf(2), _gf(2)), (_gf(2), _gf(3)), (_gf(3), _gf(2)), (_gf(3), _gf(3)),
]
MIDDLE = [(_quot(2, 0, 1, 0, 1),)] * 28               # gf(2)[x]/(x^3-x), 8 elements
ABOVE = ([(_gf(2, 2), _gf(2, 2))] * 12                # gf(4)xgf(4)
         + [(_quot(2, 0, 0, 1, k=2),)] * 6)           # gf(4)[x]/(x^2), local


def line_sweep(seed: int, units: int) -> tuple[list[dict], dict]:
    rng = random.Random(seed)
    rings = (BELOW + MIDDLE + ABOVE) * units
    rng.shuffle(rings)
    reqs = [{"argv": ["line", "--ring", spell(r, rng), "--check"] + JSON}
            for r in rings]
    return reqs, {}


# ---------------------------------------------------------------------------
# configurations


def _relabel(cfg: dict, rng: random.Random) -> dict:
    """Shuffle observable order, context order and order within contexts."""
    m = len(cfg["observables"])
    perm = list(range(m))
    rng.shuffle(perm)
    obs = [None] * m
    for old, new in enumerate(perm):
        obs[new] = cfg["observables"][old]
    ctxs = [[perm[i] for i in c] for c in cfg["contexts"]]
    for c in ctxs:
        rng.shuffle(c)
    rng.shuffle(ctxs)
    return {"n": cfg["n"], "observables": obs, "contexts": ctxs,
            "geometry": "custom"}


def _pentagram_variant(rng: random.Random) -> dict:
    """The Mermin pentagram under a seeded qubit permutation and a seeded
    relabelling of X, Y, Z on each qubit.  Commutation is preserved, and
    every configuration of this shape is magic."""
    qperm = rng.sample(range(3), 3)
    lperm = [dict(zip("XYZ", rng.sample("XYZ", 3)), I="I") for _ in range(3)]
    obs = ["".join(lperm[q][w[qperm[q]]] for q in range(3))
           for w in PENTAGRAM["observables"]]
    return _relabel({"n": 3, "observables": obs,
                     "contexts": PENTAGRAM["contexts"]}, rng)


def three_qubit_contexts() -> list[tuple[str, ...]]:
    """Every set of four pairwise-commuting three-qubit words with product
    +-I (the contexts a pentagram is built from)."""
    words = ["".join(t) for t in itertools.product("IXYZ", repeat=3)][1:]
    out = set()
    for a, b, c in itertools.combinations(words, 3):
        if commute(a, b) and commute(a, c) and commute(b, c):
            g = group_words([a, b, c])
            if len(g) != 7:
                continue
            for d in g - {a, b, c}:
                if context_sign([a, b, c, d]) is not None:
                    out.add(tuple(sorted((a, b, c, d))))
    return sorted(out)


def _custom(rng: random.Random, contexts: list, m: int, c: int,
            want: bool | None) -> dict:
    """A connected configuration of exactly m observables in exactly c
    contexts whose colorability is ``want`` (None: either).  Contexts are
    added while they overlap the words chosen so far, then contexts inside
    those words."""
    while True:
        chosen = [rng.choice(contexts)]
        words = set(chosen[0])
        while len(words) < m:
            cand = rng.choice(contexts)
            new = set(cand) - words
            if new and len(new) < 4 and len(words) + len(new) <= m:
                chosen.append(cand)
                words |= new
        inside = [x for x in contexts if set(x) <= words and x not in chosen]
        if len(chosen) > c or len(inside) < c - len(chosen):
            continue
        chosen += rng.sample(inside, c - len(chosen))
        obs = sorted(words)
        cfg = {"n": 3, "observables": obs,
               "contexts": [[obs.index(w) for w in x] for x in chosen]}
        if want in (None, colorable(cfg["observables"], cfg["contexts"])):
            return _relabel(cfg, rng)


def pentagram_search(seed: int, units: int) -> tuple[list[dict], dict]:
    """One full pentagram search, 40 square searches (the block the median
    and the tail fall in) and 10 seeded pentagram-shaped verify requests."""
    rng = random.Random(seed)
    configs = {f"pent-{i:04d}.json": _pentagram_variant(rng)
               for i in range(10 * units)}
    reqs = [{"argv": ["search", "--kind", "pentagrams", "--check"] + JSON},
            *[{"argv": ["search", "--kind", "squares", "--check"] + JSON}] * 40]
    reqs = reqs * units + [{"argv": ["verify", "--config", name] + JSON}
                           for name in configs]
    rng.shuffle(reqs)
    return reqs, configs


KNOWN_LINES = ["gf(2)[x]/(x^3-x)", "gf(2)[x]/(x^2-x)", "gf(2)xgf(2)",
               "gf(2)", "gf(3)", "gf(4)", "gf(5)", "gf(8)"]
BUILTIN_CHECKS = (
    [["verify", "--builtin", b, "--check"] for b in BUILTINS]
    + [["bks", "--builtin", b, "--check"] for b in BUILTINS]
    + [["entangle", "--builtin", b, "--check"] for b in BUILTINS]
    + [["search", "--kind", "squares", "--check"]]
    + [["correspond", "--variant", v, "--check"]
       for v in ("square", "neighbourhood", "jacobson")]
    + [["map", "--variant", v, "--check"] for v in ("neighbourhood", "jacobson")]
)
RING_CHECKS = ["gf(2)[x]/(x^3-x)", "gf(2)[x]/(x^2-x)", "gf(4)", "gf(3)xgf(3)"]


def _case_spaces(spec: str, rng: random.Random) -> str:
    """Spellings that ringline's known-count table still recognises."""
    if rng.random() < 0.5:
        spec = spec.upper().replace("[X]", "[x]")
    return spec.replace("-", " - ") if rng.random() < 0.5 else spec


# (observables, contexts, colorability, how many, commands).  Decider and
# entangle costs depend on both sizes, so they are fixed.  The 40 entangle
# requests (~0.15 s each) are the block the median falls in; the
# 20-observable bks requests (~1 s each) are the block the tail falls in.
CUSTOM = ((10, 5, True, 2, ("verify", "bks")),
          (10, 5, False, 2, ("verify", "bks")),
          (12, 6, None, 40, ("entangle",)),
          (20, 12, True, 1, ("verify", "bks")),
          (20, 12, False, 1, ("verify", "bks")),
          (20, 12, True, 4, ("bks",)),
          (20, 12, False, 4, ("bks",)))


def check_sweep(seed: int, units: int) -> tuple[list[dict], dict]:
    rng = random.Random(seed)
    contexts = three_qubit_contexts()
    configs = {}
    reqs = []
    for _ in range(units):
        reqs += [{"argv": a + JSON} for a in BUILTIN_CHECKS]
        reqs += [{"argv": ["line", "--ring", _case_spaces(s, rng), "--check"]
                  + JSON} for s in KNOWN_LINES]
        reqs += [{"argv": ["ring", "--ring", _case_spaces(s, rng), "--check"]
                  + JSON} for s in RING_CHECKS]
        for m, c, want, count, cmds in CUSTOM:
            for _ in range(count):
                name = f"custom-{len(configs):04d}.json"
                configs[name] = _custom(rng, contexts, m, c, want)
                reqs += [{"argv": [cmd, "--config", name] + JSON}
                         for cmd in cmds]
    rng.shuffle(reqs)
    return reqs, configs


def probe_large() -> dict:
    """The fixed colorable 20-observable configuration of the trace probe."""
    return _custom(random.Random(0), three_qubit_contexts(), 20, 12, True)


WORKLOADS = {"line-sweep": line_sweep, "pentagram-search": pentagram_search,
             "check-sweep": check_sweep}


def generate(workload: str, seed: int, units: int) -> tuple[list[dict], dict]:
    """(requests, {config file name: configuration}) for one run."""
    return WORKLOADS[workload](seed, units)


def dump(reqs: list[dict], configs: dict) -> str:
    """Canonical text of a run's inputs, for byte-identity checks."""
    return json.dumps({"requests": reqs, "configs": configs}, sort_keys=True)
