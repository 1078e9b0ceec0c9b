"""Command-line front end.

Subcommands: ring, line, verify, bks, search, entangle, correspond, map.
Output formats: text (fixed-width tables), json (schema-stable), dot
(graphs).  Exit codes: 0 ok, 2 claim-mismatch (--check), 3 input error,
4 internal error.  --check runs embed the documented expectations for the
built-in objects; ambiguous claims are reported informationally and never
fail the run.
"""

from __future__ import annotations

import functools
import itertools
from json.encoder import encode_basestring_ascii as _json_str
import os
import re
import sys
import types
from fractions import Fraction

import numpy as np

from . import correspond as co
from . import entangle as en
from . import magic as mg
from . import projline as pl
from . import rings as rg
from .pauli import PauliError

EXIT_OK, EXIT_CLAIM, EXIT_INPUT, EXIT_INTERNAL = 0, 2, 3, 4

INPUT_ERRORS = (rg.RingError, pl.LineError, mg.ConfigError, PauliError,
                en.EntangleError, co.CorrespondError,
                OSError)  # OSError: --config/--out


class Claims:
    """Named pass/fail expectations plus purely informational notes."""

    def __init__(self):
        self.checked: list[tuple[str, bool, str]] = []
        self.notes: list[tuple[str, str]] = []

    def expect(self, name: str, ok: bool, detail: str = ""):
        self.checked.append((name, bool(ok), detail))

    def note(self, name: str, detail: str):
        self.notes.append((name, detail))

    @property
    def failed(self) -> list[str]:
        return [n for n, ok, _ in self.checked if not ok]

    def as_dict(self):
        return {
            "checked": [{"claim": n, "ok": ok, "detail": d}
                        for n, ok, d in self.checked],
            "informational": [{"claim": n, "detail": d} for n, d in self.notes],
        }

    def text_lines(self):
        out = []
        for n, ok, d in self.checked:
            mark = "PASS" if ok else "FAIL"
            out.append(f"[{mark}] {n}" + (f": {d}" if d else ""))
        for n, d in self.notes:
            out.append(f"[INFO] {n}: {d}")
        return out


def _size_cap() -> int:
    text = os.environ.get("RINGLINE_SIZE_CAP", str(rg.DEFAULT_SIZE_CAP))
    try:
        return int(text)
    except ValueError:
        raise rg.RingError(f"RINGLINE_SIZE_CAP={text!r} is not an integer") from None


def _render(data: dict, text_lines: list[str], fmt: str,
            dot: str | None = None) -> str:
    if fmt == "json":
        return _json(data, "\n") + "\n"
    if fmt == "dot":
        return dot
    return "\n".join(text_lines) + "\n"


_INT_ONLY = frozenset({int})
_DIGITS = bytes(range(48, 58)).ljust(256, b"x")  # byte k -> digit k, if k < 10


def _json_codes(matrix: np.ndarray, indent: str) -> str:
    """A square int8 matrix of codes 0-9 as json.dumps(matrix.tolist(),
    indent=2) writes it: each byte becomes its ASCII digit, and each row
    is one join.  Any other array raises TypeError."""
    if (matrix.dtype != np.int8 or matrix.ndim != 2
            or matrix.shape[0] != matrix.shape[1]):
        raise TypeError(f"no report holds a {matrix.dtype} array of shape "
                        f"{matrix.shape}")
    n = len(matrix)
    if not n:
        return "[]"
    digits = matrix.tobytes().translate(_DIGITS)
    if not digits.isdigit():
        raise TypeError("a report's matrix holds codes 0-9 only")
    digits = digits.decode("ascii")
    inner = indent + "  "
    sep, start, end = f",{inner}  ", f"[{inner}  ", f"{inner}]"
    rows = [start + sep.join(digits[i:i + n]) + end
            for i in range(0, n * n, n)]
    # as in _json, the brackets go on the end rows: one copy of the whole
    rows[0] = "[" + inner + rows[0]
    rows[-1] += indent + "]"
    return ("," + inner).join(rows)


def _json(value, indent: str) -> str:
    """value as json.dumps(value, indent=2) writes it, where indent is the
    line break and spaces before the line value starts on.  value holds
    what reports hold: str, int, bool, None, lists, tuples, dicts with str
    keys and square int8 matrices of codes 0-9 (``_json_codes``), written
    as their ``tolist()``; anything else raises TypeError.

    Python 3.11's json has no C encoder for indented output, and its
    Python one makes a string per token: far slower for the reports here.
    """
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if _INT_ONLY.issuperset(map(type, value)):
            # the repr of a list of exact ints is json's, one space wider
            body = repr(value if type(value) is list else list(value))[1:-1]
            return f"[{inner}{body.replace(', ', ',' + inner)}{indent}]"
        items = []
        for i, v in enumerate(value):  # a repeated object repeats its text
            items.append(items[-1] if i and v is value[i - 1]
                         else _json(v, inner))
        brackets = "[]"
    elif isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{_json_str(k)}: {_json(v, inner)}"
                 for k, v in value.items()]
        brackets = "{}"
    elif isinstance(value, np.ndarray):
        return _json_codes(value, indent)
    else:
        raise TypeError(f"no report holds a {type(value).__name__}")
    # with the brackets on the end items, the join is the one copy made of
    # a large report
    items[0] = brackets[0] + inner + items[0]
    items[-1] += indent + brackets[1]
    return ("," + inner).join(items)


def _grid(cells: list[str], ncols: int) -> list[str]:
    width = max((len(c) for c in cells), default=0) + 2
    rows = []
    for i in range(0, len(cells), ncols):
        rows.append("".join(c.ljust(width) for c in cells[i:i + ncols]).rstrip())
    return rows


# ---------------------------------------------------------------------------
# subcommand runners; each returns (data, text_lines, dot or None, claims),
# and main appends the claims to the data and the text


def run_ring(args):
    ring = rg.build_ring(args.ring, size_cap=_size_cap())
    claims = Claims()
    radical = rg.jacobson_radical(ring)
    quotient, hom = rg.quotient_by_radical(ring)
    data = {
        "ring": ring.spec_str(),
        "size": ring.size,
        "elements": [ring.el_str(a) for a in ring.elements()],
        "units": [ring.el_str(a) for a in ring.units()],
        "zero_divisors": [ring.el_str(a) for a in ring.zero_divisors()],
        "jacobson_radical": [ring.el_str(a) for a in radical],
        "quotient_size": quotient.size,
        "quotient_representatives": [quotient.el_str(a)
                                     for a in quotient.elements()],
        "quotient_map_is_homomorphism": rg.validate_hom(hom),
    }
    lines = [f"ring {data['ring']} with {ring.size} elements",
             "elements: " + " ".join(data["elements"]),
             "units: " + (" ".join(data["units"]) or "(none)"),
             "zero divisors: " + (" ".join(data["zero_divisors"]) or "(none)"),
             "jacobson radical: " + " ".join(data["jacobson_radical"]),
             f"radical quotient: {quotient.size} elements on representatives "
             + " ".join(data["quotient_representatives"])]
    return data, lines, None, claims


_KNOWN_COUNTS = {
    "gf(2)[x]/(x^3-x)": 18,
    "gf(2)[x]/(x^2-x)": 9,
    "gf(2)xgf(2)": 9,
    "gf(2)": 3, "gf(3)": 4, "gf(4)": 5, "gf(5)": 6, "gf(8)": 9,
}


@functools.cache
def _known_spellings() -> dict:
    """The ``_KNOWN_COUNTS`` spelling of each ring in it, by spec_key."""
    return {rg.build_ring(s).spec_key: s for s in _KNOWN_COUNTS}


def run_line(args):
    ring = rg.build_ring(args.ring, size_cap=_size_cap())
    catalog = pl.enumerate_points(ring)
    claims = Claims()
    if args.check:
        if (known := _known_spellings().get(ring.spec_key)) is not None:
            want = _KNOWN_COUNTS[known]
            claims.expect(f"point count of the line over {known}",
                          len(catalog) == want,
                          f"expected {want}, got {len(catalog)}")
        expected = pl.expected_point_count(ring)
        claims.expect("closed-form point count matches enumeration",
                      expected == len(catalog),
                      f"closed form {expected}, enumeration {len(catalog)}")
    names = catalog.names
    data = {
        "ring": ring.spec_str(),
        "points": names,
        "relation": catalog.relation,  # written by _json_codes
        # each subset's indices come in the order of the points' names
        "distinguished": {k: [names[i] for i in v]
                          for k, v in catalog.subsets.items()},
    }
    lines = [f"projective line over {ring.spec_str()}: "
             f"{len(catalog)} points"]
    lines += ["  " + name for name in names]
    for k, v in data["distinguished"].items():
        lines.append(f"{k}: " + (" ".join(v) or "(none)"))
    dot = None
    if args.format == "dot":
        dot = pl.catalog_dot(catalog, pl.NEIGHBOUR if args.graph == "neighbour"
                             else pl.DISTANT)
    return data, lines, dot, claims


def _load_config(args) -> mg.Configuration:
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as f:
            try:
                text = f.read()
            except UnicodeDecodeError as e:
                raise mg.ConfigError(f"{args.config} is not UTF-8 text "
                                     f"({e.reason} at byte {e.start})") from e
        return mg.config_from_json(text)
    return mg.builtin(args.builtin)


_SQUARE_EXPECT = {"row 1": 1, "row 2": 1, "row 3": 1,
                  "column 1": 1, "column 2": 1, "column 3": -1}
_PENT_EXPECT = {"edge top/lower-left": 1, "edge top/lower-right": 1,
                "edge left/lower-right": 1, "edge right/lower-left": 1,
                "horizontal": -1}


def run_verify(args):
    cfg = _load_config(args)
    report = mg.verify_magic(cfg)
    claims = Claims()
    result = report.bks
    if args.check and getattr(args, "builtin", None):
        expect = _SQUARE_EXPECT if args.builtin == "mermin_square" else _PENT_EXPECT
        for c in report.contexts:
            claims.expect(f"{args.builtin}: {c.label} pairwise commuting",
                          c.commuting)
            claims.expect(f"{args.builtin}: {c.label} product sign "
                          f"{'+1' if expect[c.label] == 1 else '-1'}",
                          c.sign == expect[c.label], f"got {c.sign}")
        claims.expect(f"{args.builtin} is magic (no valuation)", report.magic)
        claims.expect(f"{args.builtin}: parity certificate spans all contexts",
                      result is not None and result.certificate ==
                      tuple(range(len(cfg.contexts))),
                      f"certificate {None if result is None else result.certificate}")
    data = {
        "geometry": cfg.geometry,
        "observables": [o.word for o in cfg.observables],
        "contexts": [{"label": c.label, "observables":
                      [cfg.observables[i].word for i in cfg.contexts[ci]],
                      "commuting": c.commuting, "sign": c.sign, "note": c.note}
                     for ci, c in enumerate(report.contexts)],
        "structural_errors": list(report.structural_errors),
        "magic": report.magic,
        "bks": _bks_dict(result) if result is not None else None,
    }
    lines = [f"configuration: {cfg.geometry} on {cfg.n} qubits"]
    if cfg.geometry == "square":
        lines += _grid([o.word for o in cfg.observables], 3)
    else:
        lines += ["  " + " ".join(o.word for o in cfg.observables)]
    for c in data["contexts"]:
        sign = {1: "+1", -1: "-1", None: "??"}[c["sign"]]
        comm = "commuting" if c["commuting"] else "NOT commuting"
        lines.append(f"{c['label']}: {' '.join(c['observables'])} "
                     f"[{comm}, sign {sign}]" + (f" ({c['note']})" if c["note"] else ""))
    for e in report.structural_errors:
        lines.append(f"structural error: {e}")
    lines.append(f"magic: {report.magic}")
    if data["bks"]:
        lines += _bks_lines(data["bks"])
    return data, lines, None, claims


def _bks_dict(result: mg.BksResult):
    if result.valuation is not None:
        return {"valuation": {str(k): v for k, v in sorted(result.valuation.items())}}
    return {"certificate_contexts": list(result.certificate)}


def _bks_lines(d):
    if "valuation" in d:
        return ["valuation exists: " +
                " ".join(f"{k}:{'+1' if v == 1 else '-1'}"
                         for k, v in d["valuation"].items())]
    return ["no valuation; parity certificate over context indices "
            + " ".join(str(i) for i in d["certificate_contexts"])]


def run_bks(args):
    cfg = _load_config(args)
    result = mg.bks_decide(cfg)
    claims = Claims()
    data = {"geometry": cfg.geometry,
            "observables": [o.word for o in cfg.observables],
            "colorable": result.colorable,
            "result": _bks_dict(result)}
    lines = [f"BKS colorability for {cfg.geometry} configuration: "
             f"{'colorable' if result.colorable else 'NOT colorable'}"]
    lines += _bks_lines(data["result"])
    return data, lines, None, claims


# the 3! row and 3! column orders of a grid, with or without transposition
_SQUARE_ORBIT = {"arrangements": 72, "orbits": 1, "orbit_sizes": [72]}


def run_search(args):
    claims = Claims()
    if args.kind == "squares":
        results = mg.search_squares()
        complete = True
        orbit = mg.square_orbit_report(mg.SQUARE_WORDS)
    else:
        outcome = mg.search_pentagrams(budget=args.budget)
        results, complete = outcome.results, outcome.complete
        orbit = None
    # JSON shows the re-verification only among the --check claims; the
    # reports are checked as they come, never held together
    reverified = (all(r.magic for r in mg.verify_each(results))
                  if args.check or args.format == "text" else None)
    builtin_found = _contains_builtin(results, args.kind)
    if args.check:
        claims.expect(f"search {args.kind}: built-in configuration found",
                      builtin_found)
        claims.expect(f"search {args.kind}: all results re-verify as magic",
                      reverified)
        if orbit is not None:
            claims.expect("search squares: the built-in square's nine "
                          "observables have 72 arrangements in one orbit",
                          orbit == _SQUARE_ORBIT,
                          f"{orbit['arrangements']} in {orbit['orbits']} "
                          f"orbit(s) of sizes {orbit['orbit_sizes']}")
    data = {
        "kind": args.kind,
        "count": len(results),
        "complete": complete,
        "builtin_found": builtin_found,
        "results": [mg.config_dict(c) for c in results] if args.full else None,
    }
    lines = [f"search {args.kind}: {len(results)} result(s)"
             + ("" if complete else " [PARTIAL: budget exhausted]"),
             f"built-in configuration found: {builtin_found}",
             f"all results re-verified magic: {reverified}"]
    if orbit is not None:
        data["builtin_orbit"] = orbit
        lines.append(
            "arrangements of the built-in square's nine observables: "
            f"{orbit['arrangements']} in {orbit['orbits']} orbit(s) of sizes "
            f"{orbit['orbit_sizes']} under row/column permutation + transpose")
    if args.full and args.format == "text":
        for i, cfg in enumerate(results, 1):
            lines.append(f"result {i}: " + " | ".join(
                " ".join([cfg.observables[o].word for o in ctx])
                for ctx in cfg.contexts))
    return data, lines, None, claims


def _contains_builtin(results, kind):
    name = "mermin_square" if kind == "squares" else "mermin_pentagram"
    ref = mg.builtin(name)
    key = _config_key(ref)
    return any(_config_key(c) == key for c in results)


def _config_key(cfg):
    return (frozenset(o.word for o in cfg.observables),
            frozenset(frozenset(cfg.observables[i].word for i in ctx)
                      for ctx in cfg.contexts))


def run_entangle(args):
    cfg = _load_config(args)
    claims = Claims()
    contexts = []  # (label, ops, generators, class, entropy table)
    for ci in range(len(cfg.contexts)):
        ops = cfg.context_ops(ci)
        gens = en.context_generators(ops)
        contexts.append((cfg.context_labels[ci], ops, gens,
                         *en.classify_generators(gens)))
    pairwise = [{"contexts": [la, lb],
                 "mutually_unbiased": en.generators_unbiased(ga, gb)}
                for (la, _, ga, _, _), (lb, _, gb, _, _)
                in itertools.combinations(contexts, 2)]
    by_label = {label: cls for label, _, _, cls, _ in contexts}
    if args.check and getattr(args, "builtin", None) == "mermin_square":
        for label in ("row 1", "row 2", "column 1", "column 2"):
            claims.expect(f"{label} basis is product",
                          by_label[label] == "product", by_label[label])
        for label in ("row 3", "column 3"):  # row 3 is the Bell basis
            claims.expect(f"{label} basis is maximally entangled",
                          by_label[label] == "maximally-entangled",
                          by_label[label])
        table = en.overlap_table(cfg.context_ops(0), cfg.context_ops(1))
        claims.expect("row 1 and row 2 bases mutually unbiased at 1/4",
                      pairwise[0]["mutually_unbiased"]
                      and all(v == Fraction(1, 4) for r in table for v in r))
    if args.check and getattr(args, "builtin", None) == "mermin_pentagram":
        claims.expect("horizontal edge basis is maximally entangled "
                      "(1 bit across every 1-vs-2 bipartition)",
                      by_label["horizontal"] == "maximally-entangled",
                      by_label["horizontal"])
    data = {
        "geometry": cfg.geometry,
        # the 2^n basis states share one table, so one dict serves them all
        "contexts": [{
            "label": label,
            "observables": [o.word for o in ops],
            "class": cls,
            "entropies": [{"-".join(map(str, part)): bits
                           for part, bits in table.items()}] * 2 ** len(gens),
        } for label, ops, gens, cls, table in contexts],
        "unbiasedness": pairwise,
    }
    lines = [f"entanglement classification for {cfg.geometry}"]
    for c in data["contexts"]:
        lines.append(f"{c['label']}: {' '.join(c['observables'])} -> {c['class']}")
    for p in pairwise:
        lines.append(f"{p['contexts'][0]} vs {p['contexts'][1]}: "
                     + ("mutually unbiased" if p["mutually_unbiased"]
                        else "not mutually unbiased"))
    return data, lines, None, claims


def _parse_permutation(text, size):
    if text is None:
        return None
    try:
        perm = tuple(int(t) for t in text.split(","))
    except ValueError:
        perm = None
    if perm is None or sorted(perm) != list(range(size)):
        raise co.CorrespondError(f"permutation must rearrange 0..{size - 1}")
    return perm


def run_correspond(args):
    claims = Claims()
    if args.variant == "square":
        perm = _parse_permutation(args.permute, 9)
        bij, cmp = co.square_correspondence(perm)
        if args.check and perm is None:
            degs = [sum(row) for row in cmp.commuting]
            claims.expect("square: commuting adjacency equals distant "
                          "adjacency under the slot bijection",
                          cmp.isomorphic_under_bijection,
                          f"{len(cmp.mismatches)} mismatching pair(s)")
            claims.expect("square: both comparison graphs are degree-4 regular",
                          degs == [4] * 9 and
                          [sum(r) for r in cmp.distant] == [4] * 9)
    else:
        perm = _parse_permutation(args.permute, 10)
        bij, cmp = co.pentagram_correspondence(args.variant, perm)
        claims.note(f"{args.variant}: commuting vs distant comparison",
                    f"{len(cmp.mismatches)} mismatching pair(s); no adjacency "
                    "preservation is asserted for the pentagram variants")
    data = {
        "variant": args.variant,
        "bijection": [{"slot": s, "observable": o.word, "point": str(p)}
                      for s, o, p in zip(bij.slots, bij.observables, bij.points)],
        "isomorphic_under_bijection": cmp.isomorphic_under_bijection,
        "mismatches": [[bij.slots[i], bij.slots[j]] for i, j in cmp.mismatches],
    }
    lines = [f"correspondence for {args.variant}"]
    for entry in data["bijection"]:
        lines.append(f"  {entry['slot']:>14}  {entry['observable']:<5} "
                     f"<-> {entry['point']}")
    lines.append("commuting adjacency == distant adjacency: "
                 f"{cmp.isomorphic_under_bijection} "
                 f"({len(cmp.mismatches)} mismatching pair(s))")
    if args.variant == "jacobson":
        stars = co.edge_star_points(bij.points)
        data["edge_star_points"] = [{"edge": label,
                                     "points": [str(p) for p in pts]}
                                    for label, pts in stars]
        for label, pts in stars:
            lines.append(f"{label}: point distant to the other three: "
                         + (" ".join(str(p) for p in pts) or "(none)"))
        if args.check and perm is None:
            by_label = dict(stars)
            claims.expect("jacobson: (1,1) is the edge-star of the two top edges",
                          all(tuple(str(p) for p in by_label[l]) == ("(1,1)",)
                              for l in ("edge top/lower-left",
                                        "edge top/lower-right")))
            claims.expect("jacobson: (1,x^2+x+1) is the edge-star of the two "
                          "lower edges",
                          all(tuple(str(p) for p in by_label[l])
                              == ("(1,x^2+x+1)",)
                              for l in ("edge left/lower-right",
                                        "edge right/lower-left")))
            claims.expect("jacobson: the horizontal edge has no star point",
                          by_label["horizontal"] == ())
    dot = _correspond_dot(bij, cmp) if args.format == "dot" else None
    return data, lines, dot, claims


def _correspond_dot(bij, cmp):
    lines = ['graph "commuting (solid) vs distant (missing side dashed)" {']
    for s, o, p in zip(bij.slots, bij.observables, bij.points):
        lines.append(f'  "{s}" [label="{o.word}\\n{p}"];')
    n = len(bij.slots)
    for i in range(n):
        for j in range(i + 1, n):
            c, d = cmp.commuting[i][j], cmp.distant[i][j]
            if c and d:
                lines.append(f'  "{bij.slots[i]}" -- "{bij.slots[j]}";')
            elif c != d:
                style = "dashed" if c else "dotted"
                lines.append(f'  "{bij.slots[i]}" -- "{bij.slots[j]}" '
                             f'[style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def run_map(args):
    claims = Claims()
    if rg.build_ring(args.ring, size_cap=_size_cap()) != co.club_catalog().ring:
        raise co.CorrespondError(f"condensation is defined for {co.R_CLUB_SPEC}")
    rep = co.condensation(args.variant)
    per_edge = dict(rep.per_edge_images)
    if args.check:
        claims.expect(f"{args.variant}: horizontal edge condenses to "
                      f"{2 if args.variant == 'neighbourhood' else 4} points",
                      len(per_edge["horizontal"]) ==
                      (2 if args.variant == "neighbourhood" else 4),
                      " ".join(str(p) for p in per_edge["horizontal"]))
        if args.variant == "neighbourhood":
            claims.expect("neighbourhood: horizontal edge image is "
                          "{(x,x+1),(x+1,x)}",
                          tuple(str(p) for p in per_edge["horizontal"])
                          == ("(x,x+1)", "(x+1,x)"))
        claims.expect("points distant to (1,1) are "
                      "{(0,1),(1,0),(x,x+1),(x+1,x)}",
                      tuple(str(p) for p in rep.distant_to_unit_point)
                      == ("(0,1)", "(1,0)", "(x,x+1)", "(x+1,x)"))
    claims.note(f"{args.variant}: full-set condensation vs the points "
                "distant to (1,1)",
                "image " + " ".join(str(p) for p in rep.overall_image)
                + "; distant set " + " ".join(str(p)
                                              for p in rep.distant_to_unit_point)
                + "; image-only " + (" ".join(str(p)
                                              for p in rep.image_minus_distant)
                                     or "(none)")
                + "; distant-only " + (" ".join(str(p)
                                                for p in rep.distant_minus_image)
                                       or "(none)"))
    data = {
        "variant": rep.variant,
        "point_images": {str(k): str(v) for k, v in sorted(
            rep.point_images.items(), key=lambda kv: (kv[0].a, kv[0].b))},
        "per_edge_images": [{"edge": label, "images": [str(p) for p in pts]}
                            for label, pts in rep.per_edge_images],
        "overall_image": [str(p) for p in rep.overall_image],
        "distant_to_(1,1)": [str(p) for p in rep.distant_to_unit_point],
        "image_minus_distant": [str(p) for p in rep.image_minus_distant],
        "distant_minus_image": [str(p) for p in rep.distant_minus_image],
    }
    lines = [f"condensation of the {rep.variant} ten-point configuration "
             "under the radical-quotient map"]
    for k, v in data["point_images"].items():
        lines.append(f"  {k} -> {v}")
    for entry in data["per_edge_images"]:
        lines.append(f"{entry['edge']}: {len(entry['images'])} distinct "
                     "image(s): " + " ".join(entry["images"]))
    lines.append("overall image: " + " ".join(data["overall_image"]))
    lines.append("distant to (1,1): " + " ".join(data["distant_to_(1,1)"]))
    return data, lines, None, claims


def _finish_claims(claims: Claims, data: dict, lines: list[str]):
    if claims.checked or claims.notes:
        data["claims"] = claims.as_dict()
        lines.extend(claims.text_lines())


# ---------------------------------------------------------------------------


# the options of every request: one table, and a parser over it that reads
# argv by argparse's rules, with argparse's wording for every refusal


def _common(*formats):
    return {"--format": (("text", "json", *formats), "text", None),
            "--out": (str, None, "write the report to this path"),
            "--check": (bool, False, "evaluate the documented expectations")}


_SOURCE = {"--builtin": (("mermin_square", "mermin_pentagram"), None, None),
           "--config": (str, None, "configuration JSON file")}
_OTHER_SOURCE = {"--builtin": "--config", "--config": "--builtin"}

# command: (runner, help, {option: (kind, default, help)}), in usage order.
# A kind is bool (a flag), str, int or a tuple of choices; a default of ...
# marks a required option; one of --builtin and --config is required, not both
COMMANDS = {
    "ring": (run_ring, "elements, units, radical, quotient",
             {"--ring": (str, ..., 'e.g. "gf(2)[x]/(x^3-x)"'), **_common()}),
    "line": (run_line, "projective line catalog",
             {"--ring": (str, ..., None), "--graph": (
                 ("distant", "neighbour"), "distant",
                 "which graph for dot output"), **_common("dot")}),
    "verify": (run_verify, "context commutation, signs, magic flag",
               {**_SOURCE, **_common()}),
    "bks": (run_bks, "valuation or parity certificate",
            {**_SOURCE, **_common()}),
    "entangle": (run_entangle, "eigenbasis entanglement classes",
                 {**_SOURCE, **_common()}),
    "search": (run_search, "exhaustive square/pentagram search",
               {"--kind": (("squares", "pentagrams"), ..., None),
                "--budget": (int, None, "search-node cap for pentagrams"),
                "--full": (bool, False,
                           "include every result in the report body"),
                **_common()}),
    "correspond": (run_correspond, "slot bijections and graph comparison",
                   {"--variant": (("square",) + co.VARIANTS, ..., None),
                    "--permute": (str, None,
                                  "comma-separated slot permutation"),
                    **_common("dot")}),
    "map": (run_map, "condensation under the radical quotient",
            {"--ring": (str, co.R_CLUB_SPEC,
                        "source ring (the 18-point line's ring)"),
             "--variant": (co.VARIANTS, ..., None), **_common()}),
}
_HELP = ("-h", "--help")
_NUMBER = r"^-\d+$|^-\d*\.\d+$"  # a value, though it starts with -


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: ringline [-h] {" + ",".join(COMMANDS) + "} ..."
    parts = [f"usage: ringline {command} [-h]"]
    for name, (kind, default, _) in COMMANDS[command][2].items():
        part = _spelling(name, kind)
        parts.append({"--builtin": f"({part}", "--config": f"| {part})"}.get(
            name, part if default is ... else f"[{part}]"))
    return " ".join(parts)


def _spelling(name: str, kind) -> str:
    if kind is bool:
        return name
    return f"{name} " + ("{" + ",".join(kind) + "}" if type(kind) is tuple
                         else name[2:].upper())


def _refuse(command: str | None, error: str, name: str = ""):
    """Every argument error: the usage line and argparse's wording, naming
    the option if given, on stderr; exit 3."""
    prog = "ringline" if command is None else f"ringline {command}"
    error = f"argument {name}: {error}" if name else error
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {error}\n")
    raise SystemExit(EXIT_INPUT)


def _help(command: str | None, name: str, value: str | None):
    """Help on stdout and exit 0, for -h, --help and -hh...; any other value
    after them is an error."""
    if value is not None and (name != "-h" or not value or value.strip("h")):
        _refuse(command, "ignored explicit argument " + repr(
            value.lstrip("h") if name == "-h" else value), "-h/--help")
    _, about, options = COMMANDS.get(command, (None, (
        "projective ring lines, Pauli contexts and magic configurations, "
        "exactly\n\ncommands:\n" + "".join(
            f"  {c:<12}  {h}\n" for c, (_, h, _) in COMMANDS.items())), {}))
    sys.stdout.write(f"{_usage(command)}\n\n{about.rstrip()}\n\noptions:\n"
                     "  -h, --help      show this help message and exit\n"
                     + "".join(f"  {_spelling(n, k):<14}  {h or ''}".rstrip()
                               + "\n" for n, (k, _, h) in options.items()))
    raise SystemExit(EXIT_OK)


def _read(token: str, options: dict, command: str | None):
    """argparse's reading of a token among -h and the options: None for a
    value, (None, None) for an unknown option, else (name, "=" value or
    None)."""
    if token[:1] != "-" or token == "-":
        return None
    names = (*_HELP, *options)
    if token in names:
        return token, None
    head, eq, value = token.partition("=")
    if eq and head in names:
        return head, value
    if token[1] == "-":  # a unique prefix names its option
        found = [(n, value if eq else None) for n in names
                 if n.startswith(head)]
    else:
        found = [("-h", token[2:])] if token[:2] == "-h" else []
    if len(found) > 1:
        _refuse(command, f"ambiguous option: {token} could match "
                + ", ".join(n for n, _ in found))
    if found:
        return found[0]
    return None if re.match(_NUMBER, token) or " " in token else (None, None)


def parse_args(argv: list[str]) -> types.SimpleNamespace:
    """The request argv names, read as argparse reads it into a namespace,
    then with the two --budget checks.  Help and refusals raise SystemExit,
    with code 0 and 3."""
    extras, command, i = [], None, 0
    for i, token in enumerate(argv):
        if token == "--":  # argparse reads "--" and what follows as a command
            command = token if argv[i + 1:] else None
            break
        if token[:1] != "-" or (read := _read(token, {}, None)) is None:
            command = token
            break
        if read[0]:
            _help(None, *read)
        extras.append(token)
    if command not in COMMANDS:
        _refuse(None, "the following arguments are required: command"
                if command is None else f"argument command: invalid choice: "
                f"{command!r} (choose from {', '.join(map(repr, COMMANDS))})")
    options, rest = COMMANDS[command][2], argv[i + 1:]
    stop = rest.index("--") if "--" in rest else len(rest)
    # exact names and plain values, the tokens of most requests, first
    reads = [(t, None) if t in options else None if t[:1] != "-" else
             _read(t, options, command) for t in rest[:stop]]
    args = {"command": command}
    for name, (_, default, _) in options.items():
        args[name[2:]] = default
    j = 0
    while j < stop:
        name, value = reads[j] or (None, None)
        j += 1
        if name is None:
            extras.append(rest[j - 1])
            continue
        if name in _HELP:
            _help(command, name, value)
        kind = options[name][0]
        if kind is bool:
            if value is not None:
                _refuse(command, f"ignored explicit argument {value!r}", name)
            value = True
        elif value is None or value == "--":  # argparse stored "=--" as []
            if value or j == stop or reads[j] is not None:
                _refuse(command, "expected one argument", name)
            value, j = rest[j], j + 1
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _refuse(command, f"invalid int value: {value!r}", name)
        elif type(kind) is tuple and value not in kind:
            _refuse(command, f"invalid choice: {value!r} (choose from "
                    f"{', '.join(map(repr, kind))})", name)
        if (other := _OTHER_SOURCE.get(name)) and args[other[2:]] is not None:
            _refuse(command, f"not allowed with argument {other}", name)
        args[name[2:]] = value
    if ... in args.values():
        _refuse(command, "the following arguments are required: "
                + ", ".join(n for n in options if args[n[2:]] is ...))
    if "--builtin" in options and args["builtin"] == args["config"] is None:
        _refuse(command, "one of the arguments --builtin --config is required")
    if extras := extras + rest[stop:]:
        _refuse(None, "unrecognized arguments: " + " ".join(extras))
    budget = args.get("budget")
    if budget is not None and (budget < 0 or args["kind"] == "squares"):
        _refuse(None, f"must be >= 0, got {budget}" if budget < 0
                else "applies to --kind pentagrams only", "--budget")
    return types.SimpleNamespace(**args)


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as e:
        return e.code
    try:
        data, lines, dot, claims = COMMANDS[args.command][0](args)
        _finish_claims(claims, data, lines)
        body = _render(data, lines, args.format, dot)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(body)
        else:
            sys.stdout.write(body)
    except INPUT_ERRORS as e:
        sys.stderr.write(f"input error: {e}\n")
        return EXIT_INPUT
    except Exception as e:  # a bug, not bad input: one line, no traceback
        sys.stderr.write(f"internal error: {type(e).__name__}: {e}\n")
        return EXIT_INTERNAL
    return EXIT_CLAIM if claims.failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
