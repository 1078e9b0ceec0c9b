"""The CLI's argparse parser, kept as the oracle of ``cli.parse_args``.

``build_parser`` is the parser the CLI ran on before its option table.
``parse`` reads an argv as the CLI's ``main`` then did: argparse, followed
by the two ``--budget`` checks made through the top-level parser.  Both
write what argparse writes and raise ``SystemExit``: 0 for help, 2 for a
refusal.
"""

import argparse
import functools

from ringline import correspond as co


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every
    later call in the process."""
    ap = argparse.ArgumentParser(
        prog="ringline",
        description="projective ring lines, Pauli contexts and magic "
                    "configurations, exactly")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, dot_ok=False):
        p.add_argument("--format", choices=("text", "json") + (("dot",)
                       if dot_ok else ()), default="text")
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--check", action="store_true",
                       help="evaluate the documented expectations")

    p = sub.add_parser("ring", help="elements, units, radical, quotient")
    p.add_argument("--ring", required=True, help='e.g. "gf(2)[x]/(x^3-x)"')
    common(p)

    p = sub.add_parser("line", help="projective line catalog")
    p.add_argument("--ring", required=True)
    p.add_argument("--graph", choices=("distant", "neighbour"),
                   default="distant", help="which graph for dot output")
    common(p, dot_ok=True)

    for name, desc in (("verify", "context commutation, signs, magic flag"),
                       ("bks", "valuation or parity certificate"),
                       ("entangle", "eigenbasis entanglement classes")):
        p = sub.add_parser(name, help=desc)
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--builtin", choices=("mermin_square",
                                             "mermin_pentagram"))
        g.add_argument("--config", help="configuration JSON file")
        common(p)

    p = sub.add_parser("search", help="exhaustive square/pentagram search")
    p.add_argument("--kind", choices=("squares", "pentagrams"), required=True)
    p.add_argument("--budget", type=int, default=None,
                   help="search-node cap for pentagrams")
    p.add_argument("--full", action="store_true",
                   help="include every result in the report body")
    common(p)

    p = sub.add_parser("correspond", help="slot bijections and graph comparison")
    p.add_argument("--variant", choices=("square",) + co.VARIANTS,
                   required=True)
    p.add_argument("--permute", help="comma-separated slot permutation")
    common(p, dot_ok=True)

    p = sub.add_parser("map", help="condensation under the radical quotient")
    p.add_argument("--ring", default=co.R_CLUB_SPEC, dest="ring",
                   help="source ring (the 18-point line's ring)")
    p.add_argument("--variant", choices=co.VARIANTS, required=True)
    common(p)
    return ap


def parse(argv):
    """The namespace the CLI's main read from argv, with its checks."""
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "budget", None) is not None:
        if args.budget < 0:
            ap.error(f"argument --budget: must be >= 0, got {args.budget}")
        if args.kind == "squares":
            ap.error("argument --budget: applies to --kind pentagrams only")
    return args
