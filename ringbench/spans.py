"""Spans around calls into ringline's public functions, installed from
outside the package.

Each wrapped call records (request id, span id, parent span id, name,
start, end, size) in memory.  ``size`` is a count read off the call: the
points of an enumerated line, the results of a search, or the observables
of a configuration a BKS decision was made for.

The hot Pauli and GF(2) primitives (``pauli.commutes``, ``gf2.solve`` and
friends) are not wrapped: pentagram-search calls them over a million
times, so a span each would swamp what it measures.  A fixed probe times
them instead (see ``worker.probe``).
"""

from __future__ import annotations

import functools
import sys
import time

# layer -> public functions wrapped in that layer; "Ring.classify" is a method
WRAPPED = {
    "rings": ["build_ring", "Ring.classify", "jacobson_radical",
              "quotient_by_radical", "validate_hom", "find_isomorphism"],
    "projline": ["enumerate_points", "expected_point_count",
                 "induced_point_map", "distinguished_subsets", "catalog_dot"],
    "magic": ["builtin", "config_from_json", "config_to_json", "verify_magic",
              "bks_decide", "search_squares", "square_orbit_report",
              "search_pentagrams"],
    "entangle": ["classify_context", "mutually_unbiased"],
    "correspond": ["square_correspondence", "pentagram_correspondence",
                   "edge_star_points", "condensation"],
    "cli": ["main"],
}


def _size(name: str, args, result) -> int | None:
    if name == "projline.enumerate_points":
        return len(result.points)
    if name == "magic.search_squares":
        return len(result)
    if name == "magic.search_pentagrams":
        return len(result.results)
    if name == "magic.bks_decide":
        return len(args[0].observables)
    return None


class Tracer:
    """Span recorder; ``install`` swaps the wrapped functions in."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.request = ""
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans[sid] = (self.request, sid, parent, name, start, end,
                          _size(name, args, result))
            return result

        return traced

    def install(self):
        """Wrap every function in WRAPPED, in every ringline module that
        binds it, so calls between modules are traced too."""
        mods = {k: v for k, v in sys.modules.items()
                if k.startswith("ringline") and v is not None}
        for layer, names in WRAPPED.items():
            mod = mods[f"ringline.{layer}"]
            for qual in names:
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, attr, self.wrap(f"{layer}.{attr}",
                                                  getattr(cls, attr)))
                    continue
                orig = getattr(mod, qual)
                traced = self.wrap(f"{layer}.{qual}", orig)
                for other in mods.values():
                    for key, val in list(vars(other).items()):
                        if val is orig:
                            setattr(other, key, traced)

    def finished(self) -> list[tuple]:
        """Spans of completed calls (a call that raised leaves no span)."""
        return [s for s in self.spans if s is not None]
