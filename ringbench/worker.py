"""One worker process: imports ringline from the checkout and answers the
run's requests through ``ringline.cli.main`` in one warm interpreter.

    python3 worker.py SRC setup
    python3 worker.py SRC plain|trace REQUESTS.json RESULTS.json

``setup`` prints the CLOCK_MONOTONIC time at which ``import ringline.cli``
finished, so the parent can time set-up from the moment it started this
process.  ``plain`` times every request with tracing off, together with
calibrations of the host's speed taken around and inside it.  ``trace``
answers the same requests with spans around ringline's public functions,
then runs a fixed probe over the layer calls a workload may not reach.
The working directory holds the requests' configuration files.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import resource
import signal
import statistics
import sys
import time


def load_cli(src: str):
    sys.path.insert(0, src)
    import ringline.cli as cli
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src)):
        raise SystemExit(f"ringline was imported from {cli.__file__}, "
                         f"not from {src}")
    return cli


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of dict and tuple work: the
    host's current speed for code like ringline's."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(4000):
        key = (i % 17, i % 13)
        table[key] = table.get(key, 0) + len(str(i))
    return time.perf_counter() - start


class HostSpeed:
    """Calibrations before, during (every INTERVAL_S, from a timer signal)
    and after each request.  The host switches between a fast and a slow
    mode within a second, so a long request needs samples from inside it."""

    INTERVAL_S = 0.25

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds the timer's calibrations took
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - start

    def answer(self, cli, argv: list[str]) -> tuple[int, str, float, float]:
        """(exit code, output, seconds, mean calibration seconds) of one
        request; the seconds exclude the calibrations run inside it.  A
        request that raises is answered with exit code -1 and the exception,
        and the run goes on."""
        first = len(self.samples)
        self.samples.append(calibrate())
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            spent = self.spent
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
            start = time.perf_counter()
            try:
                rc = cli.main(list(argv))
            except Exception as e:  # noqa: BLE001 -- counted as a failed request
                rc = -1
                err.write(f"{type(e).__name__}: {e}")
            took = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            took -= self.spent - spent
        self.samples.append(calibrate())
        return (rc, out.getvalue() or err.getvalue(), took,
                statistics.mean(self.samples[first:]))


def _per_call_us(fn, calls: list[tuple], reps: int = 5) -> float:
    """Median over ``reps`` passes of the mean time per call, in us."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        for args in calls:
            fn(*args)
        times.append((time.perf_counter() - start) / len(calls) * 1e6)
    return statistics.median(times)


def probe(cli, tracer, large: dict) -> dict:
    """Fixed calls into every layer; spans go under request ids 'probe:*'.

    The Pauli and GF(2) primitives are timed as loops without spans:
    all ordered pairs of three-qubit words, and 500 fixed random systems.
    """
    from ringline import (correspond as co, entangle as en, gf2, magic as mg,
                          pauli as pa, projline as pl, rings as rg)
    words = pa.all_words(3, include_identity=True)
    pairs = [(a, b) for a in words for b in words]
    contexts = [([a, b, pa.PauliObservable(pa.multiply(a, b).word)],)
                for a, b in pairs
                if a != b and pa.commutes(a, b) and not a.is_identity_word()
                and not b.is_identity_word()]
    rnd = random.Random(0)
    systems = []
    for _ in range(500):
        rows = [rnd.getrandbits(rnd.randint(10, 20)) for _ in range(rnd.randint(5, 20))]
        systems.append((rows, [rnd.getrandbits(1) for _ in rows]))
    loops = {
        "pauli.commutes_us": _per_call_us(pa.commutes, pairs),
        "pauli.multiply_us": _per_call_us(pa.multiply, pairs),
        "pauli.context_product_sign_us": _per_call_us(pa.context_product_sign,
                                                      contexts),
        "gf2.solve_us": _per_call_us(gf2.solve, systems),
    }

    def step(name, fn, *args):
        tracer.request = f"probe:{name}"
        return fn(*args)

    for spec in ("gf(2)[x]/(x^3-x)", "gf(2)[x]/(x^2-x)", "gf(4)",
                 "gf(2)xgf(3)"):
        ring = step("rings", rg.build_ring, spec)
        for a in ring.elements():
            step("rings", ring.classify, a)
        step("rings", rg.jacobson_radical, ring)
        _, hom = step("rings", rg.quotient_by_radical, ring)
        step("rings", rg.validate_hom, hom)
        step("projline", pl.enumerate_points, ring)
        step("projline", pl.expected_point_count, ring)
    club = step("projline", pl.enumerate_points, rg.build_ring(co.R_CLUB_SPEC))
    tilde = step("projline", pl.enumerate_points, rg.build_ring(co.R_TILDE_SPEC))
    quotient, surjection = step("rings", rg.quotient_by_radical, club.ring)
    iso = step("rings", rg.find_isomorphism, quotient, tilde.ring)
    step("projline", pl.induced_point_map, iso.compose(surjection), club, tilde)
    square, pent = mg.builtin("mermin_square"), mg.builtin("mermin_pentagram")
    for cfg in (square, pent):
        step("magic", mg.verify_magic, cfg)
        step("magic", mg.bks_decide, cfg)
    step("magic", mg.bks_decide, mg.config_from_json(json.dumps(large)))
    step("magic", mg.search_squares)
    step("magic", mg.square_orbit_report, mg.SQUARE_WORDS)
    step("magic", HostSpeed().answer, cli,
         ["search", "--kind", "pentagrams", "--budget", "20000", "--format", "json"])
    step("entangle", en.classify_context, square.context_ops(2))
    step("entangle", en.mutually_unbiased, square.context_ops(0),
         square.context_ops(1))
    step("correspond", co.square_correspondence)
    step("correspond", co.pentagram_correspondence, "jacobson")
    step("correspond", co.condensation, "neighbourhood")
    return loops


def span_cost_us(tracer, calls: int = 5000) -> float:
    """What one span adds to a call, from a wrapped and a bare no-op."""
    def noop():
        return None
    wrapped = tracer.wrap("noop", noop)
    bare = _per_call_us(noop, [()] * calls)
    return _per_call_us(wrapped, [()] * calls) - bare


def main(argv: list[str]) -> int:
    src, mode = argv[0], argv[1]
    cli = load_cli(src)
    if mode == "setup":
        print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
        return 0
    with open(argv[2], encoding="utf-8") as f:
        run = json.load(f)
    tracer = None
    if mode == "trace":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    host = HostSpeed()
    answers = []
    for i, req in enumerate(run["requests"]):
        if tracer:
            tracer.request = str(i)
        # start every request from a collected heap, so that a collection
        # of the previous request's garbage is not charged to this one
        gc.collect()
        answers.append(host.answer(cli, req["argv"]))
    result = {"answers": answers,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        result["probe_loops"] = probe(cli, tracer, run["probe_large"])
        result["span_cost_us"] = span_cost_us(Tracer())
        result["spans"] = tracer.finished()
    with open(argv[3], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
