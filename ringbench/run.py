"""ringline benchmark: one seeded, closed-loop, single-client run.

    python3 ringbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The inputs come from the seed alone
(see inputs.py).  A worker process imports ringline from the checkout's
``src`` and answers every request through ``ringline.cli.main``, one
request at a time, in one warm interpreter; only one worker runs at a
time.  Every answer is checked by oracle.py, which never imports ringline.

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` a plain worker and
then a traced worker answer the same requests, and the last line carries
the per-layer metrics.  The line before it holds the details: the tail
percentile and sample count, the set-up samples, a host-speed probe, the
wall-clock values and where each layer metric came from.

End-to-end times are reported at a reference host speed.  The 2-core
shared host this was tuned on switches between a fast and a slow mode
about 1.45x apart, in spells from under a second to minutes, which moved
wall-clock medians by up to 30% between runs of the same code.  So the
worker times a fixed pure-Python calibration loop before, during and after
every request (worker.HostSpeed), and each request's seconds are scaled by
CALIBRATION_REF_S over its mean calibration; set-up samples likewise.  The
same scaling applies to every commit, so a change in ringline's own speed
shows in full.  Per-layer times are wall-clock.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import oracle
from worker import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK = ROOT / ".ringbench_work"
SECONDS_PER_UNIT = 20  # one unit of a workload's plan takes about this long
SETUP_SAMPLES = 11
DEADLINE_S = 170
# worker.calibrate() takes about this long on the host the bounds were set on
CALIBRATION_REF_S = 1.5e-3
STARTED = time.monotonic()


def host_probe_ms(reps: int = 15) -> float:
    """Median time of a fixed pure-Python loop; shows slow patches of the host."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def spawn_worker(*args: str) -> str:
    """Run one worker to completion; the whole run stays within DEADLINE_S."""
    left = DEADLINE_S - (time.monotonic() - STARTED)
    proc = subprocess.run([sys.executable, str(WORKER), str(SRC), *args],
                          cwd=WORK, capture_output=True, text=True,
                          timeout=max(left, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed: {proc.stderr.strip()}")
    return proc.stdout


def setup_seconds() -> list[tuple[float, float]]:
    """(seconds, mean calibration seconds) from process start to
    ``import ringline.cli`` done, for fresh workers, with a calibration
    before and after each.  The first spawn compiles the bytecode cache
    and is not counted."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        before = calibrate()
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = float(spawn_worker("setup"))
        if i:
            samples.append((done - start, (before + calibrate()) / 2))
    return samples


def run_worker(mode: str) -> dict:
    out = WORK / f"{mode}-results.json"
    spawn_worker(mode, str(WORK / "requests.json"), str(out))
    with open(out, encoding="utf-8") as f:
        return json.load(f)


def latencies(answers: list) -> list[float]:
    """Request seconds at the reference host speed: each wall-clock time is
    scaled by CALIBRATION_REF_S over the mean calibration taken before,
    during and after that request (see worker.HostSpeed)."""
    return [took * CALIBRATION_REF_S / cal for _, _, took, cal in answers]


def tail(values: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least 10 samples beyond it
    (nearest rank), and its value."""
    n = len(values)
    pct = math.floor(100 * (n - 10) / n)
    rank = math.ceil(pct * n / 100)
    return pct, sorted(values)[rank - 1]


# ---------------------------------------------------------------------------
# checking


def check_all(reqs: list[dict], answers: list, configs: dict) -> list[list[str]]:
    return [oracle.check_answer(req, rc, out, configs)
            for req, (rc, out, *_) in zip(reqs, answers)]


def _tamper(cmd: str, data: dict) -> None:
    """Make one answer wrong in the way a fast but broken change might."""
    if cmd == "line":
        data["points"].pop()
    elif cmd == "ring":
        data["units"].pop()
    elif cmd == "verify":
        data["magic"] = not data["magic"]
    elif cmd == "bks":
        res = data["result"]
        if "valuation" in res:
            key = next(iter(res["valuation"]))
            res["valuation"][key] *= -1
        else:
            res["certificate_contexts"].pop()
    elif cmd == "entangle":
        data["contexts"][0]["entropies"][0] = {}
    elif cmd == "search":
        data["count"] -= 1
    elif cmd == "correspond":
        data["isomorphic_under_bijection"] = not data["isomorphic_under_bijection"]
    elif cmd == "map":
        data["overall_image"] = data["overall_image"][1:]


def self_test(reqs: list[dict], answers: list, configs: dict) -> dict:
    """Tamper with the first answer of each subcommand; the checker must
    reject every tampered copy."""
    seen, rejected = set(), 0
    for req, (rc, out, *_) in zip(reqs, answers):
        cmd = req["argv"][0]
        if cmd in seen:
            continue
        seen.add(cmd)
        data = json.loads(out)
        _tamper(cmd, data)
        rejected += bool(oracle.check_answer(req, rc, json.dumps(data), configs))
    return {"tampered": len(seen), "rejected": rejected}


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def _self_times(spans: list) -> dict[int, float]:
    child = {}
    for _, sid, parent, _, start, end, _ in spans:
        child[parent] = child.get(parent, 0.0) + end - start
    return {s[1]: s[5] - s[4] - child.get(s[1], 0.0) for s in spans}


SPAN_METRICS = {  # metric -> (span name, size filter, scale)
    "rings.build_ring_ms": ("rings.build_ring", None, 1e3),
    "rings.classify_ms": ("rings.classify", None, 1e3),
    "rings.jacobson_radical_ms": ("rings.jacobson_radical", None, 1e3),
    "rings.quotient_by_radical_ms": ("rings.quotient_by_radical", None, 1e3),
    "rings.validate_hom_ms": ("rings.validate_hom", None, 1e3),
    "rings.find_isomorphism_ms": ("rings.find_isomorphism", None, 1e3),
    "projline.enumerate_points_ms": ("projline.enumerate_points", None, 1e3),
    "projline.expected_point_count_ms": ("projline.expected_point_count", None, 1e3),
    "projline.induced_point_map_ms": ("projline.induced_point_map", None, 1e3),
    "magic.bks_decide_ms": ("magic.bks_decide", 10, 1e3),
    "magic.bks_decide_large_ms": ("magic.bks_decide", 20, 1e3),
    "magic.search_pentagrams_s": ("magic.search_pentagrams", None, 1.0),
    "magic.verify_magic_ms": ("magic.verify_magic", None, 1e3),
    "magic.search_squares_ms": ("magic.search_squares", None, 1e3),
    "magic.square_orbit_report_ms": ("magic.square_orbit_report", None, 1e3),
    "entangle.classify_context_ms": ("entangle.classify_context", None, 1e3),
    "entangle.mutually_unbiased_ms": ("entangle.mutually_unbiased", None, 1e3),
    "correspond.square_correspondence_ms": ("correspond.square_correspondence", None, 1e3),
    "correspond.pentagram_correspondence_ms": ("correspond.pentagram_correspondence", None, 1e3),
    "correspond.condensation_ms": ("correspond.condensation", None, 1e3),
    "cli.self_ms": ("cli.main", None, 1e3),
}


def layer_metrics(spans: list, loops: dict, plain_wall: float,
                  traced_wall: float) -> tuple[dict, dict]:
    """(metric values, metric sources).  A metric comes from the workload's
    own requests when they make the call, else from the fixed probe."""
    selfs = _self_times(spans)
    own = [s for s in spans if not s[0].startswith("probe:")]
    probe = [s for s in spans if s[0].startswith("probe:")]

    def pick(match):
        mine = [s for s in own if match(s)]
        return (mine, "workload") if mine else ([s for s in probe if match(s)],
                                                "probe")

    values, sources = {}, {}
    for metric, (name, size, scale) in SPAN_METRICS.items():
        chosen, sources[metric] = pick(
            lambda s, n=name, m=size: s[3] == n and m in (None, s[6]))
        values[metric] = statistics.median(selfs[s[1]] for s in chosen) * scale
    lines, sources["projline.points"] = pick(
        lambda s: s[3] == "projline.enumerate_points")
    values["projline.points"] = sum(s[6] for s in lines)
    values["projline.relation_cells"] = sum(s[6] ** 2 for s in lines)
    values["projline.points_per_s"] = values["projline.points"] / sum(
        s[5] - s[4] for s in lines)
    searches, sources["magic.search_results"] = pick(
        lambda s: s[3] in ("magic.search_squares", "magic.search_pentagrams"))
    values["magic.search_results"] = sum(s[6] for s in searches)
    # BKS decisions made while answering the search requests: the CLI
    # decides every kept result again, so results / decisions shows waste
    search_reqs = {s[0] for s in searches}
    values["magic.bks_decide_calls"] = sum(
        s[0] in search_reqs for s in spans if s[3] == "magic.bks_decide")
    values["magic.search_yield"] = (values["magic.search_results"]
                                    / values["magic.bks_decide_calls"])
    values.update(loops)
    values["trace.overhead_s"] = traced_wall - plain_wall
    return values, sources


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "ringline" / "cli.py").is_file():
        sys.stderr.write(f"no ringline sources under {SRC}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    units = max(1, round(args.seconds / SECONDS_PER_UNIT))
    reqs, configs = inputs.generate(args.workload, args.seed, units)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    for name, cfg in configs.items():
        (WORK / name).write_text(json.dumps(cfg), encoding="utf-8")
    large = inputs.probe_large()
    (WORK / "requests.json").write_text(
        json.dumps({"requests": reqs, "probe_large": large}), encoding="utf-8")

    details = {"workload": args.workload, "seed": args.seed, "units": units,
               "requests": len(reqs),
               "inputs_sha256": hashlib.sha256(
                   inputs.dump(reqs, configs).encode()).hexdigest(),
               "host_probe_ms": host_probe_ms()}
    plain = run_worker("plain")
    problems = check_all(reqs, plain["answers"], configs)
    details["self_test"] = self_test(reqs, plain["answers"], configs)
    correct = details["self_test"]["rejected"] == details["self_test"]["tampered"]

    metrics = {}
    if args.trace:
        traced = run_worker("trace")
        for i, (a, b) in enumerate(zip(plain["answers"], traced["answers"])):
            if a[1] != b[1]:
                problems[i] = problems[i] + ["traced answer differs"]
        values, details["sources"] = layer_metrics(
            traced["spans"], traced["probe_loops"],
            sum(latencies(plain["answers"])), sum(latencies(traced["answers"])))
        details["spans"] = len(traced["spans"])
        details["span_cost_us"] = traced["span_cost_us"]
        # the lines the line requests enumerate must match the closed form
        line_reqs = {str(i) for i, r in enumerate(reqs) if r["argv"][0] == "line"}
        if line_reqs:
            got = sum(s[6] for s in traced["spans"]
                      if s[3] == "projline.enumerate_points" and s[0] in line_reqs)
            want = sum(oracle.ring_facts(reqs[int(i)]["argv"][2])["points"]
                       for i in line_reqs)
            correct &= got == want
            details["line_points"] = {"traced": got, "closed_form": want}
    else:
        lat = latencies(plain["answers"])
        raw = [took for _, _, took, _ in plain["answers"]]
        pct, tail_s = tail(lat)
        setups = setup_seconds()
        setup_s = [t * CALIBRATION_REF_S / cal for t, cal in setups]
        values = {"wall_s": sum(lat),
                  "op_p50_ms": statistics.median(lat) * 1e3,
                  "op_tail_ms": tail_s * 1e3,
                  "setup_s": statistics.median(setup_s),
                  "peak_rss_mb": plain["peak_rss_kb"] / 1024}
        details.update(
            tail_percentile=pct, latency_samples=len(lat), setup_samples=setup_s,
            wall_clock={"wall_s": sum(raw),
                        "setup_s": statistics.median(t for t, _ in setups),
                        "op_p50_ms": statistics.median(raw) * 1e3,
                        "op_tail_ms": tail(raw)[1] * 1e3},
            calibration_ms=statistics.median(c for *_, c in plain["answers"]) * 1e3)
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    failed = sum(bool(p) for p in problems)
    details["failures"] = {i: p for i, p in enumerate(problems) if p}
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": correct and not failed, "attempted": len(reqs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
