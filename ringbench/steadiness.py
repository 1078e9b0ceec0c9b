"""Steadiness report: run one commit as two interleaved sets of benchmark
runs and compare them against the bounds in BENCHMARK.json.

    python3 ringbench/steadiness.py [--runs 10] [--workloads A B] [--traced 2]

Run from the root of a checkout.  For each workload, set A uses seeds
1..N and set B seeds 1001..1000+N; pair i runs A first when i is even and
B first when it is odd.  For each end-to-end metric the report prints
both sets' quartiles, the spread (q3 - q1) / median of each set, the shift
of B's median against A's, and the metric's bound.  A spread up to a third
of the bound is steady; a spread or shift beyond the bound fails.  Each
run's host-speed probe is listed so that a slow patch of the host shows.
``--traced K`` adds K traced runs per workload and checks that the exact
counts repeat.  Runs are sequential; the report ends with one JSON line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent
EXACT = ("projline.points", "projline.relation_cells",
         "magic.bks_decide_calls", "magic.search_results")


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "ringbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    *_, details, result = proc.stdout.splitlines()
    return json.loads(details)["details"], json.loads(result)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--traced", type=int, default=0)
    args = ap.parse_args()
    seconds = spec["run_seconds"]
    report = {"ok": True, "workloads": {}}
    for workload in args.workloads:
        sets = {"A": [], "B": []}
        probes, hashes = [], set()
        for i in range(args.runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for s in order:
                seed = (1 if s == "A" else 1001) + i
                details, result = bench(workload, seed, seconds, 0)
                if not result["correct"] or result["failed"]:
                    report["ok"] = False
                sets[s].append(result["metrics"])
                probes.append(round(details["host_probe_ms"], 2))
                hashes.add(details["inputs_sha256"])
        # every seed gave other inputs; one seed gives the same inputs twice
        same = inputs.dump(*inputs.generate(workload, 1, 1)) == \
            inputs.dump(*inputs.generate(workload, 1, 1))
        print(f"inputs: {len(hashes)} distinct for {2 * args.runs} seeds; "
              f"seed 1 twice gives {'the same' if same else 'OTHER'} inputs")
        report["ok"] &= same and len(hashes) == 2 * args.runs
        print(f"== {workload}: {args.runs} runs per set; host probe ms "
              f"{probes}")
        rows = {}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            row = {}
            for s, runs in sets.items():
                q1, q2, q3 = quartiles([r[name]["value"] for r in runs])
                row[s] = {"q1": q1, "median": q2, "q3": q3,
                          "spread": (q3 - q1) / q2}
            shift = row["B"]["median"] / row["A"]["median"] - 1
            worst = max(row["A"]["spread"], row["B"]["spread"])
            verdict = ("steady" if worst <= bound / 3 else
                       "within bound" if worst <= bound else "TOO NOISY")
            if name != "setup_s" and worst > bound or abs(shift) > bound:
                report["ok"] = False
                verdict += "" if abs(shift) <= bound else "; SHIFT"
            row.update(shift=shift, bound=bound, verdict=verdict)
            rows[name] = row
            print(f"{name:12s} A {row['A']['q1']:.4g} [{row['A']['median']:.4g}]"
                  f" {row['A']['q3']:.4g} spread {row['A']['spread']:.3f} | "
                  f"B {row['B']['q1']:.4g} [{row['B']['median']:.4g}] "
                  f"{row['B']['q3']:.4g} spread {row['B']['spread']:.3f} | "
                  f"shift {shift:+.3f} bound {bound} {verdict}")
        counts = []
        for k in range(args.traced):
            _, result = bench(workload, 2001 + k, seconds, 1)
            if not result["correct"] or result["failed"]:
                report["ok"] = False
            counts.append({c: result["metrics"][c]["value"] for c in EXACT})
        if counts:
            same = all(c == counts[0] for c in counts)
            report["ok"] &= same
            print(f"exact counts over {len(counts)} traced runs: {counts[0]} "
                  + ("repeat exactly" if same else f"DIFFER: {counts}"))
        report["workloads"][workload] = {
            "metrics": rows, "host_probe_ms": probes, "exact_counts": counts,
            "runs": {s: [{k: v["value"] for k, v in r.items()} for r in runs]
                     for s, runs in sets.items()}}
    print(json.dumps(report))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
