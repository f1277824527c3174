"""Repeat benchmark runs over seeds, report each metric's spread, and record a baseline.

    python3 bench/collect.py --runs 10                       # spread table only
    python3 bench/collect.py --runs 10 --baseline bench/baseline.json

Runs ``bench/run.py`` once per (seed, workload), cycling through the
workloads so that slow drift of the machine hits all of them alike.  The
spread of a metric is the distance between the first and third quartiles of
its per-run values, as a share of their median; it should stay below a third
of the metric's bound in BENCHMARK.json (``setup_s`` excepted).  With
``--baseline`` it also makes one traced run per workload and writes the
medians, spreads, per-layer values, the why of each workload, the per-layer
to end-to-end map and the environment to the given file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, environment-and-checks line)."""
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    values = {w: {m: [] for m in bounds} for w in args.workloads}
    failures = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in args.workloads:
            result, _ = run_once(w, seed, args.seconds, 0)
            if not result["correct"]:
                failures.append((w, seed))
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])

    table = {w: {m: spread(v) for m, v in per.items()} for w, per in values.items()}
    worst = 0.0
    for w, per in table.items():
        print(w)
        for m, s in per.items():
            ratio = s["spread"] / bounds[m]
            if m != "setup_s":
                worst = max(worst, ratio)
            print(f"  {m:12s} median {s['median']:.6g}  spread {s['spread']:.4f}"
                  f"  = {ratio:.2f} of bound {bounds[m]}  values {[float(f'{v:.4g}') for v in s['values']]}")
    print(f"largest spread / bound (setup_s excepted): {worst:.2f}; incorrect runs: {failures}")

    if args.baseline:
        why = {w["name"]: w["why"] for w in SPEC["workloads"]}
        from run import LAYER_MAP  # imported late: it loads parasplit from src/

        baseline = {"run_seconds": args.seconds, "seeds": [args.first_seed, args.first_seed + args.runs - 1],
                    "layer_map": {k: {"moves": m, "on": on} for k, (m, on) in LAYER_MAP.items()},
                    "workloads": {}}
        for w in args.workloads:
            layers, env = run_once(w, 0, args.seconds, 1)
            baseline["environment"] = env["environment"]
            baseline["workloads"][w] = {
                "why": why[w],
                "end_to_end": table[w],
                "per_layer_seed0": {k: v["value"] for k, v in layers["metrics"].items()},
                "checks_seed0": env["checks"],
            }
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
