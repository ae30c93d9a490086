"""Repeat the benchmark over several seeds and summarise the spread.

    python3 perfbench/baseline.py --runs 10 [--workload NAME ...] [--seconds S]
                                  [--traced] [--write]

Each run is `perfbench/run.py --workload NAME --seed i --trace 0` for
i = 1..runs.  For every metric the runs print it gives the median, the
first and third quartiles (statistics.quantiles(values, n=4)) and the
spread, (q3 - q1) / median, next to the bound from BENCHMARK.json for the
end-to-end metrics listed there.  With --traced
it also makes one --trace 1 run per workload.  With --write it stores
everything, with the environment, in perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    env = next(json.loads(ln.split(" ", 1)[1]) for ln in lines if ln.startswith("environment "))
    printed = {}  # every metric of the printed table, including the ungated ones
    for ln in lines:
        parts = ln.split()
        if len(parts) == 4 and parts[0] == workload:
            printed[parts[1]] = {"value": float(parts[2]), "unit": parts[3]}
    result = json.loads(lines[-1])
    return {**result, "printed": {**printed, **result["metrics"]}, "environment": env}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    listed = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="default: the workloads BENCHMARK.json lists")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out: dict = {"run_seconds": args.seconds, "runs": args.runs, "workloads": {}}
    for w in args.workload or listed:
        runs = [one_run(w, seed, args.seconds, 0) for seed in range(1, args.runs + 1)]
        out["environment"] = runs[-1]["environment"]
        entry: dict = {"listed_in_benchmark_json": w in listed,
                       "attempted": sum(r["attempted"] for r in runs),
                       "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        for name in runs[0]["printed"]:
            s = summarise([r["printed"][name]["value"] for r in runs])
            bound = bounds.get(name)
            key = "end_to_end" if bound is not None else "not_gated"
            entry.setdefault(key, {})[name] = {**s, "unit": runs[0]["printed"][name]["unit"]}
            flag = "not gated" if bound is None else f"bound {bound}" + (
                "" if s["spread"] < bound / 3 else ", spread above bound/3")
            print(f"{w:13s} {name:14s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
                  f"q3 {s['q3']:12.6g}  spread {s['spread']:.3f} ({flag})\n"
                  f"{'':28s} values " + " ".join(f"{v:.4g}" for v in s["values"]),
                  flush=True)
        if args.traced:
            traced = one_run(w, 1, args.seconds, 1)
            entry["per_layer_seed1"] = traced["metrics"]
        out["workloads"][w] = entry
    if args.write:
        (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
