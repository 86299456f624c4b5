#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads campaign,sweep_full \
        --seeds 1-10 [--seconds S] [--out runs.jsonl]

Runs perfbench/run.py once per (workload, seed) with --trace 0, then
prints, per workload and metric, the median over seeds and the spread
(third minus first quartile, statistics.quantiles(n=4), over the
median) next to a third of the metric's bound in BENCHMARK.json: the
steadiness the benchmark is held to.  --out appends every run's result
line, tagged with its workload and seed, as JSON lines.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: checks failed")
                steady = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            if args.out:
                with open(args.out, "a") as out:
                    out.write(json.dumps({"workload": workload, "seed": seed,
                                          "result": result}) + "\n")
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            limit = bounds[name] / 3
            flag = "ok" if spread < limit else (
                "(not gated)" if name == "setup_s" else "TOO WIDE")
            steady &= flag != "TOO WIDE"
            print(f"{workload:<18} {name:<16} median {median:<12.6g} "
                  f"spread {spread:.4f}  bound/3 {limit:.4f}  {flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
