#!/usr/bin/env python3
"""dirsim benchmark: one command, every metric named with its unit.

Run from the root of a dirsim checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds perfbench/ (the dirsim libraries plus the dirsim_bench
instance runner) into .bench_build/, then runs workload instances,
one per process and one after another (closed loop, no arrival rate),
for about S seconds.  Each instance builds its inputs from the seed,
runs the workload on min(4, nproc) worker threads and checks every
result.  The last stdout line is one JSON object: end-to-end metrics
with --trace 0, per-layer metrics from span logs with --trace 1.
README.md documents the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("campaign", "sweep_full", "sweep_streamed", "timed_contention")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "dirsim_bench"
# Digest tables recorded at seed 0, default size (README.md).
DIGESTS = {
    "campaign": "campaign.digests",
    "sweep_full": "sweep.digests",
    "sweep_streamed": "sweep.digests",
    "timed_contention": "timed_contention.digests",
}
MIN_INSTANCES = 3
INSTANCE_TIMEOUT_S = 150
PERCENTILES = (50, 90, 99, 99.9)

END_TO_END = [
    ("total_s", "s"),
    ("setup_s", "s"),
    ("sim_mrefs_per_s", "Mref/s"),
    ("peak_rss_mib", "MiB"),
]

# The exhibits reproduce_paper emits, in its order.
EXHIBITS = (
    "table1", "table2", "table3", "table4", "figure1", "figure2",
    "figure3", "table5", "figure4", "figure5", "sec51_overhead",
    "sec52_spinlocks", "sec6_alternatives", "sec6_dirinb_sweep",
    "ext_directory_messages", "sec5_system_limit", "ext_scaling",
    "ext_finite_cache", "ext_sharing_domain", "ext_network",
    "ext_home_locality", "ext_analytical",
)
LAYERS = ("analysis", "stats", "gen", "store", "sim", "directory", "mem",
          "timing", "bench")
# Spans whose summed duration is reported as a share of wall clock.
CALL_SPANS = ("stats.render", "sim.replay", "sim.cost", "gen.prepare",
              "store.spill", "store.open", "directory.dircache",
              "mem.finite", "timing.point")
ENGINES = ("inval", "dir1nb", "dragon")
REPO_COUNTERS = ("builds", "hits", "misses", "disk_hits", "disk_writes",
                 "evictions")


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for ex in EXHIBITS:
        units[f"analysis.{ex}.share"] = "share"
    for layer in LAYERS:
        units[f"{layer}.self.share"] = "share"
    for name in CALL_SPANS:
        units[f"{name}.share"] = "share"
    units["timing.critical_path.share"] = "share"
    for engine in ENGINES:
        units[f"sim.engine.{engine}.share"] = "share"
    for counter in REPO_COUNTERS:
        units[f"repo.{counter}"] = "count"
    units.update({
        "sim.groups": "count",
        "sim.lanes": "count",
        "timing.transactions": "count",
        "store.bytes": "bytes",
        "gen.mrefs_per_s": "Mref/s",
        "pool.cpu_util": "ratio",
        "trace.spans": "count",
        "trace.overhead_s": "s",
    })
    return units


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="dirsim benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "tiny"),
                        default="default",
                        help="tiny: short traces, for the tests")
    parser.add_argument("--expected", type=Path,
                        help="digest table to check against instead of "
                             "perfbench/expected/")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 10**19:
        parser.error("--seed must be in [0, 10^19)")
    if not 1 <= args.seconds <= 3600:
        parser.error("--seconds must be in [1, 3600]")
    return args


def build():
    """Configure and build perfbench/ into .bench_build/ (incremental)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no dirsim sources at {ROOT / 'src'}; run from a dirsim "
             "checkout", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_ROOT / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (log: {log})")


def run_instance(args, index, traced):
    """Run one workload instance in its own process; returns its record."""
    out_dir = BUILD_ROOT / "runs" / f"{args.workload}-{os.getpid()}-{index}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    spans_path = BUILD_ROOT / "runs" / f"{out_dir.name}.spans.json"
    cmd = [str(BINARY), "--workload", args.workload, "--seed",
           str(args.seed), "--out", str(out_dir), "--size", args.size,
           "--trace", "1" if traced else "0"]
    if traced:
        cmd += ["--spans", str(spans_path)]
    expected = args.expected
    if expected is None and args.size == "default":
        expected = BENCH_DIR / "expected" / DIGESTS[args.workload]
    if expected is not None:
        cmd += ["--expected", str(expected)]
    spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=INSTANCE_TIMEOUT_S, cwd=ROOT)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        return {"ok": False, "traced": traced}
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    rec = {
        "ok": True,
        "traced": traced,
        "raw": raw,
        "total_s": raw["end"] - spawn,
        "setup_s": raw["first_result"] - spawn,
        "sim_mrefs_per_s":
            raw["engine_refs"] / (raw["end"] - raw["first_result"]) / 1e6,
        "peak_rss_mib": raw["peak_rss_kib"] / 1024.0,
    }
    if traced:
        spans = json.loads(spans_path.read_text())["spans"]
        keep = BUILD_ROOT / "spans" / (
            f"{args.workload}-seed{args.seed}-{index}.json")
        keep.parent.mkdir(parents=True, exist_ok=True)
        shutil.move(str(spans_path), keep)
        rec["spans"] = spans
        rec["layers"] = layer_metrics(spans, spawn, raw["end"],
                                      raw["jobs"])
    for failure in raw["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    return rec


def covered(start, end, intervals):
    """Length of [start, end] covered by the union of @intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans):
    """Span id -> duration minus the part its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(
            (s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"]) -
            covered(s["start"], s["end"], children.get(s["id"], []))
            for s in spans}


def layer_of(name):
    return name.split(".", 1)[0]


def layer_metrics(spans, spawn, end, jobs):
    """Per-layer metrics of one traced instance (per_layer_units())."""
    wall = end - spawn
    selfs = self_times(spans)
    root = next(s for s in spans if s["parent"] == 0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    # Process start-up precedes the root span: the benchmark's own.
    layer_self["bench"] += root["start"] - spawn
    by_name = {}
    counters = {}
    for s in spans:
        layer_self[layer_of(s["name"])] += selfs[s["id"]]
        by_name.setdefault(s["name"], []).append(s["end"] - s["start"])
        for key, value in s["counters"].items():
            if not key.startswith("repo."):
                counters[key] = counters.get(key, 0.0) + value
    inclusive = {name: sum(d) for name, d in by_name.items()}
    m = {}
    for ex in EXHIBITS:
        m[f"analysis.{ex}.share"] = inclusive.get(f"analysis.{ex}", 0.0) / wall
    for layer in LAYERS:
        m[f"{layer}.self.share"] = layer_self[layer] / wall
    for name in CALL_SPANS:
        m[f"{name}.share"] = inclusive.get(name, 0.0) / wall
    m["timing.critical_path.share"] = (
        max(by_name.get("timing.point", [0.0])) / wall)
    for engine in ENGINES:
        m[f"sim.engine.{engine}.share"] = (
            counters.get(f"sim.engine.{engine}_s", 0.0) / wall)
    for counter in REPO_COUNTERS:
        m[f"repo.{counter}"] = root["counters"].get(f"repo.{counter}", 0.0)
    gen_s = inclusive.get("gen.prepare", 0.0) + inclusive.get(
        "store.spill", 0.0)
    m.update({
        "sim.groups": counters.get("sim.groups", 0.0),
        "sim.lanes": counters.get("sim.lanes", 0.0),
        "timing.transactions": counters.get("timing.transactions", 0.0),
        "store.bytes": counters.get("store.bytes", 0.0),
        "gen.mrefs_per_s":
            counters.get("gen.refs", 0.0) / gen_s / 1e6 if gen_s else 0.0,
        "pool.cpu_util":
            root["cpu"] / ((root["end"] - root["start"]) * jobs),
        "trace.spans": float(len(spans)),
    })
    return m


def distribution(values):
    """'median X; pP Y; n=N' with the highest percentile that has at
    least ten samples beyond it (only the median below 20 samples)."""
    n = len(values)
    text = f"median {statistics.median(values):.6g}"
    best = max((p for p in PERCENTILES if n * (100 - p) / 100 >= 10),
               default=None)
    if best is not None and best > 50:
        cut = statistics.quantiles(values, n=1000, method="inclusive")
        text += f"; p{best:g} {cut[int(best * 10) - 1]:.6g}"
    return f"{text}; n={n}"


def print_span_report(records):
    """Per-span-name and per-layer seconds of the traced instances."""
    durations = {}
    selfs = {}
    for rec in records:
        st = self_times(rec["spans"])
        for s in rec["spans"]:
            durations.setdefault(s["name"], []).append(s["end"] - s["start"])
            layer = layer_of(s["name"])
            selfs[layer] = selfs.get(layer, 0.0) + st[s["id"]]
    print(f"-- spans of {len(records)} traced instance(s), seconds per call")
    for name in sorted(durations):
        d = durations[name]
        print(f"   {name:<32} total {sum(d) / len(records):10.6f} s  "
              f"{distribution(d)}")
    print("-- layer self time, seconds per instance")
    for layer in sorted(selfs):
        print(f"   {layer:<32} {selfs[layer] / len(records):.6f} s")


def main(argv):
    args = parse_args(argv)
    build()
    records = []
    start = time.monotonic()
    last = 0.0
    while True:
        elapsed = time.monotonic() - start
        if (len(records) >= MIN_INSTANCES + args.trace and
                elapsed + last > args.seconds):
            break
        # Traced runs alternate with untraced ones for the overhead.
        traced = args.trace == 1 and len(records) % 2 == 1
        t0 = time.monotonic()
        records.append(run_instance(args, len(records), traced))
        last = time.monotonic() - t0
        if not records[-1]["ok"]:
            break

    good = [r for r in records if r["ok"]]
    broken = len(records) - len(good)
    # A crashed instance counts as one attempted, failed result.
    attempted = sum(r["raw"]["attempted"] for r in good) + broken
    failed = sum(r["raw"]["failed"] for r in good) + broken
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    print(f"dirsim benchmark: workload {args.workload}, seed {args.seed}, "
          f"size {args.size}, {len(records)} instance(s) in "
          f"{time.monotonic() - start:.1f} s, one per process, "
          f"{good[0]['raw']['jobs'] if good else '?'} worker threads")
    print(f"checks: {attempted} results checked, {failed} failed; "
          f"error_rate {failed / attempted:.6g} ratio")
    if not plain or (args.trace == 1 and not traced):
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    metrics = {}
    if args.trace == 0:
        for name, unit in END_TO_END:
            values = [r[name] for r in plain]
            metrics[name] = {"value": statistics.median(values),
                             "unit": unit}
            print(f"{name:<20} {metrics[name]['value']:.6g} {unit}  "
                  f"({distribution(values)})")
    else:
        print_span_report(traced)
        overhead = (statistics.median(r["total_s"] for r in traced) -
                    statistics.median(r["total_s"] for r in plain))
        for name, unit in per_layer_units().items():
            if name == "trace.overhead_s":
                value = overhead
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<36} {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
