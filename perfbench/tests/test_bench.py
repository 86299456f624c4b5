"""Tests of the benchmark itself, on the tiny input size.

    python3 -m unittest discover -s perfbench/tests

They build perfbench/ like run.py does (the first run compiles).
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH_DIR / "run.py"),
                           *args], capture_output=True, text=True, cwd=cwd,
                          timeout=300)


def result_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def check_printed(self, proc, declared):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = result_line(proc)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(set(result["metrics"]), set(declared))
        human = proc.stdout.splitlines()[:-1]
        for name, unit in declared.items():
            self.assertEqual(result["metrics"][name]["unit"], unit)
            self.assertTrue(any(line.split()[:1] == [name] and
                                f" {unit}" in line for line in human),
                            f"{name} not printed with unit {unit}")

    def test_end_to_end_metrics_printed_with_units(self):
        declared = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual(declared, dict(run.END_TO_END))
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_printed(
                    bench("--workload", workload, "--seed", "3",
                          "--seconds", "1", "--trace", "0",
                          "--size", "tiny"), declared)

    def test_per_layer_metrics_printed_with_units(self):
        declared = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(declared, run.per_layer_units())
        self.check_printed(
            bench("--workload", "sweep_streamed", "--seed", "1",
                  "--seconds", "1", "--trace", "1", "--size", "tiny"),
            declared)


class DigestTest(unittest.TestCase):
    def test_perturbed_digest_counts_as_failure(self):
        run.build()
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
            table = Path(tmp) / "sweep.digests"
            rec = subprocess.run(
                [str(run.BINARY), "--workload", "sweep_full", "--size",
                 "tiny", "--out", str(Path(tmp) / "out"), "--record",
                 str(table)], capture_output=True, text=True)
            self.assertEqual(rec.returncode, 0, rec.stderr)
            args = ("--workload", "sweep_full", "--seed", "0",
                    "--seconds", "1", "--trace", "0", "--size", "tiny",
                    "--expected", str(table))
            clean = result_line(bench(*args))
            self.assertTrue(clean["correct"])
            self.assertEqual(clean["failed"], 0)

            lines = table.read_text().splitlines()
            name, digest = lines[1].split()
            flipped = format(int(digest, 16) ^ 1, "016x")
            lines[1] = f"{name} {flipped}"
            table.write_text("\n".join(lines) + "\n")
            one = subprocess.run(
                [str(run.BINARY), "--workload", "sweep_full", "--size",
                 "tiny", "--out", str(Path(tmp) / "out2"), "--expected",
                 str(table)], capture_output=True, text=True)
            instance = json.loads(one.stdout.strip().splitlines()[-1])
            self.assertEqual(instance["failed"], 1)
            self.assertTrue(instance["failures"][0].startswith(name))

            proc = bench(*args)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = result_line(proc)
            self.assertFalse(result["correct"])
            # The perturbed result fails once in every instance.
            self.assertGreater(result["failed"], 0)
            self.assertEqual(result["attempted"],
                             result["failed"] * instance["attempted"])
            self.assertIn(name, proc.stderr)


class SelfTimeTest(unittest.TestCase):
    SPANS = [
        {"id": 1, "parent": 0, "name": "bench.workload", "start": 1.0,
         "end": 11.0, "cpu": 20.0, "counters": {"repo.builds": 3}},
        # Two children overlapping on [3, 4]: the root covers [1, 6].
        {"id": 2, "parent": 1, "name": "sim.replay", "start": 1.0,
         "end": 4.0, "cpu": 1.0, "counters": {}},
        {"id": 3, "parent": 1, "name": "timing.point", "start": 3.0,
         "end": 6.0, "cpu": -1.0, "counters": {}},
        # Nested child, and one that runs past its parent's end.
        {"id": 4, "parent": 2, "name": "directory.dircache",
         "start": 2.0, "end": 2.5, "cpu": 1.0, "counters": {}},
        {"id": 5, "parent": 3, "name": "timing.point", "start": 5.0,
         "end": 7.0, "cpu": -1.0, "counters": {}},
    ]

    def test_self_times(self):
        self.assertEqual(run.self_times(self.SPANS),
                         {1: 5.0, 2: 2.5, 3: 2.0, 4: 0.5, 5: 2.0})

    def test_layer_shares(self):
        m = run.layer_metrics(self.SPANS, spawn=0.0, end=11.0, jobs=4)
        wall = 11.0
        self.assertAlmostEqual(m["sim.self.share"], 2.5 / wall)
        self.assertAlmostEqual(m["directory.self.share"], 0.5 / wall)
        self.assertAlmostEqual(m["timing.self.share"], 4.0 / wall)
        # Root self time plus the start-up before the root span.
        self.assertAlmostEqual(m["bench.self.share"], 6.0 / wall)
        self.assertAlmostEqual(m["timing.critical_path.share"], 3.0 / wall)
        self.assertAlmostEqual(m["pool.cpu_util"], 20.0 / (10.0 * 4))
        self.assertEqual(m["repo.builds"], 3)


class BadInputTest(unittest.TestCase):
    def test_bad_flag_exits_before_any_work(self):
        # A copy without sources: reaching the build step would say so.
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "perfbench").mkdir()
            shutil.copy(BENCH_DIR / "run.py", Path(tmp) / "perfbench")
            for args in (["--bogus"],
                         ["--workload", "nope", "--seed", "1"],
                         ["--workload", "campaign", "--trace", "2"],
                         ["--workload", "campaign", "--seconds", "0"]):
                proc = subprocess.run(
                    [sys.executable, "perfbench/run.py", *args],
                    capture_output=True, text=True, cwd=tmp, timeout=60)
                self.assertEqual(proc.returncode, 2, args)
                self.assertEqual(proc.stdout, "")
                self.assertIn("usage:", proc.stderr)
                self.assertNotIn("no dirsim sources", proc.stderr)

    def test_no_sources_exits_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "campaign", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], capture_output=True, text=True, cwd=tmp, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")

    def test_runner_rejects_bad_flag(self):
        run.build()
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            proc = subprocess.run(
                [str(run.BINARY), "--workload", "campaign", "--out",
                 str(out), "--jobs", "2"], capture_output=True, text=True)
            self.assertEqual(proc.returncode, 2)
            self.assertEqual(proc.stdout, "")
            self.assertFalse(out.exists())


if __name__ == "__main__":
    unittest.main()
