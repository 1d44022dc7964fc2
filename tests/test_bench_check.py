#!/usr/bin/env python3
"""Unit tests for scripts/bench_regression_check.py — the CI bench gate.

Covers the gate's four behaviours on the multigpu_placement checker (the
same code paths every other checker shares): a missing baseline fails, an
exact sim-domain counter mismatch fails, the wall-clock tolerance band is a
floor (small drops pass, large drops fail, faster always passes), and
--update atomically (re)writes the baseline so a subsequent check passes.
The launch-cache checker's exact fields are covered too: per-point serial
hit/miss counts, and the shared sweep's lookup count but not its split; its
wall-clock speedup is reported but never fails the gate.

Run directly or via ctest: python3 tests/test_bench_check.py
"""

import copy
import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

REPO = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = REPO / "scripts" / "bench_regression_check.py"


def sample_result():
    """A minimal but schema-complete BENCH_multigpu_placement.json."""
    return {
        "bench": "multigpu_placement",
        "placement_determinism": True,
        "points": [
            {
                "label": "quadro4000 x1",
                "devices": 1,
                "makespan_us": 400000.0,
                "speedup_vs_1": 1.0,
                "jobs": 1000,
                "migrations": 0,
                "migrated_bytes": 0,
                "wall_ms": 20.0,
                "jobs_per_sec": 50000.0,
            },
            {
                "label": "quadro4000 x4",
                "devices": 4,
                "makespan_us": 100000.0,
                "speedup_vs_1": 4.0,
                "jobs": 1000,
                "migrations": 7,
                "migrated_bytes": 8400,
                "wall_ms": 40.0,
                "jobs_per_sec": 25000.0,
            },
        ],
        "placement": {
            "devices": 4,
            "rr_makespan_us": 200000.0,
            "affinity_makespan_us": 100000.0,
            "win": 2.0,
        },
        "migration": {"migrations": 1, "migrated_bytes": 12000,
                      "makespan_us": 90000.0},
    }


class BenchCheckTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = pathlib.Path(self._tmp.name)
        self.baseline_dir = self.tmp / "baselines"
        self.baseline_dir.mkdir()

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, name, data):
        path = self.tmp / name
        path.write_text(json.dumps(data))
        return path

    def write_baseline(self, data):
        (self.baseline_dir / "multigpu_placement.json").write_text(
            json.dumps(data))

    def run_check(self, current, extra_args=()):
        cmd = [
            sys.executable, str(SCRIPT),
            "--baseline-dir", str(self.baseline_dir),
            "--multigpu", str(self.write("current.json", current)),
            *extra_args,
        ]
        return subprocess.run(cmd, capture_output=True, text=True)

    def test_missing_baseline_fails(self):
        proc = self.run_check(sample_result())
        self.assertEqual(proc.returncode, 1)
        self.assertIn("missing baseline", proc.stdout)

    def test_identical_result_passes(self):
        self.write_baseline(sample_result())
        proc = self.run_check(sample_result())
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("all checks passed", proc.stdout)

    def test_exact_counter_mismatch_fails(self):
        self.write_baseline(sample_result())
        current = sample_result()
        current["points"][1]["migrations"] = 9  # sim-domain: exact, no band
        proc = self.run_check(current)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("deterministic fields changed", proc.stdout)
        self.assertIn("migrations: 7 -> 9", proc.stdout)

    def test_determinism_flag_must_be_true(self):
        self.write_baseline(sample_result())
        current = sample_result()
        current["placement_determinism"] = False
        proc = self.run_check(current)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("placement_determinism", proc.stdout)

    def test_tolerance_band_is_a_floor_not_a_ratchet(self):
        self.write_baseline(sample_result())

        within = copy.deepcopy(sample_result())
        within["points"][1]["jobs_per_sec"] *= 0.80  # -20% < 25% band
        self.assertEqual(self.run_check(within).returncode, 0)

        beyond = copy.deepcopy(sample_result())
        beyond["points"][1]["jobs_per_sec"] *= 0.70  # -30% > 25% band
        proc = self.run_check(beyond)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("jobs/s", proc.stdout)

        tighter = copy.deepcopy(sample_result())
        tighter["points"][1]["jobs_per_sec"] *= 0.80
        self.assertEqual(
            self.run_check(tighter, ["--tolerance", "0.1"]).returncode, 1)

        faster = copy.deepcopy(sample_result())
        faster["points"][1]["jobs_per_sec"] *= 10.0
        self.assertEqual(self.run_check(faster).returncode, 0)

    def test_missing_and_new_points_fail(self):
        self.write_baseline(sample_result())
        current = sample_result()
        current["points"][1]["label"] = "quadro4000 x999"
        proc = self.run_check(current)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("missing from the bench", proc.stdout)
        self.assertIn("has no baseline", proc.stdout)

    def test_update_writes_baseline_then_check_passes(self):
        current = sample_result()
        proc = self.run_check(current, ["--update"])
        self.assertEqual(proc.returncode, 0, proc.stdout)
        written = json.loads(
            (self.baseline_dir / "multigpu_placement.json").read_text())
        self.assertEqual(written, current)
        # No stray temp files from the atomic publish.
        self.assertEqual(
            [p.name for p in self.baseline_dir.iterdir()],
            ["multigpu_placement.json"])
        self.assertEqual(self.run_check(current).returncode, 0)


def cache_result(shared_hits=224, shared_misses=32):
    """A minimal BENCH_launch_cache_speedup.json: one serial VP point plus
    the shared sweep, whose hit/miss split depends on thread scheduling."""
    return {
        "bench": "launch_cache_speedup",
        "iterations": 8,
        "points": [
            {"vps": 4, "wall_uncached_ms": 3000.0, "wall_cached_ms": 700.0,
             "speedup": 4.3, "hits": 84, "misses": 12, "bypasses": 0,
             "bytes_replayed": 18579456},
        ],
        "shared_sweep": {"jobs": 4, "wall_uncached_ms": 4200.0,
                         "wall_cached_ms": 1700.0, "speedup": 2.5,
                         "hits": shared_hits, "misses": shared_misses},
    }


class CacheCheckTest(unittest.TestCase):
    """The launch-cache gate compares what holds by design: each serial VP
    point's hits and misses exactly, and the shared sweep's lookup count
    (hits + misses), never its scheduling-dependent split nor the
    host-dependent wall-clock speedup."""

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = pathlib.Path(self._tmp.name)
        (self.tmp / "baselines").mkdir()
        (self.tmp / "baselines" / "launch_cache_speedup.json").write_text(
            json.dumps(cache_result()))

    def tearDown(self):
        self._tmp.cleanup()

    def run_check(self, current):
        path = self.tmp / "current.json"
        path.write_text(json.dumps(current))
        return subprocess.run(
            [sys.executable, str(SCRIPT), "--baseline-dir",
             str(self.tmp / "baselines"), "--cache", str(path)],
            capture_output=True, text=True)

    def test_shared_sweep_split_may_move_with_scheduling(self):
        for hits, misses in ((224, 32), (226, 30), (228, 28)):
            proc = self.run_check(cache_result(hits, misses))
            self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_shared_sweep_lookup_count_is_exact(self):
        proc = self.run_check(cache_result(224, 33))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("shared-sweep lookups", proc.stdout)

    def test_wall_clock_speedup_is_reported_not_gated(self):
        current = cache_result()
        current["points"][0]["wall_cached_ms"] = 2900.0
        current["points"][0]["speedup"] = 1.03  # far below the 4.3x baseline
        current["shared_sweep"]["speedup"] = 0.9
        proc = self.run_check(current)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("speedup 1.03x (baseline 4.30x; not gated)", proc.stdout)

    def test_missing_point_fails(self):
        current = cache_result()
        current["points"] = []
        proc = self.run_check(current)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("vps=4 point missing", proc.stdout)

    def test_serial_point_counts_are_exact(self):
        current = cache_result()
        current["points"][0]["hits"] = 85  # same total would still fail
        current["points"][0]["misses"] = 11
        proc = self.run_check(current)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("hit/miss counts changed", proc.stdout)


if __name__ == "__main__":
    unittest.main()
