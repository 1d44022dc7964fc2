#!/usr/bin/env python3
"""Unit tests for scripts/bench_regression_check.py — the CI bench gate.

The gate is one recursive comparator: every BENCH JSON field is compared
exactly against its baseline except the host-domain fields of one table,
which are printed and never gated. The property tests run over every
checked-in baseline in bench/baselines/: perturbing any host-domain leaf
passes; perturbing any other leaf, dropping or adding a key or a list
element, or clearing a `*_determinism` flag fails. The CLI tests cover
the missing-baseline failure and the atomic --update path.

Run directly or via ctest: python3 tests/test_bench_check.py
"""

import copy
import importlib.util
import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

REPO = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = REPO / "scripts" / "bench_regression_check.py"
BASELINES = sorted((REPO / "bench" / "baselines").glob("*.json"))

_spec = importlib.util.spec_from_file_location("bench_check", SCRIPT)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def leaves(doc, path):
    """Yields (path, container, key) for every scalar leaf of `doc`."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        sub = f"{path}.{key}" if isinstance(doc, dict) else f"{path}[{key}]"
        if isinstance(value, (dict, list)):
            yield from leaves(value, sub)
        else:
            yield sub, doc, key


def containers(doc, path):
    """Yields (path, container) for `doc` and every dict/list inside it."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)):
            sub = f"{path}.{key}" if isinstance(doc, dict) else f"{path}[{key}]"
            yield from containers(value, sub)


def perturbed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value * 2 + 1
    return value + "~"


class BaselinePropertyTest(unittest.TestCase):
    """Every checked-in baseline against perturbed copies of itself."""

    def for_each_baseline(self):
        self.assertTrue(BASELINES)
        for path in BASELINES:
            doc = json.loads(path.read_text())
            self.assertEqual(f"{doc['bench']}.json", path.name)
            with self.subTest(baseline=path.name):
                yield doc["bench"], doc

    def test_baseline_matches_itself(self):
        for bench, doc in self.for_each_baseline():
            self.assertEqual(gate.compare(doc, copy.deepcopy(doc), bench), [])

    def test_each_leaf_is_exact_unless_host_domain(self):
        for bench, doc in self.for_each_baseline():
            cur = copy.deepcopy(doc)
            exact = 0
            for path, container, key in leaves(cur, bench):
                original = container[key]
                container[key] = perturbed(original)
                failures = gate.compare(doc, cur, bench)
                container[key] = original
                if gate.is_host_field(path):
                    self.assertEqual(failures, [], path)
                else:
                    exact += 1
                    self.assertEqual(len(failures), 1, path)
                    self.assertTrue(failures[0].startswith(path + ":"), failures)
            self.assertGreater(exact, 0)

    def test_dropping_or_adding_a_key_or_list_element_fails(self):
        for bench, doc in self.for_each_baseline():
            cur = copy.deepcopy(doc)

            def assert_fails(what):
                self.assertNotEqual(gate.compare(doc, cur, bench), [], what)

            for path, target in containers(cur, bench):
                if isinstance(target, dict):
                    key = sorted(target)[0]
                    value = target.pop(key)
                    assert_fails(f"drop {path}.{key}")
                    target[key] = value
                    target["unexpected_field"] = 1
                    assert_fails(f"add a key to {path}")
                    del target["unexpected_field"]
                    continue
                if target:
                    value = target.pop()
                    assert_fails(f"drop the last element of {path}")
                    target.append(value)
                target.append(copy.deepcopy(target[-1]) if target else 0)
                assert_fails(f"add an element to {path}")
                target.pop()
            self.assertEqual(gate.compare(doc, cur, bench), [])

    def test_a_false_determinism_flag_fails(self):
        flags = 0
        for bench, doc in self.for_each_baseline():
            cur = copy.deepcopy(doc)
            for path, container, key in leaves(cur, bench):
                if not str(key).endswith("_determinism"):
                    continue
                flags += 1
                self.assertIs(container[key], True, path)
                container[key] = False
                self.assertEqual(gate.compare(doc, cur, bench),
                                 [f"{path}: false != baseline true"])
                container[key] = True
        self.assertGreaterEqual(flags, 2)  # fleet_scale, multigpu_placement

    def test_every_host_pattern_names_a_baseline_field(self):
        paths = [path for bench, doc in self.for_each_baseline()
                 for path, _, _ in leaves(doc, bench)]
        for pattern in gate.HOST_FIELDS:
            self.assertTrue(
                any(gate.fnmatch.fnmatchcase(p, pattern) for p in paths), pattern)

    def test_launch_cache_shared_sweep_split_is_host_domain(self):
        base = json.loads(
            (REPO / "bench" / "baselines" / "launch_cache_speedup.json").read_text())
        shared = base["shared_sweep"]
        cur = copy.deepcopy(base)
        cur["shared_sweep"]["hits"] -= 2
        cur["shared_sweep"]["misses"] += 2
        self.assertEqual(gate.compare(base, cur, "launch_cache_speedup"), [])
        cur["shared_sweep"]["lookups"] += 1
        self.assertEqual(
            gate.compare(base, cur, "launch_cache_speedup"),
            [f"launch_cache_speedup.shared_sweep.lookups: {shared['lookups'] + 1} "
             f"!= baseline {shared['lookups']}"])


def sample_result():
    """A minimal BENCH JSON with exact and host-domain fields."""
    return {
        "bench": "multigpu_placement",
        "placement_determinism": True,
        "points": [
            {"label": "quadro4000 x1", "makespan_us": 400000.0,
             "migrations": 0, "wall_ms": 20.0, "jobs_per_sec": 50000.0},
            {"label": "quadro4000 x4", "makespan_us": 100000.0,
             "migrations": 7, "wall_ms": 40.0, "jobs_per_sec": 25000.0},
        ],
    }


class BenchCheckCliTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = pathlib.Path(self._tmp.name)
        self.baseline_dir = self.tmp / "baselines"

    def tearDown(self):
        self._tmp.cleanup()

    def run_check(self, current, extra_args=()):
        path = self.tmp / "BENCH_multigpu.json"
        path.write_text(json.dumps(current))
        return subprocess.run(
            [sys.executable, str(SCRIPT), "--baseline-dir",
             str(self.baseline_dir), str(path), *extra_args],
            capture_output=True, text=True)

    def test_missing_baseline_fails(self):
        proc = self.run_check(sample_result())
        self.assertEqual(proc.returncode, 1)
        self.assertIn("missing baseline", proc.stdout)

    def test_update_writes_baseline_then_check_passes(self):
        current = sample_result()
        proc = self.run_check(current, ["--update"])
        self.assertEqual(proc.returncode, 0, proc.stdout)
        written = json.loads(
            (self.baseline_dir / "multigpu_placement.json").read_text())
        self.assertEqual(written, current)
        # No stray temp files from the atomic publish.
        self.assertEqual([p.name for p in self.baseline_dir.iterdir()],
                         ["multigpu_placement.json"])
        proc = self.run_check(current)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("all checks passed", proc.stdout)

    def test_exact_mismatch_fails_and_host_fields_are_printed(self):
        self.run_check(sample_result(), ["--update"])
        current = sample_result()
        current["points"][1]["jobs_per_sec"] = 1.0  # host: printed only
        current["points"][1]["migrations"] = 9      # sim-domain: exact
        proc = self.run_check(current)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("FAIL: multigpu_placement.points[1].migrations: 9 != "
                      "baseline 7", proc.stdout)
        self.assertIn("host, not gated: multigpu_placement.points[1]."
                      "jobs_per_sec: 1.0 (baseline 25000.0)", proc.stdout)
        self.assertIn("1 failure(s)", proc.stdout)


if __name__ == "__main__":
    unittest.main()
