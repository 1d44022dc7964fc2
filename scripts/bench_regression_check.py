#!/usr/bin/env python3
"""CI bench-regression gate for the ΣVP benches.

Compares each fresh BENCH JSON against bench/baselines/<bench>.json, where
<bench> is the JSON's own "bench" field, with one recursive comparator:

  * every field is compared exactly. Sim-domain results, counters,
    determinism flags and the bench's own configuration are pure functions
    of its inputs, so any change is behavioural (or intentional: rerun with
    --update and commit the diff). A missing or extra key, or a missing or
    extra list element, fails.
  * the host-domain fields named in HOST_FIELDS are printed, never gated.
    A single sample compared against a baseline recorded on another machine
    shows nothing; host time is measured in paired parent/change perfbench
    runs (perfbench/README.md).

Divergence (engine vs reference interpreter, cached vs uncached, sharded vs
unsharded) is enforced by the benches themselves via nonzero exit codes,
upstream of this gate.

Usage:
  bench_regression_check.py [--baseline-dir bench/baselines] [--update] \
      BENCH_interp.json BENCH_launch_cache_speedup.json ...

--update rewrites the baselines from the supplied results instead of
checking (for intentional behaviour changes; commit the diff).
"""

import argparse
import fnmatch
import json
import os
import pathlib
import re
import shutil
import sys

# Host-domain leaves, as fnmatch patterns over "<bench>.<path>" (list
# elements are written [i], and `*` also matches dots).
HOST_FIELDS = (
    "*.wall_*",                        # wall-clock times
    "*_per_sec",                       # rates over wall-clock time
    "launch_cache_speedup.*speedup",   # uncached / cached wall-clock
    "fleet_scale.dispatch_bound.shard_speedup",  # 1-shard / 8-shard wall
    "*.host_cores",
    "*.reps",
    "app_suite.workers",               # sweep workers (results are invariant)
    "fault_tolerance.workers",         # sweep workers (results are invariant)
    "fleet_scale.scale_shards",        # shard threads: min(8, host cores)
    # Concurrent jobs on one process-wide cache: which job fills an entry
    # first depends on thread scheduling. Their sum, `lookups`, is exact.
    "launch_cache_speedup.shared_sweep.hits",
    "launch_cache_speedup.shared_sweep.misses",
)


_HOST_RE = re.compile("|".join(fnmatch.translate(p) for p in HOST_FIELDS))


def is_host_field(path):
    return _HOST_RE.match(path) is not None


def compare(base, cur, path, host_lines=None):
    """Returns one failure message per difference between `cur` and `base`
    below `path`. The values of host-domain leaves are not compared; they
    are appended to `host_lines` when it is given."""
    if isinstance(base, dict) and isinstance(cur, dict):
        failures = []
        for key in sorted(base.keys() | cur.keys()):
            sub = f"{path}.{key}"
            if key not in cur:
                failures.append(f"{sub}: missing from the bench")
            elif key not in base:
                failures.append(f"{sub}: not in the baseline")
            else:
                failures += compare(base[key], cur[key], sub, host_lines)
        return failures
    if isinstance(base, list) and isinstance(cur, list):
        failures = []
        for i, (b, c) in enumerate(zip(base, cur)):
            failures += compare(b, c, f"{path}[{i}]", host_lines)
        if len(cur) != len(base):
            failures.append(f"{path}: {len(cur)} elements, baseline has {len(base)}")
        return failures
    if is_host_field(path):
        if host_lines is not None:
            host_lines.append(f"{path}: {cur} (baseline {base})")
        return []
    if type(cur) is not type(base) or cur != base:
        return [f"{path}: {json.dumps(cur)} != baseline {json.dumps(base)}"]
    return []


def load(path):
    with open(path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("results", nargs="+", type=pathlib.Path,
                        help="fresh BENCH_*.json files to check")
    parser.add_argument("--baseline-dir", default="bench/baselines",
                        type=pathlib.Path)
    parser.add_argument("--update", action="store_true",
                        help="rewrite baselines from the supplied results")
    args = parser.parse_args()

    failures = 0
    for result in args.results:
        current = load(result)
        bench = current["bench"]
        baseline = args.baseline_dir / f"{bench}.json"
        if args.update:
            # Atomic publish: never leave a torn baseline if interrupted.
            args.baseline_dir.mkdir(parents=True, exist_ok=True)
            tmp = baseline.with_suffix(f".json.tmp.{os.getpid()}")
            shutil.copyfile(result, tmp)
            os.replace(tmp, baseline)
            print(f"updated {baseline} from {result}")
            continue
        print(f"== {bench} ({result} vs {baseline})")
        if not baseline.exists():
            print(f"FAIL: missing baseline {baseline} (run with --update to create)")
            failures += 1
            continue
        host_lines = []
        found = compare(load(baseline), current, bench, host_lines)
        for line in host_lines:
            print(f"  host, not gated: {line}")
        for msg in found:
            print(f"FAIL: {msg}")
        if not found:
            print(f"  ok: every exact field matches ({len(host_lines)} host fields)")
        failures += len(found)

    if failures:
        print(f"\nbench regression gate: {failures} failure(s)")
        return 1
    print("\nbench regression gate: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
