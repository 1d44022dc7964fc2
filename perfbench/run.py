#!/usr/bin/env python3
"""ΣVP host-cost benchmark.

Builds the simulator and the benchmark runner from source (Release), runs one
workload, checks its results, and prints every metric by name with its unit.
The last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

    python3 perfbench/run.py --workload paper_fig11 --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of untraced passes. --trace 1 adds a
traced pass and the layer probes, writes their spans to
<build dir>/spans/<workload>-seed<seed>.json and reports the per-layer
metrics derived from them. Run from the repository root; the build goes to
$CARGO_TARGET_DIR (default .bench_build). perfbench/README.md describes the
workloads, the metrics and the layer map.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN = BENCH_DIR / "golden.json"
DEFAULT_SEED = 1  # the seed whose outputs golden.json pins
RUN_TIMEOUT_S = 170


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"


def build():
    """Configures once and builds the runner; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: simulator sources (src/) not found next to perfbench/")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / "perfbench"


def source_digest():
    """Content digest of the sources the runner is built from; the checkout
    the benchmark runs in need not be a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py", ".json"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return res.stdout.strip() if res.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def golden_failures(report):
    """Scenario runs whose digest differs from golden.json. The golden covers
    the default seed, and every seed of a workload whose inputs ignore it."""
    if report["seeded"] and report["seed"] != DEFAULT_SEED:
        return 0, "golden: not applicable to this seed"
    golden = json.loads(GOLDEN.read_text()).get(report["workload"], {})
    failed, bad = 0, []
    for r in report["results"]:
        if r["failures"] == 0 and golden.get(r["name"]) != r["digest"]:
            failed += r["runs"]
            bad.append(r["name"])
    if bad:
        return failed, "golden: MISMATCH in " + ", ".join(bad)
    return 0, f"golden: {len(report['results'])} scenario digests match"


def end_to_end(report):
    wall = statistics.median(report["wall_s"])
    return {
        "setup_s": (statistics.median(report["setup_s"]), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(report["cpu_s"]), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MiB"),
        "sim_jobs_per_s": (report["jobs"][0] / wall, "jobs/s"),
    }


def per_layer(report, spans):
    """Per-layer metrics: counts from the traced pass's public stats, times
    and rates from the spans the probes recorded (see probes.cpp)."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def dur(s):
        return s["end_us"] - s["start_us"]

    def rate(name):  # work per µs over every span of `name`
        total = sum(dur(s) for s in by_name[name])
        return sum(s["work"] for s in by_name[name]) / total if total > 0 else 0.0

    def per_work_us(name):  # µs per unit of work
        work = sum(s["work"] for s in by_name[name])
        return sum(dur(s) for s in by_name[name]) / work if work > 0 else 0.0

    def median_us(name):
        values = [dur(s) for s in by_name[name]]
        return statistics.median(values) if values else 0.0

    c = report["traced"]["counters"]
    untraced_wall = statistics.median(report["wall_s"])
    scenario_ms = [dur(s) / 1e3 for s in by_name["scenario"]]
    build_ms = median_us("mem.build") / 1e3
    jobs = c["jobs_dispatched"]
    hits = c["cache_hits"] + c["fleet_cache_hits"]
    lookups = hits + c["cache_misses"] + c["fleet_cache_misses"] + c["cache_bypasses"]
    tier_launches = c["tier2_launches"] + c["tier2_warming"] + c["tier1_launches"]
    return {
        "mem.build_ms": (build_ms, "ms"),
        "mem.build_share": (build_ms / 1e3 * report["scenarios"] / untraced_wall, "ratio"),
        "mem.copy_gbps": (rate("mem.copy_within") / 1e3, "GB/s"),
        "sched.jobs_dispatched": (jobs, "count"),
        "sched.reorders": (c["reorders"], "count"),
        "sched.coalesced_job_ratio": (c["coalesced_jobs"] / jobs if jobs else 0.0, "ratio"),
        "ipc.messages_per_job": (c["ipc_messages"] / jobs if jobs else 0.0, "msg/job"),
        "gpu.cost_model_us": (per_work_us("gpu.evaluate_analytic"), "us"),
        "gpu.launch_cache.hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "gpu.launch_cache.bypass_ratio": (c["cache_bypasses"] / lookups if lookups else 0.0,
                                          "ratio"),
        "gpu.launch_cache.replayed_mb": (c["cache_bytes_replayed"] / 2**20, "MiB"),
        "gpu.launch_cache.hit_us": (median_us("gpu.launch_cache.hit"), "us"),
        "gpu.launch_cache.miss_us": (median_us("gpu.launch_cache.miss"), "us"),
        "interp.minstr_per_s_w1": (rate("interp.evaluate_functional.w1"), "Minstr/s"),
        "interp.minstr_per_s_wN": (rate("interp.evaluate_functional.wN"), "Minstr/s"),
        "interp.tier2_share": (c["tier2_launches"] / tier_launches if tier_launches else 0.0,
                               "ratio"),
        "interp.tier2_compiles": (c["tier2_compiles"], "count"),
        "sim.event_ns": (per_work_us("sim.event_queue") * 1e3, "ns"),
        "core.scenario_ms.p50": (statistics.median(scenario_ms), "ms"),
        "core.scenario_ms.max": (max(scenario_ms), "ms"),
        "core.fleet.sync_rounds": (c["sync_rounds"], "count"),
        "core.fleet.fabric_messages": (c["fabric_messages"], "count"),
        "core.fleet.round_us": (sum(scenario_ms) * 1e3 / c["sync_rounds"]
                                if c["sync_rounds"] else 0.0, "us"),
        "run.barrier_round_us": (per_work_us("run.parallel_for"), "us"),
        "run.effective_cores": (report["effective_cores"], "cores"),
        "trace.overhead_ratio": (report["traced"]["wall_s"] / untraced_wall, "ratio"),
    }


def self_times(spans):
    """Total and self time per span name; self time excludes the part of a
    span its children cover."""
    child_us = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            child_us[s["parent"]] += s["end_us"] - s["start_us"]
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for i, s in enumerate(spans):
        row = table[s["name"]]
        row[0] += 1
        row[1] += s["end_us"] - s["start_us"]
        row[2] += s["end_us"] - s["start_us"] - child_us[i]
    return table


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-golden", action="store_true",
                    help="store this run's digests as the golden of its workload "
                         "(only after a deliberate change of simulated results)")
    args = ap.parse_args()

    exe = build()
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    spans_path = build_dir() / "spans" / f"{args.workload}-seed{args.seed}.json"
    if args.trace:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(spans_path)]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if res.returncode != 0:
        raise SystemExit(f"perfbench: runner exited with {res.returncode}")
    report = json.loads(res.stdout.strip().splitlines()[-1])

    if args.update_golden:
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
        golden[report["workload"]] = {r["name"]: r["digest"] for r in report["results"]}
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        print(f"golden: stored {len(report['results'])} digests for {report['workload']}",
              file=sys.stderr)

    gfailed, gnote = golden_failures(report)
    attempted = report["attempted"]
    failed = report["failed"] + gfailed

    build_type = report["build_type"]
    print(f"host: nproc={report['nproc']} effective_cores={report['effective_cores']:.2f} "
          f"compiler={report['compiler']!r} build_type={build_type} "
          f"ndebug={report['ndebug']} commit={commit()} sources={source_digest()}")
    if build_type != "Release" or not report["ndebug"]:
        print(f"WARNING: {build_type} build (NDEBUG={report['ndebug']}) is not Release; "
              "its times do not compare with Release runs")
    print(f"workload: {report['workload']} seed={report['seed']} "
          f"scenarios={report['scenarios']} shards={report['shards']} "
          f"untraced passes={len(report['wall_s'])}")
    print(gnote)
    for r in report["results"]:
        if r["failures"]:
            print(f"FAILED {r['name']}: {r['error']} ({r['failures']}/{r['runs']} runs)")
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} scenario runs)")

    if args.trace:
        spans = json.loads(spans_path.read_text())["spans"]
        metrics = per_layer(report, spans)
        print(f"spans: {len(spans)} written to {spans_path}")
        print(f"{'span':34s} {'count':>6s} {'total ms':>11s} {'self ms':>11s}")
        for name, (count, total, self_us) in self_times(spans).items():
            print(f"{name:34s} {count:6d} {total / 1e3:11.3f} {self_us / 1e3:11.3f}")
    else:
        metrics = end_to_end(report)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:16.6f} {unit}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
