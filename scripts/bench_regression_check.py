#!/usr/bin/env python3
"""CI bench-regression gate for the ΣVP benches.

Compares freshly produced BENCH_*.json files against the checked-in
baselines in bench/baselines/ and exits nonzero on:

  * interp_throughput: any app whose instrs/sec dropped more than the
    tolerance band (default 25%) below its baseline, or a drop of the
    non-atomic aggregate speedup beyond the band. Wall-clock throughput is
    host-dependent, hence the wide band; the band is a floor, never a
    ratchet (faster results always pass).
  * launch_cache_speedup: ANY hit-rate regression (each VP point's serial
    hits and misses are deterministic counters — they must not change at
    all without a baseline update), ANY change to the shared sweep's
    lookup count (hits + misses; its split depends on thread scheduling),
    or a missing VP point. The wall-clock speedup is printed, not gated:
    on a shared 4-vCPU host it moved by more than any usable band, and the
    perfbench functional_fleet pairs carry the launch cache's host-time
    claims.
  * app_suite: ANY change to a scenario's sim-domain results (makespan,
    request count, latency percentiles, coalescing counters, ...). The
    whole per-job object is a pure function of the job config, so it is
    compared exactly; only the top-level workers/wall_ms fields are host-
    dependent and ignored.
  * tier_throughput: ANY change to a kernel's dynamic instruction count,
    compile count or fused superinstruction count (all pure functions of the
    launch stream), or an engine throughput/speedup-over-reference drop
    beyond the tolerance band.
  * fleet_scale: shard_determinism must be true (sharded runs byte-identical
    at --shards {1,2,4,8}); per-point resident_bytes/sync_rounds/
    fabric_messages compared exactly (pure functions of the scenario); VPs/s
    banded like the other wall-clock throughputs.
  * multigpu_placement: placement_determinism must be true (multi-GPU runs
    byte-identical across workers x shards); per-point makespans, speedups
    and placement/migration counters compared exactly (all sim-domain);
    jobs/s banded like the other wall-clock throughputs.

Divergence regressions (parallel interpreter vs serial profile, cached vs
uncached byte-identity) are enforced by the benches themselves via nonzero
exit codes, upstream of this gate.

Usage:
  bench_regression_check.py --baseline-dir bench/baselines \
      [--interp BENCH_interp.json] [--cache BENCH_launch_cache_speedup.json] \
      [--app-suite BENCH_app_suite.json] [--tolerance 0.25] [--update]

--update rewrites the baselines from the supplied results instead of
checking (for intentional perf/behaviour changes; commit the diff).
"""

import argparse
import json
import os
import pathlib
import shutil
import sys

FAILURES = []


def fail(msg):
    FAILURES.append(msg)
    print(f"FAIL: {msg}")


def ok(msg):
    print(f"  ok: {msg}")


def load(path):
    with open(path) as f:
        return json.load(f)


def check_interp(baseline, current, tolerance):
    print(f"== interp_throughput (tolerance: -{tolerance:.0%} throughput)")
    base_apps = {a["app"]: a for a in baseline["apps"]}
    cur_apps = {a["app"]: a for a in current["apps"]}
    for app, base in sorted(base_apps.items()):
        cur = cur_apps.get(app)
        if cur is None:
            fail(f"interp: app '{app}' disappeared from the bench")
            continue
        base_runs = {r["workers"]: r for r in base["runs"]}
        cur_runs = {r["workers"]: r for r in cur["runs"]}
        for workers, base_run in sorted(base_runs.items()):
            cur_run = cur_runs.get(workers)
            if cur_run is None:
                fail(f"interp: {app} workers={workers} missing from the bench")
                continue
            floor = base_run["instrs_per_sec"] * (1.0 - tolerance)
            ips = cur_run["instrs_per_sec"]
            if ips < floor:
                fail(
                    f"interp: {app} workers={workers} throughput "
                    f"{ips / 1e6:.1f} Minstr/s < floor {floor / 1e6:.1f} "
                    f"(baseline {base_run['instrs_per_sec'] / 1e6:.1f})"
                )
            else:
                ok(f"{app} workers={workers}: {ips / 1e6:.1f} Minstr/s "
                   f">= floor {floor / 1e6:.1f}")
    base_speedup = baseline.get("nonatomic_speedup_max_workers_vs_1", 1.0)
    cur_speedup = current.get("nonatomic_speedup_max_workers_vs_1", 1.0)
    if base_speedup > 1.0:
        floor = base_speedup * (1.0 - tolerance)
        if cur_speedup < floor:
            fail(f"interp: parallel speedup {cur_speedup:.2f}x < floor {floor:.2f}x")
        else:
            ok(f"parallel speedup {cur_speedup:.2f}x >= floor {floor:.2f}x")


def hit_rate(point):
    total = point["hits"] + point["misses"]
    return point["hits"] / total if total else 0.0


def check_cache(baseline, current, tolerance):
    del tolerance  # only sim-domain counters are gated
    print("== launch_cache_speedup (hit/miss counts: exact; speedup: reported)")
    base_points = {p["vps"]: p for p in baseline["points"]}
    cur_points = {p["vps"]: p for p in current["points"]}
    for vps, base in sorted(base_points.items()):
        cur = cur_points.get(vps)
        if cur is None:
            fail(f"cache: vps={vps} point missing from the bench")
            continue
        # Hits/misses are sim-domain deterministic: any change is a real
        # behavioural regression (or an intentional change -> --update).
        if (cur["hits"], cur["misses"]) != (base["hits"], base["misses"]):
            fail(
                f"cache: vps={vps} hit/miss counts changed: "
                f"{cur['hits']}/{cur['misses']} vs baseline "
                f"{base['hits']}/{base['misses']}"
            )
        elif hit_rate(cur) < hit_rate(base):
            fail(f"cache: vps={vps} hit rate regressed "
                 f"{hit_rate(cur):.3f} < {hit_rate(base):.3f}")
        else:
            ok(f"vps={vps}: hit rate {hit_rate(cur):.3f}, "
               f"hits/misses {cur['hits']}/{cur['misses']} unchanged")
        print(f"  info: vps={vps}: speedup {cur['speedup']:.2f}x "
              f"(baseline {base['speedup']:.2f}x; not gated)")
    # The shared sweep runs its jobs concurrently on one process-wide cache,
    # so which job fills an entry first (its hit/miss split) depends on
    # thread scheduling. The number of cacheable launches does not: compare
    # hits + misses exactly.
    base_shared = baseline.get("shared_sweep")
    cur_shared = current.get("shared_sweep")
    if base_shared and cur_shared:
        base_total = base_shared["hits"] + base_shared["misses"]
        cur_total = cur_shared["hits"] + cur_shared["misses"]
        if cur_total != base_total:
            fail("cache: shared-sweep lookups (hits + misses) changed: "
                 f"{cur_total} ({cur_shared['hits']}/{cur_shared['misses']}) vs "
                 f"baseline {base_total}")
        else:
            ok(f"shared sweep: {cur_total} lookups unchanged "
               f"(hits/misses {cur_shared['hits']}/{cur_shared['misses']})")


def check_tier(baseline, current, tolerance):
    print(f"== tier_throughput (lowering counts: exact; throughput: -{tolerance:.0%})")
    base_kernels = {k["kernel"]: k for k in baseline["kernels"]}
    cur_kernels = {k["kernel"]: k for k in current["kernels"]}
    for name, base in sorted(base_kernels.items()):
        cur = cur_kernels.get(name)
        if cur is None:
            fail(f"tier: kernel '{name}' disappeared from the bench")
            continue
        # Instruction counts and lowering stats are pure functions of the
        # launch stream: any change is a behavioural regression (or an
        # intentional lowering change -> --update).
        exact = ("compiles", "fused_superinsts", "instrs")
        changed = [f for f in exact if cur.get(f) != base.get(f)]
        if changed:
            fail(f"tier: {name} lowering counts changed "
                 f"({', '.join(f'{f}: {base.get(f)} -> {cur.get(f)}' for f in changed)})")
        else:
            ok(f"{name}: compiles={base['compiles']}, "
               f"fused={base['fused_superinsts']} unchanged")
        floor = base["t2_minstr_per_sec"] * (1.0 - tolerance)
        if cur["t2_minstr_per_sec"] < floor:
            fail(f"tier: {name} engine throughput {cur['t2_minstr_per_sec']:.1f} "
                 f"Minstr/s < floor {floor:.1f} "
                 f"(baseline {base['t2_minstr_per_sec']:.1f})")
        else:
            ok(f"{name}: {cur['t2_minstr_per_sec']:.1f} Minstr/s >= floor {floor:.1f}")
        if base.get("speedup", 0.0) > 1.0:
            sfloor = base["speedup"] * (1.0 - tolerance)
            if cur.get("speedup", 0.0) < sfloor:
                fail(f"tier: {name} speedup {cur.get('speedup', 0.0):.2f}x < "
                     f"floor {sfloor:.2f}x (baseline {base['speedup']:.2f}x)")
    for name in sorted(set(cur_kernels) - set(base_kernels)):
        fail(f"tier: new kernel '{name}' has no baseline "
             f"(run with --update to record it)")
    for field in ("total_compiles", "total_fused_superinsts"):
        if current.get(field) != baseline.get(field):
            fail(f"tier: {field} changed {baseline.get(field)} -> {current.get(field)}")
        else:
            ok(f"{field}: {baseline.get(field)} unchanged")


def check_fleet(baseline, current, tolerance):
    print(f"== fleet_scale (determinism/resident: exact; VPs/s: -{tolerance:.0%})")
    # The bench exits nonzero itself on divergence; the recorded flag guards
    # against a stale JSON from a run whose exit code was ignored.
    if current.get("shard_determinism") is not True:
        fail("fleet: shard_determinism is not true — sharded runs diverged")
    else:
        ok("shard determinism: byte-identical across --shards {1,2,4,8}")
    base_points = {p["vps"]: p for p in baseline["points"]}
    cur_points = {p["vps"]: p for p in current["points"]}
    for vps, base in sorted(base_points.items()):
        cur = cur_points.get(vps)
        if cur is None:
            fail(f"fleet: vps={vps} point missing from the bench")
            continue
        # Resident bytes and sync rounds are pure functions of the scenario:
        # any change is behavioural (or an intentional change -> --update).
        exact = ("domains", "resident_bytes", "sync_rounds", "fabric_messages")
        changed = [f for f in exact if cur.get(f) != base.get(f)]
        if changed:
            fail(f"fleet: vps={vps} deterministic fields changed "
                 f"({', '.join(f'{f}: {base.get(f)} -> {cur.get(f)}' for f in changed)})")
        else:
            ok(f"vps={vps}: {base['domains']} domains, "
               f"{base['resident_bytes']} resident bytes "
               f"({cur['bytes_per_vp']:.1f} B/VP) unchanged")
        floor = base["vps_per_sec"] * (1.0 - tolerance)
        if cur["vps_per_sec"] < floor:
            fail(f"fleet: vps={vps} throughput {cur['vps_per_sec']:.0f} VPs/s "
                 f"< floor {floor:.0f} (baseline {base['vps_per_sec']:.0f})")
        else:
            ok(f"vps={vps}: {cur['vps_per_sec']:.0f} VPs/s >= floor {floor:.0f}")
    db = current.get("dispatch_bound", {})
    if db:
        ok(f"dispatch-bound {db.get('vps')}-VP point: "
           f"{db.get('shard_speedup', 0.0):.2f}x at 8 shards "
           f"({db.get('host_cores')} host cores; informational)")


def check_multigpu(baseline, current, tolerance):
    print(f"== multigpu_placement (sim-domain: exact; jobs/s: -{tolerance:.0%})")
    # The bench exits nonzero itself on divergence; the recorded flag guards
    # against a stale JSON from a run whose exit code was ignored.
    if current.get("placement_determinism") is not True:
        fail("multigpu: placement_determinism is not true — "
             "multi-GPU runs diverged across workers/shards")
    else:
        ok("placement determinism: byte-identical across workers x shards")
    base_points = {p["label"]: p for p in baseline["points"]}
    cur_points = {p["label"]: p for p in current["points"]}
    for label, base in sorted(base_points.items()):
        cur = cur_points.get(label)
        if cur is None:
            fail(f"multigpu: point '{label}' missing from the bench")
            continue
        # Makespans, speedups and placement/migration counters are pure
        # functions of the scenario: any change is behavioural (or an
        # intentional change -> --update).
        exact = ("devices", "makespan_us", "speedup_vs_1", "jobs",
                 "migrations", "migrated_bytes")
        changed = [f for f in exact if cur.get(f) != base.get(f)]
        if changed:
            fail(f"multigpu: {label} deterministic fields changed "
                 f"({', '.join(f'{f}: {base.get(f)} -> {cur.get(f)}' for f in changed)})")
        else:
            ok(f"{label}: makespan {base['makespan_us']:.0f} us "
               f"({base['speedup_vs_1']:.2f}x), {base['migrations']} migrations "
               f"unchanged")
        floor = base["jobs_per_sec"] * (1.0 - tolerance)
        if cur["jobs_per_sec"] < floor:
            fail(f"multigpu: {label} throughput {cur['jobs_per_sec']:.0f} jobs/s "
                 f"< floor {floor:.0f} (baseline {base['jobs_per_sec']:.0f})")
        else:
            ok(f"{label}: {cur['jobs_per_sec']:.0f} jobs/s >= floor {floor:.0f}")
    for label in sorted(set(cur_points) - set(base_points)):
        fail(f"multigpu: new point '{label}' has no baseline "
             f"(run with --update to record it)")
    for block in ("placement", "migration"):
        if current.get(block) != baseline.get(block):
            fail(f"multigpu: {block} block changed "
                 f"{baseline.get(block)} -> {current.get(block)}")
        else:
            ok(f"{block} block unchanged")


def check_app_suite(baseline, current, tolerance):
    del tolerance  # sim-domain results are exact, not banded
    print("== app_suite (sim-domain scenario results: exact)")
    base_jobs = {j["name"]: j for j in baseline["jobs"]}
    cur_jobs = {j["name"]: j for j in current["jobs"]}
    for name, base in sorted(base_jobs.items()):
        cur = cur_jobs.get(name)
        if cur is None:
            fail(f"app_suite: scenario '{name}' disappeared from the bench")
            continue
        if cur != base:
            diffs = [
                k for k in sorted(set(base) | set(cur))
                if base.get(k) != cur.get(k)
            ]
            fail(f"app_suite: {name} results changed (fields: {', '.join(diffs)})")
        else:
            lat = base.get("latency", {})
            ok(f"{name}: p50/p95/p99 "
               f"{lat.get('p50_us', 0):.0f}/{lat.get('p95_us', 0):.0f}/"
               f"{lat.get('p99_us', 0):.0f} us, "
               f"{base.get('coalesced_groups', 0)} groups unchanged")
    for name in sorted(set(cur_jobs) - set(base_jobs)):
        fail(f"app_suite: new scenario '{name}' has no baseline "
             f"(run with --update to record it)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", default="bench/baselines",
                        type=pathlib.Path)
    parser.add_argument("--interp", type=pathlib.Path,
                        help="fresh BENCH_interp.json to check")
    parser.add_argument("--cache", type=pathlib.Path,
                        help="fresh BENCH_launch_cache_speedup.json to check")
    parser.add_argument("--app-suite", type=pathlib.Path,
                        help="fresh BENCH_app_suite.json to check")
    parser.add_argument("--tier", type=pathlib.Path,
                        help="fresh BENCH_tier.json to check")
    parser.add_argument("--fleet", type=pathlib.Path,
                        help="fresh BENCH_fleet_scale.json to check")
    parser.add_argument("--multigpu", type=pathlib.Path,
                        help="fresh BENCH_multigpu_placement.json to check")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional throughput drop (default 0.25)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite baselines from the supplied results")
    args = parser.parse_args()

    pairs = []
    if args.interp:
        pairs.append(("interp_throughput.json", args.interp, check_interp))
    if args.cache:
        pairs.append(("launch_cache_speedup.json", args.cache, check_cache))
    if args.app_suite:
        pairs.append(("app_suite.json", args.app_suite, check_app_suite))
    if args.tier:
        pairs.append(("tier_throughput.json", args.tier, check_tier))
    if args.fleet:
        pairs.append(("fleet_scale.json", args.fleet, check_fleet))
    if args.multigpu:
        pairs.append(("multigpu_placement.json", args.multigpu, check_multigpu))
    if not pairs:
        parser.error(
            "nothing to do: pass --interp, --cache, --app-suite, --tier, "
            "--fleet, and/or --multigpu")

    if args.update:
        args.baseline_dir.mkdir(parents=True, exist_ok=True)
        for name, path, _ in pairs:
            # Atomic publish: never leave a torn baseline if interrupted.
            dest = args.baseline_dir / name
            tmp = dest.with_suffix(dest.suffix + f".tmp.{os.getpid()}")
            shutil.copyfile(path, tmp)
            os.replace(tmp, dest)
            print(f"updated {dest} from {path}")
        return 0

    for name, path, check in pairs:
        baseline_path = args.baseline_dir / name
        if not baseline_path.exists():
            fail(f"missing baseline {baseline_path} (run with --update to create)")
            continue
        check(load(baseline_path), load(path), args.tolerance)

    if FAILURES:
        print(f"\nbench regression gate: {len(FAILURES)} failure(s)")
        return 1
    print("\nbench regression gate: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
