#pragma once

#include <string>

#include "run/sweep.hpp"

namespace sigvp::run {

/// Serializes a sweep to the machine-readable bench trajectory format.
///
/// Schema (stable; documented in README "Parallel scenario sweeps"):
/// {
///   "bench": "<name>", "workers": N, "wall_ms": W,
///   "summary": {"count": n, "min_us": .., "mean_us": .., "p50_us": ..,
///               "p95_us": .., "max_us": ..},
///   "jobs": [{"name": .., "group": .., "makespan_us": ..,
///             "app_done_us": [..], "jobs_dispatched": .., "reorders": ..,
///             "coalesced_groups": .., "coalesced_jobs": ..,
///             "ipc_messages": .., "gpu_dynamic_energy_j": ..,
///             "gpu_compute_busy_us": .., "gpu_copy_busy_us": ..}, ...]
/// }
///
/// Jobs whose scenarios served open-loop traffic (AppInstance::arrivals)
/// additionally carry `"requests": N` and a `"latency"` object with the
/// per-request latency distribution ({"count", "mean_us", "p50_us",
/// "p95_us", "p99_us", "max_us"}, sim-domain µs, deterministic for any
/// worker count); zero-traffic jobs omit both keys.
/// Jobs that ran under an enabled fault plan additionally carry a "fault"
/// object with the injected/recovery counters (FaultStats). Zero-fault runs
/// omit the key entirely, keeping their JSON byte-identical to builds
/// without the fault layer. Likewise, when metrics collection was on
/// (SIGVP_TRACE / SIGVP_METRICS=1 / --trace) the document carries a
/// top-level "metrics" object (counters/gauges/histograms aggregated across
/// scenarios in canonical input order); default runs omit it.
///
/// Every field is a pure function of the job list except the host-domain
/// ones: `workers`, `wall_ms` and the `"cache"` block. That block (present
/// when the launch cache hit or bypassed anything) records the lookups of
/// this process: under `workers > 1` concurrent fills of one launch split
/// hits and misses by thread timing, and a resumed sweep counts only the
/// jobs it re-ran.
std::string sweep_to_json(const SweepResult& sweep, const std::string& bench_name);

/// Writes `sweep_to_json` to `path` (e.g. "BENCH_fig11_suite.json"); logs
/// the failure and returns false instead of throwing. Bench mains use this
/// so `--json` to an unwritable path turns into `return 1`, not an uncaught
/// exception (or — worse — a silent success, which is what the pre-flush
/// good() check used to produce).
bool try_write_sweep_json(const SweepResult& sweep, const std::string& bench_name,
                          const std::string& path);

/// Low-level JSON primitives shared by the sweep serializer and the
/// non-sweep benches (e.g. `bench/interp_throughput`), so every BENCH_*.json
/// goes through one escaping/number-formatting implementation.
namespace json {

/// Escapes `s` for inclusion inside a JSON string literal (quotes excluded).
std::string escape(const std::string& s);

/// Shortest round-trippable decimal representation; NaN/Inf encode as null.
std::string number(double v);

}  // namespace json

/// Writes an already-serialized JSON document to `path` and reports failure
/// instead of throwing — the write is only considered successful once the
/// stream has flushed and closed cleanly. Benches use this so `--json` to
/// an unwritable path exits nonzero instead of silently succeeding.
bool try_write_json_file(const std::string& text, const std::string& path);

}  // namespace sigvp::run
