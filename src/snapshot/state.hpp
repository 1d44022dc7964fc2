#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "gpu/launch_cache.hpp"
#include "snapshot/serial.hpp"
#include "trace/metrics.hpp"

namespace sigvp::snapshot {

// --- component codecs ---------------------------------------------------------
// Bit-exact round trips: every double travels by bit pattern, every map in
// its deterministic iteration order, so save(load(x)) == x byte-for-byte —
// the property the resume path's "final JSON identical to an uninterrupted
// run" contract reduces to. Each persisted record's field list is written
// once, in state.cpp, and drives both directions.

void save_metrics(Writer& w, const trace::Metrics& m);
trace::Metrics load_metrics(Reader& r);

void save_scenario_result(Writer& w, const ScenarioResult& result);
ScenarioResult load_scenario_result(Reader& r);

// --- sweep checkpoint ---------------------------------------------------------

/// Durable state of one sweep job inside a checkpoint: either its finished
/// result (the durable unit of progress — serialized bit-exact, spliced
/// into the resumed sweep without re-execution) or the fleet-capture
/// digests its interrupted execution had produced so far (replayed jobs
/// re-verify against them capture by capture).
struct JobCheckpoint {
  bool done = false;
  ScenarioResult result;               // valid when done
  std::vector<FleetCapture> captures;  // capture prefix when not done
};

/// Whole-sweep checkpoint payload (wrapped in the io.hpp file container).
struct SweepCheckpoint {
  /// scenario_fingerprint over every job of the sweep — a resume against a
  /// different job list/config is rejected before any state is trusted.
  std::uint64_t fingerprint = 0;
  std::vector<JobCheckpoint> jobs;
  /// Launch-cache resident entries (LaunchCache::export_state payload) and
  /// the stat-counter deltas accumulated by completed jobs, both recorded
  /// at job-completion boundaries only — capture-cadence publishes reuse
  /// the last boundary values, so a mid-job crash never double-counts the
  /// partial cache work of the job that will re-execute.
  std::vector<std::uint8_t> cache_blob;
  LaunchCacheStats cache_delta;
};

std::vector<std::uint8_t> encode_sweep_checkpoint(const SweepCheckpoint& cp);
SweepCheckpoint decode_sweep_checkpoint(const std::vector<std::uint8_t>& payload);

/// Deterministic fingerprint of one sweep job's identity: its name/group
/// plus every ScenarioConfig knob and app-instance parameter that feeds the
/// simulation. Two jobs with equal fingerprints produce identical results,
/// so a checkpoint is only ever resumed into the sweep that wrote it.
std::uint64_t scenario_fingerprint(const std::string& name, const std::string& group,
                                   const ScenarioConfig& config,
                                   const std::vector<AppInstance>& apps);

}  // namespace sigvp::snapshot
