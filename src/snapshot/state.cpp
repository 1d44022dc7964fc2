#include "snapshot/state.hpp"

#include <algorithm>

namespace sigvp::snapshot {

// --- field lists --------------------------------------------------------------
// One list per persisted record, in struct order; Writer and Reader both run
// it (serial.hpp). Checks that a loaded record must pass follow its list.

template <typename IO>
void fields(IO& io, Rec<IO, trace::Histogram>& h) {
  io(h.edges, h.counts, h.count, h.sum, h.min, h.max);
  if (h.counts.size() != h.edges.size() + 1) {
    throw SnapshotError("histogram bucket count does not match its edges");
  }
  if (std::adjacent_find(h.edges.begin(), h.edges.end(),
                         [](double a, double b) { return !(a < b); }) != h.edges.end()) {
    throw SnapshotError("histogram edges are not strictly ascending");
  }
}

// Metrics is built through its registry API, so it keeps one writer and
// one reader.
void fields(Writer& w, const trace::Metrics& m) { save_metrics(w, m); }
void fields(Reader& r, trace::Metrics& m) { m = load_metrics(r); }

template <typename IO>
void fields(IO& io, Rec<IO, FaultStats>& s) {
  io(s.active, s.messages_dropped, s.messages_duplicated, s.latency_spikes, s.acks_dropped,
     s.launch_failures, s.device_resets, s.ops_killed_by_reset, s.vp_stalls, s.retransmits,
     s.duplicates_suppressed, s.launch_retries, s.reset_requeues, s.group_resplits,
     s.vps_quarantined, s.vp_restarts, s.fallbacks, s.fallback_jobs, s.unrecovered_jobs,
     s.recovery_latency_total_us, s.recovery_latency_max_us, s.recovery_events);
}

template <typename IO>
void fields(IO& io, Rec<IO, FleetStats>& f) {
  io(f.domains, f.lookahead_us, f.sync_rounds, f.fabric_messages, f.fabric_hops,
     f.fleet_done_us, f.resident_bytes, f.cache_hits, f.cache_misses);
}

template <typename IO>
void fields(IO& io, Rec<IO, GpuDeviceStats>& d) {
  io(d.arch, d.vps, d.jobs, d.kernels, d.compute_busy_us, d.copy_busy_us, d.energy_j);
}

template <typename IO>
void fields(IO& io, Rec<IO, MultiGpuStats>& g) {
  io(g.devices, g.migrations, g.migrated_bytes, g.per_device);
}

template <typename IO>
void fields(IO& io, Rec<IO, ScenarioResult>& r) {
  io(r.makespan_us, r.app_done_us, r.jobs_dispatched, r.reorders, r.coalesced_groups,
     r.coalesced_jobs, r.ipc_messages, r.gpu_dynamic_energy_j, r.gpu_compute_busy_us,
     r.gpu_copy_busy_us, r.fault, r.fleet, r.gpus, r.app_outputs, r.latency,
     r.requests_completed, r.metrics);
}

template <typename IO>
void fields(IO& io, Rec<IO, FleetCapture>& c) {
  io(c.at_us, c.events_processed, c.digest);
}

template <typename IO>
void fields(IO& io, Rec<IO, JobCheckpoint>& job) {
  io(job.done);
  if (job.done) {
    io(job.result);
  } else {
    io(job.captures);
  }
}

template <typename IO>
void fields(IO& io, Rec<IO, SweepCheckpoint>& cp) {
  io(cp.fingerprint, cp.jobs);
}

// --- entry points --------------------------------------------------------------

void save_metrics(Writer& w, const trace::Metrics& m) {
  w.u64(m.counters().size());
  for (const auto& [name, c] : m.counters()) {
    w.str(name);
    w.u64(c.value);
  }
  w.u64(m.gauges().size());
  for (const auto& [name, g] : m.gauges()) {
    w.str(name);
    w.f64(g.value);
    w.boolean(g.set);
  }
  w.u64(m.histograms().size());
  for (const auto& [name, h] : m.histograms()) {
    w.str(name);
    w(h);
  }
}

trace::Metrics load_metrics(Reader& r) {
  trace::Metrics m;
  const std::uint64_t nc = r.u64();
  for (std::uint64_t i = 0; i < nc; ++i) {
    const std::string name = r.str();
    m.counter(name).value = r.u64();
  }
  const std::uint64_t ng = r.u64();
  for (std::uint64_t i = 0; i < ng; ++i) {
    const std::string name = r.str();
    trace::Gauge& g = m.gauge(name);
    g.value = r.f64();
    g.set = r.boolean();
  }
  const std::uint64_t nh = r.u64();
  for (std::uint64_t i = 0; i < nh; ++i) {
    const std::string name = r.str();
    trace::Histogram h;
    r(h);
    m.histogram(name, h.edges) = std::move(h);
  }
  return m;
}

void save_scenario_result(Writer& w, const ScenarioResult& result) { w(result); }

ScenarioResult load_scenario_result(Reader& r) {
  ScenarioResult result;
  r(result);
  return result;
}

std::vector<std::uint8_t> encode_sweep_checkpoint(const SweepCheckpoint& cp) {
  Writer w;
  w(cp);
  return w.take();
}

SweepCheckpoint decode_sweep_checkpoint(const std::vector<std::uint8_t>& payload) {
  Reader r(payload);
  SweepCheckpoint cp;
  r(cp);
  if (!r.done()) {
    throw SnapshotError("sweep checkpoint has " + std::to_string(r.remaining()) +
                        " trailing bytes");
  }
  return cp;
}

std::uint64_t scenario_fingerprint(const std::string& name, const std::string& group,
                                   const ScenarioConfig& config,
                                   const std::vector<AppInstance>& apps) {
  Writer w;
  w.str(name);
  w.str(group);
  w.u8(static_cast<std::uint8_t>(config.backend));
  w.boolean(config.dispatch.interleave);
  w.boolean(config.dispatch.coalesce);
  w.f64(config.dispatch.coalesce_window_us);
  w.u32(config.dispatch.coalesce_eager_peers);
  w.f64(config.dispatch.dispatch_overhead_us);
  w.f64(config.calib.host_cpu.effective_ips);
  w.f64(config.calib.host_cpu.memcpy_gbps);
  w.f64(config.calib.host_cpu.native_call_overhead_us);
  w.f64(config.calib.vp.bt_slowdown);
  w.f64(config.calib.vp.emul_isa_expansion);
  w.f64(config.calib.vp.user_lib_instrs_per_call);
  w.f64(config.calib.vp.driver_instrs_per_call);
  w.str(config.calib.ipc.name);
  w.f64(config.calib.ipc.per_message_us);
  w.f64(config.calib.ipc.bandwidth_gbps);
  w.str(config.gpu.name);
  w.u64(config.gpu_mem_bytes);
  w.u8(static_cast<std::uint8_t>(config.mode));
  w.boolean(config.async_launches);
  w.boolean(config.functional_io);
  // Fleet sharding is semantic (D domains = D job queues, D coalescing
  // windows, fabric latency on completion traffic), so it fingerprints;
  // the execution-only --shards knob deliberately does not.
  w.u32(config.fleet.domains);
  w.str(config.fleet.topology);
  w.f64(config.fleet.edge_latency_us);
  // The declared host GPU complement and the placement policy both change
  // what system is simulated, so they fingerprint. An empty declaration
  // hashes as count 0 — plus the default placement fields, which the
  // version bump to kSnapshotVersion 2 keeps from colliding with pre-
  // multi-GPU checkpoints.
  w.u64(config.host_gpus.size());
  for (const HostGpuSpec& spec : config.host_gpus) {
    w.str(spec.arch.name);
    w.u64(spec.mem_bytes);
  }
  w.u8(static_cast<std::uint8_t>(config.placement.policy));
  w.f64(config.placement.migration_fixed_us);
  w.f64(config.placement.migration_gbps);
  w.f64(config.placement.hysteresis_us);
  w.boolean(config.placement.allow_migration);
  w.u64(config.fault.seed);
  w.f64(config.fault.drop_rate);
  w.f64(config.fault.dup_rate);
  w.f64(config.fault.latency_spike_rate);
  w.f64(config.fault.launch_fail_rate);
  w.f64_vec(config.fault.device_reset_at_us);
  w.i64(config.fault.stall_vp);
  w.u32(config.fault.stall_after_completions);
  w.f64(config.recovery.ack_timeout_us);
  w.f64(config.recovery.backoff_mult);
  w.f64(config.recovery.max_backoff_us);
  w.u32(config.recovery.max_retries);
  w.u32(config.recovery.max_launch_retries);
  w.u32(config.recovery.quarantine_threshold);
  w.f64(config.recovery.vp_stall_timeout_us);
  w.u64(apps.size());
  for (const AppInstance& a : apps) {
    w.str(a.workload->app);
    w.u64(a.n);
    w.boolean(a.traits.has_value());
    w.u64(a.jitter);
    w.f64_vec(a.arrivals);
    w.u64(a.requests.size());
    for (const workloads::Request& req : a.requests) {
      w.str(req.workload->app);
      w.u64(req.n);
      w.u64(req.jitter);
    }
  }
  return w.digest();
}

}  // namespace sigvp::snapshot
