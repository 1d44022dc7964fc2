#include "core/scenario.hpp"

#include <algorithm>
#include <memory>

#include "core/fleet.hpp"
#include "run/thread_pool.hpp"
#include "sched/dispatcher.hpp"
#include "sim/topology.hpp"
#include "snapshot/serial.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace sigvp {

namespace {

/// One link of a domain's capture chain: digests the domain at a grid point
/// of the shared cadence and re-arms a copy of itself one cadence later
/// while the domain has pending events or open fabric business, so the
/// folded fleet captures span the whole fleet lifetime. Everything feeding
/// the re-arm decision is sim-domain deterministic, and the functor shares
/// no state: a chain dies with the queue that holds its next link.
struct CaptureTick {
  FleetDomain* dom;
  SimTime every_us;
  std::uint64_t reports_owed;  // root: completion reports still to arrive

  void operator()() const {
    EventQueue& q = dom->queue;
    FleetCapture fc;
    fc.at_us = q.now();
    fc.events_processed = q.events_processed();
    snapshot::Writer w;
    dom->capture_components(w, dom->functional);
    w.u64(dom->reports_sent);
    w.u64(dom->acks_received);
    w.u64(dom->reports_received);
    w.f64(dom->fleet_done_us);
    fc.digest = w.digest();
    dom->captures.push_back(fc);
    const bool fabric_open =
        dom->reports_sent > dom->acks_received || dom->reports_received < reports_owed;
    if (q.pending() > 0 || fabric_open) q.schedule_at(q.now() + every_us, *this);
  }
};

}  // namespace

std::string backend_name(Backend backend) {
  switch (backend) {
    case Backend::kNativeGpu: return "native-gpu";
    case Backend::kEmulationHostCpu: return "emulation-host-cpu";
    case Backend::kEmulationOnVp: return "emulation-on-vp";
    case Backend::kSigmaVp: return "sigma-vp";
  }
  return "?";
}

std::vector<AppInstance> replicate(const workloads::Workload& workload, std::uint64_t n,
                                   std::size_t count) {
  std::vector<AppInstance> apps(count);
  for (auto& a : apps) {
    a.workload = &workload;
    a.n = n;
  }
  return apps;
}

ScenarioResult run_scenario(const ScenarioConfig& config, const std::vector<AppInstance>& apps) {
  return run_scenario(config, apps, CaptureOptions{}, nullptr);
}

ScenarioResult run_scenario(const ScenarioConfig& config, const std::vector<AppInstance>& apps,
                            const CaptureOptions& capture,
                            std::vector<FleetCapture>* out_captures) {
  SIGVP_REQUIRE(!apps.empty(), "scenario needs at least one application");
  for (const AppInstance& a : apps) {
    SIGVP_REQUIRE(a.workload != nullptr && a.n > 0, "malformed app instance");
    SIGVP_REQUIRE(a.arrivals.empty() || !config.functional_io,
                  "open-loop request streams are timing-only (no functional_io)");
    SIGVP_REQUIRE(a.requests.empty() || a.requests.size() == a.arrivals.size(),
                  "per-request overrides must align with the arrival schedule");
  }

  if (config.host_gpus.size() > 1) {
    // The placement layer lives in the ΣVP dispatcher; other backends have
    // no job queue to place over. Fault injection models one flaky device —
    // combining it with a device *set* is undefined until someone needs it.
    SIGVP_REQUIRE(config.backend == Backend::kSigmaVp,
                  "multiple host GPUs require the ΣVP backend");
    SIGVP_REQUIRE(!config.fault.enabled(),
                  "fault injection supports a single host GPU only");
  }

  const std::uint32_t D = config.fleet.domains;
  SIGVP_REQUIRE(D >= 1, "fleet.domains must be >= 1");
  const bool sharded = D > 1;
  if (sharded) {
    SIGVP_REQUIRE(config.backend == Backend::kSigmaVp,
                  "sharded fleets (fleet.domains >= 2) require the ΣVP backend");
    SIGVP_REQUIRE(static_cast<std::size_t>(D) <= apps.size(),
                  "a sharded fleet needs at least one app per domain");
  }
  const FleetTopology topo =
      sharded ? FleetTopology::parse(config.fleet.topology, D, config.fleet.edge_latency_us)
              : FleetTopology::single();
  // Rounds advance by the fabric lookahead. A single domain has no fabric,
  // so it runs in one round — or, with captures on, in rounds of one
  // cadence, so every capture is verified and published while it runs.
  const SimTime step = !sharded && capture.every_us > 0.0 ? capture.every_us : topo.lookahead_us();
  const bool functional = config.mode == ExecMode::kFunctional;

  // Contiguous near-equal app slices: domain d owns [slice_at(d), slice_at(d+1)).
  auto slice_at = [&apps, D](std::size_t d) { return apps.size() * d / D; };

  // Shard execution: up to `--shards` host threads from the shared fleet
  // pool advance domains between barriers (parallel_for makes at most D
  // tasks). Purely an execution knob — the serial path below visits
  // domains in the same order the merge uses.
  std::vector<FleetDomain> doms(D);
  const std::size_t shard_threads = run::fleet_shards();
  auto for_each_domain = [&](auto&& fn) {
    if (shard_threads > 1 && D > 1) {
      run::parallel_for(run::fleet_pool(shard_threads), D, fn);
    } else {
      for (std::size_t d = 0; d < D; ++d) fn(d);
    }
  };

  const std::string base_label = backend_name(config.backend);
  for_each_domain([&](std::size_t d) {
    const std::size_t begin = slice_at(d);
    const std::size_t end = slice_at(d + 1);
    std::string label = base_label + " x" + std::to_string(end - begin);
    if (sharded) label += " shard" + std::to_string(d);
    doms[d].build(config, apps, begin, end, static_cast<std::uint32_t>(d), D, label);
  });
  FleetDomain& root = doms[0];
  const std::uint64_t remote_reports_expected = apps.size() - (root.app_end - root.app_begin);

  // Fabric completion hooks run inside their domain's events: the root
  // records its own apps' completions, every other domain reports
  // leaf → root with the path latency, and the root acks back.
  for (std::uint32_t d = 0; d < D; ++d) doms[d].start(topo.to_root_us(d));

  // Per-domain capture chains on the shared cadence grid.
  if (capture.every_us > 0.0) {
    for (std::uint32_t d = 0; d < D; ++d) {
      doms[d].queue.schedule_at(
          capture.every_us,
          CaptureTick{&doms[d], capture.every_us, d == 0 ? remote_reports_expected : 0});
    }
  }

  FleetStats fleet;
  auto resident_total = [&doms] {
    std::uint64_t sum = 0;
    for (const FleetDomain& dom : doms) sum += dom.resident_bytes();
    return sum;
  };
  std::uint64_t peak_resident = resident_total();  // construction peak

  // Barrier-time message routing: canonical (arrival, src, seq) order keeps
  // the destination queue's sequence assignment — and therefore every
  // downstream scheduling decision — independent of shard interleaving.
  auto route = [&](const FleetDomain::FabricMsg& m) {
    const std::uint32_t far_end = m.ack ? m.dst : m.src;
    ++fleet.fabric_messages;
    fleet.fabric_hops += topo.hops_to_root(far_end);
    if (!m.ack) {
      const SimTime back = topo.to_root_us(m.src);
      root.queue.schedule_at(m.arrive_us, [&root, src = m.src, app = m.app, back] {
        const SimTime now = root.queue.now();
        if (now > root.fleet_done_us) root.fleet_done_us = now;
        ++root.reports_received;
        if (root.rt) {
          root.rt->instant(trace::RunTrace::kTidIpc, "fabric", "report", now,
                           {trace::arg("app", static_cast<std::uint64_t>(app)),
                            trace::arg("src", static_cast<int>(src))});
        }
        root.outbox.push_back({now + back, 0, src, root.fabric_seq++, app, true});
      });
    } else {
      FleetDomain& dst = doms[m.dst];
      dst.queue.schedule_at(m.arrive_us, [&dst] { ++dst.acks_received; });
    }
  };

  // Fold the per-domain capture chains into fleet captures, grid point by
  // grid point, verifying against the expected sequence as we go. The grid
  // accumulates (prev + every_us) exactly like the chains do, so times
  // match bit-for-bit.
  std::size_t folded = 0;
  SimTime next_grid = capture.every_us;
  bool chains_dead = capture.every_us <= 0.0;
  auto fold_captures = [&](SimTime horizon) {
    while (!chains_dead && next_grid <= horizon) {
      FleetCapture fc;
      fc.at_us = next_grid;
      snapshot::Writer w;
      std::uint64_t contributors = 0;
      for (const FleetDomain& dom : doms) {
        if (dom.captures.size() > folded) ++contributors;
      }
      if (contributors == 0) {
        chains_dead = true;  // every chain ended — no entry at this grid, ever
        break;
      }
      w.u64(contributors);
      for (std::uint32_t d = 0; d < D; ++d) {
        if (doms[d].captures.size() <= folded) continue;
        const FleetCapture& c = doms[d].captures[folded];
        SIGVP_ASSERT(c.at_us == next_grid, "fleet capture chain left its cadence grid");
        w.u32(d);
        w.u64(c.events_processed);
        w.u64(c.digest);
        fc.events_processed += c.events_processed;
      }
      fc.digest = w.digest();
      if (folded < capture.expect.size()) {
        const FleetCapture& e = capture.expect[folded];
        if (!(fc == e)) {
          throw snapshot::SnapshotError(
              "fleet capture " + std::to_string(folded) + " diverged from checkpoint: " +
              "expected t=" + std::to_string(e.at_us) + " events=" +
              std::to_string(e.events_processed) + " digest=" + std::to_string(e.digest) +
              ", got t=" + std::to_string(fc.at_us) + " events=" +
              std::to_string(fc.events_processed) + " digest=" + std::to_string(fc.digest));
        }
      }
      ++folded;
      next_grid += capture.every_us;
      if (out_captures != nullptr) out_captures->push_back(fc);
      if (capture.on_capture) capture.on_capture(fc);
    }
  };

  // The conservative horizon loop. Any message sent by an event at time t
  // arrives at t + path >= t + lookahead, and every event processed in a
  // round has t >= the round's earliest pending time, so advancing all
  // domains to (earliest + lookahead) can never deliver into a domain's
  // past — and idle stretches are skipped at full speed because the horizon
  // chases the earliest *pending* event, wherever it is.
  std::vector<FleetDomain::FabricMsg> msgs;
  for (;;) {
    bool any = false;
    SimTime earliest = 0.0;
    for (const FleetDomain& dom : doms) {
      if (dom.queue.empty()) continue;
      const SimTime t = dom.queue.next_event_time();
      if (!any || t < earliest) earliest = t;
      any = true;
    }
    if (!any) break;
    const SimTime horizon = earliest + step;
    ++fleet.sync_rounds;

    for_each_domain([&doms, horizon](std::size_t d) { doms[d].queue.run_until(horizon); });

    msgs.clear();
    for (FleetDomain& dom : doms) {
      msgs.insert(msgs.end(), dom.outbox.begin(), dom.outbox.end());
      dom.outbox.clear();
    }
    std::sort(msgs.begin(), msgs.end(),
              [](const FleetDomain::FabricMsg& a, const FleetDomain::FabricMsg& b) {
                if (a.arrive_us != b.arrive_us) return a.arrive_us < b.arrive_us;
                if (a.src != b.src) return a.src < b.src;
                return a.seq < b.seq;
              });
    for (const FleetDomain::FabricMsg& m : msgs) route(m);
    fold_captures(horizon);
  }

  if (folded < capture.expect.size()) {
    throw snapshot::SnapshotError(
        "replay produced " + std::to_string(folded) + " fleet captures but the checkpoint " +
        "recorded " + std::to_string(capture.expect.size()) + " — runs diverged");
  }

  // Fleet-level liveness: every queue drained, so any dispatcher with queued
  // or in-flight jobs, any unacked report, or any unreported app means the
  // system deadlocked — fail loudly with a per-VP diagnostic instead of
  // reporting a bogus "finished" scenario.
  for (const FleetDomain& dom : doms) {
    if (dom.dispatcher && !dom.dispatcher->idle()) {
      SIGVP_ASSERT(false, "fleet domain " + std::to_string(dom.id) +
                              " drained with the dispatcher stalled — " +
                              dom.dispatcher->stall_report());
    }
    SIGVP_ASSERT(dom.outbox.empty(), "fleet drained with fabric messages unrouted");
    SIGVP_ASSERT(dom.acks_received == dom.reports_sent,
                 "fleet drained with unacknowledged completion reports");
  }
  SIGVP_ASSERT(root.reports_received == remote_reports_expected,
               "fleet drained before every completion report reached the root");

  // Canonical merge: domain order == global app order (slices are
  // contiguous and ascending), counters sum, histograms/metrics fold in
  // domain order — bit-identical for any shard/worker count.
  ScenarioResult result;
  for (const FleetDomain& dom : doms) {
    dom.append_app_results(result, config.functional_io && functional);
    dom.fold_counters(result);
  }
  // The fleet block describes sharding; a single domain leaves it inert.
  if (sharded) {
    fleet.domains = D;
    fleet.lookahead_us = topo.lookahead_us();
    fleet.fleet_done_us = root.fleet_done_us;
    fleet.resident_bytes = std::max(peak_resident, resident_total());
    for (const FleetDomain& dom : doms) {
      if (!dom.gpus || !dom.gpus->has_private_caches()) continue;
      const LaunchCacheStats cs = dom.gpus->cache_stats();
      fleet.cache_hits += cs.hits;
      fleet.cache_misses += cs.misses;
    }
    result.fleet = fleet;
  }

  if (root.rt) {
    // Close out run-level gauges; everything here is a pure function of the
    // scenario (sim-domain), so the registry stays deterministic.
    auto merged = std::make_shared<trace::Metrics>(std::move(root.rt->metrics));
    for (std::uint32_t d = 1; d < D; ++d) merged->merge(doms[d].rt->metrics);
    merged->gauge("run.makespan_us").record_max(result.makespan_us);
    if (result.latency.count > 0) {
      merged->counter("traffic.requests").value += result.requests_completed;
      merged->histogram("traffic.request_latency_us", trace::latency_buckets_us())
          .merge(result.latency);
    }
    if (result.makespan_us > 0.0) {
      // Utilization is per device, across every device of every domain.
      const double devs = result.gpus.devices > 0 ? result.gpus.devices : 1.0;
      merged->gauge("gpu.compute_utilization")
          .record_max(result.gpu_compute_busy_us / (D * devs * result.makespan_us));
      merged->gauge("gpu.copy_utilization")
          .record_max(result.gpu_copy_busy_us / (D * devs * result.makespan_us));
    }
    if (result.gpus.devices > 0) {
      merged->counter("placement.migrations").value += result.gpus.migrations;
      merged->counter("placement.migrated_bytes").value += result.gpus.migrated_bytes;
    }
    if (sharded) {
      merged->counter("fleet.fabric_messages").value += fleet.fabric_messages;
      merged->counter("fleet.sync_rounds").value += fleet.sync_rounds;
      merged->gauge("fleet.resident_bytes").record_max(static_cast<double>(fleet.resident_bytes));
    }
    result.metrics = std::move(merged);
  }
  return result;
}

}  // namespace sigvp
