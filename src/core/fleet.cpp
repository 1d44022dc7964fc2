#include "core/fleet.hpp"

#include <algorithm>
#include <utility>

#include "core/app_run.hpp"
#include "core/request_stream.hpp"
#include "fault/health.hpp"
#include "gpu/launch_cache.hpp"
#include "ipc/ipc_manager.hpp"
#include "snapshot/serial.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "vp/emulation_driver.hpp"
#include "vp/native_driver.hpp"
#include "vp/sigmavp_driver.hpp"

namespace sigvp {

namespace {

/// splitmix64-style mix: derives a domain-local fault seed from the
/// scenario seed, so sharded fleets keep seeded fault injection per domain
/// without correlating decisions across domains.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t domain) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (domain + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

FleetDomain::FleetDomain() = default;

FleetDomain::~FleetDomain() {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i]) runs[i]->release();
    if (streams[i]) streams[i]->release();
  }
}

void FleetDomain::build(const ScenarioConfig& config, const std::vector<AppInstance>& apps,
                        std::size_t begin, std::size_t end, std::uint32_t domain_id,
                        std::uint32_t num_domains, const std::string& trace_label) {
  SIGVP_REQUIRE(begin < end && end <= apps.size(), "malformed fleet domain slice");
  const Calibration& calib = config.calib;
  const bool sharded = num_domains > 1;
  id = domain_id;
  app_begin = begin;
  app_end = end;
  functional = config.mode == ExecMode::kFunctional;

  // Host-side infrastructure (only built when the backend needs it). An
  // empty host_gpus declaration resolves to one implicit device from the
  // legacy gpu/gpu_mem_bytes fields — byte-identical to every prior release.
  // HostGpuSet gives each device a private launch-cache shard whenever the
  // fleet is sharded or the set is multi-device: hit/miss sequences stay a
  // pure function of each device's own launch stream (the process singleton
  // would make first-fill outcomes depend on shard-thread interleaving).
  const bool needs_gpu =
      config.backend == Backend::kNativeGpu || config.backend == Backend::kSigmaVp;
  if (needs_gpu) {
    std::vector<HostGpuSpec> specs = config.host_gpus;
    if (specs.empty()) specs.push_back(HostGpuSpec{config.gpu, config.gpu_mem_bytes});
    multi_gpu = specs.size() > 1;
    gpus = std::make_unique<HostGpuSet>(queue, specs, sharded);
    device = gpus->primary();
  }
  if (config.backend == Backend::kSigmaVp) {
    ipc = std::make_unique<IpcManager>(queue, calib.ipc);
    // Migration only makes sense where the working set is priced, not
    // carried: analytic mode without faults. Functional runs keep VPs
    // pinned so device-memory contents stay where the VP allocated them.
    PlacementConfig placement = config.placement;
    if (config.mode != ExecMode::kAnalytic || config.fault.enabled()) {
      placement.allow_migration = false;
    }
    dispatcher =
        std::make_unique<Dispatcher>(queue, gpus->device_ptrs(), config.dispatch, placement);
    ipc->set_sink([&d = *dispatcher](Job job) { d.submit(std::move(job)); });
  }

  // Observability (ΣVP only): one track group + metrics registry per
  // domain. Built only when collection is on, so the default path hands
  // every component a null pointer — a branch-on-null no-op.
  if (config.backend == Backend::kSigmaVp && trace::collecting()) {
    rt = std::make_unique<trace::RunTrace>(trace_label);
    ipc->set_trace(rt.get());
    dispatcher->set_trace(rt.get());
    // Device 0 keeps the legacy gpu.compute/copy tracks; every extra device
    // of a multi-GPU set gets its own named track triple.
    for (std::size_t g = 0; g < gpus->count(); ++g) {
      GpuDevice& dev = gpus->device(g);
      dev.set_trace(rt.get());
      if (g >= 1) {
        const std::uint32_t base = 2000 + 8 * static_cast<std::uint32_t>(g);
        dev.set_trace_tids(base, base + 1, base + 2);
        const std::string nm = "gpu" + std::to_string(g);
        rt->thread_name(base, nm + ".compute");
        rt->thread_name(base + 1, nm + ".copy_in");
        rt->thread_name(base + 2, nm + ".copy_out");
      }
    }
  }

  // Fault injection + tolerance (ΣVP only). A zero-fault config builds none
  // of this, so the legacy code paths stay byte-identical. Sharded fleets
  // reseed the plan per domain and remap the stall-VP index into the slice.
  FaultConfig fc = config.fault;
  if (sharded) {
    fc.seed = mix_seed(fc.seed, domain_id);
    if (fc.stall_vp >= 0) {
      const std::int64_t sv = fc.stall_vp;
      fc.stall_vp = (sv >= static_cast<std::int64_t>(begin) &&
                     sv < static_cast<std::int64_t>(end))
                        ? sv - static_cast<std::int64_t>(begin)
                        : -1;
    }
  }
  faults_on = config.backend == Backend::kSigmaVp && fc.enabled();
  if (faults_on) {
    fault_plan = std::make_unique<FaultPlan>(fc);
    fault_stats = std::make_unique<FaultStats>();
    fault_stats->active = true;
    health = std::make_unique<HealthPolicy>(config.recovery, *fault_stats);
    device->set_fault(fault_plan.get(), fault_stats.get());
    ipc->set_fault(fault_plan.get(), fault_stats.get(), health.get(), config.recovery);
    dispatcher->set_fault(fault_plan.get(), fault_stats.get(), health.get(), config.recovery);
    for (SimTime t : fc.device_reset_at_us) {
      queue.schedule_at(t, [&d = *dispatcher] { d.inject_device_reset(); });
    }
  }

  // Multi-GPU sets: compute the slice's initial VP↔device assignment before
  // any VP registers. Weights proxy each app's demand (problem size times
  // request count); the affinity policy spreads them LPT-greedily over the
  // devices' relative speeds, round-robin ignores both.
  std::vector<std::uint32_t> assign;
  if (config.backend == Backend::kSigmaVp && gpus->count() > 1) {
    std::vector<std::uint64_t> weights;
    weights.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      const AppInstance& a = apps[i];
      weights.push_back(a.n * std::max<std::uint64_t>(1, a.arrivals.size()));
    }
    assign = initial_placement(config.placement.policy, weights, gpus->relative_speeds());
  }

  // Per-app CPU contexts and drivers. On the paper's 32-core host each VP
  // gets its own core, so CPU contexts run concurrently in simulated time.
  // Tags use the *global* app index, so traces of a sharded fleet name VPs
  // consistently across domains.
  for (std::size_t i = begin; i < end; ++i) {
    const std::string tag = "app" + std::to_string(i);
    switch (config.backend) {
      case Backend::kNativeGpu: {
        cpus.push_back(std::make_unique<Processor>(queue, tag + ".hostcpu",
                                                   calib.host_cpu.effective_ips));
        drivers.push_back(std::make_unique<NativeDriver>(queue, *device, calib.host_cpu));
        break;
      }
      case Backend::kEmulationHostCpu: {
        EmulationConfig ec = calib.emulation_on_host(functional);
        ec.cpu_ips /= calib.emulation_contention(apps.size());
        cpus.push_back(std::make_unique<Processor>(queue, tag + ".hostcpu", ec.cpu_ips));
        drivers.push_back(std::make_unique<EmulationDriver>(*cpus.back(), ec));
        break;
      }
      case Backend::kEmulationOnVp: {
        EmulationConfig ec = calib.emulation_on_vp(functional);
        ec.cpu_ips /= calib.emulation_contention(apps.size());
        cpus.push_back(std::make_unique<Processor>(queue, tag + ".guest", ec.cpu_ips));
        drivers.push_back(std::make_unique<EmulationDriver>(*cpus.back(), ec));
        break;
      }
      case Backend::kSigmaVp: {
        cpus.push_back(std::make_unique<Processor>(queue, tag + ".guest",
                                                   calib.vp.guest_ips(calib.host_cpu)));
        const std::uint32_t ipc_id = ipc->register_vp(tag);
        const std::uint32_t dev_idx = assign.empty() ? 0 : assign[i - begin];
        dispatcher->register_vp(dev_idx);
        GpuDevice& vp_dev = gpus->device(dev_idx);
        auto drv =
            std::make_unique<SigmaVpDriver>(*cpus.back(), *ipc, vp_dev, ipc_id, calib.vp);
        if (faults_on) {
          health->register_vp();
          // Graceful-degradation path: an emulation driver on the guest CPU
          // that borrows the real device's address space, so jobs escalated
          // mid-run keep operating on valid device pointers and data.
          fallback_drivers.push_back(std::make_unique<EmulationDriver>(
              *cpus.back(), calib.emulation_on_vp(functional), vp_dev.memory()));
          drv->enable_fallback(fallback_drivers.back().get());
          sigma_drivers.push_back(drv.get());
        }
        drivers.push_back(std::move(drv));
        break;
      }
    }
  }

  if (faults_on) {
    // One escalation funnel for both escalation sources (IPC retry-budget
    // exhaustion and dispatcher launch-retry exhaustion / failed-VP purge):
    // hand the job to its driver's seq-ordered fallback queue.
    auto escalate = [&stats = *fault_stats, &sigma = sigma_drivers](std::uint32_t vp_id,
                                                                    Job job) {
      ++stats.fallback_jobs;
      sigma.at(vp_id)->run_fallback_job(std::move(job));
    };
    ipc->set_escalation(escalate);
    dispatcher->set_escalation(escalate);
    // Every in-order completion release may unblock the next parked
    // fallback job of that VP.
    ipc->set_release_listener(
        [&sigma = sigma_drivers](std::uint32_t vp_id) { sigma.at(vp_id)->pump_fallback(); });
    // When a VP is declared failed, its queued (not yet dispatched) jobs
    // escalate with it so nothing is stranded behind the failure.
    health->on_failed = [&d = *dispatcher](std::uint32_t vp_id) { d.purge_vp(vp_id); };
  }

  // Build every application — closed-loop AppRun by default, open-loop
  // RequestStream when the instance carries an arrival schedule. `runs`/
  // `streams` are index-aligned with the slice (exactly one non-null per
  // slot). Bulk event insertion at start() benefits from a pre-sized heap.
  const std::size_t slice = end - begin;
  queue.reserve(queue.pending() + slice + 1);
  runs.resize(slice);
  streams.resize(slice);
  for (std::size_t i = 0; i < slice; ++i) {
    const AppInstance& app = apps[begin + i];
    if (!app.arrivals.empty()) {
      streams[i] = std::make_shared<RequestStream>(queue, *drivers[i], *app.workload, app.n,
                                                   config.mode, app.jitter, app.arrivals,
                                                   app.requests);
      continue;
    }
    const workloads::AppTraits* traits = app.traits.has_value() ? &*app.traits : nullptr;
    runs[i] = std::make_shared<AppRun>(queue, *drivers[i], *cpus[i], *app.workload, app.n,
                                       config.mode, traits, config.async_launches,
                                       config.functional_io && functional, app.jitter);
  }
}

void FleetDomain::start(SimTime to_root_us) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::function<void(SimTime)> done;
    if (id == 0) {
      done = [this](SimTime t) {
        if (t > fleet_done_us) fleet_done_us = t;
      };
    } else {
      done = [this, app = app_begin + i, to_root_us](SimTime t) {
        outbox.push_back({t + to_root_us, id, 0, fabric_seq++, app, false});
        ++reports_sent;
      };
    }
    if (runs[i]) runs[i]->start(std::move(done));
    if (streams[i]) streams[i]->start(std::move(done));
  }
}

void FleetDomain::capture_components(snapshot::Writer& w, bool hash_memory) const {
  queue.capture_state(w);
  if (gpus) {
    // Declaration order; a 1-device set digests exactly like the legacy
    // single-device capture.
    for (std::size_t g = 0; g < gpus->count(); ++g) {
      gpus->device(g).capture_state(w, hash_memory);
    }
  }
  if (ipc) ipc->capture_state(w);
  if (dispatcher) dispatcher->capture_state(w);
  for (const auto& cpu : cpus) {
    w.f64(cpu->busy_until());
    w.f64(cpu->busy_total());
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (streams[i]) {
      streams[i]->capture_state(w);
    } else {
      w.boolean(runs[i]->finished());
      w.f64(runs[i]->finished_at());
      w.u64(runs[i]->kernels_launched());
    }
  }
  if (faults_on) {
    w.u64(fault_stats->retransmits);
    w.u64(fault_stats->duplicates_suppressed);
    w.u64(fault_stats->launch_retries);
    w.u64(fault_stats->fallback_jobs);
    w.u64(fault_stats->unrecovered_jobs);
  }
}

void FleetDomain::append_app_results(ScenarioResult& result, bool want_outputs) const {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (streams[i]) {
      SIGVP_ASSERT(streams[i]->finished(),
                   "event queue drained but a request stream never finished");
      result.app_done_us.push_back(streams[i]->finished_at());
      result.makespan_us = std::max(result.makespan_us, streams[i]->finished_at());
      // Canonical input order, so the folded histogram is bit-identical for
      // any sweep worker count.
      result.latency.merge(streams[i]->latency());
      result.requests_completed += streams[i]->requests_completed();
      continue;
    }
    const auto& run = runs[i];
    SIGVP_ASSERT(run->finished(), "event queue drained but an app never finished");
    result.app_done_us.push_back(run->finished_at());
    result.makespan_us = std::max(result.makespan_us, run->finished_at());
    if (want_outputs) result.app_outputs.push_back(run->output_bytes());
  }
}

void FleetDomain::fold_counters(ScenarioResult& result) const {
  if (dispatcher) {
    result.jobs_dispatched += dispatcher->jobs_dispatched();
    result.reorders += dispatcher->reorders();
    result.coalesced_groups += dispatcher->coalesced_groups();
    result.coalesced_jobs += dispatcher->coalesced_jobs();
  }
  if (ipc) result.ipc_messages += ipc->messages_sent();
  if (gpus) {
    // The legacy gpu_* totals sum over the whole set, so 1-device results
    // are unchanged and multi-GPU results stay comparable.
    for (std::size_t g = 0; g < gpus->count(); ++g) {
      const GpuDevice& dev = gpus->device(g);
      result.gpu_dynamic_energy_j += dev.dynamic_energy_j();
      result.gpu_compute_busy_us += dev.compute_busy_us();
      result.gpu_copy_busy_us += dev.copy_busy_us();
    }
  }
  if (multi_gpu) {
    MultiGpuStats& mg = result.gpus;
    mg.devices = static_cast<std::uint32_t>(gpus->count());
    if (mg.per_device.size() < gpus->count()) mg.per_device.resize(gpus->count());
    for (std::size_t g = 0; g < gpus->count(); ++g) {
      const GpuDevice& dev = gpus->device(g);
      GpuDeviceStats& ds = mg.per_device[g];
      if (ds.arch.empty()) ds.arch = dev.arch().name;
      ds.vps += dispatcher->vps_on_device(g);
      ds.jobs += dispatcher->lane_jobs(g);
      ds.kernels += dev.kernels_launched();
      ds.compute_busy_us += dev.compute_busy_us();
      ds.copy_busy_us += dev.copy_busy_us();
      ds.energy_j += dev.dynamic_energy_j();
    }
    mg.migrations += dispatcher->migrations();
    mg.migrated_bytes += dispatcher->migrated_bytes();
  }
  if (faults_on) result.fault.merge(*fault_stats);
}

std::uint64_t FleetDomain::resident_bytes() const {
  std::uint64_t total = sizeof(FleetDomain) + queue.resident_bytes();
  if (gpus) total += gpus->resident_bytes();
  if (ipc) total += ipc->resident_bytes();
  if (dispatcher) total += dispatcher->resident_bytes();
  total += cpus.size() * sizeof(Processor);
  total += drivers.size() * sizeof(SigmaVpDriver);  // largest driver variant
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i]) total += sizeof(AppRun);
    if (streams[i]) total += sizeof(RequestStream);
  }
  total += fallback_drivers.size() * sizeof(EmulationDriver);
  total += captures.capacity() * sizeof(FleetCapture);
  total += outbox.capacity() * sizeof(FabricMsg);
  return total;
}

}  // namespace sigvp
