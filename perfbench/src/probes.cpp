// Per-layer probes of the traced run. Each probe calls one layer's public
// function on the workload's own inputs and records a span per call (or per
// batch of identical calls too short to time alone, with the batch size as
// the span's `work`). perfbench/run.py turns the spans into the per-layer
// metrics; the span names below are that contract.

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <set>
#include <thread>
#include <tuple>
#include <utility>

#include "gpu/launch_cache.hpp"
#include "gpu/offline.hpp"
#include "mem/address_space.hpp"
#include "mem/allocator.hpp"
#include "perfbench.hpp"
#include "run/thread_pool.hpp"
#include "sim/event_queue.hpp"

namespace sigvp::perfbench {
namespace {

/// One distinct (app, size) the workload launches, with the scalar jitter of
/// its first occurrence.
struct Launch {
  const workloads::Workload* wl = nullptr;
  std::uint64_t n = 0;           // the scenario's size
  std::uint64_t probe_n = 0;     // size the interpreter probes run at
  std::uint64_t jitter = 0;
};

/// Cap on distinct launches probed, so the traced run stays bounded on
/// WorkloadSpec streams whose size jitter makes many distinct sizes.
constexpr std::size_t kMaxLaunches = 24;

std::vector<Launch> distinct_launches(const Workload& w) {
  std::vector<Launch> out;
  std::set<std::pair<const workloads::Workload*, std::uint64_t>> seen;
  auto add = [&](const workloads::Workload* wl, std::uint64_t n, std::uint64_t jitter,
                 bool functional) {
    if (out.size() >= kMaxLaunches || !seen.insert({wl, n}).second) return;
    // Analytic scenarios never interpret; their interpreter probes run at the
    // workload's functional-test size, which interprets in milliseconds.
    out.push_back(Launch{wl, n, functional ? n : wl->test_n, jitter});
  };
  for (const Scenario& s : w.scenarios) {
    const bool functional = s.config.mode == ExecMode::kFunctional;
    for (const AppInstance& a : s.apps) {
      if (a.requests.empty()) {
        add(a.workload, a.n, a.jitter, functional);
      } else {
        for (const workloads::Request& r : a.requests) add(r.workload, r.n, r.jitter, functional);
      }
    }
  }
  return out;
}

/// The kernels one iteration of `l` launches at size `n`, with their
/// arguments bound to `addrs`: every pipeline stage in order, or the single
/// kernel.
struct BoundKernel {
  const KernelIR* ir = nullptr;
  LaunchDims dims;
  KernelArgs args;
};

std::vector<BoundKernel> bind(const Launch& l, std::uint64_t n,
                              const std::vector<std::uint64_t>& addrs) {
  std::vector<BoundKernel> out;
  if (l.wl->stages.empty()) {
    out.push_back(BoundKernel{&l.wl->kernel, l.wl->dims(n), l.wl->args(addrs, n)});
  } else {
    for (const workloads::PipelineStage& st : l.wl->stages) {
      out.push_back(BoundKernel{&st.kernel, st.dims(n), st.args(addrs, n, l.jitter)});
    }
  }
  return out;
}

/// Device memory holding `l`'s buffers at size `n`, inputs filled exactly as
/// a functional_io scenario fills them (fill_inputs, zeros otherwise).
struct Image {
  AddressSpace memory;
  std::vector<std::uint64_t> addrs;
};

Image make_image(const Launch& l, std::uint64_t n) {
  const std::vector<workloads::BufferSpec> bufs = l.wl->buffers(n);
  std::uint64_t total = 4096;
  for (const auto& b : bufs) total += (b.bytes + 511) / 256 * 256;
  Image img{AddressSpace(total + 4096, "probe"), {}};
  FreeListAllocator alloc(4096, total);
  for (const auto& b : bufs) img.addrs.push_back(alloc.allocate(b.bytes).value());
  std::vector<std::vector<std::uint8_t>> host;
  for (const auto& b : bufs) host.emplace_back(b.bytes, std::uint8_t{0});
  if (l.wl->fill_inputs) l.wl->fill_inputs(n, host);
  for (std::size_t i = 0; i < bufs.size(); ++i) {
    if (bufs[i].is_input) img.memory.copy_in(img.addrs[i], host[i].data(), host[i].size());
  }
  return img;
}

/// Runs `fn` on `worker` and waits; rethrows what it threw.
void on_worker(run::ThreadPool& worker, const std::function<void()>& fn) {
  std::exception_ptr error;
  worker.submit([&] {
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
  });
  worker.wait_idle();
  if (error) std::rethrow_exception(error);
}

// --- mem ------------------------------------------------------------------------

/// Constructs and destroys the device address spaces one scenario builds
/// (one per fleet domain, at the declared capacity), on the thread that runs
/// the scenarios, so the allocator recycles memory the way it does in a pass.
void probe_mem_build(const Workload& w, run::ThreadPool& worker, SpanLog& log) {
  ScopedSpan layer(&log, "probe.mem.build");
  const ScenarioConfig& cfg = w.scenarios.front().config;
  const std::uint64_t domains = std::max<std::uint32_t>(1, cfg.fleet.domains);
  const std::uint64_t bytes = cfg.gpu_mem_bytes * domains;
  const std::uint64_t reps = std::clamp<std::uint64_t>((256ull << 20) / bytes, 1, 4);
  on_worker(worker, [&] {
    for (std::uint64_t r = 0; r < reps; ++r) {
      ScopedSpan span(&log, "mem.build");
      span.set_work(static_cast<double>(bytes));
      std::vector<AddressSpace> spaces;
      spaces.reserve(domains);
      for (std::uint64_t d = 0; d < domains; ++d) spaces.emplace_back(cfg.gpu_mem_bytes, "device");
    }
  });
}

/// AddressSpace::copy_within at every buffer size the workload's launches
/// use — the per-VP chunks the coalescer gathers and scatters.
void probe_mem_copy(const std::vector<Launch>& launches, SpanLog& log) {
  ScopedSpan layer(&log, "probe.mem.copy");
  std::set<std::uint64_t> sizes;
  for (const Launch& l : launches) {
    for (const auto& b : l.wl->buffers(l.n)) sizes.insert(b.bytes);
  }
  for (const std::uint64_t size : sizes) {
    AddressSpace space(2 * size + 4096, "copy");
    space.fill(0, 0x5A, size);
    const std::uint64_t reps = std::clamp<std::uint64_t>((64ull << 20) / size, 1, 4096);
    ScopedSpan span(&log, "mem.copy_within");
    span.set_work(static_cast<double>(reps * size));
    for (std::uint64_t r = 0; r < reps; ++r) space.copy_within(size + 4096, 0, size);
  }
}

// --- gpu ------------------------------------------------------------------------

/// evaluate_analytic per launch at the scenario size, batched.
void probe_cost_model(const std::vector<Launch>& launches, const GpuArch& arch, SpanLog& log) {
  ScopedSpan layer(&log, "probe.gpu.cost_model");
  constexpr int kCalls = 200;
  for (const Launch& l : launches) {
    std::vector<std::tuple<const KernelIR*, LaunchDims, DynamicProfile, MemoryBehavior>> ks;
    if (l.wl->stages.empty()) {
      ks.emplace_back(&l.wl->kernel, l.wl->dims(l.n), l.wl->profile(l.n), l.wl->behavior(l.n));
    } else {
      for (const auto& st : l.wl->stages) {
        ks.emplace_back(&st.kernel, st.dims(l.n), st.profile(l.n), st.behavior(l.n));
      }
    }
    for (const auto& [ir, dims, profile, behavior] : ks) {
      ScopedSpan span(&log, "gpu.evaluate_analytic");
      span.set_work(kCalls);
      double sink = 0.0;
      for (int c = 0; c < kCalls; ++c) {
        sink += evaluate_analytic(arch, *ir, dims, profile, behavior).duration_us;
      }
      if (sink < 0.0) std::terminate();  // keeps the calls observable
    }
  }
}

/// A private launch-cache shard: every kernel of the launch once on a fresh
/// image (miss, or bypass for atomics), then again on a second fresh image
/// with the same input bytes (hit). The misses also warm the Tier-2 engine,
/// so the interpreter probes below compare like with like.
void probe_launch_cache(const std::vector<Launch>& launches, const GpuArch& arch,
                        SpanLog& log) {
  ScopedSpan layer(&log, "probe.gpu.launch_cache");
  const std::unique_ptr<LaunchCache> shard = LaunchCache::create_shard();
  shard->set_enabled(true);
  for (const Launch& l : launches) {
    const Image pristine = make_image(l, l.probe_n);
    for (int round = 0; round < 2; ++round) {
      AddressSpace memory = pristine.memory;
      for (const BoundKernel& k : bind(l, l.probe_n, pristine.addrs)) {
        const int id = log.open("gpu.launch_cache");
        const LaunchEvaluation ev = shard->evaluate(arch, *k.ir, k.dims, k.args, memory);
        log.close(id);
        log.rename(id, std::string("gpu.launch_cache.") + launch_cache_outcome_name(ev.cache));
      }
    }
  }
}

// --- interp ---------------------------------------------------------------------

/// evaluate_functional on every kernel of every launch, once on `worker`
/// (a pool thread, where the interpreter runs serially) and once from this
/// thread (the host default: one interpreter worker per core).
void probe_interp(const std::vector<Launch>& launches, const GpuArch& arch,
                  run::ThreadPool& worker, SpanLog& log) {
  ScopedSpan layer(&log, "probe.interp");
  auto run_all = [&](const char* name) {
    for (const Launch& l : launches) {
      const Image pristine = make_image(l, l.probe_n);
      AddressSpace memory = pristine.memory;
      for (const BoundKernel& k : bind(l, l.probe_n, pristine.addrs)) {
        ScopedSpan span(&log, name);
        const LaunchEvaluation ev = evaluate_functional(arch, *k.ir, k.dims, k.args, memory);
        span.set_work(static_cast<double>(ev.profile.total_instrs()));
      }
    }
  };
  on_worker(worker, [&] { run_all("interp.evaluate_functional.w1"); });
  run_all("interp.evaluate_functional.wN");
}

// --- sim ------------------------------------------------------------------------

/// EventQueue schedule + step at the workload's queue depth: every open-loop
/// arrival is scheduled up front, so a domain starts with its share of the
/// arrivals pending; closed-loop VPs keep about one event each.
void probe_event_queue(const Workload& w, SpanLog& log) {
  ScopedSpan layer(&log, "probe.sim.event_queue");
  const Scenario& s = w.scenarios.front();
  std::uint64_t arrivals = 0;
  for (const AppInstance& a : s.apps) arrivals += a.arrivals.size();
  const std::uint64_t domains = std::max<std::uint32_t>(1, s.config.fleet.domains);
  const std::uint64_t depth = std::max<std::uint64_t>(arrivals, s.apps.size()) / domains;
  constexpr std::uint64_t kOps = 200000;
  for (int rep = 0; rep < 3; ++rep) {
    EventQueue q;
    q.reserve(depth + 1);
    for (std::uint64_t i = 0; i < depth; ++i) q.schedule_at(1e15 + static_cast<double>(i), [] {});
    ScopedSpan span(&log, "sim.event_queue");
    span.set_work(kOps);
    for (std::uint64_t i = 0; i < kOps; ++i) {
      q.schedule_after(1.0, [] {});
      q.step();
    }
  }
}

// --- run ------------------------------------------------------------------------

/// One horizon barrier of the fleet executor: parallel_for over the
/// workload's domains with trivial chunks on the shared fleet pool. Two
/// threads, the smallest pool that synchronises, whatever shard count the
/// scenarios run at (sharded_traffic runs its domains serially, see
/// workloads.cpp).
void probe_barrier(const Workload& w, SpanLog& log) {
  ScopedSpan layer(&log, "probe.run.barrier");
  const std::size_t domains = std::max<std::uint32_t>(1, w.scenarios.front().config.fleet.domains);
  const std::size_t threads = std::min<std::size_t>(2, run::ThreadPool::default_workers());
  std::atomic<std::uint64_t> touched{0};
  const std::function<void(std::size_t)> chunk = [&touched](std::size_t) {
    touched.fetch_add(1, std::memory_order_relaxed);
  };
  constexpr int kRounds = 2000;
  for (int rep = 0; rep < 3; ++rep) {
    ScopedSpan span(&log, "run.parallel_for");
    span.set_work(kRounds);
    for (int r = 0; r < kRounds; ++r) run::parallel_for(run::fleet_pool(threads), domains, chunk);
  }
}

}  // namespace

void run_probes(const Workload& w, run::ThreadPool& worker, SpanLog& log) {
  ScopedSpan root(&log, "probes");
  const std::vector<Launch> launches = distinct_launches(w);
  const GpuArch& arch = w.scenarios.front().config.gpu;
  probe_mem_build(w, worker, log);
  probe_mem_copy(launches, log);
  probe_cost_model(launches, arch, log);
  probe_launch_cache(launches, arch, log);
  probe_interp(launches, arch, worker, log);
  probe_event_queue(w, log);
  probe_barrier(w, log);
}

double effective_cores() {
  const std::size_t n = run::ThreadPool::default_workers();
  constexpr std::uint64_t kIters = 20'000'000;
  std::atomic<std::uint64_t> sink{0};
  auto spin = [&sink] {
    std::uint64_t x = 88172645463325252ull;
    for (std::uint64_t i = 0; i < kIters; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
    }
    sink.fetch_add(x, std::memory_order_relaxed);
  };
  auto timed = [&](std::size_t threads) {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(spin);
    for (std::thread& t : pool) t.join();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };
  const double one = timed(1);
  const double all = timed(n);
  return static_cast<double>(n) * one / all;
}

}  // namespace sigvp::perfbench
