// Micro-benchmarks of the simulation substrates (google-benchmark):
// host-side throughput of the event queue, the IR interpreter, the cache
// simulator, and the analytic cost model. These bound how fast ΣVP
// experiments themselves run.

#include <benchmark/benchmark.h>

#include "gpu/offline.hpp"
#include "interp/interpreter.hpp"
#include "mem/cache.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"
#include "workloads/suite.hpp"

namespace sigvp {
namespace {

void BM_EventQueueSchedule(benchmark::State& state) {
  for (auto _ : state) {
    EventQueue q;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      q.schedule_at(static_cast<SimTime>(i % 97), [&sink] { ++sink; });
    }
    q.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueSchedule);

void BM_InterpreterVectorAdd(benchmark::State& state) {
  const workloads::Workload w = workloads::make_vector_add();
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  AddressSpace mem(64ull << 20, "m");
  KernelArgs args = w.args({4096, 4096 + 4 * n, 4096 + 8 * n}, n);
  Interpreter interp;
  std::uint64_t instrs = 0;
  for (auto _ : state) {
    const DynamicProfile p = interp.run(w.kernel, w.dims(n), args, mem);
    instrs = p.total_instrs();
    benchmark::DoNotOptimize(p.instr_counts);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(instrs));
  state.SetLabel("guest-instrs/s");
}
BENCHMARK(BM_InterpreterVectorAdd)->Arg(1 << 10)->Arg(1 << 14);

void BM_CacheModelAccess(benchmark::State& state) {
  CacheModel cache(CacheConfig{512 * 1024, 128, 8});
  Rng rng(42);
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      cache.access(rng.next_below(8u << 20), 4);
    }
  }
  benchmark::DoNotOptimize(cache.stats().misses);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CacheModelAccess);

void BM_AnalyticLaunchPricing(benchmark::State& state) {
  const workloads::Workload w = workloads::make_black_scholes();
  const std::uint64_t n = w.default_n;
  const DynamicProfile p = w.profile(n);
  const MemoryBehavior b = w.behavior(n);
  const GpuArch arch = make_quadro4000();
  for (auto _ : state) {
    const KernelExecStats s = evaluate_analytic(arch, w.kernel, w.dims(n), p, b);
    benchmark::DoNotOptimize(s.total_cycles);
  }
}
BENCHMARK(BM_AnalyticLaunchPricing);

void BM_ProfileDerivation(benchmark::State& state) {
  const workloads::Workload w = workloads::make_matrix_mul();
  for (auto _ : state) {
    const DynamicProfile p = w.profile(320);
    benchmark::DoNotOptimize(p.instr_counts);
  }
}
BENCHMARK(BM_ProfileDerivation);

}  // namespace
}  // namespace sigvp
