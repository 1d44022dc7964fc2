// Measures the kernel execution engine (DESIGN.md §15) against the Tier-1
// reference interpreter: per-kernel Minstr/s of Interpreter::run_reference
// vs Interpreter::run across the full Fig. 11 workload suite plus the
// app-pipeline stages, with compile and fusion counts alongside.
//
//   tier_throughput [--n SIZE] [--reps R] [--json PATH] [--trace PATH]
//
// Every engine run is differenced against the reference profile AND the
// final memory image (full-space hash) — any mismatch makes the bench exit
// nonzero, so the speedup numbers can never outlive the byte-exactness
// contract they advertise. The compile and fused-superinstruction counts per
// kernel are pure functions of the launch stream;
// scripts/bench_regression_check.py compares them exactly.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "interp/interpreter.hpp"
#include "interp/tier2.hpp"
#include "mem/address_space.hpp"
#include "mem/allocator.hpp"
#include "run/json_writer.hpp"
#include "run/sweep.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/table.hpp"
#include "workloads/suite.hpp"

namespace sigvp {
namespace {

constexpr std::uint64_t kSpace = 256ull * 1024 * 1024;

/// One kernel to bench: a suite workload, or one stage of an app pipeline
/// (which reuses the owning workload's buffer set).
struct BenchUnit {
  std::string app;
  std::string kernel_name;
  const KernelIR* kernel = nullptr;
  std::uint64_t n = 0;
  LaunchDims dims;
  std::function<KernelArgs(const std::vector<std::uint64_t>& addrs)> args;
  const workloads::Workload* buffers_of = nullptr;  // whose buffers(n) to allocate
};

struct UnitResult {
  std::string app;
  std::string kernel;
  std::uint64_t n = 0;
  std::uint64_t instrs = 0;
  std::uint64_t compiles = 0;
  std::uint64_t fused = 0;
  double t1_minstr_s = 0.0;
  double t2_minstr_s = 0.0;
  double speedup = 0.0;
};

/// One launch on fresh memory — on the reference or on the engine — returns
/// the profile, the post-run full-space memory hash, and the wall-clock of
/// the launch call alone.
DynamicProfile one_run(const BenchUnit& u, bool reference, double& wall_ms,
                       std::uint64_t& mem_hash) {
  AddressSpace mem(kSpace, "bench");
  FreeListAllocator alloc(4096, mem.size() - 4096);
  const auto specs = u.buffers_of->buffers(u.n);
  std::vector<std::uint64_t> addrs;
  std::vector<std::vector<std::uint8_t>> host(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto a = alloc.allocate(specs[i].bytes);
    SIGVP_REQUIRE(a.has_value(), u.app + ": bench arena too small for n");
    addrs.push_back(*a);
    host[i].assign(specs[i].bytes, 0);
  }
  // Real input data when the workload provides it (pipeline stages read
  // indices/weights from memory); flat 0.5f fill otherwise.
  if (u.buffers_of->fill_inputs) {
    u.buffers_of->fill_inputs(u.n, host);
  } else {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (!specs[i].is_input) continue;
      for (std::uint64_t off = 0; off + 4 <= specs[i].bytes; off += 4) {
        const float v = 0.5f;
        std::memcpy(host[i].data() + off, &v, 4);
      }
    }
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].is_input) mem.copy_in(addrs[i], host[i].data(), host[i].size());
  }
  const KernelArgs args = u.args(addrs);
  Interpreter::Options options;
  options.workers = 1;  // per-kernel dispatch throughput, not grid parallelism
  const auto start = std::chrono::steady_clock::now();
  DynamicProfile profile = reference ? Interpreter::run_reference(*u.kernel, u.dims, args, mem)
                                     : Interpreter().run(*u.kernel, u.dims, args, mem, options);
  wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  mem_hash = mem.hash_range(0, mem.size(), kMemHashSeed);
  return profile;
}

bool profiles_equal(const DynamicProfile& a, const DynamicProfile& b) {
  return a.block_visits == b.block_visits &&
         a.instr_counts.counts == b.instr_counts.counts &&
         a.global_load_bytes == b.global_load_bytes &&
         a.global_store_bytes == b.global_store_bytes &&
         a.barriers_waited == b.barriers_waited && a.sfu_instrs == b.sfu_instrs &&
         a.sqrt_instrs == b.sqrt_instrs;
}

std::string to_json(const std::vector<UnitResult>& units, std::size_t reps) {
  using run::json::escape;
  using run::json::number;
  std::uint64_t total_compiles = 0, total_fused = 0;
  double best_speedup = 0.0;
  std::uint64_t kernels_ge_1_5x = 0;
  for (const UnitResult& u : units) {
    total_compiles += u.compiles;
    total_fused += u.fused;
    best_speedup = std::max(best_speedup, u.speedup);
    if (u.speedup >= 1.5) ++kernels_ge_1_5x;
  }
  std::ostringstream os;
  os << "{\n  \"bench\": \"tier_throughput\",\n";
  os << "  \"workers\": 1,\n  \"reps\": " << reps << ",\n";
  os << "  \"total_compiles\": " << total_compiles << ",\n";
  os << "  \"total_fused_superinsts\": " << total_fused << ",\n";
  os << "  \"best_speedup\": " << number(best_speedup) << ",\n";
  os << "  \"kernels_ge_1_5x\": " << kernels_ge_1_5x << ",\n";
  os << "  \"kernels\": [\n";
  for (std::size_t i = 0; i < units.size(); ++i) {
    const UnitResult& u = units[i];
    os << "    {\"kernel\": \"" << escape(u.kernel) << "\", \"app\": \"" << escape(u.app)
       << "\", \"n\": " << u.n << ", \"instrs\": " << u.instrs
       << ", \"compiles\": " << u.compiles << ", \"fused_superinsts\": " << u.fused
       << ", \"t1_minstr_per_sec\": " << number(u.t1_minstr_s)
       << ", \"t2_minstr_per_sec\": " << number(u.t2_minstr_s)
       << ", \"speedup\": " << number(u.speedup) << "}";
    os << (i + 1 != units.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace
}  // namespace sigvp

int main(int argc, char** argv) {
  using namespace sigvp;

  std::uint64_t size_override = 0;
  std::size_t reps = 3;
  std::string json_path = "BENCH_tier.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--n" && i + 1 < argc) {
      size_override = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::max<std::size_t>(1, std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace::Tracer::enable(argv[++i]);
    }
  }

  std::cout << "== tier_throughput: Tier-1 reference vs the execution engine ==\n\n";

  const auto suite = workloads::make_suite();
  const auto apps = workloads::make_app_suite();

  std::vector<BenchUnit> units;
  for (const auto& w : suite) {
    BenchUnit u;
    u.app = w.app;
    u.kernel_name = w.kernel.name;
    u.kernel = &w.kernel;
    u.n = size_override != 0 ? size_override : (w.estimate_n != 0 ? w.estimate_n : w.test_n);
    u.dims = w.dims(u.n);
    u.args = [&w, n = u.n](const std::vector<std::uint64_t>& addrs) {
      return w.args(addrs, n);
    };
    u.buffers_of = &w;
    units.push_back(std::move(u));
  }
  for (const auto& w : apps) {
    for (const auto& stage : w.stages) {
      BenchUnit u;
      u.app = w.app;
      u.kernel_name = stage.kernel.name;
      u.kernel = &stage.kernel;
      u.n = size_override != 0 ? size_override
                               : (w.estimate_n != 0 ? w.estimate_n : w.test_n);
      u.dims = stage.dims(u.n);
      u.args = [&stage, n = u.n](const std::vector<std::uint64_t>& addrs) {
        return stage.args(addrs, n, /*jitter=*/0);
      };
      u.buffers_of = &w;
      units.push_back(std::move(u));
    }
  }

  Tier2Engine& engine = Tier2Engine::instance();

  std::vector<UnitResult> results;
  bool mismatch = false;

  TablePrinter table({"Kernel", "App", "Instrs", "Fused", "T1 ref Minstr/s", "Engine Minstr/s",
                      "Speedup"});

  for (const BenchUnit& u : units) {
    // --- Tier-1 reference ---------------------------------------------------
    double t1_best_ms = 0.0;
    std::uint64_t ref_hash = 0;
    DynamicProfile reference;
    for (std::size_t r = 0; r < reps; ++r) {
      double ms = 0.0;
      std::uint64_t hash = 0;
      DynamicProfile p = one_run(u, /*reference=*/true, ms, hash);
      if (r == 0) {
        reference = p;
        ref_hash = hash;
      } else if (!profiles_equal(p, reference) || hash != ref_hash) {
        std::cerr << "NONDETERMINISM: " << u.kernel_name
                  << " reference reps disagree with each other\n";
        mismatch = true;
      }
      if (r == 0 || ms < t1_best_ms) t1_best_ms = ms;
    }

    // --- Engine (fresh program cache; the first launch lowers, untimed) ----
    engine.reset();
    const Tier2Stats before = engine.stats();
    double t2_best_ms = 0.0;
    for (std::size_t r = 0; r <= reps; ++r) {
      double ms = 0.0;
      std::uint64_t hash = 0;
      DynamicProfile p = one_run(u, /*reference=*/false, ms, hash);
      if (!profiles_equal(p, reference) || hash != ref_hash) {
        std::cerr << "ENGINE DIVERGENCE: " << u.kernel_name
                  << " diverged from the reference profile/memory\n";
        mismatch = true;
      }
      if (r == 1 || (r > 1 && ms < t2_best_ms)) t2_best_ms = ms;
    }
    const Tier2Stats delta = engine.stats() - before;

    UnitResult res;
    res.app = u.app;
    res.kernel = u.kernel_name;
    res.n = u.n;
    res.instrs = reference.total_instrs();
    res.compiles = delta.compiles;
    res.fused = delta.fused_superinsts;
    res.t1_minstr_s =
        t1_best_ms > 0.0 ? static_cast<double>(res.instrs) / (t1_best_ms * 1e3) : 0.0;
    res.t2_minstr_s =
        t2_best_ms > 0.0 ? static_cast<double>(res.instrs) / (t2_best_ms * 1e3) : 0.0;
    res.speedup = res.t1_minstr_s > 0.0 ? res.t2_minstr_s / res.t1_minstr_s : 0.0;
    table.add_row({res.kernel, res.app, fmt_int(static_cast<long long>(res.instrs)),
                   fmt_int(static_cast<long long>(res.fused)), fmt_fixed(res.t1_minstr_s, 1),
                   fmt_fixed(res.t2_minstr_s, 1), fmt_ratio(res.speedup) + "x"});
    results.push_back(std::move(res));
  }

  engine.reset();

  table.print(std::cout);

  std::uint64_t ge15 = 0;
  for (const UnitResult& r : results) {
    if (r.speedup >= 1.5) ++ge15;
  }
  std::cout << "\n" << ge15 << "/" << results.size()
            << " kernels at >= 1.5x over the Tier-1 reference\n";

  if (!run::try_write_json_file(to_json(results, reps), json_path)) {
    std::cerr << "error: failed writing JSON results file: " << json_path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << json_path << "\n";

  if (mismatch) {
    std::cerr << "\ntier_throughput: engine-vs-reference differential FAILED\n";
    return 1;
  }
  if (!run::flush_trace()) return 1;
  return 0;
}
