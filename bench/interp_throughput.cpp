// Measures the kernel execution engine (DESIGN.md §10, §15) on every
// functional kernel: the Fig. 11 workload suite plus the app-pipeline
// stages. Per kernel, Interpreter::run_reference runs once and the engine
// (Interpreter::run) runs `--reps` times at each worker count of
// {1, 2, 4, 8}; Minstr/s is the median of the reps. Kernels with global
// atomics execute their chunks serially at every worker count.
//
//   interp_throughput [--n SIZE] [--reps R] [--json PATH] [--trace PATH]
//
// Every engine run is differenced against the reference's profile and its
// final memory contents (AddressSpace::content_digest): any mismatch makes
// the bench exit nonzero, so the throughput numbers can never outlive the
// byte-exactness contract they advertise. Instruction, compile and
// fused-superinstruction counts are pure functions of the launch stream,
// and scripts/bench_regression_check.py compares them exactly; Minstr/s is
// host-domain and only reported.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
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
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workloads/suite.hpp"

namespace sigvp {
namespace {

constexpr std::uint64_t kSpace = 256ull * 1024 * 1024;
constexpr std::size_t kWorkerCounts[] = {1, 2, 4, 8};

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
  bool atomic = false;
  std::uint64_t instrs = 0;
  std::uint64_t compiles = 0;
  std::uint64_t fused = 0;
  double ref_minstr_s = 0.0;
  std::vector<double> minstr_s{};  // engine, median of reps, per kWorkerCounts entry
};

struct Run {
  DynamicProfile profile;
  std::uint64_t digest = 0;  // content_digest of the final memory
  double minstr_s = 0.0;     // of the launch call alone
};

/// One launch of `u` on fresh memory: on the reference, or on the engine
/// with `workers` workers.
Run one_run(const BenchUnit& u, bool reference, std::size_t workers) {
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
  options.workers = workers;
  Run out;
  const auto start = std::chrono::steady_clock::now();
  out.profile = reference ? Interpreter::run_reference(*u.kernel, u.dims, args, mem)
                          : Interpreter().run(*u.kernel, u.dims, args, mem, options);
  const double us =
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start)
          .count();
  out.minstr_s = us > 0.0 ? static_cast<double>(out.profile.total_instrs()) / us : 0.0;
  out.digest = mem.content_digest(kMemHashSeed);
  return out;
}

bool runs_equal(const Run& a, const Run& b) {
  const DynamicProfile& p = a.profile;
  const DynamicProfile& q = b.profile;
  return a.digest == b.digest && p.block_visits == q.block_visits &&
         p.instr_counts.counts == q.instr_counts.counts &&
         p.global_load_bytes == q.global_load_bytes &&
         p.global_store_bytes == q.global_store_bytes && p.barriers_waited == q.barriers_waited &&
         p.sfu_instrs == q.sfu_instrs && p.sqrt_instrs == q.sqrt_instrs;
}

std::vector<BenchUnit> make_units(const std::vector<workloads::Workload>& suite,
                                  const std::vector<workloads::Workload>& apps,
                                  std::uint64_t size_override) {
  const auto size_of = [&](const workloads::Workload& w) {
    return size_override != 0 ? size_override : (w.estimate_n != 0 ? w.estimate_n : w.test_n);
  };
  std::vector<BenchUnit> units;
  for (const auto& w : suite) {
    BenchUnit u{w.app, w.kernel.name, &w.kernel, size_of(w), {}, {}, &w};
    u.dims = w.dims(u.n);
    u.args = [&w, n = u.n](const std::vector<std::uint64_t>& addrs) { return w.args(addrs, n); };
    units.push_back(std::move(u));
  }
  for (const auto& w : apps) {
    for (const auto& stage : w.stages) {
      BenchUnit u{w.app, stage.kernel.name, &stage.kernel, size_of(w), {}, {}, &w};
      u.dims = stage.dims(u.n);
      u.args = [&stage, n = u.n](const std::vector<std::uint64_t>& addrs) {
        return stage.args(addrs, n, /*jitter=*/0);
      };
      units.push_back(std::move(u));
    }
  }
  return units;
}

std::string to_json(const std::vector<UnitResult>& results, std::size_t reps, double wall_ms) {
  using run::json::escape;
  using run::json::number;
  std::uint64_t total_compiles = 0, total_fused = 0;
  for (const UnitResult& r : results) {
    total_compiles += r.compiles;
    total_fused += r.fused;
  }
  std::ostringstream os;
  os << "{\n  \"bench\": \"interp_throughput\",\n";
  os << "  \"reps\": " << reps << ",\n  \"worker_counts\": [";
  for (const std::size_t w : kWorkerCounts) os << (w != kWorkerCounts[0] ? ", " : "") << w;
  os << "],\n";
  os << "  \"wall_ms\": " << number(wall_ms) << ",\n";
  os << "  \"total_compiles\": " << total_compiles << ",\n";
  os << "  \"total_fused_superinsts\": " << total_fused << ",\n";
  os << "  \"kernels\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const UnitResult& r = results[i];
    os << "    {\"kernel\": \"" << escape(r.kernel) << "\", \"app\": \"" << escape(r.app);
    os << "\", \"n\": " << r.n << ", \"atomic\": " << (r.atomic ? "true" : "false");
    os << ", \"instrs\": " << r.instrs << ", \"compiles\": " << r.compiles;
    os << ", \"fused_superinsts\": " << r.fused;
    os << ", \"ref_minstr_per_sec\": " << number(r.ref_minstr_s) << ", \"runs\": [";
    for (std::size_t w = 0; w < r.minstr_s.size(); ++w) {
      os << (w != 0 ? ", " : "") << "{\"workers\": " << kWorkerCounts[w];
      os << ", \"minstr_per_sec\": " << number(r.minstr_s[w]) << "}";
    }
    os << "]}" << (i + 1 != results.size() ? ",\n" : "\n");
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
  std::string json_path = "BENCH_interp.json";
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

  std::cout << "== interp_throughput: execution engine vs the reference interpreter ==\n\n";

  Tier2Engine& engine = Tier2Engine::instance();
  std::vector<UnitResult> results;
  std::vector<double> speedups_w1;
  bool mismatch = false;
  TablePrinter table({"Kernel", "App", "Instrs", "Fused", "Ref", "w=1", "w=2", "w=4", "w=8",
                      "w=1/Ref"});
  const auto total_start = std::chrono::steady_clock::now();

  const auto suite = workloads::make_suite();
  const auto apps = workloads::make_app_suite();
  for (const BenchUnit& u : make_units(suite, apps, size_override)) {
    const auto check = [&](const Run& got, const Run& reference, std::size_t workers) {
      if (runs_equal(got, reference)) return;
      std::cerr << "ENGINE DIVERGENCE: " << u.kernel_name << " @ workers=" << workers;
      std::cerr << " diverged from the reference profile/memory\n";
      mismatch = true;
    };

    // Fresh program cache per kernel; the first engine launch lowers, untimed.
    engine.reset();
    const Run reference = one_run(u, /*reference=*/true, 1);
    check(one_run(u, /*reference=*/false, 1), reference, 1);

    UnitResult res{u.app, u.kernel_name, u.n, Interpreter::uses_global_atomics(*u.kernel),
                   reference.profile.total_instrs()};
    res.ref_minstr_s = reference.minstr_s;
    for (const std::size_t workers : kWorkerCounts) {
      std::vector<double> samples;
      for (std::size_t r = 0; r < reps; ++r) {
        const Run sample = one_run(u, /*reference=*/false, workers);
        check(sample, reference, workers);
        samples.push_back(sample.minstr_s);
      }
      res.minstr_s.push_back(percentile(samples, 50.0));
    }
    const Tier2Stats stats = engine.stats();
    res.compiles = stats.compiles;
    res.fused = stats.fused_superinsts;
    speedups_w1.push_back(res.minstr_s.front() / res.ref_minstr_s);

    std::vector<std::string> row = {res.kernel, res.app + (res.atomic ? " (atomic)" : ""),
                                    fmt_int(static_cast<long long>(res.instrs)),
                                    fmt_int(static_cast<long long>(res.fused)),
                                    fmt_fixed(res.ref_minstr_s, 1)};
    for (const double m : res.minstr_s) row.push_back(fmt_fixed(m, 1));
    row.push_back(fmt_ratio(speedups_w1.back()) + "x");
    table.add_row(row);
    results.push_back(std::move(res));
  }
  engine.reset();

  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - total_start)
          .count();

  table.print(std::cout);
  std::cout << "\nMinstr/s: reference once, engine median of " << reps << " reps.";
  std::cout << " Engine w=1 over the reference, " << results.size() << " kernels: ";
  std::cout << fmt_ratio(percentile(speedups_w1, 0.0)) << "x min, ";
  std::cout << fmt_ratio(percentile(speedups_w1, 50.0)) << "x median, ";
  std::cout << fmt_ratio(percentile(speedups_w1, 100.0)) << "x max\n";

  if (!run::try_write_json_file(to_json(results, reps, wall_ms), json_path)) {
    std::cerr << "error: failed writing JSON results file: " << json_path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << json_path << "\n";

  if (mismatch) {
    std::cerr << "\ninterp_throughput: engine-vs-reference differential FAILED\n";
    return 1;
  }
  if (!run::flush_trace()) return 1;
  return 0;
}
