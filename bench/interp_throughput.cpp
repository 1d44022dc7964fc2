// Measures the block-parallel kernel interpreter (DESIGN.md §10): wall-clock
// and dynamic instrs/sec for every workload in the suite at a ladder of
// worker counts, so the parallel-interpreter speedup is measured rather than
// claimed. Kernels with global atomics execute serially at every worker
// count (the determinism fallback), so they are reported separately and
// excluded from the speedup aggregate.
//
//   interp_throughput [--workers N] [--n SIZE] [--reps R] [--json PATH] [--trace PATH]
//
// Without --workers the full {1,2,4,8} ladder runs (as the CI bench gate
// does, since the baseline holds every rung); `--workers N` restricts the
// run to one count. Every run
// is differenced against the serial profile — any mismatch makes the bench
// exit nonzero, so the throughput numbers can never outlive the determinism
// contract they advertise.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "interp/interpreter.hpp"
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

struct RunSample {
  std::size_t workers = 0;
  double wall_ms = 0.0;
  std::uint64_t instrs = 0;
  double instrs_per_sec = 0.0;
};

struct AppReport {
  std::string app;
  std::string kernel;  // kernel name, for per-kernel attribution (tier bench)
  bool atomic = false;
  std::uint64_t n = 0;
  std::vector<RunSample> runs;

  /// Per-kernel Minstr/s at workers=1 — the number the tier bench and the
  /// baseline gate attribute wins/regressions to.
  double minstr_per_sec_w1() const {
    for (const RunSample& s : runs) {
      if (s.workers == 1) return s.instrs_per_sec / 1e6;
    }
    return runs.empty() ? 0.0 : runs.front().instrs_per_sec / 1e6;
  }
};

/// One timed launch of `w` at size `n` with the given worker count. Fresh
/// memory per call; returns the profile (for the differential check) and
/// the wall-clock of the `run` call alone.
DynamicProfile timed_run(const workloads::Workload& w, std::uint64_t n, std::size_t workers,
                         double& wall_ms) {
  AddressSpace mem(kSpace, "bench");
  FreeListAllocator alloc(4096, mem.size() - 4096);
  std::vector<std::uint64_t> addrs;
  for (const auto& b : w.buffers(n)) {
    const auto a = alloc.allocate(b.bytes);
    SIGVP_REQUIRE(a.has_value(), w.app + ": bench arena too small for n");
    addrs.push_back(*a);
    if (b.is_input) {
      for (std::uint64_t off = 0; off + 4 <= b.bytes; off += 4) {
        mem.write<float>(*a + off, 0.5f);
      }
    }
  }

  Interpreter interp;
  Interpreter::Options options;
  options.workers = workers;
  const auto start = std::chrono::steady_clock::now();
  DynamicProfile profile = interp.run(w.kernel, w.dims(n), w.args(addrs, n), mem, options);
  wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  return profile;
}

bool profiles_equal(const DynamicProfile& a, const DynamicProfile& b) {
  return a.block_visits == b.block_visits && a.instr_counts == b.instr_counts &&
         a.global_load_bytes == b.global_load_bytes &&
         a.global_store_bytes == b.global_store_bytes &&
         a.barriers_waited == b.barriers_waited && a.sfu_instrs == b.sfu_instrs &&
         a.sqrt_instrs == b.sqrt_instrs;
}

std::string to_json(const std::vector<AppReport>& apps,
                    const std::vector<std::size_t>& ladder, double total_wall_ms,
                    double speedup_max_vs_1) {
  using run::json::escape;
  using run::json::number;
  std::ostringstream os;
  os << "{\n  \"bench\": \"interp_throughput\",\n";
  os << "  \"worker_counts\": [";
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    if (i != 0) os << ", ";
    os << ladder[i];
  }
  os << "],\n  \"wall_ms\": " << number(total_wall_ms) << ",\n";
  os << "  \"nonatomic_speedup_max_workers_vs_1\": " << number(speedup_max_vs_1) << ",\n";
  os << "  \"apps\": [\n";
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const AppReport& a = apps[i];
    os << "    {\"app\": \"" << escape(a.app) << "\", \"kernel\": \"" << escape(a.kernel)
       << "\", \"atomic\": " << (a.atomic ? "true" : "false") << ", \"n\": " << a.n
       << ", \"minstr_per_sec_w1\": " << number(a.minstr_per_sec_w1()) << ", \"runs\": [";
    for (std::size_t r = 0; r < a.runs.size(); ++r) {
      const RunSample& s = a.runs[r];
      if (r != 0) os << ", ";
      os << "{\"workers\": " << s.workers << ", \"wall_ms\": " << number(s.wall_ms)
         << ", \"instrs\": " << s.instrs
         << ", \"instrs_per_sec\": " << number(s.instrs_per_sec) << "}";
    }
    os << "]}";
    if (i + 1 != apps.size()) os << ",";
    os << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace
}  // namespace sigvp

int main(int argc, char** argv) {
  using namespace sigvp;

  std::size_t only_workers = 0;
  std::uint64_t size_override = 0;
  std::size_t reps = 1;
  std::string json_path = "BENCH_interp.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workers" && i + 1 < argc) {
      only_workers = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--n" && i + 1 < argc) {
      size_override = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::max<std::size_t>(1, std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace::Tracer::enable(argv[++i]);
    }
  }

  std::vector<std::size_t> ladder = {1, 2, 4, 8};
  if (only_workers != 0) ladder = {only_workers};

  std::cout << "== interp_throughput: block-parallel interpreter, workload suite ==\n\n";

  const auto suite = workloads::make_suite();
  std::vector<AppReport> reports;
  // Non-atomic aggregate wall-clock per ladder entry (for the speedup line).
  std::vector<double> nonatomic_wall_ms(ladder.size(), 0.0);
  bool mismatch = false;

  TablePrinter table({"Application", "Instrs", "Mode", "Workers", "Wall (ms)", "Minstr/s"});
  const auto total_start = std::chrono::steady_clock::now();

  for (const auto& w : suite) {
    AppReport rep;
    rep.app = w.app;
    rep.kernel = w.kernel.name;
    rep.atomic = Interpreter::uses_global_atomics(w.kernel);
    rep.n = size_override != 0 ? size_override
                               : (w.estimate_n != 0 ? w.estimate_n : w.test_n);

    // Serial reference: correctness anchor for every other worker count.
    double ref_ms = 0.0;
    const DynamicProfile reference = timed_run(w, rep.n, 1, ref_ms);

    for (std::size_t li = 0; li < ladder.size(); ++li) {
      const std::size_t workers = ladder[li];
      double best_ms = 0.0;
      for (std::size_t r = 0; r < reps; ++r) {
        double ms = 0.0;
        const DynamicProfile p = timed_run(w, rep.n, workers, ms);
        if (!profiles_equal(p, reference)) {
          std::cerr << "DETERMINISM VIOLATION: " << w.app << " @ workers=" << workers
                    << " diverged from the serial profile\n";
          mismatch = true;
        }
        if (r == 0 || ms < best_ms) best_ms = ms;
      }
      RunSample s;
      s.workers = workers;
      s.wall_ms = best_ms;
      s.instrs = reference.total_instrs();
      s.instrs_per_sec = best_ms > 0.0 ? 1e3 * static_cast<double>(s.instrs) / best_ms : 0.0;
      rep.runs.push_back(s);
      if (!rep.atomic) nonatomic_wall_ms[li] += best_ms;
      table.add_row({w.app, fmt_int(static_cast<long long>(s.instrs)),
                     rep.atomic ? "serial(atomic)" : "parallel",
                     fmt_int(static_cast<long long>(workers)), fmt_fixed(best_ms, 2),
                     fmt_fixed(s.instrs_per_sec / 1e6, 1)});
    }
    reports.push_back(std::move(rep));
  }

  const double total_wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - total_start)
          .count();

  table.print(std::cout);

  double speedup = 1.0;
  if (ladder.size() > 1 && nonatomic_wall_ms.back() > 0.0) {
    speedup = nonatomic_wall_ms.front() / nonatomic_wall_ms.back();
    std::cout << "\nNon-atomic suite wall-clock: " << fmt_fixed(nonatomic_wall_ms.front(), 1)
              << " ms @ workers=" << ladder.front() << " -> "
              << fmt_fixed(nonatomic_wall_ms.back(), 1) << " ms @ workers=" << ladder.back()
              << "  (speedup " << fmt_ratio(speedup) << "x)\n";
  }

  if (!run::try_write_json_file(to_json(reports, ladder, total_wall_ms, speedup), json_path)) {
    std::cerr << "error: failed writing JSON results file: " << json_path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << json_path << "\n";

  if (mismatch) {
    std::cerr << "\ninterp_throughput: determinism differential FAILED\n";
    return 1;
  }
  if (!run::flush_trace()) return 1;
  return 0;
}
