// App-shaped workload suite under seeded open-loop traffic (DESIGN.md §13):
// the three multi-kernel pipeline apps (graphAnalytics, mlInference,
// camPipeline) served as per-VP request streams with Poisson and bursty
// ON/OFF arrivals, at VP counts {4, 8}, coalescing off vs on. Reports
// per-request latency percentiles (p50/p95/p99) per scenario — sim-domain,
// bit-identical for any --workers.
//
// The suite also demonstrates the almost-identical-kernel regime the
// coalescer must respect: graph/ml streams run with per-VP scalar jitter
// (same kernel fingerprints, different f32 parameters) so their eligible
// stages must NOT merge, while camPipeline runs with canonical scalars so
// its gain/quant stages DO merge — the bench fails if either side of that
// contract breaks, or if coalescing produces no latency delta for cam.
//
// Job construction lives in app_suite_jobs.hpp, shared with the
// soak_recovery kill–resume harness.
//
//   app_suite [--workers N] [--json PATH] [--trace PATH]
//             [--snapshot-dir PATH]

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "app_suite_jobs.hpp"
#include "core/scenario.hpp"
#include "run/json_writer.hpp"
#include "run/sweep.hpp"
#include "run/traffic.hpp"
#include "util/table.hpp"
#include "workloads/suite.hpp"

namespace sigvp {
namespace {

bool check(bool ok, const std::string& what) {
  if (!ok) std::cerr << "FAIL: " << what << "\n";
  return ok;
}

}  // namespace
}  // namespace sigvp

int main(int argc, char** argv) {
  using namespace sigvp;
  using run::traffic::Shape;
  const run::SweepCli cli = run::parse_sweep_cli(argc, argv, "BENCH_app_suite.json");
  const auto suite = workloads::make_app_suite();

  std::cout << "== App suite: open-loop traffic, latency percentiles ==\n"
            << "   (" << appsuite::kRequestsPerVp << " requests/VP, mean inter-arrival "
            << appsuite::kMeanInterarrivalUs << " us, n=" << appsuite::kBenchN
            << ", analytic SigmaVP)\n\n";

  const std::vector<run::SweepJob> jobs = appsuite::build_app_suite_jobs(suite);

  const run::SweepRunner runner(cli.workers);
  run::SweepResumeInfo resume;
  const run::SweepResult sweep = runner.run(jobs, cli.snapshot_options(), &resume);
  if (!resume.resumed_from.empty()) {
    std::cout << "[snapshot] resumed " << resume.jobs_resumed << "/" << jobs.size()
              << " jobs from " << resume.resumed_from << "\n\n";
  }

  TablePrinter t({"Scenario", "Reqs", "p50 (ms)", "p95 (ms)", "p99 (ms)", "Mean (ms)",
                  "Makespan (ms)", "Groups"});
  for (const run::SweepJobResult& j : sweep.jobs) {
    const ScenarioResult& r = j.result;
    t.add_row({j.name, std::to_string(r.requests_completed),
               fmt_fixed(r.latency.quantile(0.50) / 1e3, 2),
               fmt_fixed(r.latency.quantile(0.95) / 1e3, 2),
               fmt_fixed(r.latency.quantile(0.99) / 1e3, 2),
               fmt_fixed(r.latency.mean() / 1e3, 2), fmt_fixed(r.makespan_us / 1e3, 1),
               std::to_string(r.coalesced_groups)});
  }
  t.print(std::cout);

  // -- Contract checks -----------------------------------------------------
  bool ok = true;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const run::SweepJobResult& j = sweep.jobs[i];
    const ScenarioResult& r = j.result;
    std::uint64_t expected = 0;
    for (const AppInstance& a : jobs[i].apps) expected += a.arrivals.size();
    ok = check(r.requests_completed == expected,
               j.name + ": served " + std::to_string(r.requests_completed) + " of " +
                   std::to_string(expected) + " requests") &&
         ok;
    ok = check(r.latency.count == expected, j.name + ": latency histogram incomplete") && ok;
    const double p50 = r.latency.quantile(0.50);
    const double p95 = r.latency.quantile(0.95);
    const double p99 = r.latency.quantile(0.99);
    ok = check(p50 <= p95 && p95 <= p99, j.name + ": percentiles not monotone") && ok;

    const bool coal_on = j.name.size() >= 5 && j.name.rfind("/coal") == j.name.size() - 5;
    if (j.group == "camPipeline" && coal_on) {
      // Canonical scalars: eligible stages from different VPs must merge.
      ok = check(r.coalesced_groups > 0, j.name + ": expected coalesced groups") && ok;
    }
    if ((j.group == "graphAnalytics" || j.group == "mlInference") && coal_on) {
      // Scalar jitter blocks merging even though fingerprints match.
      ok = check(r.coalesced_groups == 0,
                 j.name + ": jittered scalars must not coalesce (got " +
                     std::to_string(r.coalesced_groups) + " groups)") &&
           ok;
    }
  }

  // Coalescing must actually move the latency needle for cam under load.
  double max_delta_pct = 0.0;
  for (const Shape shape : {Shape::kPoisson, Shape::kBursty}) {
    for (const std::size_t vps : {4, 8}) {
      const std::string base = std::string("camPipeline/") + run::traffic::shape_name(shape) +
                               "/vps" + std::to_string(vps);
      const ScenarioResult& off = sweep.find(base + "/nocoal").result;
      const ScenarioResult& on = sweep.find(base + "/coal").result;
      const double delta_pct =
          off.latency.mean() > 0.0
              ? 100.0 * (off.latency.mean() - on.latency.mean()) / off.latency.mean()
              : 0.0;
      max_delta_pct = std::max(max_delta_pct, delta_pct);
      std::cout << base << ": mean latency " << fmt_fixed(off.latency.mean() / 1e3, 2)
                << " ms -> " << fmt_fixed(on.latency.mean() / 1e3, 2) << " ms ("
                << fmt_fixed(delta_pct, 1) << "% with coalescing, " << on.coalesced_groups
                << " groups x " << on.coalesced_jobs << " jobs)\n";
    }
  }
  ok = check(max_delta_pct > 0.0,
             "coalescing never improved camPipeline mean latency under load") &&
       ok;

  if (!ok) return 1;
  std::cout << "\nAll app-suite traffic contracts hold.\n";

  if (!run::try_write_sweep_json(sweep, "app_suite", cli.json_path)) return 1;
  std::cout << "[bench] results -> " << cli.json_path << "\n";
  if (!run::flush_trace()) return 1;
  return 0;
}
