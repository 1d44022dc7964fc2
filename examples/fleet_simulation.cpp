// Fleet simulation: the paper's headline use case — many embedded devices,
// each a virtual platform with its own GPU application, simulated
// concurrently against one host GPU. Compares software GPU emulation with
// plain and optimized ΣVP multiplexing for a mixed-application fleet.
//
// The three configurations are independent simulations, so they run as one
// sweep (fleet_simulation [--workers N] [--json PATH]); the comparison is
// also written as a machine-readable JSON report.

#include <cstdio>

#include "core/scenario.hpp"
#include "run/json_writer.hpp"
#include "run/sweep.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace sigvp;
  const run::SweepCli cli =
      run::parse_sweep_cli(argc, argv, "BENCH_fleet_simulation.json");
  const auto suite = workloads::make_suite();

  // A heterogeneous 8-device fleet (e.g. a distributed gaming scenario, the
  // paper's netShip-style motivation): physics, vision, finance, sorting.
  std::vector<AppInstance> fleet;
  for (const char* app : {"nbody", "smokeParticles", "SobelFilter", "stereoDisparity",
                          "BlackScholes", "MonteCarlo", "mergeSort", "simpleGL"}) {
    const workloads::Workload& w = workloads::find(suite, app);
    fleet.push_back(AppInstance{.workload = &w, .n = w.default_n, .traits = std::nullopt});
  }

  auto make_job = [&](const char* name, Backend backend, bool optimized) {
    run::SweepJob job;
    job.name = name;
    job.config.backend = backend;
    job.config.mode = ExecMode::kAnalytic;
    if (optimized) {
      job.config.dispatch.interleave = true;
      job.config.dispatch.coalesce = true;
      job.config.async_launches = true;
    }
    job.apps = fleet;
    return job;
  };

  std::printf("Simulating an 8-device fleet (one app per virtual platform)...\n\n");
  const run::SweepRunner runner(cli.workers);
  const run::SweepResult sweep = runner.run({
      make_job("emulation", Backend::kEmulationOnVp, false),
      make_job("sigmavp", Backend::kSigmaVp, false),
      make_job("sigmavp-opt", Backend::kSigmaVp, true),
  });
  const ScenarioResult& emul = sweep.find("emulation").result;
  const ScenarioResult& plain = sweep.find("sigmavp").result;
  const ScenarioResult& opt = sweep.find("sigmavp-opt").result;

  std::printf("%-28s %14s\n", "configuration", "makespan");
  std::printf("%-28s %11.1f s\n", "GPU emulation on the VPs", s_from_us(emul.makespan_us));
  std::printf("%-28s %11.1f s   (%.0fx faster)\n", "SigmaVP multiplexing",
              s_from_us(plain.makespan_us), sweep.speedup("sigmavp", "emulation"));
  std::printf("%-28s %11.1f s   (%.0fx faster)\n", "SigmaVP + optimizations",
              s_from_us(opt.makespan_us), sweep.speedup("sigmavp-opt", "emulation"));

  std::printf("\nPer-device completion under optimized SigmaVP:\n");
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    std::printf("  vp%zu %-22s %8.1f s\n", i, fleet[i].workload->app.c_str(),
                s_from_us(opt.app_done_us[i]));
  }
  std::printf("\nhost GPU: compute busy %.1f s, copy busy %.1f s, %llu jobs, "
              "%llu reorders, %llu coalesced groups\n",
              s_from_us(opt.gpu_compute_busy_us), s_from_us(opt.gpu_copy_busy_us),
              static_cast<unsigned long long>(opt.jobs_dispatched),
              static_cast<unsigned long long>(opt.reorders),
              static_cast<unsigned long long>(opt.coalesced_groups));
  std::printf("host GPU energy (dynamic): %.1f J\n", opt.gpu_dynamic_energy_j);

  if (!try_write_sweep_json(sweep, "fleet_simulation", cli.json_path)) return 1;
  std::printf("\n[sweep] %zu scenarios on %zu workers in %.0f ms -> %s\n",
              sweep.jobs.size(), sweep.workers, sweep.wall_ms, cli.json_path.c_str());
  return 0;
}
