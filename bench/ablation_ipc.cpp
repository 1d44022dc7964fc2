// Ablation (ours): cost of the IPC transport between the virtual embedded
// GPUs and the host-side job queue — shared memory vs socket, the two
// mechanisms the paper's IPC Manager supports. Both transports run as one
// two-job sweep (--workers N) and the comparison lands in a JSON report.

#include <iostream>

#include "core/scenario.hpp"
#include "run/json_writer.hpp"
#include "run/sweep.hpp"
#include "util/table.hpp"
#include "workloads/suite.hpp"

namespace sigvp {
namespace {

run::SweepJob make_job(const workloads::Workload& w, const std::string& name,
                       const IpcCostModel& ipc, std::uint64_t m,
                       std::uint32_t iterations) {
  workloads::AppTraits traits;
  traits.iterations = iterations;
  traits.launches_per_iter = 1;
  traits.iter_h2d_bytes = 2 * 8 * m * m;
  traits.iter_d2h_bytes = 8 * m * m;
  traits.noncuda_guest_instrs = 0;

  run::SweepJob job;
  job.name = name;
  job.config.backend = Backend::kSigmaVp;
  job.config.mode = ExecMode::kAnalytic;
  job.config.calib.ipc = ipc;
  job.apps = {AppInstance{.workload = &w, .n = m, .traits = traits}};
  return job;
}

}  // namespace
}  // namespace sigvp

int main(int argc, char** argv) {
  using namespace sigvp;
  constexpr std::uint64_t kM = 320;
  constexpr std::uint32_t kIters = 100;
  const run::SweepCli cli = run::parse_sweep_cli(argc, argv, "BENCH_ablation_ipc.json");

  std::cout << "== Ablation: IPC transport (Table 1 matmul loop, " << kIters
            << " iterations) ==\n\n";

  // The workload must outlive the sweep: AppInstance holds a pointer to it.
  const workloads::Workload w = workloads::make_matrix_mul();
  const IpcCostModel m_shm = IpcCostModel::shared_memory();
  const IpcCostModel m_sock = IpcCostModel::socket();

  const run::SweepRunner runner(cli.workers);
  const run::SweepResult sweep = runner.run({
      make_job(w, "shm", m_shm, kM, kIters),
      make_job(w, "socket", m_sock, kM, kIters),
  });
  const SimTime shm = sweep.find("shm").result.makespan_us;
  const SimTime sock = sweep.find("socket").result.makespan_us;

  TablePrinter t({"Transport", "per-msg (us)", "bandwidth (GB/s)", "Time (ms)", "vs shm"});
  t.add_row({"shared memory", fmt_fixed(m_shm.per_message_us, 0),
             fmt_fixed(m_shm.bandwidth_gbps, 1), fmt_ms(ms_from_us(shm)), "1.00"});
  t.add_row({"socket", fmt_fixed(m_sock.per_message_us, 0),
             fmt_fixed(m_sock.bandwidth_gbps, 1), fmt_ms(ms_from_us(sock)),
             fmt_ratio(sock / shm)});
  t.print(std::cout);
  std::cout << "\n(Data-heavy guest memcpys make the transport choice visible; the\n"
            << " paper's prototype defaults to shared memory for this reason.)\n";

  if (!try_write_sweep_json(sweep, "ablation_ipc", cli.json_path)) return 1;
  std::cout << "\n[sweep] " << sweep.jobs.size() << " scenarios on " << sweep.workers
            << " workers in " << fmt_fixed(sweep.wall_ms, 0) << " ms -> " << cli.json_path
            << "\n";
  if (!run::flush_trace()) return 1;
  return 0;
}
