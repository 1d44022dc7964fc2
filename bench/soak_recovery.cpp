// Kill–resume soak harness over the app-shaped workload suite (DESIGN.md §14):
// proves that a fleet simulation killed mid-flight — mid-dispatch, mid-merged
// coalesced group, even mid-checkpoint-write — and resumed from its rotating
// checkpoints produces BENCH JSON byte-identical to a never-interrupted run,
// with no request lost or duplicated, at any worker count.
//
// The binary supervises itself: the parent re-execs `soak_recovery --child`
// (the app-suite sweep with checkpointing from the environment) under a
// schedule of SIGVP_CRASH sites, expecting kCrashExitCode (86) from each
// injected death, then truncates the newest checkpoint to prove the checksum
// rejects torn files and the scan falls back to an older one.
//
//   soak_recovery [--keep]         keep the work directory on success
//                 [--seeds N]      add N randomized seeded kill-resume batteries

#include <sys/wait.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "app_suite_jobs.hpp"
#include "fault/crash.hpp"
#include "run/json_writer.hpp"
#include "run/sweep.hpp"
#include "workloads/suite.hpp"

namespace fs = std::filesystem;

namespace sigvp {
namespace {

// ---------------------------------------------------------------------------
// Child: one app-suite sweep, checkpointing per the environment.
// ---------------------------------------------------------------------------

int run_child(int argc, char** argv) {
  const run::SweepCli cli = run::parse_sweep_cli(argc, argv, "BENCH_app_suite.json");
  const auto suite = workloads::make_app_suite();
  const std::vector<run::SweepJob> jobs = appsuite::build_app_suite_jobs(suite);
  const run::SweepRunner runner(cli.workers);
  run::SweepResumeInfo resume;
  const run::SweepResult sweep = runner.run(jobs, cli.snapshot_options(), &resume);
  // Machine-readable line the parent greps to assert resume/fallback behavior.
  std::cout << "SOAK_CHILD resumed_from=" << resume.resumed_from
            << " resumed=" << resume.jobs_resumed << " replayed=" << resume.jobs_replayed
            << " rejected=" << resume.rejected.size() << "\n";
  if (!run::try_write_sweep_json(sweep, "app_suite", cli.json_path)) return 1;
  return 0;
}

// ---------------------------------------------------------------------------
// Fleet child: sharded multi-domain scenarios (DESIGN.md §16) under the same
// checkpoint/crash machinery. SIGVP_SHARDS (read by parse_sweep_cli) decides
// how many host threads advance the domains — crash sites then fire from
// shard threads, and the resumed output must still match a serial golden run.
// ---------------------------------------------------------------------------

std::vector<run::SweepJob> build_fleet_soak_jobs() {
  static const auto suite = workloads::make_suite();
  const workloads::Workload& va = workloads::find(suite, "vectorAdd");
  const workloads::Workload& bs = workloads::find(suite, "BlackScholes");

  std::vector<run::SweepJob> jobs;
  run::SweepJob flat;
  flat.name = "fleet-flat";
  flat.group = "fleet";
  flat.config.backend = Backend::kSigmaVp;
  flat.config.mode = ExecMode::kAnalytic;
  flat.config.fleet.domains = 4;
  flat.config.fault.seed = 7;
  flat.config.fault.drop_rate = 0.04;
  flat.config.fault.dup_rate = 0.02;
  flat.config.fault.stall_vp = 5;  // lands in a non-root domain's slice
  {
    workloads::AppTraits t = va.traits;
    t.iterations = 3;
    for (std::size_t i = 0; i < 12; ++i) {
      flat.apps.push_back(AppInstance{.workload = &va, .n = va.test_n, .traits = t});
      flat.apps.back().jitter = i;
    }
  }
  jobs.push_back(std::move(flat));

  run::SweepJob tree;
  tree.name = "fleet-tree";
  tree.group = "fleet";
  tree.config.backend = Backend::kSigmaVp;
  tree.config.mode = ExecMode::kAnalytic;
  tree.config.fleet.domains = 3;
  tree.config.fleet.topology = "(1,(2):25)";
  {
    workloads::AppTraits t = bs.traits;
    t.iterations = 2;
    const AppInstance app{.workload = &bs, .n = bs.test_n, .traits = t};
    for (std::size_t i = 0; i < 9; ++i) tree.apps.push_back(app);
  }
  jobs.push_back(std::move(tree));
  return jobs;
}

int run_child_fleet(int argc, char** argv) {
  const run::SweepCli cli = run::parse_sweep_cli(argc, argv, "BENCH_fleet_soak.json");
  const std::vector<run::SweepJob> jobs = build_fleet_soak_jobs();
  const run::SweepRunner runner(cli.workers);
  run::SweepResumeInfo resume;
  const run::SweepResult sweep = runner.run(jobs, cli.snapshot_options(), &resume);
  std::cout << "SOAK_CHILD resumed_from=" << resume.resumed_from
            << " resumed=" << resume.jobs_resumed << " replayed=" << resume.jobs_replayed
            << " rejected=" << resume.rejected.size() << "\n";
  if (!run::try_write_sweep_json(sweep, "fleet_soak", cli.json_path)) return 1;
  return 0;
}

// ---------------------------------------------------------------------------
// Parent-side helpers.
// ---------------------------------------------------------------------------

bool g_ok = true;

bool check(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << "\n";
    g_ok = false;
  }
  return ok;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Blanks the one host-wall-clock field of the BENCH JSON; everything else is
/// sim-domain and must match byte for byte.
std::string normalize_wall_ms(std::string json) {
  const std::string key = "\"wall_ms\": ";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return json;
  const std::size_t begin = at + key.size();
  const std::size_t end = json.find(',', begin);
  if (end == std::string::npos) return json;
  return json.replace(begin, end - begin, "X");
}

/// Sum of every per-job `"requests": N` field — total requests the sweep
/// claims to have served.
std::uint64_t sum_requests(const std::string& json) {
  const std::string key = "\"requests\": ";
  std::uint64_t total = 0;
  for (std::size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at + key.size())) {
    total += std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
  }
  return total;
}

struct ChildRun {
  int exit_code = -1;
  std::string log;
};

/// Which child sweep a supervised run executes, and how many shard threads
/// advance sharded fleets inside it (exported as SIGVP_SHARDS).
struct ChildMode {
  const char* flag = "--child";
  std::size_t shards = 1;
};

/// One supervised child run: `crash_spec` arms SIGVP_CRASH (empty = disarmed),
/// `snapshot_dir` arms checkpointing + auto-resume (empty = plain run).
ChildRun spawn_child(const std::string& exe, const ChildMode& mode, std::size_t workers,
                     const std::string& crash_spec, const fs::path& snapshot_dir,
                     const fs::path& json_path, const fs::path& log_path,
                     const std::string& crash_rate = "", const std::string& crash_seed = "") {
  std::ostringstream cmd;
  cmd << "SIGVP_CRASH='" << crash_spec << "'"
      << " SIGVP_CRASH_RATE='" << crash_rate << "' SIGVP_CRASH_SEED='" << crash_seed << "'"
      << " SIGVP_SNAPSHOT_DIR='" << snapshot_dir.string() << "'"
      << " SIGVP_SHARDS='" << mode.shards << "'"
      << " SIGVP_TRACE='' SIGVP_METRICS=''"
      << " '" << exe << "' " << mode.flag << " --workers " << workers << " --json '"
      << json_path.string() << "' >'" << log_path.string() << "' 2>&1";
  const int raw = std::system(cmd.str().c_str());
  ChildRun r;
  r.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  r.log = read_file(log_path);
  return r;
}

fs::path newest_checkpoint(const fs::path& dir) {
  fs::path best;
  std::uint64_t best_seq = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("checkpoint_", 0) == 0 && name.size() > 5 &&
        name.compare(name.size() - 5, 5, ".svps") == 0) {
      const std::uint64_t seq = std::strtoull(name.c_str() + 11, nullptr, 10);
      if (best.empty() || seq > best_seq) {
        best = e.path();
        best_seq = seq;
      }
    }
  }
  return best;
}

/// Tears the newest published checkpoint in half — the file keeps its header
/// but the payload no longer matches the recorded checksum.
void truncate_newest_checkpoint(const fs::path& dir) {
  const fs::path victim = newest_checkpoint(dir);
  check(!victim.empty(), "soak: no checkpoint found to truncate");
  if (victim.empty()) return;
  const auto size = fs::file_size(victim);
  fs::resize_file(victim, size / 2);
  std::cout << "[soak] tore " << victim.filename().string() << " (" << size << " -> "
            << size / 2 << " bytes)\n";
}

/// Kill–resume loop at one worker count: crash the child at each scheduled
/// site (in order), optionally tearing a checkpoint along the way, then let
/// an unarmed run finish. Returns the number of injected crashes observed.
std::size_t soak_loop(const std::string& exe, const ChildMode& mode, std::size_t workers,
                      const std::vector<std::string>& schedule, int tear_after_crash,
                      const fs::path& snapshot_dir, const fs::path& json_path,
                      const fs::path& workdir) {
  fs::create_directories(snapshot_dir);
  std::size_t crashes = 0;
  bool torn = false;
  const std::size_t max_cycles = schedule.size() + 8;
  for (std::size_t cycle = 0; cycle < max_cycles; ++cycle) {
    const std::string spec = cycle < schedule.size() ? schedule[cycle] : "";
    const fs::path log = workdir / ("child" +
                                    std::string(std::string(mode.flag) == "--child" ? "" : "f") +
                                    "_w" + std::to_string(workers) + "_s" +
                                    std::to_string(mode.shards) + "_c" +
                                    std::to_string(cycle) + ".log");
    const ChildRun r = spawn_child(exe, mode, workers, spec, snapshot_dir, json_path, log);
    std::cout << "[soak] workers=" << workers << " cycle=" << cycle << " crash='" << spec
              << "' exit=" << r.exit_code << "\n";
    if (cycle > 0) {
      // A checkpoint exists from the previous cycle; the child must resume.
      check(r.log.find("SOAK_CHILD resumed_from=" + snapshot_dir.string()) !=
                std::string::npos ||
                r.exit_code == kCrashExitCode,
            "cycle " + std::to_string(cycle) + " did not resume from a checkpoint");
    }
    if (torn) {
      // First run after the tear must have rejected the torn file by checksum
      // and fallen back to an older checkpoint. The store's warning reads
      // "rejected <abs path>" (std::cerr, so it survives even a crashed
      // child) — distinct from the SOAK_CHILD line's "rejected=" counter.
      check(r.log.find("rejected /") != std::string::npos,
            "torn checkpoint was not rejected on resume");
      torn = false;
    }
    if (r.exit_code == kCrashExitCode) {
      ++crashes;
      check(r.log.find("[crash] injected process crash") != std::string::npos,
            "crashed child did not log the injected site");
      if (static_cast<int>(crashes) == tear_after_crash) {
        truncate_newest_checkpoint(snapshot_dir);
        torn = true;
      }
      continue;
    }
    if (r.exit_code == 0) return crashes;
    check(false, "child failed with unexpected exit code " + std::to_string(r.exit_code) +
                     " (cycle " + std::to_string(cycle) + ", crash='" + spec + "')");
    return crashes;
  }
  check(false, "soak never completed within the cycle budget");
  return crashes;
}

/// Randomized kill–resume battery: probabilistic deaths at every
/// instrumented crash site (SIGVP_CRASH_RATE / SIGVP_CRASH_SEED), with a
/// fresh seed per cycle so a resumed run rolls a different schedule. The
/// final cycle runs disarmed, guaranteeing completion within the budget.
std::size_t random_soak(const std::string& exe, const ChildMode& mode, std::size_t workers,
                        std::uint64_t seed, double rate, const fs::path& snapshot_dir,
                        const fs::path& json_path, const fs::path& workdir) {
  fs::create_directories(snapshot_dir);
  std::size_t crashes = 0;
  const std::size_t max_cycles = 24;
  for (std::size_t cycle = 0; cycle < max_cycles; ++cycle) {
    const bool armed = cycle + 1 < max_cycles;
    const fs::path log =
        workdir / ("rand_s" + std::to_string(seed) + "_c" + std::to_string(cycle) + ".log");
    const ChildRun r =
        spawn_child(exe, mode, workers, "", snapshot_dir, json_path, log,
                    armed ? std::to_string(rate) : "",
                    armed ? std::to_string(seed * 1000 + cycle) : "");
    std::cout << "[soak] seed=" << seed << " cycle=" << cycle << " exit=" << r.exit_code
              << "\n";
    if (r.exit_code == kCrashExitCode) {
      ++crashes;
      continue;
    }
    if (r.exit_code == 0) return crashes;
    check(false, "random soak (seed " + std::to_string(seed) +
                     ") child failed with unexpected exit code " +
                     std::to_string(r.exit_code));
    return crashes;
  }
  check(false, "random soak never completed within the cycle budget");
  return crashes;
}

}  // namespace
}  // namespace sigvp

int main(int argc, char** argv) {
  using namespace sigvp;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--child") return run_child(argc, argv);
    if (std::string(argv[i]) == "--child-fleet") return run_child_fleet(argc, argv);
  }
  bool keep = false;
  std::uint64_t seeds = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--keep") keep = true;
    if (std::string(argv[i]) == "--seeds" && i + 1 < argc) {
      seeds = std::strtoull(argv[++i], nullptr, 10);
    }
  }

  const std::string exe = fs::absolute(argv[0]).string();
  const fs::path workdir = fs::absolute("soak_recovery_work");
  fs::remove_all(workdir);
  fs::create_directories(workdir);

  // Expected total requests, computed from the same job construction the
  // children use — the lost/duplicated-request oracle.
  std::uint64_t expected_requests = 0;
  {
    const auto suite = workloads::make_app_suite();
    for (const run::SweepJob& j : appsuite::build_app_suite_jobs(suite)) {
      for (const AppInstance& a : j.apps) expected_requests += a.arrivals.size();
    }
  }

  std::cout << "== Soak recovery: kill-resume over the app suite ==\n"
            << "   (expecting " << expected_requests << " requests end to end)\n\n";

  // -- Golden: uninterrupted runs at workers 1 and 8 -------------------------
  const fs::path golden1 = workdir / "golden_w1.json";
  const fs::path golden8 = workdir / "golden_w8.json";
  const ChildMode app_mode;  // --child, shards=1 (app-suite jobs are unsharded)
  {
    const ChildRun g1 = spawn_child(exe, app_mode, 1, "", "", golden1, workdir / "golden_w1.log");
    const ChildRun g8 = spawn_child(exe, app_mode, 8, "", "", golden8, workdir / "golden_w8.log");
    check(g1.exit_code == 0, "golden run (workers 1) failed");
    check(g8.exit_code == 0, "golden run (workers 8) failed");
  }
  const std::string gold1 = normalize_wall_ms(read_file(golden1));
  std::string gold8 = read_file(golden8);
  check(sum_requests(gold1) == expected_requests, "golden (workers 1) lost requests");
  check(sum_requests(gold8) == expected_requests, "golden (workers 8) lost requests");
  // Worker-count determinism: only `workers` and wall_ms may differ.
  {
    const std::size_t at = gold8.find("\"workers\": 8");
    check(at != std::string::npos, "golden (workers 8) JSON missing workers field");
    if (at != std::string::npos) gold8.replace(at, 12, "\"workers\": 1");
    check(normalize_wall_ms(gold8) == gold1,
          "golden runs at workers 1 and 8 are not byte-identical");
  }
  std::cout << "[soak] golden runs agree at workers 1 and 8\n\n";

  // -- Soak at workers 8: four scheduled deaths + torn-checkpoint fallback ---
  // dispatch:40 dies almost immediately; group:2 dies inside a merged
  // coalesced launch (cam/mixed jobs are still pending); snapshot:3 dies in
  // the torn-publish window of the third checkpoint write; dispatch:150 dies
  // deep into the replay. After crash #3 the newest checkpoint is truncated.
  const fs::path soak8_json = workdir / "soak_w8.json";
  const std::size_t crashes8 =
      soak_loop(exe, app_mode, 8, {"dispatch:40", "group:2", "snapshot:3", "dispatch:150"},
                /*tear_after_crash=*/3, workdir / "ckpt_w8", soak8_json, workdir);
  check(crashes8 >= 3, "soak (workers 8): expected at least 3 injected crashes, got " +
                           std::to_string(crashes8));
  {
    std::string soak = read_file(soak8_json);
    check(sum_requests(soak) == expected_requests,
          "soak (workers 8): requests lost or duplicated across crashes");
    const std::size_t at = soak.find("\"workers\": 8");
    if (at != std::string::npos) soak.replace(at, 12, "\"workers\": 1");
    check(normalize_wall_ms(soak) == gold1,
          "soak (workers 8): resumed output differs from uninterrupted golden");
  }
  std::cout << "\n[soak] workers=8: " << crashes8
            << " crashes, resumed output byte-identical to golden\n\n";

  // -- Mini soak at workers 1: serial resume path ----------------------------
  const fs::path soak1_json = workdir / "soak_w1.json";
  const std::size_t crashes1 = soak_loop(exe, app_mode, 1, {"dispatch:60"},
                                         /*tear_after_crash=*/0, workdir / "ckpt_w1",
                                         soak1_json, workdir);
  check(crashes1 >= 1, "soak (workers 1): scheduled crash never fired");
  check(normalize_wall_ms(read_file(soak1_json)) == gold1,
        "soak (workers 1): resumed output differs from uninterrupted golden");
  std::cout << "[soak] workers=1: " << crashes1
            << " crash, resumed output byte-identical to golden\n";

  // -- Sharded fleet soak (DESIGN.md §16) ------------------------------------
  // Golden: serial shard advancement at workers 1. Soak: 8 shard threads and
  // 2 sweep workers, killed mid-dispatch (the crash fires from a shard
  // thread) and mid-checkpoint-write, then resumed — every simulation byte
  // must match the serial golden run.
  std::cout << "\n== Sharded fleet: kill-resume with --shards 8 ==\n";
  const fs::path fleet_golden = workdir / "fleet_golden.json";
  {
    const ChildMode serial{"--child-fleet", 1};
    const ChildRun g = spawn_child(exe, serial, 1, "", "", fleet_golden,
                                   workdir / "fleet_golden.log");
    check(g.exit_code == 0, "fleet golden run failed");
  }
  const std::string fleet_gold = normalize_wall_ms(read_file(fleet_golden));

  const ChildMode sharded{"--child-fleet", 8};
  const fs::path fleet_json = workdir / "fleet_soak.json";
  const std::size_t fleet_crashes =
      soak_loop(exe, sharded, 2, {"dispatch:20", "snapshot:2"}, /*tear_after_crash=*/0,
                workdir / "ckpt_fleet", fleet_json, workdir);
  check(fleet_crashes >= 2, "fleet soak: expected 2 injected crashes, got " +
                                std::to_string(fleet_crashes));
  {
    std::string soak = read_file(fleet_json);
    const std::size_t at = soak.find("\"workers\": 2");
    if (at != std::string::npos) soak.replace(at, 12, "\"workers\": 1");
    check(normalize_wall_ms(soak) == fleet_gold,
          "fleet soak: sharded resumed output differs from serial golden");
  }
  std::cout << "[soak] fleet: " << fleet_crashes
            << " crashes at 8 shard threads, resumed output byte-identical to serial golden\n";

  // -- Randomized seeded batteries (nightly: --seeds N) ----------------------
  // Probabilistic deaths instead of scheduled sites: each seed rolls its own
  // crash schedule over every instrumented site, and the resumed output must
  // still match the uninterrupted golden byte for byte.
  std::size_t random_crashes = 0;
  if (seeds > 0) {
    std::cout << "\n== Randomized kill-resume: " << seeds << " seeded batteries ==\n";
    for (std::uint64_t s = 1; s <= seeds; ++s) {
      const fs::path json = workdir / ("rand_" + std::to_string(s) + ".json");
      const std::size_t c = random_soak(exe, app_mode, 8, s, /*rate=*/0.001,
                                        workdir / ("ckpt_rand" + std::to_string(s)), json,
                                        workdir);
      random_crashes += c;
      std::string out = read_file(json);
      check(sum_requests(out) == expected_requests,
            "random soak (seed " + std::to_string(s) +
                "): requests lost or duplicated across crashes");
      const std::size_t at = out.find("\"workers\": 8");
      if (at != std::string::npos) out.replace(at, 12, "\"workers\": 1");
      check(normalize_wall_ms(out) == gold1,
            "random soak (seed " + std::to_string(s) +
                "): resumed output differs from uninterrupted golden");
      std::cout << "[soak] seed " << s << ": " << c
                << " random crashes, output matches golden\n";
    }
  }

  if (!g_ok) {
    std::cerr << "\nSoak recovery FAILED; work directory kept at " << workdir << "\n";
    return 1;
  }
  std::cout << "\nAll soak-recovery contracts hold: no request lost or duplicated across "
            << crashes8 + crashes1 + fleet_crashes + random_crashes << " injected crashes.\n";
  if (!keep) fs::remove_all(workdir);
  return 0;
}
