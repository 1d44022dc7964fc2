// Tests of the parallel scenario sweep engine (src/run): the thread pool,
// parallel_for, the SweepRunner determinism contract (identical results for
// any worker count), result aggregation, CLI parsing and the JSON writer.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/scenario.hpp"
#include "run/json_writer.hpp"
#include "run/sweep.hpp"
#include "run/thread_pool.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"
#include "workloads/suite.hpp"

namespace sigvp {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  run::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
  // The pool stays usable after wait_idle.
  pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 101);
}

TEST(ThreadPool, DefaultWorkersIsAtLeastOne) {
  EXPECT_GE(run::ThreadPool::default_workers(), 1u);
  run::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), run::ThreadPool::default_workers());
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  run::ThreadPool pool(3);
  std::vector<int> hits(128, 0);  // disjoint slots: no synchronization needed
  run::parallel_for(pool, hits.size(), [&hits](std::size_t i) { hits[i] += 1; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ParallelFor, RethrowsLowestIndexExceptionAfterDraining) {
  run::ThreadPool pool(4);
  std::vector<int> hits(32, 0);
  try {
    run::parallel_for(pool, hits.size(), [&hits](std::size_t i) {
      if (i == 5 || i == 20) throw std::runtime_error("boom " + std::to_string(i));
      hits[i] = 1;
    });
    FAIL() << "parallel_for swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 5");  // lowest failing index wins
  }
  // Every non-throwing task still ran: a failure does not cancel the sweep.
  for (std::size_t i = 0; i < hits.size(); ++i) {
    if (i == 5 || i == 20) continue;
    EXPECT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ParallelFor, ChunksByGrainNotPerIndex) {
  // The grain regression: 100k fleet domains must not become 100k queue
  // round-trips. Chunks are max(1, count / (workers * 4)) indices each.
  run::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1024);
  std::uint64_t before = pool.tasks_submitted();
  run::parallel_for(pool, hits.size(), [&hits](std::size_t i) { hits[i] += 1; });
  // 1024 / (4 * 4) = 64-index chunks -> exactly 16 pool tasks.
  EXPECT_EQ(pool.tasks_submitted() - before, 16u);
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);

  // Small counts degrade gracefully to one task per index.
  before = pool.tasks_submitted();
  std::atomic<int> small{0};
  run::parallel_for(pool, 10, [&small](std::size_t) { small += 1; });
  EXPECT_EQ(pool.tasks_submitted() - before, 10u);
  EXPECT_EQ(small.load(), 10);
}

TEST(ParallelFor, NestedCallsOnSharedPoolDoNotDeadlock) {
  // The fleet executor's shape: sweep workers running parallel_for on the
  // same pool their own task executes on. The waiting caller must help
  // drain the queue or a 2-thread pool wedges instantly.
  run::ThreadPool pool(2);
  std::atomic<int> count{0};
  run::parallel_for(pool, 4, [&pool, &count](std::size_t) {
    run::parallel_for(pool, 8, [&count](std::size_t) { count += 1; });
  });
  EXPECT_EQ(count.load(), 32);
}

TEST(SweepRunner, RejectsUnnamedAndDuplicateJobs) {
  const auto suite = workloads::make_suite();
  const workloads::Workload& w = workloads::find(suite, "vectorAdd");
  run::SweepJob job;
  job.name = "a";
  job.apps = replicate(w, w.test_n, 1);

  run::SweepRunner runner(2);
  run::SweepJob unnamed = job;
  unnamed.name.clear();
  EXPECT_THROW(runner.run({unnamed}), ContractError);
  EXPECT_THROW(runner.run({job, job}), ContractError);
}

// Builds a small mixed sweep: serial + optimized ΣVP, an emulation baseline,
// and one functional job carrying real data end to end.
std::vector<run::SweepJob> make_mixed_jobs(const std::vector<workloads::Workload>& suite) {
  const workloads::Workload& va = workloads::find(suite, "vectorAdd");
  const workloads::Workload& bs = workloads::find(suite, "BlackScholes");
  workloads::AppTraits quick_va = va.traits;
  quick_va.iterations = 2;
  workloads::AppTraits quick_bs = bs.traits;
  quick_bs.iterations = 2;

  auto base = [](const char* name, const workloads::Workload& w,
                 const workloads::AppTraits& t, std::size_t vps) {
    run::SweepJob job;
    job.name = name;
    job.group = w.app;
    job.config.mode = ExecMode::kAnalytic;
    const AppInstance app{.workload = &w, .n = w.test_n, .traits = t};
    for (std::size_t i = 0; i < vps; ++i) job.apps.push_back(app);
    return job;
  };

  std::vector<run::SweepJob> jobs;
  jobs.push_back(base("va-serial", va, quick_va, 3));
  jobs.push_back(base("va-opt", va, quick_va, 3));
  jobs.back().config.dispatch.interleave = true;
  jobs.back().config.dispatch.coalesce = true;
  jobs.back().config.dispatch.coalesce_eager_peers = 2;
  jobs.back().config.async_launches = true;
  jobs.push_back(base("bs-emul", bs, quick_bs, 2));
  jobs.back().config.backend = Backend::kEmulationOnVp;
  jobs.push_back(base("bs-opt", bs, quick_bs, 2));
  jobs.back().config.dispatch.interleave = true;
  jobs.back().config.async_launches = true;

  // Functional job with real data: output bytes must also be reproducible.
  run::SweepJob func = base("va-func", va, quick_va, 2);
  func.config.mode = ExecMode::kFunctional;
  func.config.functional_io = true;
  func.apps[0].traits->iterations = 1;
  func.apps[1].traits->iterations = 1;
  jobs.push_back(func);
  return jobs;
}

void expect_identical(const ScenarioResult& a, const ScenarioResult& b,
                      const std::string& name) {
  EXPECT_EQ(a.makespan_us, b.makespan_us) << name;
  EXPECT_EQ(a.app_done_us, b.app_done_us) << name;
  EXPECT_EQ(a.jobs_dispatched, b.jobs_dispatched) << name;
  EXPECT_EQ(a.reorders, b.reorders) << name;
  EXPECT_EQ(a.coalesced_groups, b.coalesced_groups) << name;
  EXPECT_EQ(a.coalesced_jobs, b.coalesced_jobs) << name;
  EXPECT_EQ(a.ipc_messages, b.ipc_messages) << name;
  EXPECT_EQ(a.gpu_dynamic_energy_j, b.gpu_dynamic_energy_j) << name;
  EXPECT_EQ(a.gpu_compute_busy_us, b.gpu_compute_busy_us) << name;
  EXPECT_EQ(a.gpu_copy_busy_us, b.gpu_copy_busy_us) << name;
  EXPECT_EQ(a.app_outputs, b.app_outputs) << name;
}

TEST(SweepRunner, BitIdenticalResultsAcrossWorkerCounts) {
  const auto suite = workloads::make_suite();
  const auto jobs = make_mixed_jobs(suite);

  const run::SweepResult one = run::SweepRunner(1).run(jobs);
  const run::SweepResult four = run::SweepRunner(4).run(jobs);
  const run::SweepResult four_again = run::SweepRunner(4).run(jobs);

  EXPECT_EQ(one.workers, 1u);
  EXPECT_EQ(four.workers, 4u);
  ASSERT_EQ(one.jobs.size(), jobs.size());
  ASSERT_EQ(four.jobs.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    // Results stay in input order regardless of which worker ran them.
    EXPECT_EQ(one.jobs[i].name, jobs[i].name);
    EXPECT_EQ(four.jobs[i].name, jobs[i].name);
    EXPECT_EQ(four.jobs[i].group, jobs[i].group);
    expect_identical(one.jobs[i].result, four.jobs[i].result, jobs[i].name);
    expect_identical(four.jobs[i].result, four_again.jobs[i].result, jobs[i].name);
  }

  // The functional job actually moved data.
  const ScenarioResult& func = four.find("va-func").result;
  ASSERT_EQ(func.app_outputs.size(), 2u);
  EXPECT_FALSE(func.app_outputs[0].empty());
}

TEST(SweepResult, FindSpeedupAndSummaries) {
  run::SweepResult sweep;
  sweep.jobs.push_back({"slow", "g1", {}});
  sweep.jobs.back().result.makespan_us = 400.0;
  sweep.jobs.push_back({"fast", "g1", {}});
  sweep.jobs.back().result.makespan_us = 100.0;
  sweep.jobs.push_back({"other", "g2", {}});
  sweep.jobs.back().result.makespan_us = 200.0;

  EXPECT_EQ(sweep.find("fast").result.makespan_us, 100.0);
  EXPECT_THROW(sweep.find("missing"), ContractError);
  EXPECT_DOUBLE_EQ(sweep.speedup("fast", "slow"), 4.0);
  EXPECT_DOUBLE_EQ(sweep.speedup("slow", "fast"), 0.25);

  const SampleSummary all = sweep.summarize();
  EXPECT_EQ(all.count, 3u);
  EXPECT_DOUBLE_EQ(all.min, 100.0);
  EXPECT_DOUBLE_EQ(all.max, 400.0);
  EXPECT_NEAR(all.mean, 700.0 / 3.0, 1e-9);
  EXPECT_LE(all.p50, all.p95);

  const SampleSummary g1 = sweep.summarize_group("g1");
  EXPECT_EQ(g1.count, 2u);
  EXPECT_DOUBLE_EQ(g1.max, 400.0);
  EXPECT_THROW(sweep.summarize_group("nope"), ContractError);
}

TEST(SweepCli, ParsesWorkersAndJsonOverrides) {
  const char* argv_defaults[] = {"bench"};
  run::SweepCli cli = run::parse_sweep_cli(1, const_cast<char**>(argv_defaults),
                                           "BENCH_default.json");
  EXPECT_EQ(cli.workers, 0u);
  EXPECT_EQ(cli.json_path, "BENCH_default.json");

  const char* argv_full[] = {"bench", "--workers", "7", "--json", "out.json"};
  cli = run::parse_sweep_cli(5, const_cast<char**>(argv_full), "BENCH_default.json");
  EXPECT_EQ(cli.workers, 7u);
  EXPECT_EQ(cli.json_path, "out.json");

  // --snapshot-dir is the only checkpoint flag; the capture cadence is not
  // a CLI setting, so an unknown --snapshot-every leaves it at its default.
  const char* argv_snap[] = {"bench", "--snapshot-dir", "ckpt", "--snapshot-every", "7"};
  cli = run::parse_sweep_cli(5, const_cast<char**>(argv_snap), "BENCH_default.json");
  EXPECT_EQ(cli.snapshot_dir, "ckpt");
  const run::SweepSnapshotOptions snap = cli.snapshot_options();
  EXPECT_EQ(snap.dir, "ckpt");
  EXPECT_EQ(snap.every_us, run::SweepSnapshotOptions{}.every_us);
}

TEST(JsonWriter, EmitsDocumentedSchema) {
  run::SweepResult sweep;
  sweep.workers = 3;
  sweep.wall_ms = 12.5;
  sweep.jobs.push_back({"job \"a\"", "grp", {}});
  ScenarioResult& r = sweep.jobs.back().result;
  r.makespan_us = 1234.5;
  r.app_done_us = {1000.0, 1234.5};
  r.jobs_dispatched = 7;
  r.reorders = 2;
  r.coalesced_groups = 1;
  r.coalesced_jobs = 3;
  r.ipc_messages = 14;

  const std::string json = run::sweep_to_json(sweep, "unit");
  EXPECT_NE(json.find("\"bench\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"workers\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"job \\\"a\\\"\""), std::string::npos);  // escaped name
  EXPECT_NE(json.find("\"makespan_us\": 1234.5"), std::string::npos);
  EXPECT_NE(json.find("\"summary\""), std::string::npos);
  EXPECT_NE(json.find("\"reorders\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"app_done_us\": [1000, 1234.5]"), std::string::npos);

  const std::string path = "test_sweep_out.json";
  ASSERT_TRUE(run::try_write_sweep_json(sweep, "unit", path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream read_back;
  read_back << in.rdbuf();
  EXPECT_EQ(read_back.str(), json);
  in.close();
  std::remove(path.c_str());
}

TEST(Stats, PercentileAndSummary) {
  EXPECT_DOUBLE_EQ(percentile({5.0}, 95.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.5);  // sorts first

  const SampleSummary s = summarize({10.0, 20.0, 30.0});
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, 10.0);
  EXPECT_DOUBLE_EQ(s.p50, 20.0);
  EXPECT_DOUBLE_EQ(s.max, 30.0);
  EXPECT_DOUBLE_EQ(s.mean, 20.0);
}

}  // namespace
}  // namespace sigvp
