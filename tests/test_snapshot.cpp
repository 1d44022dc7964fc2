// Tests of the checkpoint/restore subsystem (DESIGN.md §14): bit-exact
// serialization, checksummed file container rejection, checkpoint-store
// rotation and torn-file fallback, crash-plan arming, crash-safe atomic
// writes, state codecs, fleet-capture replay verification, and the
// sweep-level resume contract (resumed output bit-identical to a
// never-interrupted run at any worker count).

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "fault/crash.hpp"
#include "gpu/arch.hpp"
#include "gpu/launch_cache.hpp"
#include "run/json_writer.hpp"
#include "run/sweep.hpp"
#include "run/traffic.hpp"
#include "snapshot/io.hpp"
#include "snapshot/serial.hpp"
#include "snapshot/state.hpp"
#include "trace/metrics.hpp"
#include "util/check.hpp"
#include "util/fileio.hpp"
#include "workloads/suite.hpp"

namespace sigvp {
namespace {

namespace fs = std::filesystem;

/// Unique per-test scratch directory, removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("sigvp_snapshot_test_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

// --- serial round trips -------------------------------------------------------

TEST(SnapshotSerial, RoundTripsEveryPrimitiveBitExactly) {
  snapshot::Writer w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(3.14159);
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::quiet_NaN());
  w.f64(std::numeric_limits<double>::denorm_min());
  w.f64(std::numeric_limits<double>::infinity());
  w.boolean(true);
  w.str(std::string("nul\0inside", 10));
  w.u64_vec({1, 2, 3});
  w.f64_vec({0.5, -0.25});
  w(std::vector<std::uint8_t>{9, 8, 7});

  snapshot::Reader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));  // -0.0 travels by bit pattern
  const double nan = r.f64();
  EXPECT_TRUE(std::isnan(nan));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(nan),
            std::bit_cast<std::uint64_t>(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), std::string("nul\0inside", 10));
  std::vector<std::uint64_t> u64s;
  std::vector<double> f64s;
  std::vector<std::uint8_t> bytes;
  r(u64s, f64s, bytes);
  EXPECT_EQ(u64s, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(f64s, (std::vector<double>{0.5, -0.25}));
  EXPECT_EQ(bytes, (std::vector<std::uint8_t>{9, 8, 7}));
  EXPECT_TRUE(r.done());
}

TEST(SnapshotSerial, ReaderThrowsOnTruncationInsteadOfReadingGarbage) {
  snapshot::Writer w;
  w.u64(7);
  w.str("hello");
  const std::vector<std::uint8_t>& full = w.buffer();

  // Cut inside the u64.
  snapshot::Reader r1(full.data(), 4);
  EXPECT_THROW(r1.u64(), snapshot::SnapshotError);
  // Cut inside the string body: the length prefix itself must be rejected
  // (guard runs before any allocation).
  snapshot::Reader r2(full.data(), full.size() - 3);
  r2.u64();
  EXPECT_THROW(r2.str(), snapshot::SnapshotError);
  // An absurd vector length prefix from a corrupt payload.
  snapshot::Writer bad;
  bad.u64(std::numeric_limits<std::uint64_t>::max());
  snapshot::Reader r3(bad.buffer());
  std::vector<std::uint64_t> v;
  EXPECT_THROW(r3(v), snapshot::SnapshotError);
}

TEST(SnapshotSerial, DigestIsSensitiveToEveryByte) {
  snapshot::Writer w;
  w.u64(123456789);
  w.str("state");
  const std::uint64_t clean = w.digest();
  std::vector<std::uint8_t> bytes = w.take();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] ^= 0x01;
    EXPECT_NE(snapshot::fnv1a64(bytes.data(), bytes.size()), clean) << "byte " << i;
    bytes[i] ^= 0x01;
  }
  EXPECT_EQ(snapshot::fnv1a64(bytes.data(), bytes.size()), clean);
}

// --- file container -----------------------------------------------------------

TEST(SnapshotIo, FileRoundTripsAndRejectsEveryCorruptionMode) {
  const TempDir tmp("io");
  const std::string path = (tmp.path / "snap.svps").string();
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  ASSERT_TRUE(snapshot::save_snapshot_file(path, payload));
  EXPECT_EQ(snapshot::load_snapshot_file(path), payload);

  auto corrupt = [&](auto mutate) {
    std::vector<char> raw;
    {
      std::ifstream in(path, std::ios::binary);
      raw.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    mutate(raw);
    const std::string mangled = (tmp.path / "mangled.svps").string();
    std::ofstream(mangled, std::ios::binary).write(raw.data(), raw.size());
    EXPECT_THROW(snapshot::load_snapshot_file(mangled), snapshot::SnapshotError);
  };
  corrupt([](std::vector<char>& raw) { raw.resize(10); });             // torn header
  corrupt([](std::vector<char>& raw) { raw.resize(raw.size() - 2); }); // torn payload
  corrupt([](std::vector<char>& raw) { raw[0] ^= 0x20; });             // bad magic
  corrupt([](std::vector<char>& raw) { raw[8] ^= 0xFF; });             // bad version
  corrupt([](std::vector<char>& raw) { raw.back() ^= 0x01; });         // payload bit flip
  corrupt([](std::vector<char>& raw) { raw[20] ^= 0x01; });            // checksum bit flip
  EXPECT_THROW(snapshot::load_snapshot_file((tmp.path / "absent.svps").string()),
               snapshot::SnapshotError);
}

TEST(SnapshotIo, CheckpointStoreRotatesAndFallsBackPastCorruptNewest) {
  const TempDir tmp("store");
  snapshot::CheckpointStore store(tmp.str(), /*keep=*/3);
  std::vector<std::string> published;
  for (std::uint8_t i = 1; i <= 5; ++i) {
    published.push_back(store.publish({i, i, i}));
  }
  // keep=3: only the newest three files remain.
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(tmp.path)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 3u);
  EXPECT_FALSE(fs::exists(published[0]));
  EXPECT_FALSE(fs::exists(published[1]));

  snapshot::CheckpointStore::Latest latest = store.find_latest_valid();
  EXPECT_EQ(latest.path, published[4]);
  EXPECT_EQ(latest.payload, (std::vector<std::uint8_t>{5, 5, 5}));
  EXPECT_TRUE(latest.rejected.empty());

  // Tear the newest in half: the scan must reject it by checksum and fall
  // back to the previous checkpoint.
  fs::resize_file(published[4], fs::file_size(published[4]) / 2);
  latest = store.find_latest_valid();
  EXPECT_EQ(latest.path, published[3]);
  EXPECT_EQ(latest.payload, (std::vector<std::uint8_t>{4, 4, 4}));
  ASSERT_EQ(latest.rejected.size(), 1u);
  EXPECT_EQ(latest.rejected[0], published[4]);

  // A new store on the same directory keeps counting upward — sequence
  // numbers never collide with surviving files.
  snapshot::CheckpointStore reopened(tmp.str(), 3);
  const std::string next = reopened.publish({6});
  EXPECT_GT(next, published[4]);

  // All checkpoints corrupt: no fallback, every file reported.
  for (const auto& e : fs::directory_iterator(tmp.path)) {
    fs::resize_file(e.path(), 3);
  }
  latest = reopened.find_latest_valid();
  EXPECT_TRUE(latest.path.empty());
  EXPECT_EQ(latest.rejected.size(), 3u);
}

// --- crash plan ---------------------------------------------------------------

TEST(CrashPlan, CountedModeFiresExactlyAtTheArmedVisit) {
  CrashPlan& plan = CrashPlan::instance();
  std::vector<int> fired;
  plan.set_exit_handler([&](int code) { fired.push_back(code); });
  plan.arm_at(CrashSite::kDispatch, 3);
  for (int i = 0; i < 5; ++i) plan.crash_point(CrashSite::kDispatch);
  plan.crash_point(CrashSite::kCoalescedGroup);  // other sites never fire
  EXPECT_EQ(fired, (std::vector<int>{kCrashExitCode}));
  EXPECT_EQ(plan.visits(CrashSite::kDispatch), 5u);
  EXPECT_EQ(plan.visits(CrashSite::kCoalescedGroup), 1u);
  plan.disarm();
  plan.set_exit_handler({});
}

TEST(CrashPlan, SeededModeIsAPureFunctionOfSeedSiteAndVisit) {
  CrashPlan& plan = CrashPlan::instance();
  auto run_pattern = [&](std::uint64_t seed) {
    std::vector<std::uint64_t> deaths;
    std::uint64_t visit = 0;
    plan.set_exit_handler([&](int) { deaths.push_back(visit); });
    plan.arm_seeded(seed, 0.05);
    for (visit = 1; visit <= 400; ++visit) plan.crash_point(CrashSite::kSnapshotWrite);
    return deaths;
  };
  const auto a = run_pattern(11);
  const auto b = run_pattern(11);
  const auto c = run_pattern(12);
  EXPECT_FALSE(a.empty());  // 400 visits at 5% — astronomically unlikely to miss
  EXPECT_EQ(a, b);          // same seed, same deaths
  EXPECT_NE(a, c);          // different seed, different schedule
  plan.disarm();
  plan.set_exit_handler({});
}

TEST(CrashPlan, DisarmedSitesCostNothingAndCountNothing) {
  CrashPlan& plan = CrashPlan::instance();
  plan.disarm();
  const std::uint64_t before = plan.visits(CrashSite::kDispatch);
  for (int i = 0; i < 100; ++i) crash_point(CrashSite::kDispatch);
  EXPECT_EQ(plan.visits(CrashSite::kDispatch), before);
}

// --- crash-safe atomic writes -------------------------------------------------

TEST(AtomicWrite, ReadersSeeOldContentUntilTheRename) {
  const TempDir tmp("atomic");
  const std::string path = (tmp.path / "out.json").string();
  ASSERT_TRUE(util::write_file_atomic(path, "v1"));

  auto slurp = [&]() {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  EXPECT_EQ(slurp(), "v1");

  // In the pre-rename window (where kSnapshotWrite kills the process) the
  // published path still holds the old bytes — a crash there loses nothing.
  bool hook_ran = false;
  ASSERT_TRUE(util::write_file_atomic(path, "v2", [&] {
    hook_ran = true;
    EXPECT_EQ(slurp(), "v1");
  }));
  EXPECT_TRUE(hook_ran);
  EXPECT_EQ(slurp(), "v2");

  // No leftover temp files after publication.
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(tmp.path)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1u);

  EXPECT_FALSE(util::write_file_atomic((tmp.path / "no/such/dir/x").string(), "y"));
  EXPECT_TRUE(util::write_file_atomic("/dev/null", "discarded"));  // device: direct write
}

// --- state codecs -------------------------------------------------------------

run::SweepJob tiny_traffic_job(const workloads::Workload& w, std::size_t vps,
                               run::traffic::Shape shape, const std::string& name) {
  run::SweepJob job;
  job.name = name;
  job.group = w.app;
  job.config.backend = Backend::kSigmaVp;
  job.config.mode = ExecMode::kAnalytic;
  job.config.dispatch.interleave = true;
  job.config.dispatch.coalesce = true;
  run::traffic::TrafficConfig tc;
  tc.shape = shape;
  tc.mean_interarrival_us = 400.0;
  tc.seed = 21;
  for (std::size_t vp = 0; vp < vps; ++vp) {
    AppInstance a;
    a.workload = &w;
    a.n = w.test_n;
    a.jitter = 0;
    a.arrivals = run::traffic::arrival_times(tc, static_cast<std::uint32_t>(vp), 6);
    job.apps.push_back(std::move(a));
  }
  return job;
}

std::vector<std::uint8_t> result_bytes(const ScenarioResult& r) {
  snapshot::Writer w;
  snapshot::save_scenario_result(w, r);
  return w.take();
}

TEST(SnapshotState, ScenarioResultRoundTripsBitExact) {
  const auto suite = workloads::make_app_suite();
  const run::SweepJob job =
      tiny_traffic_job(suite.front(), 3, run::traffic::Shape::kPoisson, "rt");
  const ScenarioResult original = run_scenario(job.config, job.apps);
  ASSERT_GT(original.requests_completed, 0u);

  const std::vector<std::uint8_t> a = result_bytes(original);
  snapshot::Reader r(a);
  const ScenarioResult restored = snapshot::load_scenario_result(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(result_bytes(restored), a);  // save(load(x)) == save(x), bit for bit
  EXPECT_EQ(restored.makespan_us, original.makespan_us);
  EXPECT_EQ(restored.requests_completed, original.requests_completed);
  EXPECT_EQ(restored.latency.count, original.latency.count);
  EXPECT_EQ(restored.latency.counts, original.latency.counts);
  EXPECT_EQ(restored.app_done_us, original.app_done_us);
}

TEST(SnapshotState, MetricsRoundTripPreservesJson) {
  trace::Metrics m;
  m.counter("jobs").value = 42;
  m.gauge("depth").record_max(7.5);
  trace::Histogram& h = m.histogram("lat", {1.0, 10.0, 100.0});
  h.record(0.5);
  h.record(55.0);
  h.record(1e6);

  snapshot::Writer w;
  snapshot::save_metrics(w, m);
  snapshot::Reader r(w.buffer());
  const trace::Metrics restored = snapshot::load_metrics(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(restored.to_json(""), m.to_json(""));
}

TEST(SnapshotState, ZeroTrafficRestoreKeepsNoLatencyBlockSchema) {
  // A restored closed-loop result must keep latency.count == 0 so the JSON
  // writer continues to omit the "requests"/"latency" keys — a restore must
  // never invent schema blocks the original run didn't have.
  const auto suite = workloads::make_suite();
  run::SweepJob job;
  job.name = "closed";
  job.group = "g";
  job.config.backend = Backend::kSigmaVp;
  job.config.mode = ExecMode::kAnalytic;
  workloads::AppTraits t = workloads::find(suite, "vectorAdd").traits;
  t.iterations = 2;
  job.apps.push_back(AppInstance{.workload = &workloads::find(suite, "vectorAdd"),
                                 .n = workloads::find(suite, "vectorAdd").test_n, .traits = t});
  const ScenarioResult original = run_scenario(job.config, job.apps);
  ASSERT_EQ(original.latency.count, 0u);

  const std::vector<std::uint8_t> enc = result_bytes(original);
  snapshot::Reader r(enc);
  const ScenarioResult restored = snapshot::load_scenario_result(r);
  EXPECT_EQ(restored.latency.count, 0u);

  run::SweepResult sweep;
  sweep.workers = 1;
  sweep.jobs.push_back({job.name, job.group, restored});
  const std::string json = run::sweep_to_json(sweep, "schema");
  EXPECT_EQ(json.find("\"latency\""), std::string::npos);
  EXPECT_EQ(json.find("\"requests\""), std::string::npos);
}

TEST(SnapshotState, FingerprintIsSensitiveToEveryIdentityKnob) {
  const auto suite = workloads::make_app_suite();
  const run::SweepJob base =
      tiny_traffic_job(suite.front(), 2, run::traffic::Shape::kPoisson, "fp");
  const auto fp = [](const run::SweepJob& j) {
    return snapshot::scenario_fingerprint(j.name, j.group, j.config, j.apps);
  };
  const std::uint64_t base_fp = fp(base);
  EXPECT_EQ(fp(base), base_fp);  // pure function

  run::SweepJob j = base;
  j.name = "fp2";
  EXPECT_NE(fp(j), base_fp);
  j = base;
  j.config.dispatch.coalesce = false;
  EXPECT_NE(fp(j), base_fp);
  j = base;
  j.config.gpu_mem_bytes *= 2;
  EXPECT_NE(fp(j), base_fp);
  j = base;
  j.apps[0].n += 1;
  EXPECT_NE(fp(j), base_fp);
  j = base;
  j.apps[0].arrivals[0] += 1.0;
  EXPECT_NE(fp(j), base_fp);
  j = base;
  j.apps.pop_back();
  EXPECT_NE(fp(j), base_fp);
}

TEST(SnapshotState, SweepCheckpointCodecRejectsTrailingBytes) {
  snapshot::SweepCheckpoint cp;
  cp.fingerprint = 99;
  cp.jobs.resize(2);
  cp.jobs[0].done = false;
  cp.jobs[0].captures.push_back(FleetCapture{10.0, 5, 0xABCD});
  std::vector<std::uint8_t> enc = snapshot::encode_sweep_checkpoint(cp);
  const snapshot::SweepCheckpoint dec = snapshot::decode_sweep_checkpoint(enc);
  EXPECT_EQ(dec.fingerprint, 99u);
  ASSERT_EQ(dec.jobs.size(), 2u);
  ASSERT_EQ(dec.jobs[0].captures.size(), 1u);
  EXPECT_EQ(dec.jobs[0].captures[0], (FleetCapture{10.0, 5, 0xABCD}));

  enc.push_back(0);  // trailing garbage must not be silently ignored
  EXPECT_THROW(snapshot::decode_sweep_checkpoint(enc), snapshot::SnapshotError);
}

// --- pinned format ------------------------------------------------------------

/// A sweep checkpoint in which every field is non-default.
snapshot::SweepCheckpoint pinned_checkpoint() {
  ScenarioResult r;
  r.makespan_us = 1234.5;
  r.app_done_us = {1000.25, 1234.5};
  r.jobs_dispatched = 11;
  r.reorders = 12;
  r.coalesced_groups = 13;
  r.coalesced_jobs = 14;
  r.ipc_messages = 15;
  r.gpu_dynamic_energy_j = 0.125;
  r.gpu_compute_busy_us = 900.5;
  r.gpu_copy_busy_us = 100.75;
  FaultStats& f = r.fault;
  f.active = true;
  f.messages_dropped = 21;
  f.messages_duplicated = 22;
  f.latency_spikes = 23;
  f.acks_dropped = 24;
  f.launch_failures = 25;
  f.device_resets = 27;
  f.ops_killed_by_reset = 28;
  f.vp_stalls = 29;
  f.retransmits = 30;
  f.duplicates_suppressed = 31;
  f.launch_retries = 32;
  f.reset_requeues = 33;
  f.group_resplits = 34;
  f.vps_quarantined = 35;
  f.vp_restarts = 36;
  f.fallbacks = 37;
  f.fallback_jobs = 38;
  f.unrecovered_jobs = 39;
  f.recovery_latency_total_us = 40.5;
  f.recovery_latency_max_us = 20.25;
  f.recovery_events = 41;
  r.fleet = FleetStats{.domains = 4, .lookahead_us = 2.5, .sync_rounds = 51,
                       .fabric_messages = 52, .fabric_hops = 53, .fleet_done_us = 1240.0,
                       .resident_bytes = 54, .cache_hits = 55, .cache_misses = 56};
  r.gpus.devices = 2;
  r.gpus.migrations = 61;
  r.gpus.migrated_bytes = 62;
  r.gpus.per_device = {
      GpuDeviceStats{"quadro4000", 3, 63, 64, 500.5, 60.25, 0.0625},
      GpuDeviceStats{"gtx480", 5, 65, 66, 400.5, 40.25, -0.0},
  };
  r.app_outputs = {{1, 2, 3}, {}, {255}};
  r.latency.record(3.0);
  r.latency.record(4e7);
  r.requests_completed = 71;
  r.metrics = std::make_shared<trace::Metrics>();
  r.metrics->counter("jobs").value = 81;
  r.metrics->gauge("depth").record_max(8.5);
  r.metrics->histogram("lat", {1.0, 10.0}).record(5.0);

  snapshot::SweepCheckpoint cp;
  cp.fingerprint = 0x0123456789ABCDEFull;
  cp.jobs.resize(2);
  cp.jobs[0].done = true;
  cp.jobs[0].result = std::move(r);
  cp.jobs[1].captures = {FleetCapture{300.0, 91, 0xFEED}, FleetCapture{600.0, 92, 0xBEEF}};
  return cp;
}

std::uint64_t digest_of(const std::vector<std::uint8_t>& bytes) {
  return snapshot::fnv1a64(bytes.data(), bytes.size());
}

TEST(SnapshotState, CheckpointAndCacheEncodingsMatchPinnedDigests) {
  // Recorded from the v8 codecs; any change to a persisted byte moves it.
  // The checkpoint holds results and capture digests only, so the layout
  // must not move within v8.
  const snapshot::SweepCheckpoint cp = pinned_checkpoint();
  const std::vector<std::uint8_t> enc = snapshot::encode_sweep_checkpoint(cp);
  EXPECT_EQ(digest_of(enc), 0xFC75DA4A4514935Bull);

  // Decoding and re-encoding reproduces every byte.
  EXPECT_EQ(snapshot::encode_sweep_checkpoint(snapshot::decode_sweep_checkpoint(enc)), enc);
}

TEST(SnapshotState, EveryStrictPrefixOfACheckpointOrCacheExportIsRejected) {
  const snapshot::SweepCheckpoint cp = pinned_checkpoint();
  const std::vector<std::uint8_t> enc = snapshot::encode_sweep_checkpoint(cp);
  for (std::size_t len = 0; len < enc.size(); ++len) {
    const std::vector<std::uint8_t> prefix(enc.begin(), enc.begin() + len);
    EXPECT_THROW(snapshot::decode_sweep_checkpoint(prefix), snapshot::SnapshotError)
        << "checkpoint prefix of " << len << " bytes";
  }
}

// --- fleet-capture replay verification ----------------------------------------

TEST(SnapshotCapture, ReplayReproducesRecordedDigestsAndDetectsTampering) {
  const auto suite = workloads::make_app_suite();
  const run::SweepJob job =
      tiny_traffic_job(suite.front(), 3, run::traffic::Shape::kBursty, "cap");

  CaptureOptions record;
  record.every_us = 300.0;
  std::vector<FleetCapture> captures;
  const ScenarioResult first = run_scenario(job.config, job.apps, record, &captures);
  ASSERT_GE(captures.size(), 3u) << "cadence too coarse for this scenario";

  // Replay under verification: every capture must match position by position.
  CaptureOptions verify;
  verify.every_us = 300.0;
  verify.expect = captures;
  const ScenarioResult second = run_scenario(job.config, job.apps, verify, nullptr);
  EXPECT_EQ(result_bytes(second), result_bytes(first));

  // One flipped digest bit — divergence is detected, not absorbed.
  verify.expect[1].digest ^= 1;
  EXPECT_THROW(run_scenario(job.config, job.apps, verify, nullptr),
               snapshot::SnapshotError);

  // A cadence mismatch produces fewer/shifted captures — also detected.
  verify.expect = captures;
  verify.every_us = 450.0;
  EXPECT_THROW(run_scenario(job.config, job.apps, verify, nullptr),
               snapshot::SnapshotError);

  // The no-capture path is byte-identical to the plain overload.
  const ScenarioResult plain = run_scenario(job.config, job.apps);
  EXPECT_EQ(result_bytes(plain), result_bytes(first));
}

// --- sweep-level resume -------------------------------------------------------

std::vector<run::SweepJob> resume_jobs(const std::vector<workloads::Workload>& suite) {
  std::vector<run::SweepJob> jobs;
  jobs.push_back(tiny_traffic_job(suite[0], 2, run::traffic::Shape::kPoisson, "a"));
  jobs.push_back(tiny_traffic_job(suite[1 % suite.size()], 3,
                                  run::traffic::Shape::kBursty, "b"));
  jobs.push_back(tiny_traffic_job(suite[2 % suite.size()], 2,
                                  run::traffic::Shape::kPoisson, "c"));
  return jobs;
}

std::vector<std::vector<std::uint8_t>> sweep_bytes(const run::SweepResult& r) {
  std::vector<std::vector<std::uint8_t>> out;
  for (const auto& j : r.jobs) out.push_back(result_bytes(j.result));
  return out;
}

TEST(SnapshotSweep, ResumeIsBitIdenticalToUninterruptedAtAnyWorkerCount) {
  const TempDir tmp("sweep");
  const auto suite = workloads::make_app_suite();
  const std::vector<run::SweepJob> jobs = resume_jobs(suite);

  const run::SweepResult baseline = run::SweepRunner(2).run(jobs);
  const auto golden = sweep_bytes(baseline);

  // Cold start with checkpointing: same results, checkpoints published.
  run::SweepSnapshotOptions snap;
  snap.dir = tmp.str();
  snap.every_us = 300.0;
  run::SweepResumeInfo info;
  const run::SweepResult first = run::SweepRunner(2).run(jobs, snap, &info);
  EXPECT_TRUE(info.resumed_from.empty());
  EXPECT_EQ(sweep_bytes(first), golden);
  snapshot::CheckpointStore store(tmp.str());
  ASSERT_FALSE(store.find_latest_valid().path.empty());

  // Full-resume: every job spliced from the final checkpoint, nothing re-run.
  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    run::SweepResumeInfo ri;
    const run::SweepResult resumed = run::SweepRunner(workers).run(jobs, snap, &ri);
    EXPECT_EQ(ri.jobs_resumed, jobs.size());
    EXPECT_FALSE(ri.resumed_from.empty());
    EXPECT_EQ(sweep_bytes(resumed), golden);
  }

  // Mid-flight checkpoint, hand-built the way a crashed run leaves one:
  // job a finished; job b interrupted with its capture prefix recorded;
  // job c untouched. Resume must splice a, replay b under digest
  // verification, run c fresh — and still match the golden bytes.
  snapshot::SweepCheckpoint cp = snapshot::decode_sweep_checkpoint(
      snapshot::load_snapshot_file(store.find_latest_valid().path));
  ASSERT_EQ(cp.jobs.size(), 3u);
  CaptureOptions rec;
  rec.every_us = snap.every_us;
  std::vector<FleetCapture> caps_b;
  run_scenario(jobs[1].config, jobs[1].apps, rec, &caps_b);
  ASSERT_GE(caps_b.size(), 2u);
  caps_b.resize(caps_b.size() / 2);  // a prefix, as a mid-run crash leaves
  cp.jobs[1] = snapshot::JobCheckpoint{};
  cp.jobs[1].captures = caps_b;
  cp.jobs[2] = snapshot::JobCheckpoint{};

  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE("partial workers=" + std::to_string(workers));
    // Publish through a fresh store each round: the runner published newer
    // (all-done) checkpoints meanwhile, and the crafted one must be newest.
    snapshot::CheckpointStore(tmp.str()).publish(snapshot::encode_sweep_checkpoint(cp));
    run::SweepResumeInfo ri;
    const run::SweepResult resumed = run::SweepRunner(workers).run(jobs, snap, &ri);
    EXPECT_EQ(ri.jobs_resumed, 1u);
    EXPECT_EQ(ri.jobs_replayed, 1u);
    EXPECT_EQ(sweep_bytes(resumed), golden);
  }
}

/// Functional ΣVP fleet of `vps` identical vectorAdd VPs, uncoalesced, so
/// every VP launches at its own buffer addresses.
run::SweepJob functional_fleet_job(const workloads::Workload& w, std::size_t vps,
                                   const std::string& name) {
  workloads::AppTraits t = w.traits;
  t.iterations = 3;
  t.launches_per_iter = 1;
  t.iter_h2d_bytes = 0;
  t.iter_d2h_bytes = 0;
  run::SweepJob job;
  job.name = name;
  job.group = w.app;
  job.config.backend = Backend::kSigmaVp;
  job.config.mode = ExecMode::kFunctional;
  job.config.functional_io = true;
  job.config.dispatch.coalesce = false;
  for (std::size_t i = 0; i < vps; ++i) {
    AppInstance a;
    a.workload = &w;
    a.n = w.test_n;
    a.traits = t;
    job.apps.push_back(std::move(a));
  }
  return job;
}

TEST(SnapshotSweep, KillResumeWithRelocatedCacheEntriesIsBitIdenticalAtAnyWorkerCount) {
  const TempDir tmp("relocated");
  const auto suite = workloads::make_suite();
  const workloads::Workload& w = workloads::find(suite, "vectorAdd");
  const std::vector<run::SweepJob> jobs = {functional_fleet_job(w, 4, "a"),
                                           functional_fleet_job(w, 3, "b")};
  LaunchCache& cache = LaunchCache::instance();
  cache.clear();
  cache.set_enabled(true);
  const auto golden = sweep_bytes(run::SweepRunner(2).run(jobs));

  // The checkpoint a kill right after job a leaves: a done, b not started.
  run::SweepSnapshotOptions snap;
  snap.dir = tmp.str();
  snap.every_us = 300.0;
  run::SweepRunner(2).run(jobs, snap, nullptr);
  snapshot::SweepCheckpoint cp = snapshot::decode_sweep_checkpoint(snapshot::load_snapshot_file(
      snapshot::CheckpointStore(tmp.str()).find_latest_valid().path));
  ASSERT_EQ(cp.jobs.size(), 2u);
  cp.jobs[1] = snapshot::JobCheckpoint{};

  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    snapshot::CheckpointStore(tmp.str()).publish(snapshot::encode_sweep_checkpoint(cp));
    cache.clear();  // the restarted process starts with a cold cache
    run::SweepResumeInfo ri;
    const run::SweepResult resumed = run::SweepRunner(workers).run(jobs, snap, &ri);
    EXPECT_EQ(ri.jobs_resumed, 1u);
    EXPECT_EQ(sweep_bytes(resumed), golden);
    // Job b refills its one entry at VP 0's addresses; its other VPs and
    // every later iteration hit it relocated. Job a was spliced, so the
    // sweep's cache block counts job b alone.
    EXPECT_EQ(resumed.cache.misses, 1u);
    EXPECT_EQ(resumed.cache.hits, 3u * 3u - 1u);
    EXPECT_EQ(resumed.cache.entries, 1u);
  }
  cache.clear();
}

/// Publishes checkpoints of a small functional sweep, rewrites each file's
/// version field to `version`, and requires every load to refuse it by
/// version and the resumed sweep to start over with the golden result.
void expect_checkpoints_of_version_rejected(std::uint8_t version) {
  const TempDir tmp("v" + std::to_string(version));
  const auto suite = workloads::make_suite();
  const std::vector<run::SweepJob> jobs = {
      functional_fleet_job(workloads::find(suite, "vectorAdd"), 2, "a")};
  const auto golden = sweep_bytes(run::SweepRunner(1).run(jobs));
  run::SweepSnapshotOptions snap;
  snap.dir = tmp.str();
  snap.every_us = 300.0;
  run::SweepRunner(1).run(jobs, snap, nullptr);

  const std::string expected = "unsupported version " + std::to_string(version);
  std::size_t patched = 0;
  for (const auto& e : fs::directory_iterator(tmp.path)) {
    std::fstream f(e.path(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(sizeof(snapshot::kSnapshotMagic));
    const char old[4] = {static_cast<char>(version), 0, 0, 0};  // u32, little-endian
    f.write(old, sizeof(old));
    ++patched;
    try {
      f.close();
      snapshot::load_snapshot_file(e.path().string());
      ADD_FAILURE() << "version-" << int{version} << " file accepted: " << e.path();
    } catch (const snapshot::SnapshotError& err) {
      EXPECT_NE(std::string(err.what()).find(expected), std::string::npos) << err.what();
    }
  }
  ASSERT_GT(patched, 0u);

  run::SweepResumeInfo info;
  const run::SweepResult fresh = run::SweepRunner(2).run(jobs, snap, &info);
  EXPECT_TRUE(info.resumed_from.empty());
  EXPECT_EQ(info.jobs_resumed, 0u);
  EXPECT_EQ(info.rejected.size(), patched);
  EXPECT_EQ(sweep_bytes(fresh), golden);
}

TEST(SnapshotSweep, VersionFourCheckpointIsRejected) {
  // Version-4 launch-cache payloads key entries on raw pointer bits and
  // carry no fill-time arguments; a resume must refuse them, not misparse.
  expect_checkpoints_of_version_rejected(4);
}

TEST(SnapshotSweep, VersionFiveCheckpointIsRejected) {
  // Version-5 launch-cache entries carry a 64-bit input hash instead of
  // their pre-image, which exact validation needs; a resume must refuse
  // them, not misparse.
  expect_checkpoints_of_version_rejected(5);
}

TEST(SnapshotSweep, VersionSixCheckpointIsRejected) {
  // Version-6 fault-stats records carry an `engine_hangs` field that
  // version 7 dropped; a resume must refuse them, not misparse.
  expect_checkpoints_of_version_rejected(6);
}

TEST(SnapshotSweep, VersionSevenCheckpointIsRejected) {
  // Version-7 sweep checkpoints end in a launch-cache export and its stat
  // deltas, which version 8 dropped; a resume must refuse them, not
  // misparse.
  expect_checkpoints_of_version_rejected(7);
}

TEST(SnapshotSweep, CheckpointForADifferentSweepIsRejected) {
  const TempDir tmp("reject");
  const auto suite = workloads::make_app_suite();
  std::vector<run::SweepJob> jobs = resume_jobs(suite);

  run::SweepSnapshotOptions snap;
  snap.dir = tmp.str();
  snap.every_us = 300.0;
  run::SweepRunner(2).run(jobs, snap, nullptr);

  // Same directory, different job list: the fingerprint mismatch must reject
  // the checkpoint and run everything from scratch.
  jobs[0].config.dispatch.coalesce = false;
  const run::SweepResult fresh_baseline = run::SweepRunner(2).run(jobs);
  run::SweepResumeInfo info;
  const run::SweepResult fresh = run::SweepRunner(2).run(jobs, snap, &info);
  EXPECT_TRUE(info.resumed_from.empty());
  EXPECT_EQ(info.jobs_resumed, 0u);
  EXPECT_FALSE(info.rejected.empty());
  EXPECT_EQ(sweep_bytes(fresh), sweep_bytes(fresh_baseline));
}

}  // namespace
}  // namespace sigvp
