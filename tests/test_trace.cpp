// Tests of the observability subsystem (src/trace): histogram bucket
// semantics, registry merging, the disabled-by-default contract (BENCH JSON
// byte-identical with collection off), worker-count-independent metrics, flow
// id uniqueness across VPs, and that an emitted trace is well-formed JSON
// that round-trips through write().

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "run/json_writer.hpp"
#include "run/sweep.hpp"
#include "run/traffic.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "workloads/suite.hpp"

namespace sigvp {
namespace {

// --- minimal JSON validator ---------------------------------------------------
// Enough of RFC 8259 to prove the emitted documents parse: values, objects,
// arrays, strings with escapes, numbers, literals. No semantic checks.

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
                                s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// --- histogram semantics ------------------------------------------------------

TEST(Histogram, BucketEdgesAreInclusiveUpperBounds) {
  trace::Histogram h({1.0, 2.0, 5.0});
  ASSERT_EQ(h.counts.size(), 4u);  // 3 edges + overflow
  h.record(1.0);                   // exactly on an edge -> that bucket
  h.record(0.5);                   // below the first edge -> bucket 0
  h.record(1.5);
  h.record(2.0);
  h.record(5.0);
  h.record(5.0001);  // above the last edge -> overflow
  EXPECT_EQ(h.counts[0], 2u);
  EXPECT_EQ(h.counts[1], 2u);
  EXPECT_EQ(h.counts[2], 1u);
  EXPECT_EQ(h.counts[3], 1u);
  EXPECT_EQ(h.count, 6u);
  EXPECT_EQ(h.min, 0.5);
  EXPECT_EQ(h.max, 5.0001);
}

TEST(Histogram, QuantileReturnsBucketEdgeClampedToObservedMax) {
  trace::Histogram h({1.0, 2.0, 5.0});
  h.record(1.0);
  h.record(2.0);
  EXPECT_EQ(h.quantile(0.5), 1.0);  // rank 1 lands in bucket 0
  EXPECT_EQ(h.quantile(1.0), 2.0);  // rank 2 in bucket 1; edge == observed max
  trace::Histogram one({10.0});
  one.record(3.0);
  // A p99 of a single sample must not report the bucket edge (10) but the
  // observed max (3) — quantiles never exceed what was actually seen.
  EXPECT_EQ(one.quantile(0.99), 3.0);
}

TEST(Histogram, OverflowBucketReportsObservedMax) {
  trace::Histogram h({1.0, 2.0});
  h.record(100.0);
  EXPECT_EQ(h.counts[2], 1u);
  EXPECT_EQ(h.quantile(0.99), 100.0);
}

TEST(Histogram, EmptyQuantileIsZero) {
  trace::Histogram h({1.0});
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(Histogram, RejectsNonAscendingEdges) {
  EXPECT_THROW(trace::Histogram({2.0, 1.0}), ContractError);
  EXPECT_THROW(trace::Histogram({1.0, 1.0}), ContractError);
}

TEST(Histogram, MergeSumsBucketwiseAndRequiresIdenticalEdges) {
  trace::Histogram a({1.0, 2.0});
  trace::Histogram b({1.0, 2.0});
  a.record(0.5);
  b.record(1.5);
  b.record(9.0);
  a.merge(b);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.counts[0], 1u);
  EXPECT_EQ(a.counts[1], 1u);
  EXPECT_EQ(a.counts[2], 1u);
  EXPECT_EQ(a.min, 0.5);
  EXPECT_EQ(a.max, 9.0);
  EXPECT_EQ(a.sum, 11.0);
  trace::Histogram c({1.0, 3.0});
  c.record(0.1);
  EXPECT_THROW(a.merge(c), ContractError);
  // Merging an EMPTY histogram with different edges is a no-op, not an error
  // (scenarios that never touched a ladder merge cleanly).
  trace::Histogram empty({42.0});
  a.merge(empty);
  EXPECT_EQ(a.count, 3u);
}

TEST(Histogram, MergeIntoEmptyAdoptsOtherMinMaxExactly) {
  // The empty side's 0.0 min/max are sentinels, not samples: folding a
  // populated histogram into a fresh one must copy the observed extremes,
  // not min() them against the sentinel (min would wrongly stay 0.0).
  trace::Histogram into({1.0, 2.0});
  trace::Histogram from({1.0, 2.0});
  from.record(1.5);
  from.record(9.0);
  into.merge(from);
  EXPECT_EQ(into.count, 2u);
  EXPECT_EQ(into.min, 1.5);
  EXPECT_EQ(into.max, 9.0);
  EXPECT_EQ(into.sum, 10.5);
  EXPECT_EQ(into.counts[1], 1u);
  EXPECT_EQ(into.counts[2], 1u);
}

TEST(Histogram, MergeOfEmptyIsByteExactNoOp) {
  // A restored zero-traffic scenario merges an all-zero latency histogram
  // into the sweep fold; every field (including the min/max sentinels) must
  // come through untouched so the merged result — and the JSON schema
  // decision `count > 0` drives — is byte-identical to a run where the
  // empty histogram never existed.
  trace::Histogram a({1.0, 2.0});
  a.record(0.5);
  a.record(1.7);
  const trace::Histogram before = a;
  trace::Histogram empty_same({1.0, 2.0});
  a.merge(empty_same);
  EXPECT_EQ(a.count, before.count);
  EXPECT_EQ(a.counts, before.counts);
  EXPECT_EQ(a.sum, before.sum);
  EXPECT_EQ(a.min, before.min);
  EXPECT_EQ(a.max, before.max);

  trace::Histogram e1({5.0});
  trace::Histogram e2({5.0});
  e1.merge(e2);  // empty into empty: still empty, sentinels intact
  EXPECT_EQ(e1.count, 0u);
  EXPECT_EQ(e1.min, 0.0);
  EXPECT_EQ(e1.max, 0.0);
  EXPECT_EQ(e1.quantile(0.99), 0.0);
}

TEST(Histogram, CanonicalLaddersAreStrictlyAscending) {
  for (const auto* edges : {&trace::latency_buckets_us(), &trace::depth_buckets(),
                            &trace::group_size_buckets(), &trace::bytes_buckets()}) {
    ASSERT_FALSE(edges->empty());
    for (std::size_t i = 1; i < edges->size(); ++i) {
      EXPECT_LT((*edges)[i - 1], (*edges)[i]);
    }
  }
}

// --- registry merging ---------------------------------------------------------

TEST(Metrics, MergeAddsCountersMaxesGaugesSumsHistograms) {
  trace::Metrics a, b;
  a.counter("n").value = 3;
  b.counter("n").value = 4;
  a.gauge("g").record_max(2.0);
  b.gauge("g").record_max(7.0);
  a.histogram("h", {1.0, 2.0}).record(0.5);
  b.histogram("h", {1.0, 2.0}).record(1.5);
  a.merge(b);
  EXPECT_EQ(a.counter("n").value, 7u);
  EXPECT_EQ(a.gauge("g").value, 7.0);
  EXPECT_EQ(a.histogram("h", {1.0, 2.0}).count, 2u);
  // Merge order must not matter for the merged values (counters/gauges).
  trace::Metrics c, d;
  c.counter("n").value = 4;
  d.counter("n").value = 3;
  c.gauge("g").record_max(7.0);
  d.gauge("g").record_max(2.0);
  c.merge(d);
  EXPECT_EQ(c.counter("n").value, a.counter("n").value);
  EXPECT_EQ(c.gauge("g").value, a.gauge("g").value);
}

TEST(Metrics, ToJsonIsValidAndOmitsEmptySections) {
  trace::Metrics empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.to_json(""), "{}");
  trace::Metrics m;
  m.counter("a.count").value = 2;
  std::string j = m.to_json("");
  EXPECT_TRUE(JsonParser(j).valid()) << j;
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_EQ(j.find("\"gauges\""), std::string::npos);
  EXPECT_EQ(j.find("\"histograms\""), std::string::npos);
  m.histogram("h.lat", trace::latency_buckets_us()).record(3.0);
  m.gauge("g.max").record_max(1.5);
  j = m.to_json("  ");
  EXPECT_TRUE(JsonParser(j).valid()) << j;
}

// --- scenario-level behaviour -------------------------------------------------

std::vector<run::SweepJob> fleet_jobs(std::size_t vps) {
  static const auto suite = workloads::make_suite();
  const workloads::Workload& va = workloads::find(suite, "vectorAdd");
  const workloads::Workload& bs = workloads::find(suite, "BlackScholes");
  static workloads::AppTraits quick_va = [] {
    workloads::AppTraits t = workloads::find(workloads::make_suite(), "vectorAdd").traits;
    t.iterations = 2;
    return t;
  }();
  static workloads::AppTraits quick_bs = [] {
    workloads::AppTraits t = workloads::find(workloads::make_suite(), "BlackScholes").traits;
    t.iterations = 2;
    return t;
  }();
  std::vector<run::SweepJob> jobs;
  for (const char* variant : {"plain", "opt"}) {
    run::SweepJob job;
    job.name = std::string("va/") + variant;
    job.group = "vectorAdd";
    job.config.mode = ExecMode::kAnalytic;
    const AppInstance app{.workload = &va, .n = va.test_n, .traits = quick_va};
    for (std::size_t i = 0; i < vps; ++i) job.apps.push_back(app);
    if (std::string(variant) == "opt") {
      job.config.dispatch.interleave = true;
      job.config.dispatch.coalesce = true;
      job.config.async_launches = true;
    }
    jobs.push_back(job);
  }
  run::SweepJob job;
  job.name = "bs/plain";
  job.group = "BlackScholes";
  job.config.mode = ExecMode::kAnalytic;
  const AppInstance app{.workload = &bs, .n = bs.test_n, .traits = quick_bs};
  for (std::size_t i = 0; i < vps; ++i) job.apps.push_back(app);
  jobs.push_back(job);
  return jobs;
}

/// Scoped "collection forced on" so a test failure cannot leak the flag.
struct ForcedMetrics {
  ForcedMetrics() { trace::set_metrics_forced(true); }
  ~ForcedMetrics() { trace::set_metrics_forced(false); }
};

TEST(TraceScenario, DisabledCollectionKeepsBenchJsonByteIdentical) {
  ASSERT_EQ(trace::Tracer::active(), nullptr)
      << "SIGVP_TRACE must be unset when running the test suite";
  const auto jobs = fleet_jobs(3);

  run::SweepResult off = run::SweepRunner(2).run(jobs);
  EXPECT_EQ(off.metrics, nullptr) << "metrics must not be collected by default";

  run::SweepResult on = [&] {
    ForcedMetrics forced;
    return run::SweepRunner(2).run(jobs);
  }();
  ASSERT_NE(on.metrics, nullptr);
  EXPECT_FALSE(on.metrics->empty());
  const std::string with_metrics = run::sweep_to_json(on, "trace_test");
  EXPECT_NE(with_metrics.find("\"metrics\""), std::string::npos);
  EXPECT_TRUE(JsonParser(with_metrics).valid());

  // The only differences collection may introduce are the metrics block and
  // host wall-clock: normalize both and require byte identity.
  off.wall_ms = 0.0;
  on.wall_ms = 0.0;
  on.metrics = nullptr;
  EXPECT_EQ(run::sweep_to_json(off, "trace_test"), run::sweep_to_json(on, "trace_test"));
  EXPECT_EQ(run::sweep_to_json(off, "trace_test").find("\"metrics\""), std::string::npos);
}

TEST(TraceScenario, MetricsAreIdenticalForAnyWorkerCount) {
  ForcedMetrics forced;
  const auto jobs = fleet_jobs(4);
  std::string reference;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    const run::SweepResult sweep = run::SweepRunner(workers).run(jobs);
    ASSERT_NE(sweep.metrics, nullptr) << "workers=" << workers;
    const std::string json = sweep.metrics->to_json("");
    EXPECT_TRUE(JsonParser(json).valid());
    if (reference.empty()) {
      reference = json;
    } else {
      EXPECT_EQ(json, reference) << "metrics diverged at workers=" << workers;
    }
  }
  // Sanity: the sim-domain counters actually observed the scenarios.
  const run::SweepResult sweep = run::SweepRunner(1).run(jobs);
  EXPECT_GT(sweep.metrics->counters().at("ipc.requests").value, 0u);
  EXPECT_GT(sweep.metrics->counters().at("sched.jobs_dispatched").value, 0u);
  EXPECT_GT(sweep.metrics->histograms().at("ipc.job_latency_us").count, 0u);
}

// --- open-loop traffic latency metrics ---------------------------------------

/// A camPipeline fleet under seeded Poisson arrivals: the smallest scenario
/// that exercises the request-latency histogram end to end.
run::SweepJob traffic_job(std::size_t vps, std::uint32_t requests_per_vp) {
  static const auto apps = workloads::make_app_suite();
  const workloads::Workload& cam = workloads::find(apps, "camPipeline");
  run::SweepJob job;
  job.name = "cam/traffic";
  job.group = "camPipeline";
  job.config.backend = Backend::kSigmaVp;
  job.config.mode = ExecMode::kAnalytic;
  job.config.dispatch.interleave = true;
  run::traffic::TrafficConfig tc;
  tc.shape = run::traffic::Shape::kPoisson;
  tc.mean_interarrival_us = 1500.0;
  tc.seed = 5;
  for (std::size_t vp = 0; vp < vps; ++vp) {
    AppInstance a;
    a.workload = &cam;
    a.n = 2048;
    a.arrivals =
        run::traffic::arrival_times(tc, static_cast<std::uint32_t>(vp), requests_per_vp);
    job.apps.push_back(std::move(a));
  }
  return job;
}

TEST(TraceScenario, LatencyPercentilesAreIdenticalForAnyWorkerCount) {
  const std::vector<run::SweepJob> jobs = {traffic_job(4, 6)};
  std::string reference;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    run::SweepResult sweep = run::SweepRunner(workers).run(jobs);

    const ScenarioResult& r = sweep.jobs.front().result;
    EXPECT_EQ(r.requests_completed, 4u * 6u);
    EXPECT_EQ(r.latency.count, 4u * 6u);
    const double p50 = r.latency.quantile(0.50);
    const double p95 = r.latency.quantile(0.95);
    const double p99 = r.latency.quantile(0.99);
    EXPECT_GT(p50, 0.0);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_LE(p99, r.latency.max);

    // The whole JSON document — including the latency block — must be a pure
    // function of the job list; normalize the two host-dependent fields.
    sweep.workers = 1;
    sweep.wall_ms = 0.0;
    const std::string json = run::sweep_to_json(sweep, "trace_test");
    EXPECT_TRUE(JsonParser(json).valid());
    EXPECT_NE(json.find("\"latency\""), std::string::npos);
    EXPECT_NE(json.find("\"p99_us\""), std::string::npos);
    if (reference.empty()) {
      reference = json;
    } else {
      EXPECT_EQ(json, reference) << "latency JSON diverged at workers=" << workers;
    }
  }
}

TEST(TraceScenario, ZeroTrafficSweepEmitsNoLatencyBlock) {
  // Closed-loop jobs (no arrival streams) must not grow a latency block:
  // the schema only reports request latency where requests exist.
  const run::SweepResult sweep = run::SweepRunner(2).run(fleet_jobs(2));
  for (const run::SweepJobResult& j : sweep.jobs) {
    EXPECT_EQ(j.result.requests_completed, 0u);
    EXPECT_EQ(j.result.latency.count, 0u);
  }
  const std::string json = run::sweep_to_json(sweep, "trace_test");
  EXPECT_TRUE(JsonParser(json).valid());
  EXPECT_EQ(json.find("\"latency\""), std::string::npos);
  EXPECT_EQ(json.find("\"requests\""), std::string::npos);
}

/// Extracts every numeric value of `key` ("id":..., "pid":...) from events
/// whose "ph" field equals `ph`.
std::vector<std::string> field_of_events(const std::string& json, const std::string& ph,
                                         const std::string& key) {
  std::vector<std::string> out;
  const std::string ph_marker = "\"ph\":\"" + ph + "\"";
  std::size_t pos = 0;
  while ((pos = json.find(ph_marker, pos)) != std::string::npos) {
    const std::size_t line_end = json.find('\n', pos);
    const std::size_t line_start = json.rfind('\n', pos) + 1;
    const std::string line = json.substr(line_start, line_end - line_start);
    const std::string key_marker = "\"" + key + "\":";
    const std::size_t k = line.find(key_marker);
    if (k != std::string::npos) {
      std::size_t v = k + key_marker.size();
      std::size_t e = v;
      while (e < line.size() && line[e] != ',' && line[e] != '}') ++e;
      out.push_back(line.substr(v, e - v));
    }
    pos = line_end;
  }
  return out;
}

TEST(TraceScenario, FlowIdsAreUniqueAcrossVpsAndScenarios) {
  const std::string path = ::testing::TempDir() + "sigvp_trace_flow.json";
  trace::Tracer::enable(path);
  const auto jobs = fleet_jobs(3);
  run::SweepRunner(2).run(jobs);
  trace::Tracer* tracer = trace::Tracer::active();
  ASSERT_NE(tracer, nullptr);
  const std::string json = tracer->to_json();
  trace::Tracer::disable();
  std::remove(path.c_str());

  EXPECT_TRUE(JsonParser(json).valid());

  const auto begins = field_of_events(json, "s", "id");
  const auto ends = field_of_events(json, "f", "id");
  ASSERT_FALSE(begins.empty());
  const std::set<std::string> unique_begins(begins.begin(), begins.end());
  EXPECT_EQ(unique_begins.size(), begins.size())
      << "every job must open exactly one flow, even across VPs and scenarios";
  // Every flow that ends was begun (jobs still in flight at makespan end are
  // allowed to have no terminator, but not vice versa).
  for (const auto& id : ends) {
    EXPECT_TRUE(unique_begins.count(id)) << "flow_end without flow_begin, id=" << id;
  }
  // Flow begins span more than one pid (scenario) and more than one tid (VP).
  const auto pids = field_of_events(json, "s", "pid");
  const auto tids = field_of_events(json, "s", "tid");
  EXPECT_GT(std::set<std::string>(pids.begin(), pids.end()).size(), 1u);
  EXPECT_GT(std::set<std::string>(tids.begin(), tids.end()).size(), 1u);
}

TEST(TraceScenario, TraceDocumentHasPerVpTracksAndRoundTrips) {
  const std::string path = ::testing::TempDir() + "sigvp_trace_roundtrip.json";
  trace::Tracer::enable(path);
  const auto jobs = fleet_jobs(2);
  run::SweepRunner(1).run(jobs);
  trace::Tracer* tracer = trace::Tracer::active();
  ASSERT_NE(tracer, nullptr);
  ASSERT_GT(tracer->event_count(), 0u);
  const std::string json = tracer->to_json();
  EXPECT_TRUE(JsonParser(json).valid());

  // Named tracks: guest VPs, the dispatcher, the GPU engines, the transport.
  for (const char* track : {".guest", "sched.dispatcher", "gpu.compute", "gpu.copy-in",
                            "gpu.copy-out", "ipc.transport"}) {
    EXPECT_NE(json.find(track), std::string::npos) << track;
  }
  // The lifecycle stages of the tentpole: submit, queue, service, kernel.
  for (const char* name : {"submit:", "queue:", "service:", "\"cat\":\"gpu\""}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }

  // write() must emit exactly to_json() — the on-disk artifact IS the
  // in-memory document.
  ASSERT_TRUE(tracer->write());
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), json);
  trace::Tracer::disable();
  std::remove(path.c_str());
}

TEST(TraceScenario, WriteFailureReturnsFalse) {
  const std::string path = "/nonexistent-dir/sigvp-trace.json";
  trace::Tracer::enable(path);
  trace::Tracer* tracer = trace::Tracer::active();
  ASSERT_NE(tracer, nullptr);
  EXPECT_FALSE(tracer->write());
  trace::Tracer::disable();
}

TEST(TraceWriter, TryWriteJsonFileReportsUnwritablePath) {
  EXPECT_FALSE(run::try_write_json_file("{}\n", "/nonexistent-dir/out.json"));
  const std::string ok = ::testing::TempDir() + "sigvp_trace_try_write.json";
  EXPECT_TRUE(run::try_write_json_file("{}\n", ok));
  std::remove(ok.c_str());
}

}  // namespace
}  // namespace sigvp
