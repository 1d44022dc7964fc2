#pragma once

// Shared construction of the app-suite sweep (DESIGN.md §13): the exact job
// list is built here, once, so the `app_suite` bench and the kill–resume
// soak harness (`soak_recovery`) run byte-for-byte the same sweep — the
// soak's "resumed output equals uninterrupted golden" comparison is only
// meaningful if both binaries agree on every scenario parameter.

#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "run/sweep.hpp"
#include "run/traffic.hpp"
#include "workloads/spec.hpp"
#include "workloads/suite.hpp"
#include "workloads/workload.hpp"

namespace sigvp::appsuite {

/// Open-loop requests per VP. With the calibrated dispatch overhead the
/// offered load saturates the dispatcher, so the percentiles measure
/// multiplexing pressure (queueing delay), not just service time.
constexpr std::uint32_t kRequestsPerVp = 10;
constexpr double kMeanInterarrivalUs = 2000.0;
constexpr std::uint64_t kBenchN = 4096;  // multiple of 32 (mlInference)
constexpr std::uint64_t kTrafficSeed = 7;

inline run::traffic::TrafficConfig traffic_config(run::traffic::Shape shape) {
  run::traffic::TrafficConfig tc;
  tc.shape = shape;
  tc.mean_interarrival_us = kMeanInterarrivalUs;
  tc.seed = kTrafficSeed;
  return tc;
}

/// `scalar_jitter` arms per-VP parameter jitter (seed 1000+vp): kernels stay
/// structurally identical across VPs but their f32 scalars diverge.
inline run::SweepJob make_traffic_job(const workloads::Workload& w, std::size_t vps,
                                      run::traffic::Shape shape, bool coalesce_on,
                                      bool scalar_jitter, const std::string& name) {
  run::SweepJob job;
  job.name = name;
  job.group = w.app;
  job.config.backend = Backend::kSigmaVp;
  job.config.mode = ExecMode::kAnalytic;
  job.config.dispatch.interleave = true;
  job.config.dispatch.coalesce = coalesce_on;
  const run::traffic::TrafficConfig tc = traffic_config(shape);
  for (std::size_t vp = 0; vp < vps; ++vp) {
    AppInstance a;
    a.workload = &w;
    a.n = kBenchN;
    a.jitter = scalar_jitter ? 1000 + vp : 0;
    a.arrivals =
        run::traffic::arrival_times(tc, static_cast<std::uint32_t>(vp), kRequestsPerVp);
    job.apps.push_back(std::move(a));
  }
  return job;
}

/// Mixed-population job from a declarative WorkloadSpec: every VP draws its
/// own seeded request sequence over the three apps, with size and scalar
/// jitter, served under Poisson arrivals.
inline run::SweepJob make_mixed_job(const std::vector<workloads::Workload>& suite) {
  workloads::WorkloadSpec spec;
  spec.request_count = 12;
  spec.vp_count = 4;
  spec.mix = {{"graphAnalytics", 50}, {"mlInference", 25}, {"camPipeline", 25}};
  spec.base_n = 2048;
  spec.n_jitter_pct = 25;
  spec.scalar_jitter = true;
  spec.seed = 42;
  const auto streams = workloads::build_request_streams(spec, suite);

  run::SweepJob job;
  job.name = "mixed/poisson/vps4/coal";
  job.group = "mixed";
  job.config.backend = Backend::kSigmaVp;
  job.config.mode = ExecMode::kAnalytic;
  job.config.dispatch.interleave = true;
  job.config.dispatch.coalesce = true;
  const run::traffic::TrafficConfig tc = traffic_config(run::traffic::Shape::kPoisson);
  for (std::size_t vp = 0; vp < streams.size(); ++vp) {
    AppInstance a;
    a.workload = streams[vp].front().workload;
    a.n = spec.base_n;
    a.arrivals = run::traffic::arrival_times(tc, static_cast<std::uint32_t>(vp),
                                             spec.request_count);
    a.requests = streams[vp];
    job.apps.push_back(std::move(a));
  }
  return job;
}

/// The full app-suite job list over `suite` (made by workloads::make_app_suite
/// — the caller owns it and must keep it alive for the jobs' lifetime).
inline std::vector<run::SweepJob> build_app_suite_jobs(
    const std::vector<workloads::Workload>& suite) {
  using run::traffic::Shape;
  std::vector<run::SweepJob> jobs;
  for (const workloads::Workload& w : suite) {
    // graph/ml exercise the almost-identical regime (per-VP scalar jitter);
    // cam keeps canonical scalars so its eligible stages can merge.
    const bool jittered = w.app != "camPipeline";
    for (const Shape shape : {Shape::kPoisson, Shape::kBursty}) {
      for (const std::size_t vps : {4, 8}) {
        for (const bool coal : {false, true}) {
          const std::string name = std::string(w.app) + "/" +
                                   run::traffic::shape_name(shape) + "/vps" +
                                   std::to_string(vps) + (coal ? "/coal" : "/nocoal");
          jobs.push_back(make_traffic_job(w, vps, shape, coal, jittered, name));
        }
      }
    }
  }
  jobs.push_back(make_mixed_job(suite));
  return jobs;
}

}  // namespace sigvp::appsuite
