// The benchmark's three workloads. Each stresses different layers, so a
// change to one layer moves one workload and leaves another unchanged
// (perfbench/README.md has the layer map):
//
//   paper_fig11       analytic, default 2 GiB device, one domain: device-
//                     memory construction and coalescing copies.
//   functional_fleet  functional with real data, one domain: the kernel
//                     interpreter and the launch cache (hits, misses and
//                     bypasses).
//   sharded_traffic   analytic open-loop traffic over 8 fleet domains:
//                     dispatcher, IPC, event queues and the horizon barrier.

#include <stdexcept>

#include "perfbench.hpp"
#include "run/traffic.hpp"
#include "workloads/spec.hpp"
#include "workloads/suite.hpp"

namespace sigvp::perfbench {
namespace {

constexpr std::size_t kFleetVps = 8;

/// Distinct per-VP scalar-jitter seeds derived from the workload seed
/// (never 0, which would select the canonical scalars).
std::uint64_t vp_jitter(std::uint64_t seed, std::size_t vp) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + vp + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) | 1ull;
}

void set_optimised(ScenarioConfig& cfg) {
  cfg.dispatch.interleave = true;
  cfg.dispatch.coalesce = true;
  cfg.dispatch.coalesce_eager_peers = kFleetVps - 1;
  cfg.async_launches = true;
}

// --- paper_fig11 --------------------------------------------------------------

/// Three SDK apps whose optimised run coalesces at paper size.
constexpr const char* kFig11Apps[] = {"simpleGL", "Mandelbrot", "stereoDisparity"};

void build_paper_fig11(Workload& w) {
  for (const char* app : kFig11Apps) {
    const workloads::Workload& wl = workloads::find(w.suite, app);
    for (const bool optimised : {false, true}) {
      Scenario s;
      s.name = std::string(app) + (optimised ? "/opt" : "/plain");
      s.config.mode = ExecMode::kAnalytic;  // default capacity: 2 GiB Quadro 4000
      if (optimised) set_optimised(s.config);
      s.apps = replicate(wl, wl.default_n, kFleetVps);
      s.identical_vps = true;
      w.scenarios.push_back(std::move(s));
    }
  }
}

// --- functional_fleet -----------------------------------------------------------

/// Declared device capacity: the largest scenario (recursiveGaussian) holds
/// 4 MiB of VP buffers, plus as much again in coalescing arenas; 16 MiB
/// leaves room while keeping the (still eager) zero-fill a small share.
constexpr std::uint64_t kFunctionalCapacity = 16ull << 20;

/// Per-app problem size: each scenario interprets for roughly 0.1-0.7 s on
/// this suite's reference host. nbody and smokeParticles rewrite their inputs
/// every iteration, so they miss the launch cache on every launch and need
/// the smallest sizes.
///
/// simpleGL is left out: its kernel derives mesh coordinates from the global
/// thread index, so a coalesced launch hands each VP a different slice of the
/// mesh, and ΣVP-optimised functional outputs differ between identical VPs
/// (and from kEmulationOnVp) — a simulator defect, not a benchmark choice.
/// paper_fig11 still runs simpleGL in analytic mode.
struct SizedApp {
  const char* app;
  std::uint64_t n;
};
constexpr SizedApp kFunctionalSizes[] = {
    {"vectorAdd", 16384},       {"BlackScholes", 8192},          {"smokeParticles", 512},
    {"mergeSort", 4096},        {"histogram", 4096},             {"segmentationTreeThrust", 16384},
    {"matrixMul", 64},          {"Mandelbrot", 2048},            {"MonteCarlo", 4096},
    {"nbody", 128},             {"convolutionSeparable", 16384}, {"recursiveGaussian", 256},
    {"stereoDisparity", 4096},  {"dct8x8", 8192},                {"reduction", 16384},
    {"SobelFilter", 16384},     {"VolumeFiltering", 8192},       {"bicubicTexture", 8192},
    {"marchingCubes", 16384},   {"graphAnalytics", 2048},        {"mlInference", 2048},
    {"camPipeline", 8192},
};

std::uint64_t functional_size(const std::string& app) {
  for (const SizedApp& s : kFunctionalSizes) {
    if (app == s.app) return s.n;
  }
  return 0;
}

ScenarioConfig functional_config() {
  ScenarioConfig cfg;
  cfg.mode = ExecMode::kFunctional;
  cfg.functional_io = true;
  cfg.gpu_mem_bytes = kFunctionalCapacity;
  set_optimised(cfg);
  return cfg;
}

void build_functional_fleet(Workload& w, std::uint64_t seed) {
  for (const workloads::Workload& wl : w.suite) {
    const std::uint64_t n = functional_size(wl.app);
    if (n == 0) continue;  // simpleGL, see kFunctionalSizes
    Scenario s;
    s.name = wl.app;
    s.config = functional_config();
    s.apps = replicate(wl, n, kFleetVps);
    s.identical_vps = true;
    w.scenarios.push_back(std::move(s));
  }
  for (const workloads::Workload& wl : w.app_suite) {
    Scenario s;
    s.name = wl.app + "/jitter";
    s.config = functional_config();
    s.apps = replicate(wl, functional_size(wl.app), kFleetVps);
    for (std::size_t vp = 0; vp < s.apps.size(); ++vp) s.apps[vp].jitter = vp_jitter(seed, vp);
    w.scenarios.push_back(std::move(s));
  }
}

// --- sharded_traffic ------------------------------------------------------------

constexpr std::size_t kTrafficVps = 128;
constexpr std::uint32_t kTrafficDomains = 8;
constexpr std::uint32_t kRequestsPerVp = 4;
constexpr double kMeanInterarrivalUs = 2000.0;
constexpr std::uint64_t kTrafficN = 4096;  // multiple of 32 (mlInference)
/// Declared per-domain device capacity: 16 mlInference VPs at kTrafficN
/// hold 9 MiB of buffers, which 8 MiB cannot.
constexpr std::uint64_t kTrafficCapacity = 16ull << 20;
// The fleet executor advances the 8 domains on one host thread (the default
// --shards 1). At 2 shards the per-run wall time on a 4-vCPU VM varied by
// 20-70% (interquartile, over seeds): each of the ~55k horizon barriers per
// pass waits on vCPU scheduling, which no bound can absorb. The domains still
// synchronise at every horizon; the probe run.barrier_round_us times the
// pooled barrier.

ScenarioConfig traffic_config(bool coalesce) {
  ScenarioConfig cfg;
  cfg.mode = ExecMode::kAnalytic;
  cfg.gpu_mem_bytes = kTrafficCapacity;
  cfg.fleet.domains = kTrafficDomains;
  cfg.dispatch.interleave = true;
  cfg.dispatch.coalesce = coalesce;
  return cfg;
}

void build_sharded_traffic(Workload& w, std::uint64_t seed) {
  using run::traffic::Shape;
  workloads::WorkloadSpec spec;
  spec.request_count = kRequestsPerVp;
  spec.vp_count = kTrafficVps;
  spec.mix = {{"graphAnalytics", 50}, {"mlInference", 25}, {"camPipeline", 25}};
  spec.base_n = kTrafficN / 2;
  spec.n_jitter_pct = 25;
  spec.scalar_jitter = true;
  spec.seed = seed;
  const auto streams = workloads::build_request_streams(spec, w.app_suite);

  for (const Shape shape : {Shape::kPoisson, Shape::kBursty}) {
    run::traffic::TrafficConfig tc;
    tc.shape = shape;
    tc.mean_interarrival_us = kMeanInterarrivalUs;
    tc.seed = seed;
    auto arrivals = [&tc](std::size_t vp) {
      return run::traffic::arrival_times(tc, static_cast<std::uint32_t>(vp), kRequestsPerVp);
    };
    for (const bool coalesce : {false, true}) {
      const std::string suffix = std::string("/") + run::traffic::shape_name(shape) +
                                 (coalesce ? "/coal" : "/nocoal");
      // graphAnalytics and mlInference run almost-identical requests (per-VP
      // scalar jitter); camPipeline keeps canonical scalars so its eligible
      // stages can merge.
      for (const workloads::Workload& wl : w.app_suite) {
        Scenario s;
        s.name = wl.app + suffix;
        s.config = traffic_config(coalesce);
        for (std::size_t vp = 0; vp < kTrafficVps; ++vp) {
          AppInstance a;
          a.workload = &wl;
          a.n = kTrafficN;
          a.jitter = wl.app == "camPipeline" ? 0 : vp_jitter(seed, vp);
          a.arrivals = arrivals(vp);
          s.apps.push_back(std::move(a));
        }
        w.scenarios.push_back(std::move(s));
      }
      Scenario s;
      s.name = "mixed" + suffix;
      s.config = traffic_config(coalesce);
      for (std::size_t vp = 0; vp < streams.size(); ++vp) {
        AppInstance a;
        a.workload = streams[vp].front().workload;
        a.n = spec.base_n;
        a.arrivals = arrivals(vp);
        a.requests = streams[vp];
        s.apps.push_back(std::move(a));
      }
      w.scenarios.push_back(std::move(s));
    }
  }
}

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = name;
  w->suite = workloads::make_suite();
  w->app_suite = workloads::make_app_suite();
  if (name == "paper_fig11") {
    build_paper_fig11(*w);
  } else if (name == "functional_fleet") {
    build_functional_fleet(*w, seed);
    w->seeded = true;
  } else if (name == "sharded_traffic") {
    build_sharded_traffic(*w, seed);
    w->seeded = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

}  // namespace sigvp::perfbench
