#pragma once

// Shared declarations of the ΣVP host-cost benchmark: the workload
// builders (workloads.cpp), the in-memory span log, and the per-layer
// probes (probes.cpp) that main.cpp drives.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "run/thread_pool.hpp"
#include "workloads/workload.hpp"

namespace sigvp::perfbench {

/// One scenario of a workload, plus what its checks need to know.
struct Scenario {
  std::string name;
  ScenarioConfig config;
  std::vector<AppInstance> apps;
  /// Every VP runs the same inputs, so functional outputs must be byte-equal.
  bool identical_vps = false;
};

/// A workload: the suites its scenarios point into (owned here, so the
/// `AppInstance::workload` pointers stay valid) and the scenario list.
struct Workload {
  std::string name;
  std::vector<workloads::Workload> suite;      // workloads::make_suite()
  std::vector<workloads::Workload> app_suite;  // workloads::make_app_suite()
  std::vector<Scenario> scenarios;
  /// False when no input depends on the seed, so golden.json applies to
  /// every seed.
  bool seeded = false;
};

/// Builds the named workload from `seed`; throws std::invalid_argument for
/// an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

/// In-memory span log. A span is [start, end) in host µs since the log was
/// created; `parent` is the index of the enclosing open span (-1 at the
/// root), `scenario` the scenario index it belongs to (-1 when none), and
/// `work` an optional amount (bytes, instructions, operations) that lets a
/// rate be derived from the span alone.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    int scenario = -1;
    double work = 0.0;
  };

  int open(std::string name, int scenario = -1);
  void close(int id, double work = 0.0);
  /// Names a span after the fact, when the call's outcome picks the name.
  void rename(int id, std::string name) {
    spans_.at(static_cast<std::size_t>(id)).name = std::move(name);
  }
  std::string to_json() const;

 private:
  double now_us() const;

  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Opens a span on construction and closes it on destruction; a null log
/// records nothing, so untraced runs pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int scenario = -1)
      : log_(log), id_(log ? log->open(std::move(name), scenario) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->close(id_, work_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_work(double work) { work_ = work; }

 private:
  SpanLog* log_;
  int id_;
  double work_ = 0.0;
};

/// Calls the layers' public functions directly on `w`'s inputs, one span per
/// call, under a parent span per layer. `worker` is the one-thread pool the
/// scenarios ran on.
void run_probes(const Workload& w, run::ThreadPool& worker, SpanLog& log);

/// Effective host parallelism: N threads each spinning a fixed amount of
/// work, against one thread doing the same, scaled to N (N = nproc).
double effective_cores();

}  // namespace sigvp::perfbench
