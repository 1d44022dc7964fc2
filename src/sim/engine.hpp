#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace sigvp {

/// A non-preemptive FIFO execution resource on the discrete-event queue.
///
/// The GPU device model instantiates two of these — the Copy Engine and the
/// Compute Engine — which is exactly the dual-engine structure the paper's
/// Kernel Interleaving optimization exploits (Fig. 3): jobs on different
/// engines overlap in time, jobs on the same engine serialize.
class Engine {
 public:
  Engine(EventQueue& queue, std::string name);

  /// Enqueues a job of the given duration. The job starts when the engine is
  /// free and all previously submitted jobs finished; `on_done` fires at the
  /// job's completion time with that timestamp as argument.
  void submit(SimTime duration, std::function<void(SimTime)> on_done);

  /// Earliest time a newly submitted job could start.
  SimTime free_at() const { return free_at_; }

  /// Cumulative busy time across all completed-or-scheduled jobs.
  SimTime busy_time() const { return busy_time_; }

  std::uint64_t jobs_submitted() const { return jobs_submitted_; }
  const std::string& name() const { return name_; }

 private:
  EventQueue& queue_;
  std::string name_;
  SimTime free_at_ = 0.0;
  SimTime busy_time_ = 0.0;
  std::uint64_t jobs_submitted_ = 0;
};

}  // namespace sigvp
