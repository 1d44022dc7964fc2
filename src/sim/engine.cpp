#include "sim/engine.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"
#include "util/log.hpp"

namespace sigvp {

Engine::Engine(EventQueue& queue, std::string name) : queue_(queue), name_(std::move(name)) {}

void Engine::submit(SimTime duration, std::function<void(SimTime)> on_done) {
  SIGVP_REQUIRE(duration >= 0.0, "job duration must be non-negative");
  const SimTime start = std::max(queue_.now(), free_at_);
  const SimTime end = start + duration;
  free_at_ = end;
  busy_time_ += duration;
  ++jobs_submitted_;
  SIGVP_TRACE("engine") << name_ << " job start=" << start << "us end=" << end << "us";
  if (on_done) {
    queue_.schedule_at(end, [end, cb = std::move(on_done)]() { cb(end); });
  }
}

}  // namespace sigvp
