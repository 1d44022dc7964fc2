#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "snapshot/serial.hpp"
#include "util/check.hpp"

namespace sigvp {

void EventQueue::schedule_at(SimTime t, Callback cb) {
  // sizeof(Event) feeds resident_bytes() (heap capacity times Event) and so
  // fleet.resident_bytes, which the perfbench golden digests pin (value for
  // 64-bit libstdc++).
  static_assert(sizeof(Event) == 48);
  SIGVP_REQUIRE(t >= now_, "cannot schedule an event in the simulated past");
  SIGVP_REQUIRE(static_cast<bool>(cb), "event callback must be callable");
  heap_.push_back(Event{t, next_seq_++, std::move(cb)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::schedule_after(SimTime dt, Callback cb) {
  SIGVP_REQUIRE(dt >= 0.0, "event delay must be non-negative");
  schedule_at(now_ + dt, std::move(cb));
}

SimTime EventQueue::next_event_time() const {
  SIGVP_REQUIRE(!heap_.empty(), "next_event_time() on an empty event queue");
  return heap_.front().time;
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  now_ = ev.time;
  ++processed_;
  ev.fn();
  return true;
}

void EventQueue::run() {
  while (step()) {
  }
}

void EventQueue::run_until(SimTime t) {
  SIGVP_REQUIRE(t >= now_, "cannot run the queue backwards");
  while (!heap_.empty() && heap_.front().time <= t) step();
  now_ = t;
}

void EventQueue::capture_state(snapshot::Writer& w) const {
  w.f64(now_);
  w.u64(next_seq_);
  w.u64(processed_);
  w.u64(heap_.size());
}

}  // namespace sigvp
