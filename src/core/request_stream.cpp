#include "core/request_stream.hpp"

#include <algorithm>
#include <utility>

#include "snapshot/serial.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace sigvp {

/// Transient state of the request currently in service: its resolved
/// (workload, n, jitter), the allocated device buffers, and the chain
/// cursor. Held by shared_ptr through the callback chain.
struct RequestStream::Active {
  std::size_t index = 0;
  workloads::Request req;
  std::vector<workloads::BufferSpec> specs;
  std::vector<std::uint64_t> addrs;
  std::size_t cursor = 0;  // buffer index (copies) or stage index (launches)
};

RequestStream::RequestStream(EventQueue& queue, cuda::DeviceDriver& driver,
                             const workloads::Workload& workload, std::uint64_t n,
                             ExecMode mode, std::uint64_t jitter,
                             std::vector<SimTime> arrivals,
                             std::vector<workloads::Request> requests)
    : queue_(queue),
      driver_(driver),
      workload_(workload),
      n_(n),
      mode_(mode),
      jitter_(jitter),
      arrivals_(std::move(arrivals)),
      requests_(std::move(requests)) {
  SIGVP_REQUIRE(!arrivals_.empty(), "request stream needs at least one arrival");
  SIGVP_REQUIRE(requests_.empty() || requests_.size() == arrivals_.size(),
                "per-request overrides must align with the arrival schedule");
  SIGVP_REQUIRE(std::is_sorted(arrivals_.begin(), arrivals_.end()),
                "arrival times must be ascending");
  SIGVP_REQUIRE(arrivals_.front() >= 0.0, "arrival times must be non-negative");
}

workloads::Request RequestStream::resolve(std::size_t index) const {
  if (!requests_.empty()) {
    const workloads::Request& r = requests_[index];
    SIGVP_REQUIRE(r.workload != nullptr && r.n > 0, "malformed stream request");
    return r;
  }
  return workloads::Request{&workload_, n_, jitter_};
}

void RequestStream::start(std::function<void(SimTime)> on_done) {
  SIGVP_REQUIRE(!self_, "RequestStream already started");
  on_done_ = std::move(on_done);
  self_ = shared_from_this();
  auto self = shared_from_this();
  for (std::size_t i = 0; i < arrivals_.size(); ++i) {
    queue_.schedule_at(arrivals_[i], [self, i] { self->on_arrival(i); });
  }
}

void RequestStream::on_arrival(std::size_t index) {
  pending_.push_back(index);
  if (!busy_) begin_next();
}

void RequestStream::begin_next() {
  if (pending_.empty()) return;
  busy_ = true;
  const std::size_t index = pending_.front();
  pending_.pop_front();
  serve(index);
}

void RequestStream::serve(std::size_t index) {
  auto active = std::make_shared<Active>();
  active->index = index;
  active->req = resolve(index);
  active->specs = active->req.workload->buffers(active->req.n);
  for (const auto& spec : active->specs) {
    active->addrs.push_back(driver_.malloc(spec.bytes));
  }

  auto self = shared_from_this();

  // Chain: upload inputs -> stage launches in order -> download outputs.
  // Copies are timing-only (no host payload): open-loop streams measure
  // service latency, functional data paths are covered by AppRun.
  struct Chain {
    std::shared_ptr<RequestStream> rs;
    std::shared_ptr<Active> active;

    void upload() {
      auto& a = *active;
      while (a.cursor < a.specs.size() && !a.specs[a.cursor].is_input) ++a.cursor;
      if (a.cursor >= a.specs.size()) {
        a.cursor = 0;
        launch();
        return;
      }
      const std::size_t i = a.cursor++;
      auto chain = *this;
      rs->driver_.memcpy_h2d(a.addrs[i], nullptr, a.specs[i].bytes,
                             [chain](SimTime) mutable { chain.upload(); });
    }

    void launch() {
      auto& a = *active;
      const std::size_t stage_count =
          std::max<std::size_t>(1, a.req.workload->stages.size());
      if (a.cursor >= stage_count) {
        a.cursor = 0;
        download();
        return;
      }
      const std::size_t stage = a.cursor++;
      ++rs->kernels_launched_;
      auto chain = *this;
      const workloads::Workload& w = *a.req.workload;
      rs->driver_.launch(workloads::make_launch_spec(w, stage, a.req.n, a.addrs, a.req.jitter,
                                                     rs->mode_, w.traits.coalescable),
                         [chain](SimTime, const KernelExecStats&) mutable { chain.launch(); });
    }

    void download() {
      auto& a = *active;
      while (a.cursor < a.specs.size() && !a.specs[a.cursor].is_output) ++a.cursor;
      if (a.cursor >= a.specs.size()) {
        // Inside the last op's completion event, so now() is that op's end.
        rs->finish_request(active, rs->queue_.now());
        return;
      }
      const std::size_t i = a.cursor++;
      auto chain = *this;
      rs->driver_.memcpy_d2h(nullptr, a.addrs[i], a.specs[i].bytes,
                             [chain](SimTime) mutable { chain.download(); });
    }
  };
  Chain{self, active}.upload();
}

void RequestStream::finish_request(std::shared_ptr<Active> active, SimTime end) {
  for (std::uint64_t addr : active->addrs) driver_.free(addr);
  latency_.record(end - arrivals_[active->index]);
  ++completed_;
  busy_ = false;
  if (completed_ == arrivals_.size()) {
    SIGVP_DEBUG("traffic") << workload_.app << " served " << completed_
                           << " requests, last at " << end / 1e6 << " s";
    finished_ = true;
    finished_at_ = end;
    auto done = std::move(on_done_);
    auto self = std::move(self_);  // release keep-alive after callback returns
    if (done) done(end);
    return;
  }
  begin_next();
}

void RequestStream::capture_state(snapshot::Writer& w) const {
  w.u64(pending_.size());
  for (std::size_t idx : pending_) w.u64(idx);
  w.boolean(busy_);
  w.u64(completed_);
  w.u64(kernels_launched_);
  w.boolean(finished_);
  w.f64(finished_at_);
  w.u64_vec(latency_.counts);
  w.u64(latency_.count);
  w.f64(latency_.sum);
  w.f64(latency_.min);
  w.f64(latency_.max);
}

}  // namespace sigvp
