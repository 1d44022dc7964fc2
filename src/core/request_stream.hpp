#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "cuda/driver.hpp"
#include "sim/event_queue.hpp"
#include "trace/metrics.hpp"
#include "workloads/spec.hpp"
#include "workloads/workload.hpp"

namespace sigvp {

namespace snapshot {
class Writer;
}

/// Open-loop request service for one VP: requests arrive at generator-
/// stamped sim times (independent of prior completions) and are served
/// FIFO — allocate the request's buffers, upload its inputs, chain its
/// pipeline-stage launches (or the single kernel), download its outputs,
/// free. Per-request latency = service completion - arrival, so queueing
/// delay behind a busy VP lands in the histogram exactly as an open-loop
/// load generator would measure it.
///
/// Every latency sample is sim-domain and the arrival schedule is part of
/// the input, so the histogram is a pure function of the instance — the
/// sweep determinism contract (bit-identical at any --workers) extends to
/// the latency percentiles.
class RequestStream : public std::enable_shared_from_this<RequestStream> {
 public:
  /// `requests` may be empty (every arrival runs workload/n/jitter) or have
  /// exactly one entry per arrival (mixed streams from a WorkloadSpec).
  RequestStream(EventQueue& queue, cuda::DeviceDriver& driver,
                const workloads::Workload& workload, std::uint64_t n, ExecMode mode,
                std::uint64_t jitter, std::vector<SimTime> arrivals,
                std::vector<workloads::Request> requests);

  RequestStream(const RequestStream&) = delete;
  RequestStream& operator=(const RequestStream&) = delete;

  /// Schedules every arrival; `on_done` fires when the last request's
  /// results have landed. Keeps itself alive until then.
  void start(std::function<void(SimTime)> on_done);

  /// Drops the keep-alive of a stream that will never finish (its owner is
  /// torn down mid-run); see AppRun::release.
  void release() { self_.reset(); }

  bool finished() const { return finished_; }
  SimTime finished_at() const { return finished_at_; }
  std::uint64_t kernels_launched() const { return kernels_launched_; }
  std::uint64_t requests_completed() const { return completed_; }

  /// Latency histogram over the canonical ladder (trace::latency_buckets_us).
  const trace::Histogram& latency() const { return latency_; }

  /// Serializes the stream's service state (pending/served cursors plus the
  /// full latency histogram) for fleet-capture digests.
  void capture_state(snapshot::Writer& w) const;

 private:
  struct Active;  // one in-service request's transient state

  void on_arrival(std::size_t index);
  void begin_next();
  void serve(std::size_t index);
  void finish_request(std::shared_ptr<Active> active, SimTime end);
  workloads::Request resolve(std::size_t index) const;

  EventQueue& queue_;
  cuda::DeviceDriver& driver_;
  const workloads::Workload& workload_;
  std::uint64_t n_;
  ExecMode mode_;
  std::uint64_t jitter_;
  std::vector<SimTime> arrivals_;
  std::vector<workloads::Request> requests_;

  std::deque<std::size_t> pending_;
  bool busy_ = false;
  std::size_t completed_ = 0;
  std::uint64_t kernels_launched_ = 0;
  trace::Histogram latency_{trace::latency_buckets_us()};
  bool finished_ = false;
  SimTime finished_at_ = 0.0;
  std::function<void(SimTime)> on_done_;
  std::shared_ptr<RequestStream> self_;  // keep-alive during the run
};

}  // namespace sigvp
