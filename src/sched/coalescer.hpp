#pragma once

#include <cstdint>
#include <vector>

#include "gpu/device.hpp"
#include "ipc/job.hpp"
#include "sim/event_queue.hpp"

namespace sigvp {

/// Kernel Coalescing (paper §3, Fig. 5/6): merges identical kernel requests
/// from different VPs into a single launch over one physically-contiguous
/// data set, then scatters the results back.
///
/// Mechanics on the device model:
///  1. allocate one arena per buffer argument (summed element counts);
///  2. gather each VP's input chunks into its arena slice (device-to-device
///     copies on the coalescer's service stream);
///  3. launch the kernel once with the arena base pointers, the summed
///     element count, and a grid covering all elements — the merged grid is
///     also better aligned to the device's wave size, which is the second
///     gain the paper reports (Eq. 9);
///  4. scatter each VP's output slice back to its own buffers and free the
///     arenas.
///
/// Functional launches execute the merged kernel for real, so coalescing is
/// validated end-to-end, not just timed.
class Coalescer {
 public:
  Coalescer(EventQueue& queue, GpuDevice& device, GpuDevice::StreamId service_stream)
      : queue_(queue), device_(device), stream_(service_stream) {}

  /// True when `jobs` (all kernel jobs with equal coalesce keys) can merge:
  /// at least two jobs, uniform exec mode, uniform buffer layout.
  static bool can_merge(const std::vector<Job>& jobs);

  /// Merges and executes the group. Each job's on_complete fires at the
  /// simulated time its scattered results are available, with the merged
  /// launch's stats.
  ///
  /// A non-empty `on_abort` (fault mode) switches the group to its
  /// fault-tolerant shape. The merged launch may then be aborted by an
  /// injected transient failure: no scatter is submitted, no member
  /// completion fires, and `on_abort` fires at the abort's end instead, so
  /// the group must be re-queued. And each member's output scatter is its
  /// own DMA carrying its completion, instead of one batched DMA, so a
  /// device reset mid-group kills only the members whose results had not
  /// yet landed (partial failure, not all-or-nothing).
  ///
  /// Returns the tracked op ids a reset could kill, for the caller's
  /// recovery: the aborted merged launch's alone, or each member's scatter
  /// in member order. Empty without `on_abort`.
  std::vector<std::uint64_t> execute(std::vector<Job> jobs,
                                     GpuDevice::LaunchFailCallback on_abort = {});

  std::uint64_t groups_executed() const { return groups_; }
  std::uint64_t jobs_merged() const { return jobs_merged_; }

 private:
  EventQueue& queue_;
  GpuDevice& device_;
  GpuDevice::StreamId stream_;
  std::uint64_t groups_ = 0;
  std::uint64_t jobs_merged_ = 0;
};

}  // namespace sigvp
