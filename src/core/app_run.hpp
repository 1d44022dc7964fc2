#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "cuda/driver.hpp"
#include "gpu/device.hpp"
#include "sim/event_queue.hpp"
#include "vp/processor.hpp"
#include "workloads/workload.hpp"

namespace sigvp {

/// Drives one application instance (a Workload with AppTraits) against a
/// DeviceDriver backend, in the style of the CUDA SDK samples:
///
///   allocate buffers → upload inputs →
///   repeat iterations:
///     non-CUDA guest work (file I/O, OpenGL) on the app's CPU context,
///     optional per-iteration upload,
///     `launches_per_iter` synchronous kernel invocations,
///     optional per-iteration download
///   → download outputs → free buffers.
///
/// Every GPU call is synchronous from the app's point of view (the next op
/// issues from the previous op's completion callback), which is exactly the
/// invocation style the paper's VP-control-based interleaving targets.
class AppRun : public std::enable_shared_from_this<AppRun> {
 public:
  using DonePtr = std::shared_ptr<AppRun>;

  /// `mode` picks functional interpretation or analytic pricing for every
  /// kernel launch. `traits_override` replaces the workload's defaults
  /// (used e.g. by the Table 1 bench to run the paper's exact loop).
  /// With `async_launches`, the kernels of one iteration are submitted
  /// back-to-back (stream-style asynchronous invocations, the requests the
  /// paper's Re-scheduler reorders per Fig. 4(a)) and the iteration syncs
  /// once at its end; otherwise every call is synchronous.
  /// With `functional_io` (functional mode only), host staging buffers are
  /// materialized so the setup/teardown copies move real bytes instead of
  /// being timing-only; `output_bytes()` then returns the downloaded results.
  /// `jitter` is the per-VP scalar-jitter seed forwarded to pipeline-stage
  /// argument builders (0 = canonical scalars); single-kernel workloads
  /// ignore it.
  AppRun(EventQueue& queue, cuda::DeviceDriver& driver, Processor& cpu,
         const workloads::Workload& workload, std::uint64_t n, ExecMode mode,
         const workloads::AppTraits* traits_override = nullptr, bool async_launches = false,
         bool functional_io = false, std::uint64_t jitter = 0);
  ~AppRun();

  AppRun(const AppRun&) = delete;
  AppRun& operator=(const AppRun&) = delete;

  /// Begins the app; `on_done` fires at the simulated completion time.
  /// The AppRun keeps itself alive until then.
  void start(std::function<void(SimTime)> on_done);

  /// Drops the keep-alive of a run that will never complete (its owner is
  /// torn down mid-run), so the closures still queued hold the last
  /// references and free the run when they are destroyed.
  void release() { self_.reset(); }

  SimTime finished_at() const { return finished_at_; }
  bool finished() const { return finished_; }
  std::uint64_t kernels_launched() const { return kernels_launched_; }

  /// Concatenated bytes of the output buffers downloaded at teardown.
  /// Empty unless the run was constructed with `functional_io`.
  std::vector<std::uint8_t> output_bytes() const;

 private:
  void setup();
  void begin_iteration();
  void do_iter_upload();
  void do_launch();
  void do_iter_download();
  void finish_iteration();
  void teardown();
  void complete(SimTime end);

  EventQueue& queue_;
  cuda::DeviceDriver& driver_;
  Processor& cpu_;
  const workloads::Workload& workload_;
  std::uint64_t n_;
  ExecMode mode_;
  workloads::AppTraits traits_;
  bool async_launches_;
  bool functional_io_;
  std::uint64_t jitter_;

  std::vector<workloads::BufferSpec> buffer_specs_;
  std::vector<std::uint64_t> buffer_addrs_;
  /// Host staging buffers, one per BufferSpec (functional_io only). Inputs
  /// are filled before setup's uploads; outputs receive teardown's
  /// downloads. Must outlive in-flight copies — jobs hold raw pointers.
  std::vector<std::vector<std::uint8_t>> host_bufs_;
  std::uint32_t iter_ = 0;
  std::uint32_t launch_in_iter_ = 0;
  std::uint64_t kernels_launched_ = 0;
  bool finished_ = false;
  SimTime finished_at_ = 0.0;
  std::function<void(SimTime)> on_done_;
  std::shared_ptr<AppRun> self_;  // keep-alive during the run
};

}  // namespace sigvp
