#pragma once

#include <cstdint>

#include "cuda/driver.hpp"
#include "sim/event_queue.hpp"

namespace sigvp::cuda {

/// The GPU User Library: the CUDA-runtime-flavored API applications link
/// against (paper Fig. 2, guest side). It forwards every request to a
/// DeviceDriver backend and adds blocking convenience wrappers that advance
/// the discrete-event simulation until the request completes — the shape a
/// synchronous cudaMemcpy/cudaDeviceSynchronize has from the guest's view.
class Runtime {
 public:
  Runtime(EventQueue& queue, DeviceDriver& driver) : queue_(queue), driver_(driver) {}

  // --- memory ---------------------------------------------------------------
  std::uint64_t malloc(std::uint64_t bytes) { return driver_.malloc(bytes); }
  void free(std::uint64_t addr) { driver_.free(addr); }

  // --- blocking API (runs the event loop until completion) -------------------
  void memcpy_h2d(std::uint64_t dst, const void* src, std::uint64_t bytes);
  void memcpy_d2h(void* dst, std::uint64_t src, std::uint64_t bytes);
  /// Blocking launch; returns the kernel's execution stats.
  KernelExecStats launch(const LaunchSpec& spec);
  void synchronize();

 private:
  void run_until_done(const bool& done_flag);

  EventQueue& queue_;
  DeviceDriver& driver_;
};

}  // namespace sigvp::cuda
