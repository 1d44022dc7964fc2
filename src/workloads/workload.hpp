#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cuda/launch_spec.hpp"
#include "gpu/prob_cache.hpp"
#include "interp/launch.hpp"
#include "interp/profile.hpp"
#include "ir/builder.hpp"
#include "ir/program.hpp"

namespace sigvp::workloads {

/// Role and size of one device buffer an app allocates for its kernel.
struct BufferSpec {
  std::uint64_t bytes = 0;
  bool is_input = false;   // host→device before launching
  bool is_output = false;  // device→host after launching
};

/// How an application behaves around its kernels — the knobs that explain
/// the per-app speedup differences in the paper's Fig. 11.
struct AppTraits {
  /// Fraction of ΣVP-accelerated app time spent in non-CUDA work (file I/O,
  /// OpenGL) that no GPU forwarding can accelerate; expressed as guest
  /// instructions per iteration.
  double noncuda_guest_instrs = 0.0;

  /// Kernel launches per iteration (mergeSort-style apps launch a cascade
  /// of small steps per iteration).
  std::uint32_t launches_per_iter = 1;

  /// Bytes streamed host↔device per iteration (0 = device-resident app
  /// that copies only at setup/teardown).
  std::uint64_t iter_h2d_bytes = 0;
  std::uint64_t iter_d2h_bytes = 0;

  /// Iterations of the app's main loop for the Fig. 11 scenario.
  std::uint32_t iterations = 20;

  /// Whether the kernel's memory layout admits Kernel Coalescing.
  bool coalescable = false;
};

/// One kernel of an app-shaped multi-kernel pipeline. Stage arguments are
/// jitter-aware: `jitter` is a per-VP seed (0 = canonical scalars) that
/// perturbs the stage's scalar parameters, producing the *almost-identical*
/// request regime — same kernel structure across VPs, slightly different
/// scalar args — that the re-scheduler's coalescing has to discriminate.
struct PipelineStage {
  std::string name;
  KernelIR kernel;
  std::function<LaunchDims(std::uint64_t n)> dims;
  /// Builds the stage's argument block given the device addresses of the
  /// *workload's* buffers (all of them, in `Workload::buffers` order).
  std::function<KernelArgs(const std::vector<std::uint64_t>& addrs, std::uint64_t n,
                           std::uint64_t jitter)>
      args;
  std::function<DynamicProfile(std::uint64_t n)> profile;
  std::function<MemoryBehavior(std::uint64_t n)> behavior;
  /// Coalescing descriptor; null (or !eligible) for stages whose memory
  /// access pattern crosses per-VP chunk seams (gathers, stencils).
  std::function<cuda::CoalesceInfo(std::uint64_t n)> coalesce;
};

/// One CUDA-SDK-like application: a kernel in the IR plus everything the
/// framework needs to size, launch, price, and validate it.
///
/// Per-size functions take `n`, the workload's element count (app-specific
/// meaning: vector length, matrix dimension, pixel count, body count, ...).
struct Workload {
  std::string app;            // CUDA SDK sample this stands in for
  KernelIR kernel;

  /// Problem sizes: the paper-scale default, a small functional-test size,
  /// and a mid size for the Fig. 12/13 estimation experiments (large enough
  /// that per-block overheads stop dominating, small enough to interpret).
  std::uint64_t default_n = 1 << 20;
  std::uint64_t test_n = 1 << 10;
  std::uint64_t estimate_n = 0;  // 0 = use test_n

  /// True when the analytic profile is exact (data-independent control
  /// flow); false for kernels like Mandelbrot whose λ depends on the data,
  /// where the analytic profile is the expectation.
  bool exact_profile = true;

  std::function<LaunchDims(std::uint64_t n)> dims;
  std::function<std::vector<BufferSpec>(std::uint64_t n)> buffers;
  /// Builds the argument block given device addresses for `buffers(n)`,
  /// in order.
  std::function<KernelArgs(const std::vector<std::uint64_t>& addrs, std::uint64_t n)> args;
  /// Analytic per-block λ profile for a launch of size n (paper Eq. 1).
  std::function<DynamicProfile(std::uint64_t n)> profile;
  /// Locality summary for the probabilistic cache model.
  std::function<MemoryBehavior(std::uint64_t n)> behavior;
  /// Coalescing descriptor (only when traits.coalescable).
  std::function<cuda::CoalesceInfo(std::uint64_t n)> coalesce;

  /// Fills host input buffers with deterministic values for functional runs
  /// and returns the expected outputs. in/out vectors are sized per
  /// buffers(n). Null for workloads validated by dedicated tests only.
  std::function<void(std::uint64_t n, std::vector<std::vector<std::uint8_t>>& host_bufs)>
      fill_inputs;

  /// Non-empty for app-shaped pipelines: each iteration launches the stages
  /// in order (kernel chaining), sharing the buffer set of `buffers(n)`.
  /// `traits.launches_per_iter` must be a multiple of `stages.size()`.
  /// The single-kernel fields above then describe the first stage, so code
  /// unaware of pipelines still sees a valid Workload.
  std::vector<PipelineStage> stages;

  AppTraits traits;
};

/// The launch of stage `stage % stages.size()` of a pipeline workload
/// (kernel chaining), or of its single kernel when it has no stages, at
/// size `n` over the device buffers `addrs`. Analytic launches carry the
/// analytic profile and memory behaviour; the coalescing descriptor is
/// attached only when `coalescable`.
cuda::LaunchSpec make_launch_spec(const Workload& w, std::size_t stage, std::uint64_t n,
                                  const std::vector<std::uint64_t>& addrs, std::uint64_t jitter,
                                  ExecMode mode, bool coalescable);

/// Deterministic input-fill helpers for `Workload::fill_inputs` — the same
/// bytes for a given (seed, size) on every backend and platform (seeded
/// xorshift from util/rng), which is what makes the cross-backend
/// differential tests byte-exact.
void fill_f32_pattern(std::vector<std::uint8_t>& buf, float lo, float hi, std::uint64_t seed);
void fill_f64_pattern(std::vector<std::uint8_t>& buf, double lo, double hi, std::uint64_t seed);
void fill_u8_pattern(std::vector<std::uint8_t>& buf, std::uint64_t seed);

/// Deterministic per-VP scalar perturbation for pipeline stages: 1.0 when
/// `jitter` is 0 (the canonical, trivially-coalescible configuration),
/// otherwise a seeded uniform draw in [lo, hi]. Golden-model tests call this
/// with the same seed to reproduce the exact f32 scalar a stage used.
double jitter_scale(std::uint64_t jitter, double lo, double hi);

/// Neighbor `j` (0..degree-1) of vertex `v` in the seeded fixed-degree
/// synthetic graph the graphAnalytics pipeline runs over. Pure hash — the
/// golden models regenerate the CSR without reading device memory.
std::uint64_t graph_neighbor(std::uint64_t v, std::uint32_t j, std::uint64_t n);

/// Index of the block labeled `label`; throws if absent.
std::size_t block_index(const KernelIR& ir, const std::string& label);

/// Builds a DynamicProfile from per-label λ counts: σ = Σ λ_b·µ_b and the
/// global load/store byte totals implied by the IR's memory ops.
DynamicProfile profile_from_visits(
    const KernelIR& ir,
    const std::vector<std::pair<std::string, std::uint64_t>>& label_visits);

/// λ vector for the canonical guarded-elementwise scaffold (blocks "entry",
/// "body", "exit"): entry = all threads, body = active, exit = inactive.
DynamicProfile guarded_profile(const KernelIR& ir, const LaunchDims& dims, std::uint64_t active);

/// λ vector for the guarded scaffold with one inner loop of fixed trip
/// count `trips` per active thread (loop blocks labeled <loop>.head/.body/
/// .exit between "body" and the return).
DynamicProfile guarded_loop_profile(const KernelIR& ir, const LaunchDims& dims,
                                    std::uint64_t active, const std::string& loop,
                                    std::uint64_t trips);

/// One-dimensional launch of at least one block of `block` threads covering
/// `n` threads.
LaunchDims dims1d(std::uint64_t n, std::uint32_t block = 256);

/// Coalescing descriptor of a kernel whose buffers are indexed linearly by
/// the global thread index: `elems` elements, the listed buffer arguments,
/// the element-count argument at `size_arg`, merged launches in blocks of
/// `block`.
cuda::CoalesceInfo linear_coalesce(const std::string& key, std::uint64_t elems,
                                   std::vector<cuda::CoalesceInfo::BufferArg> buffers,
                                   std::uint32_t size_arg, std::uint32_t block = 256);

/// The canonical guard prologue: loads no parameters, computes
/// gid = ctaid.x·ntid.x + tid.x into `gid`, and branches to "exit" when
/// gid >= regs[n]. Opens the "body" block. The caller must already have
/// opened the "entry" block and loaded `n`.
void emit_guard(KernelBuilder& b, KernelBuilder::Reg gid, KernelBuilder::Reg n);

/// Closes the canonical scaffold: terminates "body" with ret and emits the
/// "exit" block.
void emit_guard_exit(KernelBuilder& b);

}  // namespace sigvp::workloads
