#include "core/app_run.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"
#include "util/log.hpp"

namespace sigvp {

AppRun::AppRun(EventQueue& queue, cuda::DeviceDriver& driver, Processor& cpu,
               const workloads::Workload& workload, std::uint64_t n, ExecMode mode,
               const workloads::AppTraits* traits_override, bool async_launches,
               bool functional_io, std::uint64_t jitter)
    : queue_(queue),
      driver_(driver),
      cpu_(cpu),
      workload_(workload),
      n_(n),
      mode_(mode),
      traits_(traits_override != nullptr ? *traits_override : workload.traits),
      async_launches_(async_launches),
      functional_io_(functional_io),
      jitter_(jitter) {
  SIGVP_REQUIRE(n_ > 0, "application size must be positive");
  SIGVP_REQUIRE(traits_.iterations > 0, "application must run at least one iteration");
  SIGVP_REQUIRE(!functional_io_ || mode_ == ExecMode::kFunctional,
                "functional_io requires functional execution mode");
  SIGVP_REQUIRE(workload_.stages.empty() ||
                    traits_.launches_per_iter % workload_.stages.size() == 0,
                "launches_per_iter must cover whole pipeline passes");
}

AppRun::~AppRun() = default;

void AppRun::start(std::function<void(SimTime)> on_done) {
  SIGVP_REQUIRE(!self_, "AppRun already started");
  on_done_ = std::move(on_done);
  self_ = shared_from_this();
  setup();
}

void AppRun::setup() {
  buffer_specs_ = workload_.buffers(n_);
  buffer_addrs_.clear();
  for (const auto& spec : buffer_specs_) {
    buffer_addrs_.push_back(driver_.malloc(spec.bytes));
  }
  if (functional_io_) {
    host_bufs_.clear();
    for (const auto& spec : buffer_specs_) {
      host_bufs_.emplace_back(spec.bytes, std::uint8_t{0});
    }
    if (workload_.fill_inputs) workload_.fill_inputs(n_, host_bufs_);
  }

  // Upload every input buffer sequentially (real payloads under
  // functional_io, timing-only otherwise), then run.
  struct Chain {
    std::shared_ptr<AppRun> run;
    std::size_t index = 0;
    void next() {
      while (index < run->buffer_specs_.size() && !run->buffer_specs_[index].is_input) {
        ++index;
      }
      if (index >= run->buffer_specs_.size()) {
        run->begin_iteration();
        return;
      }
      const std::size_t i = index++;
      auto chain = *this;
      const void* src = run->functional_io_ ? run->host_bufs_[i].data() : nullptr;
      run->driver_.memcpy_h2d(run->buffer_addrs_[i], src, run->buffer_specs_[i].bytes,
                              [chain](SimTime) mutable { chain.next(); });
    }
  };
  Chain{shared_from_this(), 0}.next();
}

void AppRun::begin_iteration() {
  if (iter_ >= traits_.iterations) {
    teardown();
    return;
  }
  launch_in_iter_ = 0;
  auto self = shared_from_this();
  if (traits_.noncuda_guest_instrs > 0) {
    cpu_.run_instrs(traits_.noncuda_guest_instrs, [self](SimTime) { self->do_iter_upload(); });
  } else {
    do_iter_upload();
  }
}

void AppRun::do_iter_upload() {
  auto self = shared_from_this();
  if (traits_.iter_h2d_bytes == 0) {
    do_launch();
    return;
  }
  // Stream fresh data into the first input buffer (clamped to its size).
  std::uint64_t addr = buffer_addrs_.empty() ? 0 : buffer_addrs_[0];
  std::uint64_t cap = buffer_specs_.empty() ? traits_.iter_h2d_bytes : buffer_specs_[0].bytes;
  driver_.memcpy_h2d(addr, nullptr, std::min<std::uint64_t>(traits_.iter_h2d_bytes, cap),
                     [self](SimTime) { self->do_launch(); });
}

void AppRun::do_launch() {
  auto self = shared_from_this();
  if (launch_in_iter_ >= traits_.launches_per_iter) {
    do_iter_download();
    return;
  }
  if (async_launches_ && traits_.launches_per_iter > 1) {
    // Asynchronous invocations: queue the whole cascade, sync once. Stage
    // order within a pass is preserved by the VP's in-order stream, so
    // pipeline data dependencies hold even under cross-VP reordering.
    const std::uint32_t start = launch_in_iter_;
    const std::uint32_t count = traits_.launches_per_iter - launch_in_iter_;
    launch_in_iter_ = traits_.launches_per_iter;
    kernels_launched_ += count;
    for (std::uint32_t i = 0; i < count; ++i) {
      driver_.launch(workloads::make_launch_spec(workload_, start + i, n_, buffer_addrs_, jitter_,
                                                 mode_, traits_.coalescable),
                     {});
    }
    driver_.synchronize([self](SimTime) { self->do_iter_download(); });
    return;
  }
  const std::uint32_t launch_index = launch_in_iter_;
  ++launch_in_iter_;
  ++kernels_launched_;
  driver_.launch(workloads::make_launch_spec(workload_, launch_index, n_, buffer_addrs_, jitter_,
                                             mode_, traits_.coalescable),
                 [self](SimTime, const KernelExecStats&) { self->do_launch(); });
}

void AppRun::do_iter_download() {
  auto self = shared_from_this();
  if (traits_.iter_d2h_bytes == 0) {
    finish_iteration();
    return;
  }
  // Read back from the first output buffer.
  std::uint64_t addr = 0;
  std::uint64_t cap = traits_.iter_d2h_bytes;
  for (std::size_t i = 0; i < buffer_specs_.size(); ++i) {
    if (buffer_specs_[i].is_output) {
      addr = buffer_addrs_[i];
      cap = buffer_specs_[i].bytes;
      break;
    }
  }
  driver_.memcpy_d2h(nullptr, addr, std::min<std::uint64_t>(traits_.iter_d2h_bytes, cap),
                     [self](SimTime) { self->finish_iteration(); });
}

void AppRun::finish_iteration() {
  ++iter_;
  begin_iteration();
}

void AppRun::teardown() {
  // Download outputs sequentially, then free and complete.
  struct Chain {
    std::shared_ptr<AppRun> run;
    std::size_t index = 0;
    void next(SimTime now) {
      while (index < run->buffer_specs_.size() && !run->buffer_specs_[index].is_output) {
        ++index;
      }
      if (index >= run->buffer_specs_.size()) {
        for (std::size_t i = 0; i < run->buffer_addrs_.size(); ++i) {
          run->driver_.free(run->buffer_addrs_[i]);
        }
        run->complete(now);
        return;
      }
      const std::size_t i = index++;
      auto chain = *this;
      void* dst = run->functional_io_ ? run->host_bufs_[i].data() : nullptr;
      run->driver_.memcpy_d2h(dst, run->buffer_addrs_[i], run->buffer_specs_[i].bytes,
                              [chain](SimTime end) mutable { chain.next(end); });
    }
  };
  Chain{shared_from_this(), 0}.next(queue_.now());
}

std::vector<std::uint8_t> AppRun::output_bytes() const {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i < buffer_specs_.size() && i < host_bufs_.size(); ++i) {
    if (!buffer_specs_[i].is_output) continue;
    out.insert(out.end(), host_bufs_[i].begin(), host_bufs_[i].end());
  }
  return out;
}

void AppRun::complete(SimTime end) {
  finished_ = true;
  finished_at_ = end;
  SIGVP_DEBUG("app") << workload_.app << " finished at " << end / 1e6 << " s";
  auto done = std::move(on_done_);
  auto self = std::move(self_);  // release keep-alive after callback returns
  if (done) done(end);
}

}  // namespace sigvp
