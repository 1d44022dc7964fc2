#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "snapshot/serial.hpp"

namespace sigvp::snapshot {

/// Snapshot file container (DESIGN.md §14):
///
///   magic "SVPSNAP1" | u32 version | u64 payload size | u64 FNV-1a-64
///   checksum of the payload | payload bytes
///
/// The header is fixed-width so a torn write is detectable before any
/// payload parsing: short file, wrong magic, unknown version, size
/// mismatch and checksum mismatch each throw SnapshotError with a
/// distinct message.
inline constexpr char kSnapshotMagic[8] = {'S', 'V', 'P', 'S', 'N', 'A', 'P', '1'};
/// Version 2: ScenarioResult carries the MultiGpuStats block and scenario
/// fingerprints cover host_gpus + placement, so version-1 checkpoints are
/// rejected instead of misparsed.
/// Version 3: functional fleet-capture digests fold device memory as the
/// page-sparse AddressSpace::content_digest instead of one hash over the
/// whole space, so version-2 checkpoints (whose recorded captures would no
/// longer match on replay) are rejected.
/// Version 4: single-domain scenarios run through the fleet executor, so
/// their captures are folded fleet captures (one contributor, fabric
/// counters included) and version-3 checkpoints are rejected up front.
/// Version 5: launch-cache entries carry their fill-time arguments and
/// pointer-parameter mask (relocatable keys), so version-4 cache payloads,
/// keyed on raw pointer bits, are rejected instead of misparsed.
/// Version 6: launch-cache entries carry their exact pre-image (a table of
/// distinct nonzero blocks, then per entry one block reference per block)
/// instead of a 64-bit input hash, so version-5 cache payloads are rejected.
/// Version 7: the FaultStats record drops `engine_hangs` and scenario
/// fingerprints drop the engine-hang and fault-latency settings (the
/// latencies are constants), so version-6 checkpoints are rejected.
inline constexpr std::uint32_t kSnapshotVersion = 7;

/// Writes `payload` wrapped in the container, via write-temp + fsync +
/// atomic rename — a crash at any instant leaves either the previous file
/// or the complete new one, never a torn hybrid. The kSnapshotWrite crash
/// point fires after the temp file is durable but before the rename, so
/// injected crashes exercise exactly the window the protocol protects.
/// Returns false on I/O failure (disk full, unwritable dir).
bool save_snapshot_file(const std::string& path, const std::vector<std::uint8_t>& payload);

/// Reads and validates a container file; returns the payload. Throws
/// SnapshotError on any corruption (missing file, truncation, bad magic,
/// unknown version, checksum mismatch).
std::vector<std::uint8_t> load_snapshot_file(const std::string& path);

/// Rotating checkpoint directory: publishes `checkpoint_<seq>.svps` files
/// with monotonically increasing sequence numbers and keeps the newest
/// `keep` of them. Recovery scans newest-first and falls back past any
/// file that fails validation, so one torn/corrupt checkpoint costs one
/// cadence of progress, not the run.
class CheckpointStore {
 public:
  explicit CheckpointStore(std::string dir, std::size_t keep = 3);

  /// Atomically publishes a new checkpoint and prunes old ones.
  /// Returns the published path, or empty on I/O failure.
  std::string publish(const std::vector<std::uint8_t>& payload);

  /// Newest checkpoint that validates. Files that fail are appended to
  /// `rejected` (newest first) so callers can report the fallback.
  /// Returns empty payload + empty path when no valid checkpoint exists.
  struct Latest {
    std::string path;
    std::vector<std::uint8_t> payload;
    std::vector<std::string> rejected;
  };
  Latest find_latest_valid() const;

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::size_t keep_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace sigvp::snapshot
