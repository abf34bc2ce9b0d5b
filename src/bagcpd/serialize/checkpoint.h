// Checkpoint containers built on the wire layer (serialize/wire.h): section
// tags for the three blob kinds, the engine-stream record that wraps a
// detector snapshot with its key and profile binding, non-instantiating
// inspection (tools/ckpt_inspect prints a checkpoint without ever building a
// detector), and the small file helpers the spill path and the recovery
// tooling share.
//
// Layouts (all inside the wire container of serialize/wire.h):
//
//  detector blob (BlobKind::kDetector) — written by
//  BagStreamDetector::ExportState:
//    SPEC     canonical DetectorSpec key-value string (the options wire form)
//    RING     u32 dim, u32 count, count x { u32 k, k*dim centers, k weights }
//    TABLE    u32 w, u8 primed, w*w log-EMD doubles in logical (p, q) order
//    COUNTERS u64 next_index
//    HISTORY  u32 n, n theta_up doubles (oldest first)
//    RNG      length-prefixed Rng::SerializeState string (seed, 312
//             MT19937-64 words, word position)
//
//  engine stream blob (BlobKind::kEngineStream) — one stream of an engine:
//    KEY      stream key string
//    PROFILE  canonical profile name string
//    DETECTOR nested detector blob (complete, own magic and checksum)
//
//  engine checkpoint (BlobKind::kEngineCheckpoint) — whole engine:
//    ENGINE_META u64 engine seed, u64 stream count
//    STREAM      one per stream, payload = nested engine stream blob;
//                streams appear shard-by-shard, keys sorted within a shard,
//                so the byte stream is deterministic for a given engine state

#ifndef BAGCPD_SERIALIZE_CHECKPOINT_H_
#define BAGCPD_SERIALIZE_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bagcpd/common/buffer_arena.h"
#include "bagcpd/common/result.h"
#include "bagcpd/common/status.h"
#include "bagcpd/serialize/wire.h"

namespace bagcpd {
namespace serialize {

// Section tags. Detector sections live in [1, 16), engine-stream sections in
// [16, 32), engine-checkpoint sections in [32, 48); readers skip unknown
// tags, so new sections can be added without a version bump.
inline constexpr std::uint32_t kSecSpec = 1;
inline constexpr std::uint32_t kSecRing = 2;
inline constexpr std::uint32_t kSecTable = 3;
inline constexpr std::uint32_t kSecCounters = 4;
inline constexpr std::uint32_t kSecHistory = 5;
inline constexpr std::uint32_t kSecRng = 6;
inline constexpr std::uint32_t kSecStreamKey = 16;
inline constexpr std::uint32_t kSecStreamProfile = 17;
inline constexpr std::uint32_t kSecStreamDetector = 18;
inline constexpr std::uint32_t kSecEngineMeta = 32;
inline constexpr std::uint32_t kSecEngineStream = 33;

/// \brief Wraps a detector snapshot with its stream identity into one
/// engine-stream blob (appended to `*out`).
void BuildStreamBlob(const std::string& key, const std::string& profile,
                     const std::string& detector_blob, std::string* out);

/// \brief The three sections of an engine-stream blob, as views into it.
struct StreamBlobParts {
  std::string_view key;
  std::string_view profile;
  std::string_view detector_blob;
};

/// \brief Validates (magic, version, checksum) and splits an engine-stream
/// blob. The views alias `blob`, which must outlive them.
Result<StreamBlobParts> ParseStreamBlob(std::string_view blob);

/// \brief Reads the canonical options-spec string out of a detector blob
/// without restoring anything else (validates the container first).
Result<std::string> PeekDetectorSpec(std::string_view blob);

// ---------------------------------------------------------------------------
// Inspection (tools/ckpt_inspect): summaries without detector construction.
// ---------------------------------------------------------------------------

/// \brief Summary of one detector blob.
struct DetectorBlobInfo {
  std::string spec;
  /// Signatures currently buffered / window capacity (tau + tau').
  std::size_t window_fill = 0;
  std::size_t window_capacity = 0;
  /// Bags pushed so far (the stream resumes at this index).
  std::uint64_t next_index = 0;
  std::size_t blob_bytes = 0;
};

/// \brief Summary of one engine-stream record.
struct StreamBlobInfo {
  std::string key;
  std::string profile;
  DetectorBlobInfo detector;
  std::size_t blob_bytes = 0;
};

/// \brief Summary of any checkpoint artifact (single blobs are reported as a
/// one-stream checkpoint with no engine metadata).
struct CheckpointInfo {
  std::uint32_t version = kFormatVersion;
  BlobKind kind = BlobKind::kDetector;
  /// Engine seed; only meaningful for kEngineCheckpoint.
  std::uint64_t engine_seed = 0;
  std::vector<StreamBlobInfo> streams;
};

Result<DetectorBlobInfo> InspectDetectorBlob(std::string_view blob);
Result<StreamBlobInfo> InspectStreamBlob(std::string_view blob);
/// \brief Accepts all three blob kinds (dispatches on the header).
Result<CheckpointInfo> InspectCheckpoint(std::string_view blob);

// ---------------------------------------------------------------------------
// File helpers (spill path, recovery tooling).
// ---------------------------------------------------------------------------

/// \brief Writes `data` to `path` (truncating), fsync-free: a torn write is
/// detected by the checksum on read, and a spill file is always recreatable
/// from live traffic.
Status WriteFileBytes(const std::string& path, std::string_view data);

/// \brief Writes `data` to `path` by renaming the existing file `reuse` to
/// `path` and overwriting it in place (shrunk to `data` when it was longer),
/// so no file is created or deleted. Falls back to deleting `reuse` and
/// calling WriteFileBytes when the rename fails; `reuse` is gone either way.
Status RewriteFileBytes(const std::string& reuse, const std::string& path,
                        std::string_view data);

/// \brief Reads all of `path` into `*storage`, a double buffer acquired from
/// `arena` (plain allocation when null) so the spill re-import hot path never
/// touches malloc once the arena is warm. Returns the byte count; view the
/// payload via FileBytesView. The caller releases `*storage` back to the
/// arena when done.
Result<std::size_t> ReadFileBytes(const std::string& path, BufferArena* arena,
                                  std::vector<double>* storage);

/// \brief The byte view over a ReadFileBytes result.
inline std::string_view FileBytesView(const std::vector<double>& storage,
                                      std::size_t bytes) {
  return std::string_view(reinterpret_cast<const char*>(storage.data()),
                          bytes);
}

}  // namespace serialize
}  // namespace bagcpd

#endif  // BAGCPD_SERIALIZE_CHECKPOINT_H_
