#ifndef FASTPPR_STORE_CHECKPOINT_H_
#define FASTPPR_STORE_CHECKPOINT_H_

// Atomic checkpoint files for the durability layer (DESIGN.md §8).
//
// A checkpoint is one framed file holding the engine's complete state —
// the DurableManifest followed by the flat SoA arena dump produced by
// the SaveTo chain (ShardedEngine -> SocialStore/AdjacencySlab -> per
// shard engine -> walk-store slab pools). It is written to `<path>.tmp`,
// fsync'd, atomically renamed over `path`, and the parent directory
// fsync'd — so the file named `path` is always a COMPLETE checkpoint:
// old or new, never torn. Torn-tail tolerance therefore belongs to the
// WAL alone; here every deviation (short file, bad magic, length
// mismatch, checksum mismatch) is loud Corruption.
//
// Layout: u64 magic | u32 version | u64 body_len | u32 body_crc | body.
// body_len must equal the file size minus the 24-byte header exactly,
// so a flipped bit in the length field is caught even though it is not
// under the body CRC.

#include <cstdint>
#include <string>
#include <vector>

#include "fastppr/util/status.h"

namespace fastppr {

inline constexpr uint64_t kCheckpointMagic = 0x4641535443484B31ull;  // FASTCHK1
/// Bumped whenever a SaveTo column layout changes, so that a file in
/// another layout is refused as Corruption instead of misparsed.
inline constexpr uint32_t kCheckpointVersion = 2;

/// Canonical file names inside a durability directory.
inline constexpr const char* kCheckpointFileName = "checkpoint.fppr";
inline constexpr const char* kWalFileName = "wal.log";

/// Writes `magic | version | body_len | crc32c(body) | body` to `path`
/// via the tmp + fsync + atomic-rename + parent-fsync protocol. A crash
/// at ANY byte leaves `path` either the previous complete file or the
/// new complete file (a stale `<path>.tmp` may remain; readers ignore
/// it and the next write truncates it).
Status WriteFramedFile(const std::string& path, uint64_t magic,
                       const std::vector<uint8_t>& body);

/// Reads and validates a file written by WriteFramedFile. NotFound if
/// absent; Corruption on any frame or checksum violation.
Status ReadFramedFile(const std::string& path, uint64_t magic,
                      std::vector<uint8_t>* body);

}  // namespace fastppr

#endif  // FASTPPR_STORE_CHECKPOINT_H_
