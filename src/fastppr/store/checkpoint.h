#ifndef FASTPPR_STORE_CHECKPOINT_H_
#define FASTPPR_STORE_CHECKPOINT_H_

// Atomic checkpoint files for the durability layer (DESIGN.md §8).
//
// A checkpoint is one framed file holding the engine's complete state —
// the DurableManifest followed by the flat SoA arena dump produced by
// the SaveTo chain (ShardedEngine -> DiGraph -> per shard engine ->
// walk-store slab pools). The chain streams into the
// file through a FramedFileSink: no copy of the body is ever built in
// memory. The body goes to `<path>.tmp` behind a 24-byte gap, the header
// is written into the gap last (its length and CRC are known only once
// the body is out), and the file is fsync'd, atomically renamed over
// `path`, and the parent directory fsync'd — so the file named `path` is
// always a COMPLETE checkpoint: old or new, never torn. Torn-tail
// tolerance therefore belongs to the WAL alone; here every deviation
// (short file, bad magic, length mismatch, checksum mismatch) is loud
// Corruption.
//
// Layout: u64 magic | u32 version | u64 body_len | u32 body_crc | body.
// body_len must equal the file size minus the 24-byte header exactly,
// so a flipped bit in the length field is caught even though it is not
// under the body CRC.

#include <concepts>
#include <cstdint>
#include <string>
#include <vector>

#include "fastppr/store/arena_io.h"
#include "fastppr/util/file_io.h"
#include "fastppr/util/status.h"

namespace fastppr {

inline constexpr uint64_t kCheckpointMagic = 0x4641535443484B31ull;  // FASTCHK1
/// Bumped whenever a SaveTo column layout changes, so that a file in
/// another layout is refused as Corruption instead of misparsed.
inline constexpr uint32_t kCheckpointVersion = 3;

/// Canonical file names inside a durability directory.
inline constexpr const char* kCheckpointFileName = "checkpoint.fppr";
inline constexpr const char* kWalFileName = "wal.log";

/// The body side of WriteFramedFile: the sink the SaveTo chain writes
/// into (ArenaWriter's Pod/Vec encoding, store/arena_io.h), streaming
/// into the tmp file. Every run of bytes extends the body's CRC32C and
/// goes to the file: small fields through a staging buffer of at most
/// 1 MiB, whole arena columns straight from their vectors. The first
/// write error sticks: later calls write nothing, and Commit returns
/// it. WriteFramedFile drives Open and Commit; callers use it.
class FramedFileSink : public ArenaSink<FramedFileSink> {
 public:
  FramedFileSink() = default;
  FramedFileSink(const FramedFileSink&) = delete;
  FramedFileSink& operator=(const FramedFileSink&) = delete;

  /// Opens `<path>.tmp` and leaves the header's 24 bytes for Commit.
  Status Open(const std::string& path);
  void Bytes(const void* data, std::size_t n);
  /// Flushes the staged bytes, writes the header at offset 0, fsyncs,
  /// closes and renames the tmp file over `path`.
  Status Commit(const std::string& path, uint64_t magic);

 private:
  void Flush();
  /// Checksums and appends one run of body bytes.
  void Emit(const uint8_t* p, std::size_t n);

  WritableFile file_;
  std::vector<uint8_t> staging_;
  uint64_t body_len_ = 0;
  uint32_t crc_ = 0;
  Status status_;
};

/// Writes `magic | version | body_len | crc32c(body) | body` to `path`
/// via the tmp + fsync + atomic-rename + parent-fsync protocol, where
/// the body is whatever `write_body(FramedFileSink*)` writes into the
/// sink. A crash at ANY byte leaves `path` either the previous complete
/// file or the new complete file (a stale `<path>.tmp` may remain;
/// readers ignore it and the next write truncates it). An error — the
/// sink's first, or the header's, fsync's, close's or rename's — is
/// returned and leaves `path` untouched.
template <typename WriteBody>
  requires std::invocable<WriteBody&, FramedFileSink*>
Status WriteFramedFile(const std::string& path, uint64_t magic,
                       WriteBody&& write_body) {
  FramedFileSink sink;
  FASTPPR_RETURN_IF_ERROR(sink.Open(path));
  write_body(&sink);
  return sink.Commit(path, magic);
}

/// A body already in memory, through the same writer.
Status WriteFramedFile(const std::string& path, uint64_t magic,
                       const std::vector<uint8_t>& body);

/// Reads and validates a file written by WriteFramedFile, reading the
/// body straight into `*body` (unspecified on error). NotFound if
/// absent; Corruption on any frame or checksum violation.
Status ReadFramedFile(const std::string& path, uint64_t magic,
                      std::vector<uint8_t>* body);

}  // namespace fastppr

#endif  // FASTPPR_STORE_CHECKPOINT_H_
