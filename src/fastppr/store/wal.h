#ifndef FASTPPR_STORE_WAL_H_
#define FASTPPR_STORE_WAL_H_

// Epoch-aligned write-ahead log of ingested edge batches (DESIGN.md §8).
//
// One record per ApplyEvents window, appended and fsync'd BEFORE the
// window is applied to the engine (log-ahead). Because the engine's
// ingestion is deterministic — ApplyWindowPrefix applies a logged event
// span identically on replay, stopping at the same rejected event, and
// the window coupling repairs the applied prefix identically — a record
// of the raw event span is a complete description of the window;
// recovery replays the tail through the normal ApplyEvents path and
// lands bit-identical to the pre-crash engine.
//
// On-disk layout (all little-endian, same-architecture format):
//
//   header:  u64 magic | u32 version | u32 body_len | u32 head_crc
//            | u32 body_crc | body (DurableManifest)
//   record:  u32 len | u32 head_crc | u32 payload_crc | payload
//   payload: u64 window | u64 event_count | event_count * (u8 kind,
//            u32 src, u32 dst)
//
// head_crc covers exactly the preceding length field(s). This split is
// what makes the failure taxonomy exact:
//   * fewer bytes than a complete head remain  -> torn tail, clean stop
//   * head_crc mismatch                        -> Corruption (a flipped
//     bit in a length can otherwise masquerade as truncation)
//   * len exceeds the remaining bytes          -> torn tail, clean stop
//     (len itself is proven good by head_crc)
//   * payload/body crc mismatch                -> Corruption
// So EVERY single-bit flip in a complete file is loud, while a crash
// mid-append yields exactly the durable record prefix.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fastppr/graph/edge_stream.h"
#include "fastppr/util/file_io.h"
#include "fastppr/util/status.h"

namespace fastppr {

inline constexpr uint64_t kWalMagic = 0x4641535457414C31ull;  // "FASTWAL1"
inline constexpr uint32_t kWalVersion = 1;

/// Identity + resume point of a durable engine, stored in both the WAL
/// header and the checkpoint so each file is self-describing and the
/// pair is cross-checkable. Serialized field by field (never as one
/// struct: padding bytes would leak indeterminate memory into the CRC).
struct DurableManifest {
  uint64_t num_nodes = 0;
  uint64_t walks_per_node = 0;
  double epsilon = 0.0;
  uint64_t seed = 0;
  uint8_t update_policy = 0;
  /// Engine::kPersistTag — refuses to rehydrate PageRank state into a
  /// SALSA engine or vice versa.
  uint8_t engine_tag = 0;
  uint32_t num_shards = 0;
  /// Windows already applied when this file was created: a checkpoint
  /// captures state AFTER window next_window - 1; a WAL holds records
  /// for windows >= its header's next_window.
  uint64_t next_window = 0;

  /// True iff the two manifests describe the same engine (next_window
  /// excluded: WAL and checkpoint legitimately disagree on it between
  /// rotations).
  bool SameEngine(const DurableManifest& other) const;

  template <typename Sink>
  void SaveTo(Sink* w) const {
    w->Pod(num_nodes);
    w->Pod(walks_per_node);
    w->Pod(epsilon);
    w->Pod(seed);
    w->Pod(update_policy);
    w->Pod(engine_tag);
    w->Pod(num_shards);
    w->Pod(next_window);
  }
  template <typename Src>
  bool LoadFrom(Src* r) {
    return r->Pod(&num_nodes) && r->Pod(&walks_per_node) &&
           r->Pod(&epsilon) && r->Pod(&seed) && r->Pod(&update_policy) &&
           r->Pod(&engine_tag) && r->Pod(&num_shards) &&
           r->Pod(&next_window);
  }
};

/// One replayable ingestion window.
struct WalRecord {
  uint64_t window = 0;
  std::vector<EdgeEvent> events;
};

/// Append side. Creating a writer truncates `path` and writes + fsyncs
/// the header, so a WAL file is either absent, torn (shorter than its
/// header — a crash inside Create; recovery treats it as empty), or
/// self-describing.
///
/// Fail-stop: the first failed append or sync poisons the writer. A
/// failed append may leave a torn record prefix, and a record appended
/// after it would turn that tear into mid-log corruption, so every later
/// AppendBatch/Sync returns the first error without writing. A failed
/// sync first cuts the log back to its length at the last good sync and
/// syncs the cut: the caller refuses the window, so its record must not
/// be replayed either (if the cut fails too, the process stops). Only a
/// fresh writer (Create, i.e. a checkpoint's log rotation) appends
/// again.
class WalWriter {
 public:
  WalWriter() = default;

  static Status Create(const std::string& path,
                       const DurableManifest& manifest, WalWriter* out);

  bool is_open() const { return file_.is_open(); }
  uint64_t bytes_written() const { return file_.bytes_written(); }

  /// Appends one window record (buffered by the OS; not yet durable).
  Status AppendBatch(uint64_t window, std::span<const EdgeEvent> events);

  /// Makes every appended record durable (the phase-boundary fsync). On
  /// failure the records appended since the last good sync are cut
  /// back out of the log.
  Status Sync();

  Status Close();

 private:
  /// Keeps the first error; returns `s`.
  Status Poison(Status s);

  WritableFile file_;
  std::vector<uint8_t> scratch_;
  uint64_t synced_bytes_ = 0;  ///< log length at the last good sync
  Status status_;  ///< the first failed append or sync (sticky)
};

/// Parses a WAL file. Returns OK with the durable record prefix —
/// a torn tail (crash mid-append) is silently trimmed — or NotFound /
/// Corruption (any bit flip in the complete portion, wrong magic,
/// unsupported version). `records` is ordered as appended.
Status ReadWal(const std::string& path, DurableManifest* manifest,
               std::vector<WalRecord>* records);

}  // namespace fastppr

#endif  // FASTPPR_STORE_WAL_H_
