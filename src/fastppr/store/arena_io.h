#ifndef FASTPPR_STORE_ARENA_IO_H_
#define FASTPPR_STORE_ARENA_IO_H_

// Flat byte (de)serialization of engine state (see DESIGN.md §8).
//
// A checkpoint body is the engine's logical rows in their deterministic
// order — the graph's out-rows with their twins, every owned walk
// segment's node ids, every index row's (segment, position) entries —
// plus a handful of scalars (RNG states, counters, epoch). It never
// holds an arena: spare capacity, dead spans, free lists and offsets
// are the allocators' business, so the format and the bit-identity
// oracle do not change when the layout does. Every SaveTo is a template
// over its sink, which takes trivially-copyable values (Pod) and runs
// of them (Span) as raw little-endian bytes. ArenaWriter is the
// in-memory sink: it collects them into one byte vector, the body
// SerializeState() returns as the bit-identity oracle and the payload
// of a WAL record. A checkpoint never builds that vector: the same
// calls stream into the file through store/checkpoint.h's
// FramedFileSink. Both take the encoding from ArenaSink, so the file
// and the oracle cannot drift apart. ArenaReader replays a body with
// strict bounds checking and a sticky failure flag, so a truncated or
// garbage-length body surfaces as Status::Corruption — never a crash or
// a multi-gigabyte allocation.
//
// Values keep the host's byte order (same-architecture restore — the
// recovery use case). Integrity is guarded one level up: every WAL
// record and checkpoint body carries a CRC32C (store/wal.h,
// store/checkpoint.h), so by the time an ArenaReader parses bytes they
// are already checksum-verified. The loaders still check every id,
// length and pairing against what a writer could have produced, so a
// CRC-valid body that no writer made is Corruption too.
//
// Struct values serialized through Pod() must not contain padding bytes
// (padding is indeterminate memory: it would leak garbage into the CRC
// and break the bit-identical-recovery oracle); every persisted struct
// is padding-free by construction (static_asserted at its definition).

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "fastppr/util/status.h"

namespace fastppr {

/// The encoding every sink shares; `Sink` supplies
/// `Bytes(const void*, std::size_t)`, which takes the raw bytes in order.
template <typename Sink>
class ArenaSink {
 public:
  template <typename T>
  void Pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_cast<Sink*>(this)->Bytes(&value, sizeof(T));
  }

  /// The elements as raw bytes, no count: the reader knows it from
  /// what it read before.
  template <typename T>
  void Span(std::span<const T> run) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!run.empty()) {
      static_cast<Sink*>(this)->Bytes(run.data(), run.size_bytes());
    }
  }
};

class ArenaWriter : public ArenaSink<ArenaWriter> {
 public:
  void Bytes(const void* data, std::size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> TakeBuffer() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

class ArenaReader {
 public:
  ArenaReader(const uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ArenaReader(const std::vector<uint8_t>& body)
      : ArenaReader(body.data(), body.size()) {}

  template <typename T>
  bool Pod(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!Require(sizeof(T), "scalar")) return false;
    std::memcpy(value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  /// Reads `count` elements written by Span and appends them to `*v`.
  template <typename T>
  bool Append(uint64_t count, std::vector<T>* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    // Bound BEFORE allocating: a garbage count must not OOM the
    // recovery process.
    if (!ok_) return false;
    if (count > (size_ - pos_) / sizeof(T)) {
      return Fail("row length exceeds remaining bytes");
    }
    const std::size_t at = v->size();
    const std::size_t bytes = static_cast<std::size_t>(count) * sizeof(T);
    v->resize(at + static_cast<std::size_t>(count));
    if (bytes > 0) std::memcpy(v->data() + at, data_ + pos_, bytes);
    pos_ += bytes;
    return true;
  }

  /// Marks the reader failed (sticky) and returns false so callers can
  /// write `return reader->Fail("...")` in one line.
  bool Fail(const std::string& why) {
    ok_ = false;
    if (error_.empty()) error_ = why;
    return false;
  }

  bool ok() const { return ok_; }
  std::size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return ok_ && pos_ == size_; }

  /// Collapses the reader's outcome into a Status: Corruption with the
  /// first failure (or trailing-garbage) diagnosis, OK otherwise.
  Status ToStatus(const std::string& context) const {
    if (!ok_) return Status::Corruption(context + ": " + error_);
    if (pos_ != size_) {
      return Status::Corruption(context + ": trailing bytes after body");
    }
    return Status::OK();
  }

 private:
  bool Require(std::size_t n, const char* what) {
    if (size_ - pos_ < n) {
      return Fail(std::string("truncated ") + what);
    }
    return ok_;
  }

  const uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

}  // namespace fastppr

#endif  // FASTPPR_STORE_ARENA_IO_H_
