#ifndef FASTPPR_STORE_ARENA_IO_H_
#define FASTPPR_STORE_ARENA_IO_H_

// Flat byte (de)serialization of the SoA arenas (see DESIGN.md §8).
//
// The slab stores are already structure-of-arrays: a checkpoint of an
// engine is nothing but the concatenation of its flat columns plus a
// handful of scalars (RNG state, counters, epoch). Every SaveTo is a
// template over its sink, which takes trivially-copyable values (Pod)
// and whole vectors (Vec) as raw little-endian bytes. ArenaWriter is
// the in-memory sink: it collects them into one byte vector, the body
// SerializeState() returns as the bit-identity oracle and the payload
// of a WAL record. A checkpoint never builds that vector: the same
// calls stream into the file through store/checkpoint.h's
// FramedFileSink. Both take the encoding from ArenaSink, so the file
// and the oracle cannot drift apart. ArenaReader replays a body with
// strict bounds checking and a sticky failure flag, so a truncated or
// garbage-length body surfaces as Status::Corruption — never a crash or
// a multi-gigabyte allocation.
//
// The encoding is the in-memory representation (same-architecture,
// same-build restore — the recovery use case). Integrity is guarded one
// level up: every WAL record and checkpoint body carries a CRC32C
// (store/wal.h, store/checkpoint.h), so by the time an ArenaReader
// parses bytes they are already checksum-verified; reader-side bounds
// checks exist to catch version/logic drift loudly, not flipped bits.
//
// Struct values serialized through Pod() must not contain padding bytes
// (padding is indeterminate memory: it would leak garbage into the CRC
// and break the bit-identical-recovery oracle). Vec() elements are
// likewise raw-copied; every persisted struct in this codebase is
// padding-free by construction (static_asserted at its definition).

#include <cstdint>
#include <cstring>
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

  /// u64 element count, then the elements as raw bytes.
  template <typename T>
  void Vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Pod(static_cast<uint64_t>(v.size()));
    if (!v.empty()) {
      static_cast<Sink*>(this)->Bytes(v.data(), v.size() * sizeof(T));
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

  template <typename T>
  bool Vec(std::vector<T>* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t count = 0;
    if (!Pod(&count)) return false;
    // Bound BEFORE allocating: a garbage count must not OOM the
    // recovery process.
    if (count > (size_ - pos_) / sizeof(T)) {
      return Fail("vector length exceeds remaining bytes");
    }
    v->resize(static_cast<std::size_t>(count));
    if (count > 0) {
      std::memcpy(v->data(), data_ + pos_,
                  static_cast<std::size_t>(count) * sizeof(T));
      pos_ += static_cast<std::size_t>(count) * sizeof(T);
    }
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
