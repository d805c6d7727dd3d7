#include "fastppr/store/checkpoint.h"

#include <algorithm>
#include <cstring>

#include "fastppr/util/crc32c.h"

namespace fastppr {
namespace {

constexpr std::size_t kHeaderSize =
    sizeof(uint64_t) + sizeof(uint32_t) + sizeof(uint64_t) +
    sizeof(uint32_t);  // 24

/// The staging buffer's size, and the run a column is checksummed and
/// written in: small enough that the write copies it from cache right
/// after the CRC read it.
constexpr std::size_t kStagingBytes = std::size_t{1} << 20;

template <typename T>
void PutPod(uint8_t* at, const T& v) {
  std::memcpy(at, &v, sizeof(T));
}

template <typename T>
T GetPod(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

}  // namespace

Status WriteFramedFile(const std::string& path, uint64_t magic,
                       const std::vector<uint8_t>& body) {
  return WriteFramedFile(path, magic, [&](FramedFileSink* sink) {
    sink->Bytes(body.data(), body.size());
  });
}

void FramedFileSink::Bytes(const void* data, std::size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  if (staging_.size() + n <= kStagingBytes) {
    staging_.insert(staging_.end(), p, p + n);
    return;
  }
  Flush();
  for (std::size_t at = 0; at < n; at += kStagingBytes) {
    Emit(p + at, std::min(kStagingBytes, n - at));
  }
}

Status FramedFileSink::Open(const std::string& path) {
  FASTPPR_RETURN_IF_ERROR(WritableFile::Open(path + ".tmp", &file_));
  staging_.reserve(kStagingBytes);
  const uint8_t gap[kHeaderSize] = {};
  return file_.Append(gap, kHeaderSize);
}

Status FramedFileSink::Commit(const std::string& path, uint64_t magic) {
  Flush();
  FASTPPR_RETURN_IF_ERROR(status_);
  uint8_t header[kHeaderSize];
  PutPod(header, magic);
  PutPod(header + 8, kCheckpointVersion);
  PutPod(header + 12, body_len_);
  PutPod(header + 20, crc_);
  FASTPPR_RETURN_IF_ERROR(file_.WriteAt(0, header, kHeaderSize));
  FASTPPR_RETURN_IF_ERROR(file_.Sync());
  FASTPPR_RETURN_IF_ERROR(file_.Close());
  return AtomicReplace(path + ".tmp", path);
}

void FramedFileSink::Flush() {
  Emit(staging_.data(), staging_.size());
  staging_.clear();
}

void FramedFileSink::Emit(const uint8_t* p, std::size_t n) {
  if (!status_.ok() || n == 0) return;
  crc_ = ExtendCrc32c(crc_, p, n);
  body_len_ += n;
  status_ = file_.Append(p, n);
}

Status ReadFramedFile(const std::string& path, uint64_t magic,
                      std::vector<uint8_t>* body) {
  ReadableFile f;
  FASTPPR_RETURN_IF_ERROR(ReadableFile::Open(path, &f));
  uint8_t header[kHeaderSize];
  std::size_t got = 0;
  FASTPPR_RETURN_IF_ERROR(f.Read(header, kHeaderSize, &got));
  if (got < kHeaderSize) {
    return Status::Corruption(path + ": shorter than a frame header");
  }
  if (GetPod<uint64_t>(header) != magic) {
    return Status::Corruption(path + ": bad magic");
  }
  if (GetPod<uint32_t>(header + 8) != kCheckpointVersion) {
    return Status::Corruption(path + ": unsupported version");
  }
  const uint64_t body_len = GetPod<uint64_t>(header + 12);
  // Exact-size match: rename atomicity means the file is complete, so
  // any disagreement (including a flipped bit in body_len itself) is
  // corruption, never a tear.
  if (body_len != f.size() - kHeaderSize) {
    return Status::Corruption(path + ": length field disagrees with file");
  }
  body->resize(static_cast<std::size_t>(body_len));
  FASTPPR_RETURN_IF_ERROR(f.Read(body->data(), body->size(), &got));
  if (got != body_len) {
    return Status::Corruption(path + ": length field disagrees with file");
  }
  if (GetPod<uint32_t>(header + 20) != Crc32c(body->data(), body->size())) {
    return Status::Corruption(path + ": body checksum mismatch");
  }
  return Status::OK();
}

}  // namespace fastppr
