#include "fastppr/store/wal.h"

#include <cstring>

#include "fastppr/store/arena_io.h"
#include "fastppr/util/check.h"
#include "fastppr/util/crc32c.h"

namespace fastppr {
namespace {

// Fixed-size frame prefixes (see the header-comment layout).
constexpr std::size_t kFileHeaderFixed =
    sizeof(uint64_t) + 3 * sizeof(uint32_t) + sizeof(uint32_t);  // 24
constexpr std::size_t kRecordHead = 3 * sizeof(uint32_t);        // 12

template <typename T>
void PutPod(std::vector<uint8_t>* buf, const T& v) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
  buf->insert(buf->end(), p, p + sizeof(T));
}

template <typename T>
T GetPod(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

}  // namespace

bool DurableManifest::SameEngine(const DurableManifest& other) const {
  return num_nodes == other.num_nodes &&
         walks_per_node == other.walks_per_node &&
         epsilon == other.epsilon && seed == other.seed &&
         update_policy == other.update_policy &&
         engine_tag == other.engine_tag && num_shards == other.num_shards;
}

Status WalWriter::Create(const std::string& path,
                         const DurableManifest& manifest, WalWriter* out) {
  ArenaWriter body;
  manifest.SaveTo(&body);

  std::vector<uint8_t> header;
  header.reserve(kFileHeaderFixed + body.size());
  PutPod(&header, kWalMagic);
  PutPod(&header, kWalVersion);
  PutPod(&header, static_cast<uint32_t>(body.size()));
  PutPod(&header, Crc32c(header.data(), header.size()));  // head_crc
  PutPod(&header, Crc32c(body.buffer().data(), body.size()));
  header.insert(header.end(), body.buffer().begin(), body.buffer().end());

  WalWriter w;
  if (Status s = WritableFile::Open(path, &w.file_); !s.ok()) return s;
  if (Status s = w.file_.Append(header.data(), header.size()); !s.ok()) {
    return s;
  }
  // The header is durable before the writer is handed out: a WAL that
  // exists at full header length is guaranteed self-describing.
  if (Status s = w.file_.Sync(); !s.ok()) return s;
  w.synced_bytes_ = w.file_.bytes_written();
  *out = std::move(w);
  return Status::OK();
}

Status WalWriter::AppendBatch(uint64_t window,
                              std::span<const EdgeEvent> events) {
  if (!file_.is_open()) {
    return Status::InvalidArgument("WAL is not open");
  }
  if (!status_.ok()) return status_;
  ArenaWriter payload;
  payload.Pod(window);
  payload.Pod(static_cast<uint64_t>(events.size()));
  for (const EdgeEvent& ev : events) {
    payload.Pod(static_cast<uint8_t>(ev.kind));
    payload.Pod(ev.edge.src);
    payload.Pod(ev.edge.dst);
  }

  scratch_.clear();
  scratch_.reserve(kRecordHead + payload.size());
  PutPod(&scratch_, static_cast<uint32_t>(payload.size()));
  PutPod(&scratch_, Crc32c(scratch_.data(), sizeof(uint32_t)));
  PutPod(&scratch_,
         Crc32c(payload.buffer().data(), payload.size()));
  scratch_.insert(scratch_.end(), payload.buffer().begin(),
                  payload.buffer().end());
  return Poison(file_.Append(scratch_.data(), scratch_.size()));
}

Status WalWriter::Sync() {
  if (!status_.ok()) return status_;
  const Status s = file_.Sync();
  if (s.ok()) {
    synced_bytes_ = file_.bytes_written();
    return s;
  }
  // The caller refuses the windows appended since the last good sync,
  // yet their records may still reach the disk: cut them back out and
  // make the cut durable, or recovery would replay windows nobody was
  // told were applied. A log that cannot be cut no longer matches what
  // callers were told.
  const bool cut = file_.Truncate(synced_bytes_).ok() && file_.Sync().ok();
  FASTPPR_CHECK_MSG(cut, "WAL fsync failed and its unacked records "
                         "cannot be cut back out");
  return Poison(s);
}

Status WalWriter::Poison(Status s) {
  if (status_.ok()) status_ = s;
  return s;
}

Status WalWriter::Close() { return file_.Close(); }

Status ReadWal(const std::string& path, DurableManifest* manifest,
               std::vector<WalRecord>* records) {
  *manifest = DurableManifest{};  // engine_tag 0 = "header not recovered"
  records->clear();

  std::vector<uint8_t> bytes;
  if (Status s = ReadFileBytes(path, &bytes); !s.ok()) return s;

  // --- file header -------------------------------------------------
  if (bytes.size() < kFileHeaderFixed) {
    // Crash inside WalWriter::Create before the header sync: the file
    // carries no durable records by construction. Clean empty log.
    return Status::OK();
  }
  const std::size_t head_covered = sizeof(uint64_t) + 2 * sizeof(uint32_t);
  const uint32_t head_crc = GetPod<uint32_t>(bytes.data() + head_covered);
  if (head_crc != Crc32c(bytes.data(), head_covered)) {
    return Status::Corruption("WAL header checksum mismatch");
  }
  if (GetPod<uint64_t>(bytes.data()) != kWalMagic) {
    return Status::Corruption("not a WAL file (bad magic)");
  }
  if (GetPod<uint32_t>(bytes.data() + sizeof(uint64_t)) != kWalVersion) {
    return Status::Corruption("unsupported WAL version");
  }
  const uint32_t body_len =
      GetPod<uint32_t>(bytes.data() + sizeof(uint64_t) + sizeof(uint32_t));
  if (body_len > bytes.size() - kFileHeaderFixed) {
    // body_len is proven good by head_crc, so this is a torn Create.
    return Status::OK();
  }
  const uint32_t body_crc =
      GetPod<uint32_t>(bytes.data() + head_covered + sizeof(uint32_t));
  const uint8_t* body = bytes.data() + kFileHeaderFixed;
  if (body_crc != Crc32c(body, body_len)) {
    return Status::Corruption("WAL manifest checksum mismatch");
  }
  {
    ArenaReader r(body, body_len);
    if (!manifest->LoadFrom(&r) || !r.AtEnd()) {
      return Status::Corruption("WAL manifest malformed");
    }
  }

  // --- records -----------------------------------------------------
  std::size_t pos = kFileHeaderFixed + body_len;
  while (bytes.size() - pos >= kRecordHead) {
    const uint32_t len = GetPod<uint32_t>(bytes.data() + pos);
    const uint32_t rec_head_crc =
        GetPod<uint32_t>(bytes.data() + pos + sizeof(uint32_t));
    // head_crc FIRST: a flipped bit in `len` must be Corruption, not a
    // fake torn tail that silently drops the final record.
    if (rec_head_crc != Crc32c(bytes.data() + pos, sizeof(uint32_t))) {
      return Status::Corruption("WAL record header checksum mismatch");
    }
    const std::size_t remaining = bytes.size() - pos - kRecordHead;
    if (len > remaining) break;  // torn final append: clean durable prefix
    const uint32_t payload_crc =
        GetPod<uint32_t>(bytes.data() + pos + 2 * sizeof(uint32_t));
    const uint8_t* payload = bytes.data() + pos + kRecordHead;
    if (payload_crc != Crc32c(payload, len)) {
      return Status::Corruption("WAL record payload checksum mismatch");
    }

    WalRecord rec;
    ArenaReader r(payload, len);
    uint64_t count = 0;
    if (!r.Pod(&rec.window) || !r.Pod(&count)) {
      return Status::Corruption("WAL record payload malformed");
    }
    // 9 bytes per event; bound before reserving.
    if (count > len / 9) {
      return Status::Corruption("WAL record event count malformed");
    }
    rec.events.reserve(static_cast<std::size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      uint8_t kind = 0;
      EdgeEvent ev;
      if (!r.Pod(&kind) || !r.Pod(&ev.edge.src) || !r.Pod(&ev.edge.dst) ||
          kind > static_cast<uint8_t>(EdgeEvent::Kind::kDelete)) {
        return Status::Corruption("WAL record event malformed");
      }
      ev.kind = static_cast<EdgeEvent::Kind>(kind);
      rec.events.push_back(ev);
    }
    if (!r.AtEnd()) {
      return Status::Corruption("WAL record has trailing bytes");
    }
    records->push_back(std::move(rec));
    pos += kRecordHead + len;
  }
  return Status::OK();
}

}  // namespace fastppr
