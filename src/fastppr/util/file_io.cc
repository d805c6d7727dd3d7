#include "fastppr/util/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

namespace fastppr {

namespace {

/// Crash budget: bytes that may still be appended process-wide before
/// the injected _exit. Negative = disarmed.
std::atomic<int64_t> g_crash_budget{-1};
/// Failure budget: the same, before one injected IOError.
std::atomic<int64_t> g_fail_budget{-1};
/// One injected fsync failure, armed until a Sync consumes it.
std::atomic<bool> g_fail_next_sync{false};

Status ErrnoStatus(const std::string& op, const std::string& path) {
  const std::string msg = op + " " + path + ": " + std::strerror(errno);
  if (errno == ENOENT) return Status::NotFound(msg);
  return Status::IOError(msg);
}

/// Writes exactly n bytes to fd, at its file position or, when
/// offset >= 0, at `offset` (pwrite), looping over short writes and
/// EINTR.
Status WriteAll(int fd, const char* p, std::size_t n, int64_t offset,
                const std::string& path) {
  while (n > 0) {
    const ssize_t w = offset < 0 ? ::write(fd, p, n)
                                 : ::pwrite(fd, p, n, offset);
    if (w < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus(offset < 0 ? "write" : "pwrite", path);
    }
    if (w == 0) return Status::IOError("short write to " + path);
    p += w;
    n -= static_cast<std::size_t>(w);
    if (offset >= 0) offset += w;
  }
  return Status::OK();
}

}  // namespace

void SetCrashAfterBytesForTesting(int64_t bytes) {
  g_crash_budget.store(bytes, std::memory_order_relaxed);
}

void SetFailAfterBytesForTesting(int64_t bytes) {
  g_fail_budget.store(bytes, std::memory_order_relaxed);
}

void SetFailNextSyncForTesting() {
  g_fail_next_sync.store(true, std::memory_order_relaxed);
}

WritableFile::~WritableFile() {
  if (fd_ >= 0) ::close(fd_);  // error path: caller already gave up
}

WritableFile::WritableFile(WritableFile&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)),
      bytes_written_(other.bytes_written_) {
  other.fd_ = -1;
}

WritableFile& WritableFile::operator=(WritableFile&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    bytes_written_ = other.bytes_written_;
    other.fd_ = -1;
  }
  return *this;
}

Status WritableFile::Open(const std::string& path, WritableFile* out) {
  Status ignored = out->Close();
  (void)ignored;
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoStatus("open", path);
  out->fd_ = fd;
  out->path_ = path;
  out->bytes_written_ = 0;
  return Status::OK();
}

Status WritableFile::Append(const void* data, std::size_t n) {
  if (fd_ < 0) return Status::IOError("append to closed file " + path_);
  return Write(data, n, -1);
}

Status WritableFile::WriteAt(uint64_t offset, const void* data,
                             std::size_t n) {
  if (fd_ < 0) return Status::IOError("write to closed file " + path_);
  if (offset > bytes_written_ || n > bytes_written_ - offset) {
    return Status::InvalidArgument("write past the end of " + path_);
  }
  return Write(data, n, static_cast<int64_t>(offset));
}

Status WritableFile::Write(const void* data, std::size_t n,
                           int64_t offset) {
  const char* p = static_cast<const char*>(data);
  const bool append = offset < 0;

  const int64_t budget = g_crash_budget.load(std::memory_order_relaxed);
  if (budget >= 0) {
    if (static_cast<uint64_t>(budget) < n) {
      // The injected kill lands inside this write: persist the prefix
      // the kernel would have accepted, then die without unwinding.
      const std::size_t prefix = static_cast<std::size_t>(budget);
      if (prefix > 0) (void)WriteAll(fd_, p, prefix, offset, path_);
      ::_exit(kCrashInjectionExitCode);
    }
    g_crash_budget.store(budget - static_cast<int64_t>(n),
                         std::memory_order_relaxed);
  }

  const int64_t fail = g_fail_budget.load(std::memory_order_relaxed);
  if (fail >= 0) {
    if (static_cast<uint64_t>(fail) < n) {
      // The injected error lands inside this write: the prefix reaches
      // the file (a torn record), the caller sees the error.
      g_fail_budget.store(-1, std::memory_order_relaxed);
      const std::size_t prefix = static_cast<std::size_t>(fail);
      if (prefix > 0) {
        FASTPPR_RETURN_IF_ERROR(WriteAll(fd_, p, prefix, offset, path_));
      }
      if (append) bytes_written_ += prefix;
      return Status::IOError("injected write failure on " + path_);
    }
    g_fail_budget.store(fail - static_cast<int64_t>(n),
                        std::memory_order_relaxed);
  }

  FASTPPR_RETURN_IF_ERROR(WriteAll(fd_, p, n, offset, path_));
  if (append) bytes_written_ += n;
  return Status::OK();
}

Status WritableFile::Sync() {
  if (fd_ < 0) return Status::IOError("sync of closed file " + path_);
  if (g_fail_next_sync.exchange(false, std::memory_order_relaxed)) {
    return Status::IOError("injected fsync failure on " + path_);
  }
  if (::fsync(fd_) != 0) return ErrnoStatus("fsync", path_);
  return Status::OK();
}

Status WritableFile::Truncate(uint64_t size) {
  if (fd_ < 0) return Status::IOError("truncate of closed file " + path_);
  const auto off = static_cast<off_t>(size);
  if (::ftruncate(fd_, off) != 0) return ErrnoStatus("ftruncate", path_);
  if (::lseek(fd_, off, SEEK_SET) != off) return ErrnoStatus("lseek", path_);
  bytes_written_ = size;
  return Status::OK();
}

Status WritableFile::Close() {
  if (fd_ < 0) return Status::OK();
  const int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) return ErrnoStatus("close", path_);
  return Status::OK();
}

Status AtomicReplace(const std::string& tmp_path,
                     const std::string& final_path) {
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return ErrnoStatus("rename", tmp_path + " -> " + final_path);
  }
  // Make the rename itself durable: fsync the parent directory.
  const std::filesystem::path parent =
      std::filesystem::path(final_path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) return ErrnoStatus("open dir", dir);
  const int rc = ::fsync(dfd);
  const int saved_errno = errno;
  ::close(dfd);
  if (rc != 0) {
    errno = saved_errno;
    return ErrnoStatus("fsync dir", dir);
  }
  return Status::OK();
}

ReadableFile::~ReadableFile() {
  if (fd_ >= 0) ::close(fd_);  // read-only: close cannot lose data
}

Status ReadableFile::Open(const std::string& path, ReadableFile* out) {
  if (out->fd_ >= 0) ::close(out->fd_);
  out->fd_ = -1;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("open", path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const Status s = ErrnoStatus("fstat", path);
    ::close(fd);
    return s;
  }
  out->fd_ = fd;
  out->path_ = path;
  out->size_ = static_cast<uint64_t>(st.st_size);
  return Status::OK();
}

Status ReadableFile::Read(void* data, std::size_t n, std::size_t* got) {
  if (fd_ < 0) return Status::IOError("read of closed file " + path_);
  char* p = static_cast<char*>(data);
  *got = 0;
  while (*got < n) {
    const ssize_t r = ::read(fd_, p + *got, n - *got);
    if (r < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("read", path_);
    }
    if (r == 0) break;
    *got += static_cast<std::size_t>(r);
  }
  return Status::OK();
}

Status ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) {
  ReadableFile f;
  FASTPPR_RETURN_IF_ERROR(ReadableFile::Open(path, &f));
  out->resize(static_cast<std::size_t>(f.size()));
  std::size_t got = 0;
  FASTPPR_RETURN_IF_ERROR(f.Read(out->data(), out->size(), &got));
  out->resize(got);  // the file shrank since it was opened
  return Status::OK();
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

Status RemoveFileIfExists(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return ErrnoStatus("unlink", path);
  }
  return Status::OK();
}

Status EnsureDirectory(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create " + dir + ": " + ec.message());
  return Status::OK();
}

}  // namespace fastppr
