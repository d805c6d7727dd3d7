#ifndef FASTPPR_UTIL_FILE_IO_H_
#define FASTPPR_UTIL_FILE_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fastppr/util/status.h"

namespace fastppr {

/// Unbuffered, Status-propagating POSIX file primitives for the
/// durability layer (store/wal.h, store/checkpoint.h).
///
/// Why not iostreams: the WAL contract is "a record is durable once the
/// phase-boundary fsync returns", which needs an fd to fsync, short
/// writes surfaced as errors (ENOSPC must fail the ingest call, not be
/// swallowed by a stream badbit nobody checks), and close() errors
/// reported (NFS and thin-provisioned volumes defer ENOSPC to close).
///
/// Crash-fault injection: SetCrashAfterBytesForTesting(k) arms a global
/// byte budget shared by every WritableFile in the process. The write
/// that crosses the budget persists only its prefix and then _exit(2)s
/// — a faithful model of a process killed mid-write (kill -9 at a
/// randomized WAL offset, power loss mid-checkpoint): no destructors,
/// no buffered-data flush, a torn tail on disk. Tests fork a child,
/// arm the budget, and verify recovery in the parent.

/// Arms (bytes >= 0) or disarms (bytes < 0) the crash-injection budget.
/// The budget counts every byte passed to WritableFile::Append or
/// WritableFile::WriteAt process-wide from this call on.
void SetCrashAfterBytesForTesting(int64_t bytes);

/// The error-returning twin, for I/O errors a live process must survive
/// (ENOSPC, EIO): the write that crosses the budget persists only its
/// prefix and returns IOError, and the budget disarms itself, so later
/// writes reach the disk again unless their caller refuses them.
void SetFailAfterBytesForTesting(int64_t bytes);

/// The fsync twin: the next WritableFile::Sync in the process returns
/// IOError without syncing, and the hook disarms itself.
void SetFailNextSyncForTesting();

/// Exit code of an injected crash (distinguishes injected exits from
/// real failures in the harness).
inline constexpr int kCrashInjectionExitCode = 42;

/// An append-only file handle. All methods return the first error
/// encountered; after an error the file should be Close()d (further
/// appends keep failing loudly).
class WritableFile {
 public:
  WritableFile() = default;
  ~WritableFile();
  WritableFile(const WritableFile&) = delete;
  WritableFile& operator=(const WritableFile&) = delete;
  WritableFile(WritableFile&& other) noexcept;
  WritableFile& operator=(WritableFile&& other) noexcept;

  /// Creates (or truncates) `path` for appending.
  static Status Open(const std::string& path, WritableFile* out);

  bool is_open() const { return fd_ >= 0; }
  uint64_t bytes_written() const { return bytes_written_; }
  const std::string& path() const { return path_; }

  /// Writes all `n` bytes (looping over short writes / EINTR).
  Status Append(const void* data, std::size_t n);

  /// Overwrites `n` bytes at `offset` (pwrite), which must lie inside
  /// what was appended; the append position does not move. Counted by
  /// both fault-injection budgets, like Append.
  Status WriteAt(uint64_t offset, const void* data, std::size_t n);

  /// fsync: everything appended so far is durable when this returns.
  Status Sync();

  /// Cuts the file back to its first `size` bytes (at most
  /// bytes_written()); later appends continue from there.
  Status Truncate(uint64_t size);

  /// Closes and reports the close error (deferred ENOSPC). Idempotent.
  Status Close();

 private:
  /// Append (offset < 0) or WriteAt: charges the write against the
  /// fault-injection budgets, then writes it.
  Status Write(const void* data, std::size_t n, int64_t offset);

  int fd_ = -1;
  std::string path_;
  uint64_t bytes_written_ = 0;
};

/// A file read front to back. Its length is taken once, at Open (fstat),
/// so a reader can size its buffer before the first byte arrives.
class ReadableFile {
 public:
  ReadableFile() = default;
  ~ReadableFile();
  ReadableFile(const ReadableFile&) = delete;
  ReadableFile& operator=(const ReadableFile&) = delete;

  /// Opens `path` for reading. NotFound if it does not exist.
  static Status Open(const std::string& path, ReadableFile* out);

  /// The file's length at Open.
  uint64_t size() const { return size_; }

  /// Reads up to `n` bytes into `data` from the current position
  /// (looping over short reads / EINTR); `*got` < n only at end of file.
  Status Read(void* data, std::size_t n, std::size_t* got);

 private:
  int fd_ = -1;
  std::string path_;
  uint64_t size_ = 0;
};

/// Renames `tmp_path` over `final_path` (atomic on POSIX) and fsyncs the
/// parent directory so the rename itself is durable.
Status AtomicReplace(const std::string& tmp_path,
                     const std::string& final_path);

/// Reads the whole file into `out` with one allocation, sized at open.
/// NotFound if it does not exist.
Status ReadFileBytes(const std::string& path, std::vector<uint8_t>* out);

bool FileExists(const std::string& path);

/// Removes `path` if present (missing file is not an error).
Status RemoveFileIfExists(const std::string& path);

/// Creates `dir` (and parents) if absent.
Status EnsureDirectory(const std::string& dir);

}  // namespace fastppr

#endif  // FASTPPR_UTIL_FILE_IO_H_
