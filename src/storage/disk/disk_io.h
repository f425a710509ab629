// POSIX file primitives for the durable backend — the ONLY place in the
// tree that opens files for durability (enforced by corona-lint's
// raw-file-io rule; see docs/ANALYSIS.md).
//
// Durability discipline:
//   * appends go through an fd kept open per active segment; fsync makes
//     them durable;
//   * whole-file replacement is write-temp + fsync(temp) + rename + fsync
//     of the containing directory, so the file is either the old bytes or
//     the new bytes;
//   * file creation/deletion is followed by an fsync of the directory,
//     because a rename or unlink is itself just a dirty directory page.
//
// Error policy: a storage backend that cannot write can no longer keep its
// durability promise, and limping on would acknowledge updates that are not
// stable — the one thing the paper's crash model forbids.  Unrecoverable
// I/O errors are therefore fail-stop: log and abort.  Validation failures
// on *read* (torn records, bad CRCs) are expected after a crash and are
// handled gracefully by recovery instead.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/context.h"

namespace corona::disk {

// Counters shared by every backend object of one DiskEnv.  Monotonic,
// process-lifetime; surfaced through DiskEnv::stats().
struct DiskCounters {
  std::uint64_t fsyncs = 0;            // fdatasync/fsync calls (data + dirs)
  std::uint64_t bytes_written = 0;     // payload + framing bytes written
  std::uint64_t segments_created = 0;
  std::uint64_t segments_deleted = 0;  // reclaimed by log reduction
  std::uint64_t records_copied = 0;    // live records copied forward
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoint_bytes = 0;  // blob bytes committed to disk
  std::uint64_t recovered_records = 0;  // records accepted by recovery scans
  std::uint64_t truncated_bytes = 0;   // bytes cut off torn segment tails
  std::uint64_t corrupt_files_dropped = 0;  // checkpoints/segments discarded
};

// ---------------------------------------------------------------------------
// Directory primitives
// ---------------------------------------------------------------------------

// mkdir -p.  Fail-stop on error.
CORONA_BLOCKING void ensure_dir(const std::string& path);
CORONA_BLOCKING bool dir_exists(const std::string& path);
// Sorted names (not paths) of regular files in `dir`; empty if absent.
CORONA_BLOCKING std::vector<std::string> list_files(const std::string& dir);
// Sorted names of subdirectories in `dir`; empty if absent.
CORONA_BLOCKING std::vector<std::string> list_dirs(const std::string& dir);
// fsync the directory itself (durable rename/unlink/create).
CORONA_BLOCKING void sync_dir(const std::string& dir, DiskCounters* counters);
// Deletes a file if present (fail-stop on real errors, ENOENT is fine).
CORONA_BLOCKING void remove_file(const std::string& path);
// rm -rf for a backend-owned subtree.  Fail-stop on error.
CORONA_BLOCKING void remove_tree(const std::string& path);

// ---------------------------------------------------------------------------
// Whole-file read / atomic replace
// ---------------------------------------------------------------------------

// Reads an entire file; nullopt if it does not exist or cannot be read
// (read problems are recovery-path events, never fatal).
[[nodiscard]] CORONA_BLOCKING std::optional<Bytes> read_file(
    const std::string& path);

// Atomically replaces `path` with `content`: temp + fsync + rename + dir
// fsync.  Fail-stop on error.
CORONA_BLOCKING void atomic_write_file(const std::string& path,
                                       BytesView content,
                                       DiskCounters* counters);

// Truncates `path` to `size` bytes and fsyncs it — recovery cutting a torn
// tail off a segment before appending resumes.  Fail-stop on error.
CORONA_BLOCKING void truncate_file(const std::string& path, std::size_t size,
                                   DiskCounters* counters);

// ---------------------------------------------------------------------------
// AppendFile: the active log segment
// ---------------------------------------------------------------------------

// An open file being appended to.  Writes buffer in the kernel page cache;
// sync() makes everything written so far durable.
class AppendFile {
 public:
  AppendFile() = default;
  ~AppendFile();
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;
  AppendFile(AppendFile&& other) noexcept;
  AppendFile& operator=(AppendFile&& other) noexcept;

  // Opens `path` for appending, creating it if needed (the creating open is
  // followed by a directory fsync).  Fail-stop on error.
  [[nodiscard]] CORONA_BLOCKING static AppendFile open(const std::string& path,
                                                       DiskCounters* counters);

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  // Appends all of `data`.  Fail-stop on error.
  CORONA_BLOCKING void write(BytesView data);
  // fdatasync.  Fail-stop on error.
  CORONA_BLOCKING void sync();
  CORONA_BLOCKING void close();

 private:
  int fd_ = -1;
  std::string path_;
  DiskCounters* counters_ = nullptr;
};

}  // namespace corona::disk
