#include "storage/disk/disk_io.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/logging.h"

namespace corona::disk {
namespace {

[[noreturn]] void die(const char* what, const std::string& path) {
  LOG_ERROR("disk", what, " failed for ", path, ": ", std::strerror(errno));
  std::abort();  // durability cannot be promised past a write failure
}

void bump_fsync(DiskCounters* counters) {
  if (counters != nullptr) ++counters->fsyncs;
}

}  // namespace

void ensure_dir(const std::string& path) {
  std::string prefix;
  prefix.reserve(path.size());
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i < path.size() && path[i] != '/') {
      prefix.push_back(path[i]);
      continue;
    }
    if (!prefix.empty() && ::mkdir(prefix.c_str(), 0755) != 0 &&
        errno != EEXIST) {
      die("mkdir", prefix);
    }
    if (i < path.size()) prefix.push_back('/');
  }
}

bool dir_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

namespace {

std::vector<std::string> list_entries(const std::string& dir, bool want_dirs) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    struct stat st{};
    if (::stat((dir + "/" + name).c_str(), &st) != 0) continue;
    if (want_dirs ? S_ISDIR(st.st_mode) : S_ISREG(st.st_mode)) {
      names.push_back(name);
    }
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());  // deterministic recovery order
  return names;
}

}  // namespace

std::vector<std::string> list_files(const std::string& dir) {
  return list_entries(dir, /*want_dirs=*/false);
}

std::vector<std::string> list_dirs(const std::string& dir) {
  return list_entries(dir, /*want_dirs=*/true);
}

void sync_dir(const std::string& dir, DiskCounters* counters) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) die("open(dir)", dir);
  if (::fsync(fd) != 0) {
    ::close(fd);
    die("fsync(dir)", dir);
  }
  ::close(fd);
  bump_fsync(counters);
}

void remove_file(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) die("unlink", path);
}

void remove_tree(const std::string& path) {
  if (!dir_exists(path)) {
    remove_file(path);
    return;
  }
  for (const std::string& name : list_dirs(path)) {
    remove_tree(path + "/" + name);
  }
  for (const std::string& name : list_files(path)) {
    remove_file(path + "/" + name);
  }
  if (::rmdir(path.c_str()) != 0 && errno != ENOENT) die("rmdir", path);
}

std::optional<Bytes> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  // Read straight into a buffer sized from fstat, growing only if the file
  // grew meanwhile.
  struct stat st{};
  Bytes out(::fstat(fd, &st) == 0 ? static_cast<std::size_t>(st.st_size) : 0);
  std::size_t len = 0;
  for (;;) {
    if (len == out.size()) out.resize(out.size() + (1 << 16));
    const ssize_t n = ::read(fd, out.data() + len, out.size() - len);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return std::nullopt;
    }
    if (n == 0) break;
    len += static_cast<std::size_t>(n);
  }
  ::close(fd);
  out.resize(len);
  return out;
}

void atomic_write_file(const std::string& path, BytesView content,
                       DiskCounters* counters) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) die("open(tmp)", tmp);
  std::size_t off = 0;
  while (off < content.size()) {
    const ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      die("write", tmp);
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    die("fsync", tmp);
  }
  ::close(fd);
  bump_fsync(counters);
  if (counters != nullptr) counters->bytes_written += content.size();
  if (::rename(tmp.c_str(), path.c_str()) != 0) die("rename", path);
  const std::size_t slash = path.rfind('/');
  sync_dir(slash == std::string::npos ? "." : path.substr(0, slash), counters);
}

void truncate_file(const std::string& path, std::size_t size,
                   DiskCounters* counters) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) die("open(truncate)", path);
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    ::close(fd);
    die("ftruncate", path);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    die("fsync(truncate)", path);
  }
  ::close(fd);
  bump_fsync(counters);
}

AppendFile::~AppendFile() { close(); }

AppendFile::AppendFile(AppendFile&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)),
      counters_(other.counters_) {
  other.fd_ = -1;
}

AppendFile& AppendFile::operator=(AppendFile&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    counters_ = other.counters_;
    other.fd_ = -1;
  }
  return *this;
}

AppendFile AppendFile::open(const std::string& path, DiskCounters* counters) {
  AppendFile f;
  const bool existed = ::access(path.c_str(), F_OK) == 0;
  f.fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                 0644);
  if (f.fd_ < 0) die("open(append)", path);
  f.path_ = path;
  f.counters_ = counters;
  if (!existed) {
    const std::size_t slash = path.rfind('/');
    sync_dir(slash == std::string::npos ? "." : path.substr(0, slash),
             counters);
  }
  return f;
}

void AppendFile::write(BytesView data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd_, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      die("write", path_);
    }
    off += static_cast<std::size_t>(n);
  }
  if (counters_ != nullptr) counters_->bytes_written += data.size();
}

void AppendFile::sync() {
  if (::fdatasync(fd_) != 0) die("fdatasync", path_);
  bump_fsync(counters_);
}

void AppendFile::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace corona::disk
