#include "storage/disk/disk_env.h"

#include <cstdlib>

#include "util/logging.h"
#include "util/result.h"

namespace corona::disk {
namespace {

// An error when `dir` holds log segments in the per-group layout of earlier
// versions, which are not migrated.
Status check_layout(const std::string& dir) {
  const std::string groups = dir + "/groups";
  for (const std::string& id : list_dirs(groups)) {
    for (const std::string& name : list_files(groups + "/" + id)) {
      if (name.starts_with("seg-") && name.ends_with(".log")) {
        return Status::error(
            Errc::kInvalidArgument,
            groups + "/" + id +
                " holds log segments in the per-group layout of an earlier "
                "version; this version keeps one log in " + dir +
                "/log and does not migrate them");
      }
    }
  }
  return Status::ok();
}

// The checkpoint directory of `dir`, after refusing an old layout: runs
// before any member constructor writes to the directory.
std::string checked_ckpt_dir(const std::string& dir) {
  const Status layout = check_layout(dir);
  if (!layout.is_ok()) {
    LOG_ERROR("disk", layout.detail);
    std::abort();  // fail-stop, like any other durability failure
  }
  return dir + "/ckpt";
}

}  // namespace

DiskEnv::DiskEnv(DiskEnvConfig config)
    : config_(std::move(config)),
      checkpoints_(checked_ckpt_dir(config_.dir), &counters_),
      log_(config_.dir + "/log", config_.segment_bytes, &counters_) {}

}  // namespace corona::disk
