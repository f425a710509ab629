// Append-only stable log with explicit flush and fail-stop crash semantics.
//
// The paper logs every multicast "both in memory and on stable storage"
// (§3.2) and accepts that "in the case of a crash some of the latest updates
// ... have not been flushed to the disk and they are lost" (§6) — those are
// re-fetched from the original sender by sequence number.  This class gives
// exactly that contract: appended records are immediately visible to the
// live process, durable only after flush(), and crash() discards the
// unflushed tail the way power loss would.
//
// Storage is in-memory (the workload fits trivially in RAM); the *timing* of
// a real disk is modeled separately by sim::SimDisk so that logging cost and
// logging durability stay independently testable.  The real on-disk log with
// the same contract is storage/disk/shared_log.h (one group's view of the
// log a DiskEnv shares among all groups).
#pragma once

#include <cstdint>
#include <vector>

#include "storage/backend.h"
#include "util/bytes.h"

namespace corona {

class StableLog final : public LogBackend {
 public:
  // Appends a record; it is visible to the live process at once and durable
  // after the next flush().
  void append(Bytes record) override;

  // Makes every appended record durable.  Returns the number of records the
  // call committed — the size of the commit group.  A group commit (one
  // flush covering a whole batch of appends) pays the device's fixed per-op
  // cost once for all of them; callers forward the count to the disk model.
  std::size_t flush() override;

  // Fail-stop crash: the unflushed tail vanishes.  The live view becomes the
  // durable view (what a restarted process would recover).
  void crash() override;

  // Drops the first `n` records (log reduction / checkpointing).  Durable
  // and live views shrink together; reduction is applied atomically.
  void drop_prefix(std::size_t n) override;

  std::size_t size() const override { return records_.size(); }
  std::size_t durable_size() const override { return durable_count_; }
  std::size_t unflushed() const override {
    return records_.size() - durable_count_;
  }
  const Bytes& record(std::size_t i) const override { return records_.at(i); }

  std::uint64_t bytes_appended() const override { return bytes_appended_; }
  std::uint64_t bytes_flushed() const override { return bytes_flushed_; }
  // Bytes appended since the last flush (what the next flush would write).
  std::uint64_t pending_bytes() const override;

  // Group-commit accounting: flushes that committed at least one record,
  // total records those flushes covered, and the largest single commit group.
  std::uint64_t commits() const override { return commits_; }
  std::uint64_t records_flushed() const override { return records_flushed_; }
  std::size_t max_commit_records() const override {
    return max_commit_records_;
  }

 private:
  std::vector<Bytes> records_;
  std::size_t durable_count_ = 0;
  std::uint64_t bytes_appended_ = 0;
  std::uint64_t bytes_flushed_ = 0;
  std::uint64_t commits_ = 0;
  std::uint64_t records_flushed_ = 0;
  std::size_t max_commit_records_ = 0;
};

}  // namespace corona
