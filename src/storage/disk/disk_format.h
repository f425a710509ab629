// On-disk byte formats for the durable backend (docs/STORAGE.md).
//
// Everything here is pure buffer-level encode/decode — no file descriptors —
// so the exact same code path that recovery trusts is also what the
// deterministic corruption harness (tests/storage_fuzz_test.cc) and the
// libFuzzer entry (fuzz/storage_fuzz.cc) hammer in memory.
//
// Log segment file (one log shared by every group):
//   [segment header][frame][frame]...
//   header: "CSL1" magic (4) | segment_id u64le (8) | crc32c(magic+id) (4)
//   frame:  payload_len u32le (4) | crc32c(payload) (4) | payload
//   payload (one log entry):
//     group_id u64le (8) | index u64le (8) | kind u8 (1) | body
// `index` is the entry's position in its group's own log; `kind` is an
// update (body = one encoded UpdateRecord), a removal tombstone or a
// checkpoint floor (both with an empty body: every record of the group
// with a lower index is dead).
//
// Recovery is strict truncation-on-corruption, mirroring FrameDecoder's
// teardown idiom: a scan accepts frames until the first invalid one (bad
// length, short tail, CRC mismatch, malformed entry) and declares
// everything from that byte offset on dead.  A torn tail can only remove
// entries, never resurrect or alter one — the CRC covers the whole entry,
// group id and index included, and the length bounds it.
//
// Checkpoint file:
//   "CCK1" magic (4) | crc32c(key_len|key|blob) (4) |
//   key_len u32le (4) | key | blob
// Written to a temp name, fsynced, then renamed over the previous file, so
// a checkpoint is either the old bytes or the new bytes, never a mix; any
// file failing validation is discarded whole.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/ids.h"

namespace corona::disk {

// Sanity ceiling on a single record's payload; a garbage length prefix must
// not make recovery buffer gigabytes before noticing (same rationale as
// net::kDefaultMaxFrameBytes).
constexpr std::size_t kMaxRecordBytes = 64 * 1024 * 1024;

constexpr std::size_t kSegmentHeaderBytes = 16;  // magic + id + crc
constexpr std::size_t kRecordHeaderBytes = 8;    // len + crc
constexpr std::size_t kEntryHeaderBytes = 17;    // group + index + kind

// ---------------------------------------------------------------------------
// Segment files
// ---------------------------------------------------------------------------

// Appends the header of the segment numbered `segment_id`.
void append_segment_header(Bytes& out, std::uint64_t segment_id);

enum class EntryKind : std::uint8_t {
  kUpdate = 1,     // body: one encoded UpdateRecord
  kTombstone = 2,  // group removed: its records below `index` are dead
  // Checkpoint floor: the group's records below `index` are covered by its
  // checkpoint.  A hint that lets recovery skip them; losing one is safe.
  kFloor = 3,
};

// One validated entry; its body points into the buffer it was read from.
struct EntryView {
  GroupId group;
  std::uint64_t index = 0;
  EntryKind kind = EntryKind::kUpdate;
  BytesView body;
};

// Appends one framed (length-prefixed, checksummed) log entry.
void append_entry(Bytes& out, GroupId group, std::uint64_t index,
                  EntryKind kind, BytesView body);

// Decodes one frame payload as a log entry; nullopt when it is too short
// or names an unknown kind.
std::optional<EntryView> decode_entry(BytesView payload);

// Encoded size of an entry with `body_bytes` of body, framing included.
inline std::size_t entry_size_on_disk(std::size_t body_bytes) {
  return kRecordHeaderBytes + kEntryHeaderBytes + body_bytes;
}

// Result of scanning one segment buffer.
struct SegmentScan {
  bool header_ok = false;          // magic/CRC of the header validated
  std::uint64_t segment_id = 0;    // from the header
  std::vector<EntryView> entries;  // the longest valid entry prefix
  // Byte offset of the first invalid byte — the truncation point.  Equals
  // the buffer size when the whole segment is clean.
  std::size_t valid_bytes = 0;
  bool truncated = false;  // the scan stopped before the end of the buffer
};

// Scans a whole segment buffer (header + entries), stopping at the first
// corruption.  Never throws, never reads out of bounds, linear time.
// Copies nothing: the entries' bodies point into `buf`, so recovery copies
// only the records it keeps.
SegmentScan scan_segment(BytesView buf);

// ---------------------------------------------------------------------------
// Checkpoint files
// ---------------------------------------------------------------------------

Bytes encode_checkpoint_file(const std::string& key, BytesView blob);

struct CheckpointFile {
  std::string key;
  Bytes blob;
};

// Decodes and validates a checkpoint file; nullopt if anything — magic,
// CRC, lengths — fails, in which case the file is discarded whole (a rename
// either completed or it did not; there is no partial-checkpoint state to
// salvage).
std::optional<CheckpointFile> decode_checkpoint_file(BytesView buf);

}  // namespace corona::disk
