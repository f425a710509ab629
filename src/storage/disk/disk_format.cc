#include "storage/disk/disk_format.h"

#include <cstring>

#include "storage/disk/crc32c.h"

namespace corona::disk {
namespace {

constexpr std::uint8_t kSegmentMagic[4] = {'C', 'S', 'L', '1'};
constexpr std::uint8_t kCheckpointMagic[4] = {'C', 'C', 'K', '1'};

void put_u32le(Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u64le(Bytes& out, std::uint64_t v) {
  put_u32le(out, static_cast<std::uint32_t>(v));
  put_u32le(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t get_u64le(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32le(p)) |
         static_cast<std::uint64_t>(get_u32le(p + 4)) << 32;
}

}  // namespace

void append_segment_header(Bytes& out, std::uint64_t segment_id) {
  const std::size_t start = out.size();
  out.insert(out.end(), kSegmentMagic, kSegmentMagic + 4);
  put_u64le(out, segment_id);
  const std::uint32_t crc = crc32c(out.data() + start, 12);
  put_u32le(out, crc);
}

void append_entry(Bytes& out, GroupId group, std::uint64_t index,
                  EntryKind kind, BytesView body) {
  const std::size_t start = out.size();
  put_u32le(out, static_cast<std::uint32_t>(kEntryHeaderBytes + body.size()));
  put_u32le(out, 0);  // crc, patched once the payload is in place
  put_u64le(out, group.value);
  put_u64le(out, index);
  out.push_back(static_cast<std::uint8_t>(kind));
  out.insert(out.end(), body.begin(), body.end());
  const std::size_t payload = start + kRecordHeaderBytes;
  const std::uint32_t crc =
      crc32c(out.data() + payload, out.size() - payload);
  for (int i = 0; i < 4; ++i) {
    out[start + 4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

std::optional<EntryView> decode_entry(BytesView payload) {
  if (payload.size() < kEntryHeaderBytes) return std::nullopt;
  const std::uint8_t kind = payload[16];
  if (kind < static_cast<std::uint8_t>(EntryKind::kUpdate) ||
      kind > static_cast<std::uint8_t>(EntryKind::kFloor)) {
    return std::nullopt;
  }
  EntryView e;
  e.group = GroupId(get_u64le(payload.data()));
  e.index = get_u64le(payload.data() + 8);
  e.kind = static_cast<EntryKind>(kind);
  e.body = payload.subspan(kEntryHeaderBytes);
  return e;
}

SegmentScan scan_segment(BytesView buf) {
  SegmentScan scan;
  if (buf.size() < kSegmentHeaderBytes ||
      std::memcmp(buf.data(), kSegmentMagic, 4) != 0 ||
      get_u32le(buf.data() + 12) != crc32c(buf.data(), 12)) {
    scan.truncated = buf.size() > 0;
    return scan;  // header unreadable: the segment contributes nothing
  }
  scan.header_ok = true;
  scan.segment_id = get_u64le(buf.data() + 4);
  std::size_t pos = kSegmentHeaderBytes;
  while (pos < buf.size()) {
    if (buf.size() - pos < kRecordHeaderBytes) break;  // torn header
    const std::uint32_t len = get_u32le(buf.data() + pos);
    const std::uint32_t crc = get_u32le(buf.data() + pos + 4);
    if (len > kMaxRecordBytes) break;                   // garbage length
    if (buf.size() - pos - kRecordHeaderBytes < len) break;  // torn payload
    const std::uint8_t* payload = buf.data() + pos + kRecordHeaderBytes;
    if (crc32c(payload, len) != crc) break;             // bit rot / splice
    const auto entry = decode_entry(BytesView(payload, len));
    if (!entry) break;  // checksummed but malformed: not ours
    scan.entries.push_back(*entry);
    pos += kRecordHeaderBytes + len;
  }
  scan.valid_bytes = pos;
  scan.truncated = pos != buf.size();
  return scan;
}

Bytes encode_checkpoint_file(const std::string& key, BytesView blob) {
  Bytes body;
  put_u32le(body, static_cast<std::uint32_t>(key.size()));
  body.insert(body.end(), key.begin(), key.end());
  body.insert(body.end(), blob.begin(), blob.end());

  Bytes out;
  out.insert(out.end(), kCheckpointMagic, kCheckpointMagic + 4);
  put_u32le(out, crc32c(body));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::optional<CheckpointFile> decode_checkpoint_file(BytesView buf) {
  constexpr std::size_t kPrefix = 8;  // magic + crc
  if (buf.size() < kPrefix + 4 ||
      std::memcmp(buf.data(), kCheckpointMagic, 4) != 0) {
    return std::nullopt;
  }
  const std::uint32_t crc = get_u32le(buf.data() + 4);
  const std::uint8_t* body = buf.data() + kPrefix;
  const std::size_t body_len = buf.size() - kPrefix;
  if (crc32c(body, body_len) != crc) return std::nullopt;
  const std::uint32_t key_len = get_u32le(body);
  if (key_len > body_len - 4) return std::nullopt;
  CheckpointFile f;
  f.key.assign(body + 4, body + 4 + key_len);
  f.blob.assign(body + 4 + key_len, body + body_len);
  return f;
}

}  // namespace corona::disk
