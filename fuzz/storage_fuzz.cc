// libFuzzer entry for the durable storage decoders (storage/disk/), built
// behind -DCORONA_FUZZ=ON.  The input is fed to every on-disk format reader
// — segment scan, checkpoint file, log entry (update or tombstone) — as one
// hostile buffer, which is exactly what a recovery scan reads off a crashed
// disk.
//
//   cmake --preset asan -DCORONA_FUZZ=ON && cmake --build build/asan -j
//   ./build/asan/fuzz/storage_fuzz -max_total_time=60
//
// The deterministic seeded twin of this harness runs in every build as
// tests/storage_fuzz_test.cc and additionally checks the prefix property
// against known-good images; this entry point is pure never-crash coverage.
#include <cstddef>
#include <cstdint>

#include "storage/disk/disk_format.h"
#include "util/bytes.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const corona::BytesView buf(data, size);
  const corona::disk::SegmentScan scan = corona::disk::scan_segment(buf);
  if (scan.valid_bytes > size) __builtin_trap();  // internal inconsistency
  (void)corona::disk::decode_checkpoint_file(buf);
  if (const auto entry = corona::disk::decode_entry(buf)) {
    // The body is whatever follows the fixed entry header, never more.
    if (entry->body.size() + corona::disk::kEntryHeaderBytes != size) {
      __builtin_trap();
    }
  }
  return 0;
}
