// CRC32C (Castagnoli) checksums for on-disk records.
//
// Every length-prefixed record in a log segment and every checkpoint file
// carries a CRC32C over its payload, so recovery can distinguish "the tail
// the crash tore" from "a record that made it to the platter".  CRC32C is
// the storage-stack standard (iSCSI, ext4, Btrfs, LevelDB) because its
// polynomial detects the short burst errors torn sector writes produce.
//
// On x86-64 CPUs with SSE4.2 the crc32 instruction computes it 8 bytes at a
// time (chosen at run time); elsewhere a portable table does it a byte at
// a time.  Writing is bounded by fsync either way, but recovery checksums
// every byte of the shared log, all groups' dead records included.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/bytes.h"

namespace corona::disk {

// CRC32C of `data`, with LevelDB-style init/finalize (bit-inverted in and
// out), starting from `seed` (pass the running value to extend a checksum).
std::uint32_t crc32c(const std::uint8_t* data, std::size_t n,
                     std::uint32_t seed = 0);
inline std::uint32_t crc32c(BytesView data, std::uint32_t seed = 0) {
  return crc32c(data.data(), data.size(), seed);
}

}  // namespace corona::disk
