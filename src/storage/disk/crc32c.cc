#include "storage/disk/crc32c.h"

#include <array>
#include <cstring>

namespace corona::disk {
namespace {

// Reflected CRC32C polynomial (0x1EDC6F41 reversed).
constexpr std::uint32_t kPoly = 0x82f63b78u;

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr auto kTable = make_table();

std::uint32_t crc32c_table(std::uint32_t crc, const std::uint8_t* data,
                           std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    crc = kTable[(crc ^ data[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
// SSE4.2's crc32 instruction computes exactly CRC32C, 8 bytes at a time.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::uint32_t crc, const std::uint8_t* data, std::size_t n) {
  std::uint64_t c = crc;
  for (; n >= 8; n -= 8, data += 8) {
    std::uint64_t word;
    std::memcpy(&word, data, 8);
    c = __builtin_ia32_crc32di(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; --n, ++data) c32 = __builtin_ia32_crc32qi(c32, *data);
  return c32;
}

const bool kHaveSse42 = __builtin_cpu_supports("sse4.2");
#endif

}  // namespace

std::uint32_t crc32c(const std::uint8_t* data, std::size_t n,
                     std::uint32_t seed) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (kHaveSse42) return ~crc32c_sse42(~seed, data, n);
#endif
  return ~crc32c_table(~seed, data, n);
}

}  // namespace corona::disk
