#include "util/checksum.hpp"

#include "util/hot.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace pcmd {

namespace {

// The eight-byte step loads its input as one native word and indexes the
// tables by its low byte first, which is the first input byte only on a
// little-endian host. The wire, checkpoint and journal formats already copy
// native-endian integers with memcpy, so they share the assumption.
static_assert(std::endian::native == std::endian::little,
              "slicing-by-8 CRC32 assumes a little-endian host");

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

// Slicing-by-8 tables for the reflected IEEE polynomial 0xEDB88320.
// tables[0] is the classic bytewise table; tables[k][b] is the CRC register
// after byte b followed by k zero bytes, so eight lookups, one per table,
// advance the CRC over eight input bytes at once.
constexpr CrcTables build_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xffu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr CrcTables kTables = build_tables();

}  // namespace

PCMD_HOT std::uint32_t crc32(const void* data, std::size_t size,
                             std::uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
  for (; size >= 8; size -= 8, bytes += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes, sizeof word);
    // Input bytes 4-7 do not meet the running CRC, so their four lookups
    // stay off the loop-carried dependency chain; only bytes 0-3 wait on it.
    const std::uint32_t high =
        kTables[3][(word >> 32) & 0xffu] ^ kTables[2][(word >> 40) & 0xffu] ^
        kTables[1][(word >> 48) & 0xffu] ^ kTables[0][word >> 56];
    const std::uint32_t low = static_cast<std::uint32_t>(word) ^ crc;
    crc = high ^ kTables[7][low & 0xffu] ^ kTables[6][(low >> 8) & 0xffu] ^
          kTables[5][(low >> 16) & 0xffu] ^ kTables[4][low >> 24];
  }
  // The last size % 8 bytes: advance the register one byte at a time.
  for (; size > 0; --size, ++bytes) {
    crc = kTables[0][(crc ^ *bytes) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint32_t crc32(const void* data, std::size_t size) {
  return crc32(data, size, 0);
}

std::uint64_t fnv1a64(const void* data, std::size_t size,
                      std::uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace pcmd
