#include "util/checksum.hpp"

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pcmd {
namespace {

// Bit-at-a-time CRC32 straight from the definition (reflected IEEE
// polynomial 0xEDB88320, register preset to ~seed, result inverted), with no
// lookup table, so it shares nothing with the implementation under test.
std::uint32_t reference_crc32(const unsigned char* data, std::size_t size,
                              std::uint32_t seed = 0) {
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

std::vector<unsigned char> random_bytes(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(size);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng.next_u64());
  return bytes;
}

TEST(Crc32, StandardCheckValue) {
  const char text[] = "123456789";
  EXPECT_EQ(crc32(text, 9), 0xCBF43926u);
  EXPECT_EQ(reference_crc32(reinterpret_cast<const unsigned char*>(text), 9),
            0xCBF43926u);
}

TEST(Crc32, EmptyInputIsZeroAndKeepsTheSeed) {
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  EXPECT_EQ(crc32(nullptr, 0, 0xDEADBEEFu), 0xDEADBEEFu);
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // Offsets 0-7 put the eight-byte steps at every alignment; lengths 0-300
  // cover every tail length many times over.
  const std::vector<unsigned char> buffer = random_bytes(300 + 8, 0xC4C32u);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t size = 0; size <= 300; ++size) {
      const unsigned char* data = buffer.data() + offset;
      ASSERT_EQ(crc32(data, size), reference_crc32(data, size))
          << "offset " << offset << " size " << size;
    }
  }
}

TEST(Crc32, SeedChainsScatteredRangesAtEverySplit) {
  const std::vector<unsigned char> buffer = random_bytes(300, 0x5EEDu);
  const std::uint32_t whole = crc32(buffer.data(), buffer.size());
  for (std::size_t split = 0; split <= buffer.size(); ++split) {
    const std::uint32_t head = crc32(buffer.data(), split);
    ASSERT_EQ(crc32(buffer.data() + split, buffer.size() - split, head), whole)
        << "split " << split;
  }
  // A nonzero seed chains the same way as the reference's.
  EXPECT_EQ(crc32(buffer.data(), buffer.size(), 0x12345678u),
            reference_crc32(buffer.data(), buffer.size(), 0x12345678u));
}

TEST(Crc32, OneMebibyteBuffer) {
  const std::vector<unsigned char> buffer = random_bytes(1u << 20, 0x1A2Bu);
  EXPECT_EQ(crc32(buffer.data(), buffer.size()),
            reference_crc32(buffer.data(), buffer.size()));
}

}  // namespace
}  // namespace pcmd
