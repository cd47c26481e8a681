// CRC32 (IEEE 802.3 polynomial, reflected) over byte ranges. Used as the
// wire checksum of the fault-tolerance layer: a single flipped byte anywhere
// in a frame is guaranteed to change the CRC, so injected payload corruption
// is always detectable at the receiver.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace pcmd {

// CRC of `size` bytes starting at `data`; crc32(nullptr, 0) == 0.
std::uint32_t crc32(const void* data, std::size_t size);

// Incremental variant: feed the previous return value back as `seed` to
// checksum scattered ranges as one logical stream.
std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed);

// FNV-1a 64, the serve layer's identity digest (job specs, submission texts,
// trajectories), of `size` bytes at `data`, continuing from `hash`: feed the
// previous return value back to digest scattered ranges as one stream.
constexpr std::uint64_t kFnv1a64Basis = 14695981039346656037ULL;
std::uint64_t fnv1a64(const void* data, std::size_t size,
                      std::uint64_t hash = kFnv1a64Basis);
inline std::uint64_t fnv1a64(std::string_view text) {
  return fnv1a64(text.data(), text.size());
}

}  // namespace pcmd
