#include "ddm/wire.hpp"

#include "sim/comm.hpp"
#include "util/checksum.hpp"

#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

namespace pcmd::ddm {

namespace {

constexpr std::uint32_t kWireMagic = 0x504D4457u;  // "PMDW"

}  // namespace

sim::Packer begin_payload(std::size_t body_bytes) {
  sim::Packer packer;
  packer.reserve(kWireHeaderBytes + body_bytes);
  packer.put(std::uint64_t{0});  // header placeholder, see seal_payload
  return packer;
}

// Writes the {magic, crc} wire header over the placeholder bytes that
// begin_payload put in front of the body.
sim::Buffer seal_payload(sim::Buffer packed) {
  if (packed.size() < kWireHeaderBytes) {
    throw std::logic_error("seal_payload: buffer has no header room");
  }
  const std::uint32_t crc = pcmd::crc32(packed.data() + kWireHeaderBytes,
                                        packed.size() - kWireHeaderBytes);
  std::memcpy(packed.data(), &kWireMagic, sizeof(kWireMagic));
  std::memcpy(packed.data() + 4, &crc, sizeof(crc));
  return packed;
}

// Verifies the wire header and starts reading after it (no copy, no shift).
// Too-short buffers are truncation (ProtocolError); a magic or CRC mismatch
// is in-flight corruption (ChecksumError).
sim::Unpacker open_payload(const char* what, sim::Buffer buffer) {
  if (buffer.size() < kWireHeaderBytes) {
    throw sim::ProtocolError(std::string("unpack_") + what +
                             ": buffer shorter than the wire header");
  }
  std::uint32_t magic = 0;
  std::uint32_t crc = 0;
  std::memcpy(&magic, buffer.data(), sizeof(magic));
  std::memcpy(&crc, buffer.data() + 4, sizeof(crc));
  const std::uint32_t actual = pcmd::crc32(
      buffer.data() + kWireHeaderBytes, buffer.size() - kWireHeaderBytes);
  if (magic != kWireMagic || crc != actual) {
    throw sim::ChecksumError(std::string("unpack_") + what +
                             ": checksum mismatch — payload corrupted in "
                             "flight");
  }
  return sim::Unpacker(std::move(buffer), kWireHeaderBytes);
}

namespace {

// Runs one message's unpacking with uniform error handling: a short or
// misshapen buffer (Unpacker throws std::out_of_range) and trailing bytes
// both become sim::ProtocolError with the message kind in the text, so a
// malformed payload reads as the protocol violation it is rather than a
// generic range error. The wire header is verified (ChecksumError) before
// any field is read.
template <typename F>
auto checked_unpack(const char* what, sim::Buffer buffer, F&& body) {
  sim::Unpacker unpacker = open_payload(what, std::move(buffer));
  try {
    auto value = body(unpacker);
    if (!unpacker.exhausted()) {
      throw sim::ProtocolError(
          std::string("unpack_") + what + ": " +
          std::to_string(unpacker.remaining()) +
          " trailing bytes after the payload");
    }
    return value;
  } catch (const std::out_of_range& e) {
    throw sim::ProtocolError(std::string("unpack_") + what +
                             ": malformed payload: " + e.what());
  }
}
}  // namespace

sim::Buffer pack_digest(double busy_seconds,
                        const std::vector<std::int32_t>& columns) {
  sim::Packer packer =
      begin_payload(sizeof(DigestHeader) + sizeof(std::uint64_t) +
                    columns.size() * sizeof(std::int32_t));
  DigestHeader header;
  header.busy_seconds = busy_seconds;
  packer.put(header);
  packer.put_vector(columns);
  return seal_payload(packer.take());
}

void unpack_digest(sim::Buffer buffer, double& busy_seconds,
                   std::vector<std::int32_t>& columns) {
  auto result = checked_unpack(
      "digest", std::move(buffer), [](sim::Unpacker& unpacker) {
        const double busy = unpacker.get<DigestHeader>().busy_seconds;
        return std::pair(busy, unpacker.get_vector<std::int32_t>());
      });
  busy_seconds = result.first;
  columns = std::move(result.second);
}

sim::Buffer pack_announce(const AnnounceRecord& record) {
  sim::Packer packer = begin_payload(sizeof(AnnounceRecord));
  packer.put(record);
  return seal_payload(packer.take());
}

AnnounceRecord unpack_announce(sim::Buffer buffer) {
  return checked_unpack(
      "announce", std::move(buffer),
      [](sim::Unpacker& unpacker) { return unpacker.get<AnnounceRecord>(); });
}

sim::Buffer pack_particles(const std::vector<md::Particle>& particles) {
  sim::Packer packer = begin_payload(
      sizeof(std::uint64_t) + particles.size() * sizeof(md::Particle));
  packer.put_vector(particles);
  return seal_payload(packer.take());
}

std::vector<md::Particle> unpack_particles(sim::Buffer buffer) {
  return checked_unpack("particles", std::move(buffer),
                        [](sim::Unpacker& unpacker) {
                          return unpacker.get_vector<md::Particle>();
                        });
}

sim::Buffer pack_halo(const std::vector<HaloRecord>& records) {
  sim::Packer packer = begin_payload(sizeof(std::uint64_t) +
                                     records.size() * sizeof(HaloRecord));
  packer.put_vector(records);
  return seal_payload(packer.take());
}

std::vector<HaloRecord> unpack_halo(sim::Buffer buffer) {
  return checked_unpack("halo", std::move(buffer),
                        [](sim::Unpacker& unpacker) {
                          return unpacker.get_vector<HaloRecord>();
                        });
}

}  // namespace pcmd::ddm
