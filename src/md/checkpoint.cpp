#include "md/checkpoint.hpp"

#include "util/checksum.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

namespace pcmd::md {

namespace {

constexpr std::uint32_t kMagic = 0x50434B50u;  // "PCKP"
constexpr std::size_t kEnvelopeBytes = 16;     // magic, version, kind, crc

std::uint32_t read_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

sim::Buffer seal_checkpoint(CheckpointKind kind, sim::Buffer payload) {
  sim::Buffer out(kEnvelopeBytes + payload.size());
  const std::uint32_t fields[4] = {kMagic, kCheckpointVersion,
                                   static_cast<std::uint32_t>(kind),
                                   pcmd::crc32(payload.data(), payload.size())};
  std::memcpy(out.data(), fields, sizeof(fields));
  if (!payload.empty()) {
    std::memcpy(out.data() + kEnvelopeBytes, payload.data(), payload.size());
  }
  return out;
}

sim::Buffer open_checkpoint(CheckpointKind kind, sim::Buffer sealed) {
  if (sealed.size() < kEnvelopeBytes) {
    throw CheckpointError("checkpoint: envelope truncated at byte " +
                          std::to_string(sealed.size()) + " (needs " +
                          std::to_string(kEnvelopeBytes) + ")");
  }
  if (read_u32(sealed.data()) != kMagic) {
    throw CheckpointError(
        "checkpoint: bad magic at byte 0 (not a checkpoint)");
  }
  const std::uint32_t version = read_u32(sealed.data() + 4);
  if (version != kCheckpointVersion) {
    throw CheckpointError("checkpoint: version field at byte 4 is " +
                          std::to_string(version) + " (expected " +
                          std::to_string(kCheckpointVersion) + ")");
  }
  const std::uint32_t actual_kind = read_u32(sealed.data() + 8);
  if (actual_kind != static_cast<std::uint32_t>(kind)) {
    throw CheckpointError(
        "checkpoint: kind field at byte 8 is " + std::to_string(actual_kind) +
        ", does not match the restoring engine (" +
        std::to_string(static_cast<std::uint32_t>(kind)) + ")");
  }
  const std::uint32_t crc = read_u32(sealed.data() + 12);
  if (crc != pcmd::crc32(sealed.data() + kEnvelopeBytes,
                         sealed.size() - kEnvelopeBytes)) {
    throw CheckpointError(
        "checkpoint: payload checksum mismatch (crc field at byte 12)");
  }
  return sim::Buffer(sealed.begin() + kEnvelopeBytes, sealed.end());
}

void check_resumable(const ParticleVector& particles, const Box& box,
                     const std::string& where) {
  const auto axis = [](double x, double len) {
    return std::isfinite(x) && x >= 0.0 && x <= len;
  };
  for (const Particle& particle : particles) {
    const Vec3& p = particle.position;
    const Vec3& v = particle.velocity;
    if (!axis(p.x, box.length.x) || !axis(p.y, box.length.y) ||
        !axis(p.z, box.length.z) || !std::isfinite(v.x) ||
        !std::isfinite(v.y) || !std::isfinite(v.z)) {
      throw CheckpointError(where + " particle id " +
                            std::to_string(particle.id) +
                            " has a non-finite position or velocity, or a "
                            "position outside the box [0, L]");
    }
  }
}

sim::Buffer pack_serial_checkpoint(const SerialCheckpoint& state) {
  sim::Packer packer;
  packer.put(state.step);
  packer.put(state.box);
  packer.put_vector(state.particles);
  packer.put(static_cast<std::uint8_t>(state.has_rng ? 1 : 0));
  for (const std::uint64_t word : state.rng_state) packer.put(word);
  return seal_checkpoint(CheckpointKind::kSerial, packer.take());
}

SerialCheckpoint unpack_serial_checkpoint(sim::Buffer sealed) {
  sim::Unpacker unpacker(
      open_checkpoint(CheckpointKind::kSerial, std::move(sealed)));
  try {
    SerialCheckpoint state;
    state.step = unpacker.get<std::int64_t>();
    state.box = unpacker.get<Box>();
    state.particles = unpacker.get_vector<Particle>();
    check_resumable(state.particles, state.box, "checkpoint: serial");
    state.has_rng = unpacker.get<std::uint8_t>() != 0;
    for (auto& word : state.rng_state) word = unpacker.get<std::uint64_t>();
    if (!unpacker.exhausted()) {
      throw CheckpointError("checkpoint: trailing bytes in serial payload");
    }
    return state;
  } catch (const std::out_of_range& e) {
    throw CheckpointError(std::string("checkpoint: truncated serial payload: ") +
                          e.what());
  }
}

}  // namespace pcmd::md
