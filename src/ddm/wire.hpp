// Wire formats of the SPMD MD engine's per-step messages.
//
// Message tags and payload layouts are fixed here so the packing code in the
// engine and any test double stay in sync. All records are trivially
// copyable and go through sim::Packer/Unpacker.
//
// Every pack_* seals the payload under an 8-byte header {magic, CRC32}; the
// matching unpack_* verifies it first. A payload whose bytes were flipped in
// flight throws sim::ChecksumError ("bad link"), while a truncated or
// misshapen payload throws plain sim::ProtocolError ("bad code") — the
// fault-injection tests rely on the distinction.
#pragma once

#include "md/particle.hpp"
#include "sim/message.hpp"

#include <cstdint>
#include <vector>

namespace pcmd::ddm {

// BSP message tags. One step uses each tag at most once per (src, dst).
enum MessageTag : int {
  kTagDigest = 1,      // {busy_seconds, owned column ids}
  kTagAnnounce = 2,    // {target_rank, column} of this step's DLB decision
  kTagTransfer = 3,    // full particles of a transferred column
  kTagMigrate1 = 4,    // particles that left my columns (round 1)
  kTagMigrate2 = 5,    // forwarded misdelivered migrants (round 2)
  kTagHalo = 6,        // boundary-cell particle positions
  kTagInitHalo = 7,    // halo for the initial force computation
  kTagBuddy = 8,       // sealed buddy checkpoint envelope (ddm/recovery.hpp)
  kTagRestore = 9,     // buddy envelope replayed to a promoted spare
};

// Position-only particle copy used for halo exchange (velocities are not
// needed to compute forces).
struct HaloRecord {
  std::int64_t id = -1;
  Vec3 position;
};
static_assert(std::is_trivially_copyable_v<HaloRecord>);

struct DigestHeader {
  double busy_seconds = 0.0;
};

struct AnnounceRecord {
  std::int32_t target = -1;  // -1: no transfer this step
  std::int32_t column = -1;
};
static_assert(std::is_trivially_copyable_v<AnnounceRecord>);

// Bytes pack_* prepends to every payload: {u32 magic, u32 crc32}.
inline constexpr std::size_t kWireHeaderBytes = 8;

// Packing helpers -----------------------------------------------------------
//
// Every unpack_* validates the whole buffer: a failed checksum throws
// sim::ChecksumError; truncated or misshapen payloads (including trailing
// bytes after the last field) throw sim::ProtocolError.

sim::Buffer pack_digest(double busy_seconds,
                        const std::vector<std::int32_t>& columns);
void unpack_digest(sim::Buffer buffer, double& busy_seconds,
                   std::vector<std::int32_t>& columns);

sim::Buffer pack_announce(const AnnounceRecord& record);
AnnounceRecord unpack_announce(sim::Buffer buffer);

sim::Buffer pack_particles(const std::vector<md::Particle>& particles);
std::vector<md::Particle> unpack_particles(sim::Buffer buffer);

sim::Buffer pack_halo(const std::vector<HaloRecord>& records);
std::vector<HaloRecord> unpack_halo(sim::Buffer buffer);

// Generic sealed payloads, also for engine-local records that do not
// warrant a named pack_*/unpack_* pair (e.g. the slab engine's
// boundary-info records). Neither side copies the body:
// - begin_payload returns a Packer that already holds the header's
//   kWireHeaderBytes placeholder bytes, with room reserved for `body_bytes`
//   more; pack the body into it;
// - seal_payload takes that packer's buffer and writes {magic, crc of the
//   body} over the placeholder in place;
// - open_payload verifies the header with the same ChecksumError /
//   ProtocolError split, tagging errors with `what`, and returns an
//   Unpacker positioned at the first body byte.
sim::Packer begin_payload(std::size_t body_bytes);
sim::Buffer seal_payload(sim::Buffer packed);
sim::Unpacker open_payload(const char* what, sim::Buffer sealed);

}  // namespace pcmd::ddm
