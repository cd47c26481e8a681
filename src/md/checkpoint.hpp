// Versioned checkpoint serialization for the MD engines.
//
// A checkpoint is a sealed byte buffer: an envelope {magic, version, kind,
// CRC32(payload)} followed by an engine-specific payload packed with
// sim::Packer. The envelope is verified before a single payload field is
// read, so a truncated, stale-version or bit-flipped checkpoint file fails
// loudly instead of resurrecting garbage state.
//
// Restart contract: an engine restored from a checkpoint taken at step S
// continues the trajectory *bitwise identically* to the uninterrupted run —
// particle order, force recomputation, thermostat schedule (a function of
// the absolute step number) and DLB decisions (functions of the restored
// busy times) all resume exactly. See ParallelMd::checkpoint / the
// checkpoint ctor, and SerialCheckpoint + SerialMdConfig::initial_step for
// the serial engine.
#pragma once

#include "md/particle.hpp"
#include "sim/message.hpp"
#include "util/pbc.hpp"

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace pcmd::md {

inline constexpr std::uint32_t kCheckpointVersion = 1;

// Every way a checkpoint can fail to load — short envelope, bad magic,
// version/kind mismatch, checksum failure, truncated or oversized payload —
// throws this one typed error, with the failing field (and byte offset,
// where one is meaningful) in the message. Derives
// std::runtime_error so existing catch sites keep working; layers above
// (the serve scheduler in particular) catch the type to classify "stored
// state is bad" without string-matching.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Payload kinds, so a checkpoint from one engine cannot be fed to another.
enum class CheckpointKind : std::uint32_t {
  kSerial = 1,
  kParallel = 2,
  // 3 was the retired 1-D slab engine's kind; never reuse it, so a stored
  // slab checkpoint cannot open as another engine's state.

  // Per-role buddy envelope replicated to a torus neighbour every K steps
  // (ddm/recovery.hpp); replayed to restore a dead role losslessly.
  kBuddy = 4,
};

// Wraps a packed payload in the versioned envelope.
sim::Buffer seal_checkpoint(CheckpointKind kind, sim::Buffer payload);

// Verifies the envelope (magic, version, kind, checksum) and returns the
// payload. Throws CheckpointError naming the first mismatching field and
// its byte offset.
sim::Buffer open_checkpoint(CheckpointKind kind, sim::Buffer sealed);

// Throws CheckpointError unless every restored particle is finite and
// inside the closed box [0, L] on every axis. CellGrid::cell_of_position
// casts position / cell_edge to int, undefined for NaN or inf, and clamps
// the upper face x = L into the last cell, so [0, L] is exactly the range
// it bins correctly. Velocities must be finite too, or the first drift
// makes the position NaN. The message starts with `where` (the engine and,
// for a parallel one, the rank) and names the particle id. Every resume
// path calls this before the particles reach a cell grid.
void check_resumable(const ParticleVector& particles, const Box& box,
                     const std::string& where);

// Serial engine state. Resume by constructing SerialMd with `particles` and
// SerialMdConfig::initial_step = `step`; restore the RNG stream (when
// captured) for workloads that keep drawing random numbers mid-run.
struct SerialCheckpoint {
  std::int64_t step = 0;
  Box box;
  ParticleVector particles;
  bool has_rng = false;
  std::array<std::uint64_t, 4> rng_state{};
};

sim::Buffer pack_serial_checkpoint(const SerialCheckpoint& state);
SerialCheckpoint unpack_serial_checkpoint(sim::Buffer sealed);

}  // namespace pcmd::md
