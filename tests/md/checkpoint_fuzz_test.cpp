// Fuzz battery for checkpoint-envelope decoding, in the style of
// ddm/wire_property_test.cpp: exact round-trips, then systematic corruption
// (truncation at every length, trailing bytes, every single-byte flip,
// kind confusion, field-level lies) against the buddy envelope and the
// serial checkpoint, plus re-sealed ParallelMd and serial checkpoints whose
// CRC passes but whose state is invalid. The contract under test: every
// corruption throws std::runtime_error *before* any caller state is
// touched — decode returns a fully validated value or nothing.
#include "md/checkpoint.hpp"

#include "ddm/parallel_md.hpp"
#include "ddm/recovery.hpp"
#include "md/serial_md.hpp"
#include "sim/message.hpp"
#include "util/rng.hpp"
#include "workload/gas.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace pcmd {
namespace {

md::ParticleVector random_particles(Rng& rng, std::size_t count) {
  md::ParticleVector particles(count);
  for (auto& p : particles) {
    p.id = static_cast<std::int64_t>(rng.next_u64() >> 1);
    p.position = {rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0),
                  rng.uniform(-20.0, 20.0)};
    p.velocity = {rng.normal(), rng.normal(), rng.normal()};
    p.force = {rng.normal(), rng.normal(), rng.normal()};
  }
  return particles;
}

ddm::RankEnvelope random_envelope(Rng& rng, int columns) {
  ddm::RankEnvelope envelope;
  envelope.role = static_cast<std::int32_t>(rng.uniform_index(9));
  envelope.generation = static_cast<std::int64_t>(rng.uniform_index(1000));
  envelope.owned = random_particles(rng, 5 + rng.uniform_index(20));
  envelope.owners.resize(static_cast<std::size_t>(columns));
  for (auto& owner : envelope.owners) {
    owner = static_cast<std::int32_t>(rng.uniform_index(9));
  }
  envelope.last_busy = rng.uniform(0.0, 2.0);
  envelope.force_seconds = rng.uniform(0.0, 2.0);
  return envelope;
}

constexpr int kColumns = 36;  // the 3x3, m=2 layout's column count

TEST(CheckpointFuzz, DecodeFailuresAreTypedCheckpointErrors) {
  // The precise type matters to the serve layer: an md::CheckpointError is
  // classified kInternal (not retryable), distinct from protocol and spec
  // errors. It must stay a runtime_error for the legacy catch sites below.
  static_assert(std::is_base_of_v<std::runtime_error, md::CheckpointError>);
  Rng rng(37);
  auto sealed = ddm::pack_rank_envelope(random_envelope(rng, kColumns));
  EXPECT_THROW((void)ddm::unpack_rank_envelope(sealed, kColumns + 1),
               md::CheckpointError);
  sealed.resize(sealed.size() / 2);
  EXPECT_THROW((void)ddm::unpack_rank_envelope(sealed, kColumns),
               md::CheckpointError);
  EXPECT_THROW((void)md::unpack_serial_checkpoint({}), md::CheckpointError);
}

TEST(CheckpointFuzz, BuddyEnvelopeRoundTripsExactly) {
  Rng rng(41);
  for (int trial = 0; trial < 50; ++trial) {
    const auto envelope = random_envelope(rng, kColumns);
    const auto out = ddm::unpack_rank_envelope(
        ddm::pack_rank_envelope(envelope), kColumns);
    ASSERT_EQ(out.role, envelope.role);
    ASSERT_EQ(out.generation, envelope.generation);
    ASSERT_EQ(out.last_busy, envelope.last_busy);  // bitwise: memcpy packing
    ASSERT_EQ(out.force_seconds, envelope.force_seconds);
    ASSERT_EQ(out.owners, envelope.owners);
    ASSERT_EQ(out.owned.size(), envelope.owned.size());
    for (std::size_t i = 0; i < out.owned.size(); ++i) {
      ASSERT_EQ(out.owned[i].id, envelope.owned[i].id);
      ASSERT_EQ(out.owned[i].position, envelope.owned[i].position);
      ASSERT_EQ(out.owned[i].velocity, envelope.owned[i].velocity);
    }
  }
}

TEST(CheckpointFuzz, BuddyEnvelopeTruncationAtEveryLengthThrows) {
  Rng rng(43);
  const auto sealed = ddm::pack_rank_envelope(random_envelope(rng, kColumns));
  for (std::size_t len = 0; len < sealed.size(); ++len) {
    const sim::Buffer cut(sealed.begin(),
                          sealed.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)ddm::unpack_rank_envelope(cut, kColumns),
                 std::runtime_error)
        << "truncated to " << len << " of " << sealed.size();
  }
}

TEST(CheckpointFuzz, BuddyEnvelopeTrailingBytesThrow) {
  Rng rng(47);
  for (std::size_t extra = 1; extra <= 9; ++extra) {
    auto sealed = ddm::pack_rank_envelope(random_envelope(rng, kColumns));
    sealed.resize(sealed.size() + extra, 0x5a);
    EXPECT_THROW((void)ddm::unpack_rank_envelope(std::move(sealed), kColumns),
                 std::runtime_error)
        << extra << " trailing bytes";
  }
}

TEST(CheckpointFuzz, BuddyEnvelopeEverySingleByteFlipThrows) {
  // Header bytes trip the magic/version/kind checks, payload bytes trip the
  // CRC32 — either way the decode must throw, never return scrambled state.
  Rng rng(53);
  const auto sealed = ddm::pack_rank_envelope(random_envelope(rng, kColumns));
  for (std::size_t byte = 0; byte < sealed.size(); ++byte) {
    for (const std::uint8_t mask : {0x01, 0x80}) {
      auto corrupted = sealed;
      corrupted[byte] ^= mask;
      EXPECT_THROW(
          (void)ddm::unpack_rank_envelope(std::move(corrupted), kColumns),
          std::runtime_error)
          << "byte " << byte << " mask " << int(mask);
    }
  }
}

TEST(CheckpointFuzz, BuddyEnvelopeRejectsForeignCheckpointKinds) {
  // A well-formed checkpoint of any *other* kind must not open as a buddy
  // envelope: the kind field is part of the envelope, not a convention.
  Rng rng(59);
  md::SerialCheckpoint serial;
  serial.step = 7;
  serial.box = Box::cubic(10.0);
  serial.particles = random_particles(rng, 8);
  EXPECT_THROW((void)ddm::unpack_rank_envelope(
                   md::pack_serial_checkpoint(serial), kColumns),
               std::runtime_error);

  // And the reverse: a buddy envelope is not a serial checkpoint.
  const auto buddy = ddm::pack_rank_envelope(random_envelope(rng, kColumns));
  EXPECT_THROW((void)md::unpack_serial_checkpoint(buddy), std::runtime_error);
}

TEST(CheckpointFuzz, BuddyEnvelopeRejectsFieldLevelLies) {
  // The envelope can be bit-perfect and still invalid for the decomposition
  // restoring it: wrong column-map width, negative role or generation. These
  // are validated before the caller sees the object.
  Rng rng(61);
  auto envelope = random_envelope(rng, kColumns);
  const auto sealed = ddm::pack_rank_envelope(envelope);
  EXPECT_THROW((void)ddm::unpack_rank_envelope(sealed, kColumns + 1),
               std::runtime_error);
  EXPECT_THROW((void)ddm::unpack_rank_envelope(sealed, 0), std::runtime_error);

  envelope.role = -3;
  EXPECT_THROW((void)ddm::unpack_rank_envelope(
                   ddm::pack_rank_envelope(envelope), kColumns),
               std::runtime_error);
  envelope.role = 0;
  envelope.generation = -1;
  EXPECT_THROW((void)ddm::unpack_rank_envelope(
                   ddm::pack_rank_envelope(envelope), kColumns),
               std::runtime_error);
}

TEST(CheckpointFuzz, RandomGarbageNeverCrashesEitherDecoder) {
  Rng rng(67);
  for (int trial = 0; trial < 400; ++trial) {
    sim::Buffer garbage(rng.uniform_index(160));
    for (auto& b : garbage) {
      b = static_cast<std::uint8_t>(rng.next_u64() & 0xff);
    }
    // Any outcome is fine except a crash or a non-runtime_error exception.
    try {
      (void)ddm::unpack_rank_envelope(garbage, kColumns);
    } catch (const std::runtime_error&) {
    }
    try {
      (void)md::unpack_serial_checkpoint(garbage);
    } catch (const std::runtime_error&) {
    }
    try {
      (void)md::open_checkpoint(md::CheckpointKind::kBuddy, garbage);
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(CheckpointFuzz, SerialCheckpointEveryByteFlipThrows) {
  Rng rng(71);
  md::SerialCheckpoint state;
  state.step = 12;
  state.box = Box::cubic(12.0);
  state.particles = random_particles(rng, 6);
  // Inside the box, so the unflipped checkpoint opens and every throw below
  // comes from the flipped byte, not from the particle check.
  for (auto& p : state.particles) {
    p.position = {rng.uniform(0.0, 12.0), rng.uniform(0.0, 12.0),
                  rng.uniform(0.0, 12.0)};
  }
  const auto sealed = md::pack_serial_checkpoint(state);
  EXPECT_NO_THROW((void)md::unpack_serial_checkpoint(sealed));
  for (std::size_t byte = 0; byte < sealed.size(); ++byte) {
    auto corrupted = sealed;
    corrupted[byte] ^= 0x40;
    EXPECT_THROW((void)md::unpack_serial_checkpoint(std::move(corrupted)),
                 std::runtime_error)
        << "byte " << byte;
  }
}

TEST(CheckpointFuzz, SealedEnvelopeBytesArePinned) {
  // Absolute bytes of a kParallel envelope around a fixed 12-byte payload:
  // magic "PCKP", version 1, kind 2, the payload's CRC32, then the payload.
  // Checkpoint files written by an earlier build must keep opening.
  const sim::Buffer payload = {'p', 'c', 'm', 'd', ' ', 'c',
                               'k', 'p', 't', 0x00, 0x7f, 0xff};
  const sim::Buffer pinned = {
      0x50, 0x4b, 0x43, 0x50, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00,
      0x00, 0x00, 0xcd, 0x7e, 0x0e, 0x0a, 0x70, 0x63, 0x6d, 0x64,
      0x20, 0x63, 0x6b, 0x70, 0x74, 0x00, 0x7f, 0xff,
  };
  EXPECT_EQ(md::seal_checkpoint(md::CheckpointKind::kParallel, payload),
            pinned);
  EXPECT_EQ(md::open_checkpoint(md::CheckpointKind::kParallel, pinned),
            payload);
}

// ParallelMd::checkpoint()'s payload, field by field, so a test can lie
// about one field and re-seal: the envelope CRC then passes and only the
// engine's own validation stands between the lie and the resumed run.
struct ParallelRankState {
  md::ParticleVector owned;
  std::vector<std::int32_t> owners;
  double last_busy = 0.0;
  double force_seconds = 0.0;
};

struct ParallelState {
  std::int32_t pe_side = 0;
  std::int32_t m = 0;
  std::int64_t step = 0;
  Box box;
  std::vector<ParallelRankState> ranks;
};

ParallelState open_parallel(const sim::Buffer& sealed) {
  sim::Unpacker unpacker(
      md::open_checkpoint(md::CheckpointKind::kParallel, sealed));
  ParallelState state;
  state.pe_side = unpacker.get<std::int32_t>();
  state.m = unpacker.get<std::int32_t>();
  state.step = unpacker.get<std::int64_t>();
  state.box = unpacker.get<Box>();
  state.ranks.resize(static_cast<std::size_t>(state.pe_side * state.pe_side));
  for (auto& rank : state.ranks) {
    rank.owned = unpacker.get_vector<md::Particle>();
    rank.owners = unpacker.get_vector<std::int32_t>();
    rank.last_busy = unpacker.get<double>();
    rank.force_seconds = unpacker.get<double>();
  }
  EXPECT_TRUE(unpacker.exhausted());
  return state;
}

sim::Buffer seal_parallel(const ParallelState& state) {
  sim::Packer packer;
  packer.put(state.pe_side);
  packer.put(state.m);
  packer.put(state.step);
  packer.put(state.box);
  for (const auto& rank : state.ranks) {
    packer.put_vector(rank.owned);
    packer.put_vector(rank.owners);
    packer.put(rank.last_busy);
    packer.put(rank.force_seconds);
  }
  return md::seal_checkpoint(md::CheckpointKind::kParallel, packer.take());
}

ddm::ParallelMdConfig resume_config() {
  ddm::ParallelMdConfig config;
  config.pe_side = 3;
  config.m = 2;
  config.cutoff = 2.5;
  config.dt = 0.004;
  return config;
}

// The state every resume test starts from: 200 gas particles in a 15-box.
md::ParticleVector resume_gas() {
  Rng rng(79);
  workload::GasConfig gas;
  gas.temperature = 0.722;
  return workload::random_gas(200, Box::cubic(15.0), gas, rng);
}

ParallelState parallel_state_after_one_step() {
  sim::SeqEngine engine(9);
  const auto initial = resume_gas();
  ddm::ParallelMd pmd(ddm::EngineConfig{.engine = &engine,
                                        .box = Box::cubic(15.0),
                                        .initial = &initial},
                      resume_config());
  pmd.step();
  const ParallelState state = open_parallel(pmd.checkpoint());
  // The re-sealed, unmodified state must resume: the helpers are faithful.
  sim::SeqEngine fresh(9);
  const auto checkpoint = seal_parallel(state);
  ddm::ParallelMd resumed(ddm::EngineConfig{.engine = &fresh,
                                            .checkpoint = &checkpoint},
                          resume_config());
  resumed.step();
  return state;
}

// `resume` must throw md::CheckpointError whose message contains every
// string in `names`.
void expect_rejected(const std::function<void()>& resume,
                     const std::vector<std::string>& names) {
  try {
    resume();
    ADD_FAILURE() << "CRC-valid but invalid checkpoint resumed";
  } catch (const md::CheckpointError& e) {
    for (const auto& name : names) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << "'" << e.what() << "' does not name '" << name << "'";
    }
  }
}

void expect_resume_rejected(const ParallelState& state,
                            const std::vector<std::string>& names) {
  expect_rejected(
      [&] {
        sim::SeqEngine engine(9);
        const auto checkpoint = seal_parallel(state);
        ddm::ParallelMd pmd(ddm::EngineConfig{.engine = &engine,
                                              .checkpoint = &checkpoint},
                            resume_config());
      },
      names);
}

// The particle states every resume path must reject: a non-finite position
// or velocity component, or a position just outside the closed box [0, L].
std::vector<std::function<void(md::Particle&)>> bad_particle_edits(
    double edge) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  return {
      [=](md::Particle& p) { p.position.y = nan; },
      [=](md::Particle& p) { p.position.z = inf; },
      [=](md::Particle& p) { p.position.x = -inf; },
      [=](md::Particle& p) { p.position.x = -1e-12; },
      [=](md::Particle& p) { p.position.x = std::nextafter(edge, 2.0 * edge); },
      [=](md::Particle& p) { p.velocity.x = nan; },
      [=](md::Particle& p) { p.velocity.z = -inf; },
  };
}

// Moves the first particle of the top cell layer along x (edge - cell, edge)
// onto the upper box face x = L; false when that layer is empty.
bool move_onto_upper_face(md::ParticleVector& particles, double edge,
                          double cell) {
  for (auto& particle : particles) {
    if (particle.position.x >= edge - cell) {
      particle.position.x = edge;
      return true;
    }
  }
  return false;
}

TEST(CheckpointFuzz, ParallelResumeRejectsColumnOwnerOutOfRange) {
  const ParallelState good = parallel_state_after_one_step();
  for (const std::int32_t owner : {-1, 9, 1000}) {
    ParallelState bad = good;
    bad.ranks[4].owners[7] = owner;
    expect_resume_rejected(bad, {"rank 4", "column 7",
                                 "owner " + std::to_string(owner)});
  }
}

TEST(CheckpointFuzz, ParallelResumeRejectsNonFiniteOrOutOfBoxParticles) {
  const ParallelState good = parallel_state_after_one_step();
  for (const auto& edit : bad_particle_edits(good.box.length.x)) {
    ParallelState bad = good;
    md::Particle& particle = bad.ranks[2].owned.front();
    edit(particle);
    expect_resume_rejected(bad, {"rank 2", "particle id " +
                                               std::to_string(particle.id)});
  }
}

TEST(CheckpointFuzz, ParallelResumeAcceptsParticlesOnTheUpperBoxFace) {
  // The box is closed: x = L clamps into the last cell, so a particle
  // resting exactly on the upper face is valid state, not corruption.
  ParallelState state = parallel_state_after_one_step();
  const double edge = state.box.length.x;
  const double cell = edge / 6.0;  // K = pe_side * m = 6 cells per axis
  bool moved = false;
  for (auto& rank : state.ranks) {
    moved = moved || move_onto_upper_face(rank.owned, edge, cell);
  }
  ASSERT_TRUE(moved);
  sim::SeqEngine engine(9);
  const auto checkpoint = seal_parallel(state);
  ddm::ParallelMd pmd(ddm::EngineConfig{.engine = &engine,
                                        .checkpoint = &checkpoint},
                      resume_config());
  for (int i = 0; i < 3; ++i) EXPECT_EQ(pmd.step().total_particles, 200);
}

md::SerialCheckpoint serial_state_after_one_step() {
  md::SerialMd serial(Box::cubic(15.0), resume_gas(), md::SerialMdConfig{});
  serial.step();
  md::SerialCheckpoint state;
  state.step = serial.step_count();
  state.box = serial.box();
  state.particles = serial.particles();
  return state;
}

TEST(CheckpointFuzz, SerialResumeRejectsNonFiniteOrOutOfBoxParticles) {
  const md::SerialCheckpoint good = serial_state_after_one_step();
  for (const auto& edit : bad_particle_edits(good.box.length.x)) {
    md::SerialCheckpoint bad = good;
    md::Particle& particle = bad.particles[17];
    edit(particle);
    expect_rejected(
        [&] {
          (void)md::unpack_serial_checkpoint(md::pack_serial_checkpoint(bad));
        },
        {"serial", "particle id " + std::to_string(particle.id)});
  }
}

TEST(CheckpointFuzz, SerialResumeAcceptsParticlesOnTheUpperBoxFace) {
  // The closed box of ParallelResumeAcceptsParticlesOnTheUpperBoxFace holds
  // for the serial resume path too.
  md::SerialCheckpoint serial_state = serial_state_after_one_step();
  const double edge = serial_state.box.length.x;
  ASSERT_TRUE(move_onto_upper_face(serial_state.particles, edge, 2.5));
  const md::SerialCheckpoint restored =
      md::unpack_serial_checkpoint(md::pack_serial_checkpoint(serial_state));
  md::SerialMdConfig config;
  config.initial_step = restored.step;
  md::SerialMd serial(restored.box, restored.particles, config);
  EXPECT_EQ(serial.run(3).step, 4);
  EXPECT_EQ(serial.particles().size(), 200u);
}

TEST(CheckpointFuzz, DecodeFailureLeavesCallerStateUntouched) {
  // The recovery driver's usage pattern: decode into a fresh object and
  // assign only on success. Assert the sharp edge directly — a throwing
  // decode must not have mutated the destination.
  Rng rng(73);
  const auto good = random_envelope(rng, kColumns);
  ddm::RankEnvelope target = good;

  auto corrupted = ddm::pack_rank_envelope(random_envelope(rng, kColumns));
  corrupted[corrupted.size() / 2] ^= 0x10;
  try {
    target = ddm::unpack_rank_envelope(std::move(corrupted), kColumns);
    FAIL() << "corrupt envelope decoded";
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(target.role, good.role);
  EXPECT_EQ(target.generation, good.generation);
  EXPECT_EQ(target.owned.size(), good.owned.size());
  EXPECT_EQ(target.owners, good.owners);
}

}  // namespace
}  // namespace pcmd
