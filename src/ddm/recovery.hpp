// Lossless self-healing for the parallel MD engine.
//
// Three cooperating pieces, driven by ParallelMd::step() between phases:
//
//   * Buddy checkpointing. Every `buddy_every` steps each role packs its
//     permanent-cell state (particles, column-map view, DLB busy time) into
//     a RankEnvelope, seals it as a md::checkpoint of kind kBuddy, and ships
//     it over the reliable channel to its torus *buddy* (the +1-column
//     neighbour). Each role therefore holds its own two newest generations
//     plus its ward's — a crash loses at most `buddy_every - 1` steps of
//     progress and zero particles.
//
//   * Spare failover. With S spare ranks (sim::Membership), a dead role is
//     reassigned to a spare: the membership epoch bumps, the spare unparks,
//     the buddy replays the ward envelope onto it, and every survivor rolls
//     back to the same generation. Because the program computes in role
//     space, the resumed trajectory is bitwise identical to an undisturbed
//     run. With no spare left the role retires and survivors adopt its
//     cells — the envelope's particles are still recovered, but adoption
//     reshapes the decomposition, so only conservation (not bitwise
//     equality) holds on that path.
//
//   * Watchdog rollback. An online monitor fed once per step with the total
//     energy and a per-role velocity alarm (reduced through the max
//     collective). A violation triggers an all-role rollback to the newest
//     generation every live role can restore; a role that keeps tripping the
//     watchdog past `max_rollbacks` consecutive rollbacks is declared dead
//     and handed to failover. The escalation ladder is thus: rollback ->
//     declared crash -> failover. Corrupt frames never reach it: the
//     reliable channel's CRC check discards and retransmits them.
#pragma once

#include "md/particle.hpp"
#include "sim/message.hpp"

#include <array>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

namespace pcmd::ddm {

struct SelfHealingConfig {
  bool enabled = false;
  // Replicate every K steps (generation = step count at replication). K=1
  // makes every step a recovery point at maximum bandwidth cost.
  int buddy_every = 10;
  // Spare physical ranks beyond the P of the decomposition. Spares idle
  // parked until promoted; 0 falls back to retire-and-adopt on crash.
  int spares = 0;
  // Consecutive watchdog rollbacks tolerated before the suspect role is
  // declared dead (escalation to failover). Requires a suspect — a pure
  // energy drift with no flagged role keeps rolling back.
  int max_rollbacks = 2;
};

// Monotone totals since construction; deltas appear per step in
// ParallelStepStats and the metrics CSV.
struct RecoveryCounters {
  std::uint64_t checkpoint_bytes = 0;   // sealed envelope bytes shipped
  std::uint64_t generations = 0;        // buddy rounds completed
  std::uint64_t rollbacks = 0;          // all-role rollbacks executed
  std::uint64_t failovers = 0;          // roles moved to a spare
  std::uint64_t roles_retired = 0;      // roles lost for lack of a spare
  std::uint64_t declared_dead = 0;      // watchdog-escalated kills
  std::uint64_t particles_recovered = 0;  // particles replayed from envelopes
};

// Everything needed to resurrect one role at one generation.
struct RankEnvelope {
  std::int32_t role = -1;
  std::int64_t generation = -1;
  md::ParticleVector owned;
  std::vector<std::int32_t> owners;  // this role's column-map view
  double last_busy = 0.0;            // DLB busy time of the generation step
  double force_seconds = 0.0;
};

// Seals/opens the envelope as a md::checkpoint of kind kBuddy. unpack
// validates the envelope and every field (including the column count and
// trailing bytes) *before* returning — corruption throws std::runtime_error
// and no caller state is touched.
sim::Buffer pack_rank_envelope(const RankEnvelope& envelope);
RankEnvelope unpack_rank_envelope(sim::Buffer sealed, int expect_columns);

// The two newest sealed envelopes (pack_rank_envelope) one role holds of
// itself or of its ward. A generation shipped again after a rollback may
// appear twice; find returns the newer copy.
class EnvelopeWindow {
 public:
  // Makes `sealed` the newest entry and drops the oldest.
  void push(std::int64_t generation, sim::Buffer sealed);
  // The sealed envelope of `generation`, or nullptr when the window does
  // not hold it.
  const sim::Buffer* find(std::int64_t generation) const;
  // Generations held, newest first; -1 marks an empty slot.
  std::array<std::int64_t, 2> generations() const;

 private:
  struct Entry {
    std::int64_t generation = -1;
    sim::Buffer sealed;
  };
  std::array<Entry, 2> entries_;
};

// Thrown when recovery itself fails: no common generation survives, the
// retry budget is exhausted, or adjacent buddies died together.
class RecoveryError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// The online monitor. Fed once per completed step; owns the escalation
// state machine (clean -> rollback -> declared dead).
class Watchdog {
 public:
  enum class Verdict { kClean, kRollback, kDeclareDead };

  struct Report {
    Verdict verdict = Verdict::kClean;
    int suspect = -1;  // role to kill when verdict == kDeclareDead
    std::string reason;
  };

  explicit Watchdog(const SelfHealingConfig& config) : config_(config) {}

  // `total_energy`: PE + KE of the step. `rebase` marks steps whose energy
  // legitimately jumps (thermostat rescale) — the window restarts there.
  // `suspect`: role whose velocity alarm fired this step, -1 if none.
  Report inspect(double total_energy, bool rebase, int suspect);

  // A rollback was executed: the in-window energies are about to be
  // recomputed, so forget them.
  void note_rollback();

  // The suspect was excised (declared dead + failover): restart the
  // escalation ladder.
  void note_recovered();

  int consecutive_rollbacks() const { return consecutive_rollbacks_; }

 private:
  SelfHealingConfig config_;
  std::deque<double> window_;
  int consecutive_rollbacks_ = 0;
};

}  // namespace pcmd::ddm
