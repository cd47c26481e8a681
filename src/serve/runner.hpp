// The fault-containment boundary: one job attempt, never throws.
//
// run_attempt() builds a private virtual machine (SeqEngine or
// ThreadEngine), launches ddm::ParallelMd over it — fresh, or resumed from
// a preemption checkpoint — and steps to completion, classifying every
// escape hatch out of the stack below into a typed AttemptResult:
//
//   run::SpecError / bad geometry     -> kMalformedSpec   (not retryable)
//   sim::ChecksumError (SDC caught)   -> kChecksum        (retryable)
//   sim::PeerDeadError (retries spent
//     or the sender crashed)          -> kPeerDead        (retryable)
//   ddm::RecoveryError (watchdog gave
//     up: unsurvivable crash)         -> kUnsurvivable    (retryable*)
//   other sim::ProtocolError          -> kProtocol        (not retryable)
//   core::CheckError (invariant trip) -> kInvariant       (not retryable)
//   md::CheckpointError / anything    -> kInternal        (not retryable)
//
// (*) Retrying an unsurvivable crash is deliberate: transient-fault
// realisations depend on the plan seed (remixed per attempt), so a
// seed-dependent failure can clear on retry, while a *deterministic* one —
// a scheduled crash the watchdog cannot survive — fails every attempt the
// same way and lands in quarantine, which is exactly the poison-job policy.
//
// The attempt also enforces the job's virtual-time deadline (cumulative
// per-step makespan) and polls the scheduler's preemption flag, checkpointing
// and yielding when asked. Both are deterministic: virtual time is a pure
// function of the trajectory, and resume is bitwise-exact for preemptible
// jobs.
#pragma once

#include "serve/job_spec.hpp"
#include "sim/message.hpp"

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace pcmd::serve {

enum class FailureKind {
  kNone = 0,
  kMalformedSpec,
  kChecksum,
  kPeerDead,
  kUnsurvivable,
  kProtocol,
  kInvariant,
  kInternal,
};

const char* failure_kind_name(FailureKind kind);
bool failure_is_retryable(FailureKind kind);

enum class AttemptStatus { kCompleted, kDeadline, kPreempted, kFailed };

const char* attempt_status_name(AttemptStatus status);

// Everything needed to continue a preempted job exactly where it stopped.
struct PreemptState {
  sim::Buffer checkpoint;        // sealed ParallelMd checkpoint
  std::int64_t steps_done = 0;
  double virtual_seconds = 0.0;  // cumulative t_step at the preemption point
  // Per-rank virtual clocks at the preemption point. Clock skew carries
  // across steps, so a fresh engine (implicitly aligned at zero) would see
  // different per-step makespans; restoring the clocks keeps t_step — and
  // therefore the recorded virtual_seconds — bitwise resume-invariant.
  std::vector<double> clocks;
};

struct AttemptResult {
  AttemptStatus status = AttemptStatus::kFailed;
  FailureKind failure = FailureKind::kNone;  // kFailed only
  std::string error;                         // what() of the classified throw
  std::int64_t steps_done = 0;
  double virtual_seconds = 0.0;              // Σ t_step over executed steps
  // Completed attempts only: FNV-1a 64 over the gathered (id-sorted)
  // particles' id/position/velocity bytes, plus the final step's energies.
  std::uint64_t trajectory_digest = 0;
  double potential_energy = 0.0;
  double kinetic_energy = 0.0;
  std::optional<PreemptState> preempt;       // kPreempted only
};

struct AttemptContext {
  int attempt = 1;  // 1-based; attempts past the first remix the fault seed
  // Scheduler-owned eviction request; polled once per step. Null means the
  // attempt can never be preempted.
  const std::atomic<bool>* preempt_flag = nullptr;
  // Continue from a previous preemption instead of a fresh start.
  std::optional<PreemptState> resume;
};

// The per-attempt fault plan: the spec's plan with the transient-fault seed
// remixed through SplitMix64 for attempts > 1 (schedule fields — crash and
// stall times — stay put; it is the *seed-dependent* realisations that get
// a fresh draw).
sim::FaultPlan attempt_fault_plan(const JobSpec& job, int attempt);

AttemptResult run_attempt(const JobSpec& job, const AttemptContext& context);

}  // namespace pcmd::serve
