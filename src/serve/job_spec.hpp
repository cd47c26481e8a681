// One simulation job as submitted to the serve::Scheduler.
//
// A JobSpec is a run::RunSpec (workload, PE count, steps, balancer policy,
// fault plan, healing knobs) plus the service-level envelope: which virtual
// engine executes it, a priority lane, and an optional virtual-time
// deadline. Specs arrive over two strict grammars — the shared flag surface
// ("--steps 200 --faults seed=7,drop=0.3 --priority high") and the
// equivalent flat JSON object ({"steps": 200, ...}) — and every malformed
// spec throws run::SpecError naming the flag/key and token, which the
// scheduler classifies as a non-retryable kMalformedSpec outcome.
//
// Identity: canonical() renders the spec as a fixed-order flag string that
// re-parses to the same spec; digest() is FNV-1a 64 over it. Priority and
// trace path are deliberately excluded — they change *scheduling*, not the
// trajectory — so the (digest, seed) key of the result store deduplicates
// resubmissions of the same physics regardless of lane. It never prints
// the old spellings "--dlb 0" (DDM is "--balancer none") or "--recovery 1"
// (the healing flags); they still parse, so journals holding them replay.
#pragma once

#include "run/run_spec.hpp"

#include <cstdint>
#include <string>

namespace pcmd::serve {

enum class Priority { kLow = 0, kNormal = 1, kHigh = 2 };
enum class EngineKind { kSeq, kThread };

const char* priority_name(Priority priority);
Priority parse_priority(const std::string& name);  // throws run::SpecError
const char* engine_kind_name(EngineKind kind);
EngineKind parse_engine_kind(const std::string& name);  // throws run::SpecError

struct JobSpec {
  run::RunSpec run;
  Priority priority = Priority::kNormal;
  EngineKind engine = EngineKind::kSeq;
  // Virtual-time budget in simulated seconds (sum of per-step makespans);
  // 0 means none. Jobs past their deadline are cancelled deterministically.
  double deadline = 0.0;

  // Parses either grammar, sniffing on the first non-space byte ('{' means
  // JSON). Throws run::SpecError on any malformed, unknown or out-of-range
  // input; never returns a half-built spec.
  static JobSpec parse(const std::string& text);
  static JobSpec parse_flags(const std::string& text);
  static JobSpec parse_json(const std::string& text);

  // Fixed-order flag rendering of everything that shapes the trajectory
  // (and the deadline/engine, which shape the outcome). Round-trips through
  // parse_flags(); excludes priority and trace.
  std::string canonical() const;
  std::uint64_t digest() const;     // FNV-1a 64 of canonical()
  std::string digest_hex() const;   // 16 lowercase hex digits

  // Digest of the spec with its seed masked to 0: all seeds of one physical
  // configuration share a family. The circuit breaker trips per family — a
  // spec that quarantines at seed 7 will usually quarantine at seed 8 too,
  // and shedding its siblings early is the point.
  std::uint64_t family_digest() const;

  // Only jobs whose trajectory is provably resume-invariant may be evicted
  // mid-run: fault-injection decisions are keyed on the engine's phase
  // index, which restarts from zero on resume, so preempting a faulty (or
  // healing) job would realise a *different* fault schedule than the
  // uninterrupted run. Clean jobs resume bitwise identically.
  bool preemptible() const;
};

// family_digest() on a canonical() string one already has — used when only
// the stored spec text of a record is available (no re-parse needed).
std::uint64_t family_digest_of_canonical(const std::string& canonical);

}  // namespace pcmd::serve
