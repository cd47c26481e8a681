// Declarative run description for the example and bench harnesses and
// the serve layer.
//
// Every harness used to carry its own copy of the same flag-parsing blocks
// (--faults, --degrade, --trace, --checkpoint-every, healing knobs) and its
// own translation into the engine configs. RunSpec centralises both: one
// struct describes a paper-system run — workload, PE count, steps, DLB
// policy, fault plan, trace sink, checkpoint cadence — with a chainable
// builder for programmatic use, a strict shared CLI parser for the
// harnesses, and one bridge to the engine config
// (ddm::ParallelMdConfig). run::run_md_trajectory (run/trajectory.hpp)
// runs a RunSpec end to end.
//
// The parser is strict in the repo's house style: malformed values throw
// std::invalid_argument naming the flag, the offending token and the
// accepted grammar, and harnesses reject unknown flags as hard errors via
// require_all_flags_consumed().
#pragma once

#include "core/dlb_protocol.hpp"
#include "ddm/balancer.hpp"
#include "ddm/fault_tolerance.hpp"
#include "ddm/parallel_md.hpp"
#include "sim/cost_model.hpp"
#include "sim/fault.hpp"
#include "util/cli.hpp"
#include "workload/paper_system.hpp"

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace pcmd::run {

// Every parse failure in this layer — malformed numerics, unknown flags,
// bad sub-grammars (--faults, --degrade, --balancer) — is thrown as
// SpecError naming the offending flag and token, so layers above (the serve
// scheduler in particular) can tell "the spec is wrong" apart from "the run
// failed" without string-matching what()s. Derives std::invalid_argument,
// so existing catch sites keep working unchanged.
class SpecError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

// A deliberately degraded PE: `rank`'s compute slows down by `factor` from
// virtual time `at` on (until the end of the run). The harnesses use this
// to show the DLB draining load off a hot/throttled PE.
struct DegradeSpec {
  int rank = -1;
  double at = 0.0;
  double factor = 6.0;

  // Strict parse of "rank=K,at=T": rejects trailing garbage, duplicate or
  // unknown keys, and names the offending token, so typos like
  // "rank=4,at=0.05x" or "ranks=4" fail loudly instead of running a wrong
  // experiment. `factor` is carried through unchanged (it arrives via its
  // own flag).
  static DegradeSpec parse(const std::string& text, double factor = 6.0);

  // The equivalent fault-plan stall (open-ended: until 1e30).
  sim::FaultPlan::Stall stall() const;
};

struct RunSpec {
  workload::PaperSystemSpec system;  // pe_count, m, density, seed, T*, dt
  std::int64_t steps = 500;
  core::DlbConfig dlb;
  // Policy behind --balancer (--dlb 0 is a spelling of none). The default
  // is the paper's permanent-cell DLB; none is the paper's DDM.
  ddm::BalancerConfig balancer{.kind = ddm::BalancerKind::kPermanent};
  sim::MachineModel machine = sim::MachineModel::t3e();
  sim::FaultPlan faults;
  ddm::FaultToleranceConfig fault_tolerance;
  int checkpoint_every = 0;                // > 0: checkpoint every N steps
  std::optional<std::string> trace_path;   // sink base path (PATH.json/.csv)
  std::optional<DegradeSpec> degrade;

  // ---- builder (chainable; each returns *this) ----
  RunSpec& with_pe_count(int value);
  RunSpec& with_m(int value);
  RunSpec& with_density(double value);
  RunSpec& with_seed(std::uint64_t value);
  RunSpec& with_steps(std::int64_t value);
  RunSpec& with_balancer(ddm::BalancerKind value);
  RunSpec& with_faults(sim::FaultPlan value);
  RunSpec& with_checkpoint_every(int value);
  RunSpec& with_trace(std::string path);

  bool healing_enabled() const { return fault_tolerance.healing.enabled; }

  // The complete fault plan for the run: `faults` plus the degrade stall
  // (when one is set). This is what should reach the FaultInjector.
  sim::FaultPlan fault_plan() const;

  // The engine config this spec describes. Trace collector and checkpoint
  // cadence stay with the caller.
  ddm::ParallelMdConfig parallel_config() const;
};

// Applies the shared flag surface on top of `defaults` and returns the
// resulting spec:
//
//   --steps N  --density R  --m M  --seed S
//   --balancer permanent|rescale|diffusion|none
//   --dlb 0|1                (0 is the old spelling of --balancer none)
//   --faults PLAN            (sim::FaultPlan grammar, e.g. seed=7,drop=0.05)
//   --checkpoint-every N
//   --buddy-every N  --spares S   (either > 0 turns self-healing on)
//   --degrade rank=K,at=T  --degrade-factor F
//   --trace PATH
//
// A non-empty fault plan switches fault_tolerance.reliable on, matching
// what every harness did by hand before. --checkpoint-every, --buddy-every
// and --spares take counts from 0 (off) up, --seed from 0 to 2^63-1 and
// --m any int; a value outside its range throws SpecError naming the flag
// and the token instead of wrapping.
RunSpec parse_run_spec(const Cli& cli, RunSpec defaults = {});

// Reads an integer flag that must lie in [lo, hi]: a value outside throws
// SpecError naming the flag, its token and the range instead of wrapping.
std::int64_t get_int_in(const Cli& cli, const std::string& flag,
                        std::int64_t fallback, std::int64_t lo,
                        std::int64_t hi);

// Call after the harness has queried its own extra flags: throws
// std::invalid_argument listing every flag nobody consumed, together with
// the shared grammar, so unknown flags are hard errors instead of silently
// ignored typos.
void require_all_flags_consumed(const Cli& cli, const std::string& program);

}  // namespace pcmd::run
