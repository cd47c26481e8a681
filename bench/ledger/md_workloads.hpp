// The MD workloads: one generated system per name, timed on one tier per
// workload, plus the traced layer attribution shared with the serve
// workloads.
#pragma once

#include "result.hpp"

#include "md/particle.hpp"
#include "run/run_spec.hpp"

#include <cstdint>
#include <string>

namespace pcmd::ledger {

// A generated system: decomposition and physics, the initial particles,
// and the same geometry as serve job flags (without --steps and --seed).
struct System {
  run::RunSpec spec;
  md::ParticleVector initial;
  std::string job_flags;
};

// "gas_p16": the paper's supercooled gas, P=16, m=3 (K=12, N=10368).
// "droplet_p36": the K=12 box under P=36, m=2 with a simple-cubic core of
//   edge L/2 at rho*=0.8 and gas at rho*=0.05 outside a 1.2 sigma shell.
// "serve_job": the serve mix's clean job, P=9, m=2, rho*=0.2.
System make_system(const std::string& name, std::uint64_t seed);

// The untraced run: times the workload's tier end to end and checks its
// output against the other tiers on the same particles.
RunResult run_md_timed(const RunContext& context);

// The md, ddm, sim and obs per-layer metrics of `system`: traced
// SeqEngine episodes for about a quarter of context.seconds, then
// direct-call probes of each layer on the same particles.
void probe_md_layers(const System& system, const RunContext& context,
                     RunResult& result);

}  // namespace pcmd::ledger
