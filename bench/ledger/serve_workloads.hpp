// The serve workloads: a seeded job mix offered to a serve::Scheduler with
// a job journal and a compact-on-demand result store in a private
// directory, as the durable service runs.
#pragma once

#include "result.hpp"

namespace pcmd::ledger {

// The untraced run: the open loop or repeated bursts, timed end to end,
// with every submission's outcome checked against its category.
RunResult run_serve_timed(const RunContext& context);

// The serve.* per-layer metrics. A serve workload traces its own session;
// an MD workload has no service in its timed path, so it serves its own
// system as a short burst of jobs and the same metrics attribute what the
// service would add to it.
void probe_serve_layers(const RunContext& context, RunResult& result);

}  // namespace pcmd::ledger
