// Umbrella header: the whole public API of the pcmd library.
//
//   #include "pcmd.hpp"
//
// pulls in every module. Fine for applications and examples; library code
// should include the specific headers it uses.
#pragma once

// util — math, PBC, RNG, statistics, fitting, output helpers
#include "util/cli.hpp"
#include "util/least_squares.hpp"
#include "util/pbc.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/vec3.hpp"

// sim — the virtual parallel machine
#include "sim/comm.hpp"
#include "sim/cost_model.hpp"
#include "sim/mailbox.hpp"
#include "sim/message.hpp"
#include "sim/topology.hpp"

// obs — per-step metrics rows, machine totals and trace files
#include "obs/metrics.hpp"

// md — Lennard-Jones molecular dynamics
#include "md/cell_grid.hpp"
#include "md/integrator.hpp"
#include "md/lj.hpp"
#include "md/observables.hpp"
#include "md/particle.hpp"
#include "md/rdf.hpp"
#include "md/serial_md.hpp"
#include "md/thermostat.hpp"
#include "md/units.hpp"
#include "md/xyz.hpp"

// workload — initial conditions and analysis
#include "workload/cluster.hpp"
#include "workload/gas.hpp"
#include "workload/lattice.hpp"
#include "workload/paper_system.hpp"
#include "workload/synthetic.hpp"

// core — permanent-cell dynamic load balancing (the paper's contribution)
#include "core/column_map.hpp"
#include "core/dlb_protocol.hpp"
#include "core/invariant.hpp"
#include "core/pillar_layout.hpp"

// ddm — domain decomposition and the SPMD engines
#include "ddm/balancer.hpp"
#include "ddm/comm_volume.hpp"
#include "ddm/engine_config.hpp"
#include "ddm/parallel_md.hpp"
#include "ddm/slab_md.hpp"
#include "ddm/wire.hpp"

// theory — Section 4 bounds and effective-range analysis
#include "theory/boundary.hpp"
#include "theory/bounds.hpp"
#include "theory/concentration.hpp"
#include "theory/effective_range.hpp"
#include "theory/synthetic_balance.hpp"

// run — declarative run descriptions for harnesses
#include "run/run_spec.hpp"
#include "run/trajectory.hpp"
