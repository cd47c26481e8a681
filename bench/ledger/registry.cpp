#include "registry.hpp"

#include <sstream>

namespace pcmd::ledger {

const std::vector<WorkloadDef>& workloads() {
  // The MD tiers are separate workloads on identical particles, so every
  // workload reports the same end-to-end metrics and a change to one tier
  // shows against the others as the "no change" control.
  static const std::vector<WorkloadDef> kWorkloads = {
      {"gas_p16.serial",
       "SerialMd on the paper gas (N=10368, K=12): the single-PE reference "
       "on the same particles; only md-layer changes should move it",
       WorkloadKind::kMd, "gas_p16", Tier::kSerial},
      {"gas_p16.seq",
       "ParallelMd on SeqEngine, P=16 m=3: uniform load, force phase ~75% of "
       "a step, DLB nearly idle; md changes show, DLB/wire/barrier ones not",
       WorkloadKind::kMd, "gas_p16", Tier::kSeq},
      {"gas_p16.thread",
       "ParallelMd on ThreadEngine, 16 threads on the same particles: thread "
       "scheduling and barrier costs show against gas_p16.seq",
       WorkloadKind::kMd, "gas_p16", Tier::kThread},
      {"droplet_p36.seq",
       "dense core in sparse gas, P=36 m=2 (Fig. 5b): imbalance ~4 and ~1400 "
       "messages per step, so DLB, wire and halo costs are a large share",
       WorkloadKind::kMd, "droplet_p36", Tier::kSeq},
      {"droplet_p36.thread",
       "the droplet on 36 threads over the host's cores: little work per "
       "rank, so barrier and oversubscription costs dominate the step",
       WorkloadKind::kMd, "droplet_p36", Tier::kThread},
      {"serve_open",
       "open loop: Poisson 60 jobs/s of the seeded mix to 3 workers with "
       "journal and store, ~50% busy; latency is set by the job runs",
       WorkloadKind::kServe, "open", Tier::kSeq},
      {"serve_burst",
       "closed bursts of the same mix at t=0, drained and stopped: deep lanes "
       "put every journal append, store put and compaction on the path",
       WorkloadKind::kServe, "burst", Tier::kSeq},
  };
  return kWorkloads;
}

const std::vector<MetricDef>& end_to_end_metrics() {
  // Bounds are three times the largest run-to-run spread (interquartile
  // distance over median, ten seeds) measured on a shared 4-vCPU VM, where
  // neighbours move timings by 5-10% between runs; 0.25 is the cap.
  static const std::vector<MetricDef> kMetrics = {
      {"throughput", "1/s", true, 0.25},
      {"latency_ms_p50", "ms", false, 0.25},
      {"setup_s", "s", false, 0.25},
      {"rss_mb", "MiB", false, 0.15},
  };
  return kMetrics;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"md.force.ns_per_pair", "ns", false, 0},
      {"md.pack_us", "us", false, 0},
      {"md.bins_us", "us", false, 0},
      {"md.integrate_ns_per_particle", "ns", false, 0},
      {"md.pairs_per_step", "count", false, 0},
      {"ddm.phase.A_ms", "ms", false, 0},
      {"ddm.phase.B_ms", "ms", false, 0},
      {"ddm.phase.C_ms", "ms", false, 0},
      {"ddm.phase.D_ms", "ms", false, 0},
      {"ddm.phase.E_ms", "ms", false, 0},
      {"ddm.phase.F_ms", "ms", false, 0},
      {"ddm.driver_ms", "ms", false, 0},
      {"ddm.closure", "ratio", true, 0},
      {"ddm.crit_path_ms", "ms", false, 0},
      {"ddm.host_imbalance", "ratio", false, 0},
      {"ddm.virtual_imbalance", "ratio", false, 0},
      {"ddm.cost_model_r", "ratio", true, 0},
      {"ddm.transfers", "count", false, 0},
      {"ddm.wire.halo_ns_per_rec", "ns", false, 0},
      {"ddm.wire.particle_ns_per_rec", "ns", false, 0},
      {"ddm.checkpoint_ms", "ms", false, 0},
      {"ddm.checkpoint_bytes", "bytes", false, 0},
      {"ddm.balancer.decide_us", "us", false, 0},
      {"sim.msgs_per_step", "count", false, 0},
      {"sim.bytes_per_step", "bytes", false, 0},
      {"sim.phase_us.seq", "us", false, 0},
      {"sim.phase_us.thread", "us", false, 0},
      {"sim.ideal_nproc_ms", "ms", false, 0},
      {"sim.thread_efficiency", "ratio", true, 0},
      {"sim.thread_speedup", "ratio", true, 0},
      {"obs.trace_overhead_frac", "ratio", false, 0},
      {"trace.overhead_frac", "ratio", false, 0},
      {"serve.queue_ms_p50", "ms", false, 0},
      {"serve.queue_ms_p99", "ms", false, 0},
      {"serve.service_ms_p50", "ms", false, 0},
      {"serve.run_ms_p50", "ms", false, 0},
      {"serve.parse_us", "us", false, 0},
      {"serve.journal_append_us", "us", false, 0},
      {"serve.store_put_us", "us", false, 0},
      {"serve.store_compact_ms", "ms", false, 0},
      {"serve.overhead_frac", "ratio", false, 0},
      {"serve.attempts", "count", false, 0},
      {"serve.retries", "count", false, 0},
      {"serve.cache_hits", "count", true, 0},
      {"serve.collapsed", "count", true, 0},
      {"serve.preemptions", "count", false, 0},
      {"serve.slo_miss_frac", "ratio", false, 0},
      {"serve.gen_late_ms_p99", "ms", false, 0},
  };
  return kMetrics;
}

const WorkloadDef* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

const MetricDef* find_metric(const std::string& name) {
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const auto& m : *list) {
      if (name == m.name) return &m;
    }
  }
  return nullptr;
}

std::string benchmark_json() {
  std::ostringstream os;
  const auto better = [](const MetricDef& m) {
    return m.higher_is_better ? "higher" : "lower";
  };
  os << "{\n"
     << "  \"command\": [\"python3\", \"bench/ledger/run.py\"],\n"
     << "  \"paths\": [\"bench/ledger\"],\n"
     << "  \"run_seconds\": " << kRunSeconds << ",\n"
     << "  \"workloads\": [\n";
  const auto& ws = workloads();
  for (std::size_t i = 0; i < ws.size(); ++i) {
    os << "    {\"name\": \"" << ws[i].name << "\", \"why\": \"" << ws[i].why
       << "\"}" << (i + 1 < ws.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"end_to_end\": [\n";
  const auto& e2e = end_to_end_metrics();
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    os << "    {\"name\": \"" << e2e[i].name << "\", \"unit\": \""
       << e2e[i].unit << "\", \"better\": \"" << better(e2e[i])
       << "\", \"bound\": " << e2e[i].bound << "}"
       << (i + 1 < e2e.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"per_layer\": [\n";
  const auto& layer = per_layer_metrics();
  for (std::size_t i = 0; i < layer.size(); ++i) {
    os << "    {\"name\": \"" << layer[i].name << "\", \"unit\": \""
       << layer[i].unit << "\", \"better\": \"" << better(layer[i]) << "\"}"
       << (i + 1 < layer.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace pcmd::ledger
