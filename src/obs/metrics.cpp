#include "obs/metrics.hpp"

#include "obs/chrome_trace.hpp"
#include "sim/comm.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>

namespace pcmd::obs {

double MachineReport::efficiency() const {
  if (ranks == 0 || makespan <= 0.0) return 0.0;
  return total_compute / (ranks * makespan);
}

MachineReport machine_report(const sim::Engine& engine) {
  MachineReport report;
  report.ranks = engine.size();
  report.makespan = engine.makespan();
  report.min_clock = report.makespan;
  for (int r = 0; r < engine.size(); ++r) {
    const sim::RankCounters& c = engine.counters(r);
    report.min_clock = std::min(report.min_clock, engine.clock(r));
    report.total_compute += c.compute_seconds;
    report.total_wait += c.comm_wait_seconds;
    report.total_collective += c.collective_seconds;
    report.total_messages += c.messages_sent;
    report.total_bytes += c.bytes_sent;
    report.total_recv_timeouts += c.recv_timeouts;
  }
  return report;
}

std::ostream& operator<<(std::ostream& os, const MachineReport& report) {
  os << "machine: ranks=" << report.ranks << " makespan=" << report.makespan
     << "s compute=" << report.total_compute << "s wait=" << report.total_wait
     << "s collectives=" << report.total_collective
     << "s messages=" << report.total_messages
     << " bytes=" << report.total_bytes
     << " efficiency=" << report.efficiency();
  return os;
}

namespace {
sim::FaultCounters fault_counters(const sim::Engine& engine) {
  const sim::FaultInjector* injector = engine.fault_injector();
  return injector ? injector->counters() : sim::FaultCounters{};
}
}  // namespace

MetricsRecorder::MetricsRecorder(const sim::Engine& engine)
    : engine_(&engine),
      last_(machine_report(engine)),
      last_faults_(fault_counters(engine)) {}

const StepMetrics& MetricsRecorder::record(StepMetrics row) {
  const MachineReport now = machine_report(*engine_);
  const sim::FaultCounters faults = fault_counters(*engine_);
  row.wait_seconds = now.total_wait - last_.total_wait;
  row.collective_seconds = now.total_collective - last_.total_collective;
  row.messages = now.total_messages - last_.total_messages;
  row.bytes = now.total_bytes - last_.total_bytes;
  row.recv_timeouts = now.total_recv_timeouts - last_.total_recv_timeouts;
  row.faults_dropped = faults.messages_dropped - last_faults_.messages_dropped;
  row.faults_corrupted =
      faults.messages_corrupted - last_faults_.messages_corrupted;
  row.faults_delayed = faults.messages_delayed - last_faults_.messages_delayed;
  last_ = now;
  last_faults_ = faults;
  rows_.push_back(row);
  return rows_.back();
}

std::string csv_header() {
  return "step,t_step,force_max,force_avg,force_min,wait_seconds,"
         "collective_seconds,messages,bytes,transfers,potential_energy,"
         "kinetic_energy,temperature,retransmissions,recv_timeouts,"
         "faults_dropped,faults_corrupted,faults_delayed,checkpoint_bytes,"
         "rollbacks,failovers,particles_recovered,imbalance,cells_moved";
}

namespace {
// Shortest representation that round-trips a double exactly.
std::string num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}
}  // namespace

void write_csv(std::ostream& os, std::span<const StepMetrics> rows) {
  os << csv_header() << '\n';
  for (const StepMetrics& r : rows) {
    os << r.step << ',' << num(r.t_step) << ',' << num(r.force_max) << ','
       << num(r.force_avg) << ',' << num(r.force_min) << ','
       << num(r.wait_seconds) << ',' << num(r.collective_seconds) << ','
       << r.messages << ',' << r.bytes << ',' << r.transfers << ','
       << num(r.potential_energy) << ',' << num(r.kinetic_energy) << ','
       << num(r.temperature) << ',' << r.retransmissions << ','
       << r.recv_timeouts << ',' << r.faults_dropped << ','
       << r.faults_corrupted << ',' << r.faults_delayed << ','
       << r.checkpoint_bytes << ',' << r.rollbacks << ',' << r.failovers
       << ',' << r.particles_recovered << ',' << num(r.imbalance) << ','
       << r.cells_moved << '\n';
  }
}

bool write_trace_files(const std::string& base,
                       const TraceCollector& collector,
                       std::span<const StepMetrics> rows) {
  bool ok = true;
  const auto write = [&](const std::string& path, const auto& body) {
    std::ofstream file(path);
    if (file) body(file);
    if (!file) {
      std::fprintf(stderr, "trace: failed to write %s\n", path.c_str());
      ok = false;
    }
  };
  write(base + ".json",
        [&](std::ostream& os) { write_chrome_trace(os, collector); });
  write(base + ".csv", [&](std::ostream& os) { write_csv(os, rows); });
  return ok;
}

}  // namespace pcmd::obs
