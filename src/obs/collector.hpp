// TraceCollector: the per-rank ring-buffer event recorder at the heart of
// the observability layer.
//
// Two event sources feed it:
//   * the virtual machine — attach with Engine::set_trace_sink and every
//     compute/send/recv/collective event is recorded with virtual
//     timestamps (sim/trace_sink.hpp);
//   * the application — named spans (span_begin/span_end), instants,
//     counters and DLB decisions, emitted by instrumented engines such as
//     ddm::ParallelMd around their sub-steps (force, halo, migration, DLB).
//
// Concurrency: rank r's events are only ever recorded from the thread
// running rank r in the current phase (the engine guarantees this for its
// hooks; span instrumentation runs inside phase bodies, which satisfy it
// too). On ThreadEngine that thread can change from phase to phase, but a
// rank has one runner per phase and the phase barrier orders phases. Each
// rank owns a private ring, so the hot path takes no lock and ThreadEngine
// runs record race-free. Span names must be interned *before* the run
// (interning takes a mutex); the per-event hot path is an array store.
//
// Memory: rings are fixed capacity (Options::ring_capacity events/rank,
// 40 B each). When full, the oldest events are overwritten and counted in
// events_dropped() — a long run degrades to a "most recent window" trace
// instead of growing without bound.
#pragma once

#include "obs/trace_event.hpp"
#include "sim/trace_sink.hpp"

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace pcmd::obs {

class TraceCollector final : public sim::TraceSink {
 public:
  struct Options {
    std::size_t ring_capacity = 1 << 16;  // events per rank
  };

  TraceCollector() = default;
  explicit TraceCollector(Options options);
  // Convenience for use without an engine (tests, manual instrumentation):
  // equivalent to constructing and calling on_attach(ranks).
  TraceCollector(int ranks, Options options);

  // ---- engine hooks (sim::TraceSink) ----
  void on_attach(int ranks) override;
  void on_compute(int rank, double start, double seconds) override;
  void on_send(int rank, int peer, int tag, std::size_t bytes,
               double clock) override;
  void on_recv(int rank, int peer, int tag, std::size_t bytes, double clock,
               double wait) override;
  void on_collective_begin(int rank, int op, std::size_t width,
                           double clock) override;
  void on_collective_end(int rank, double clock, double wait) override;

  // ---- application events ----
  // Interns `name`, returning a stable non-zero id; repeated calls with the
  // same string return the same id. Takes a mutex — intern during setup,
  // not per event.
  std::uint32_t intern(std::string_view name);
  // Name for an id previously returned by intern (empty string for 0).
  std::string name(std::uint32_t id) const;

  void span_begin(int rank, std::uint32_t name, double clock);
  void span_end(int rank, std::uint32_t name, double clock);
  void counter(int rank, std::uint32_t name, double clock, double value);
  void dlb_decision(int rank, int column, int target, double clock);

  // ---- inspection (between phases / after the run) ----
  int ranks() const { return static_cast<int>(rings_.size()); }
  // Rank `rank`'s surviving events, oldest first.
  std::vector<TraceEvent> events(int rank) const;
  std::uint64_t events_recorded() const;  // including overwritten ones
  std::uint64_t events_dropped() const;
  // Forgets all events (names and rank count are kept) — e.g. between two
  // runs sharing one collector.
  void clear();

 private:
  struct Ring {
    std::vector<TraceEvent> buffer;  // capacity slots, allocated on attach
    std::size_t size = 0;            // filled slots
    std::size_t next = 0;            // write cursor
    std::uint64_t recorded = 0;      // total pushes ever
  };

  void record(int rank, const TraceEvent& event);

  Options options_;
  std::vector<Ring> rings_;
  mutable std::mutex names_mutex_;
  std::vector<std::string> names_;  // id -> name; names_[0] is ""
};

}  // namespace pcmd::obs
