// The SPMD communication interface and the engine that executes SPMD
// programs on the virtual parallel machine.
//
// Programming model (BSP phases):
//   * A program is driven as a sequence of *phases*. In each phase the same
//     callable runs once per rank (sequentially in SeqEngine; in ThreadEngine
//     concurrently, on up to one host thread per core).
//   * `send` is asynchronous and may target any rank.
//   * `recv` may only consume messages sent in an *earlier* phase. Receiving
//     a message that was never sent (or was sent in the same phase) is a
//     protocol error and throws — this guarantee is what makes the
//     sequential and threaded engines bitwise-identical.
//   * Collectives are split-phase: `collective_begin` in one phase,
//     `collective_end` in a later phase.
//
// Virtual time: each rank carries a clock. `advance` charges modelled compute
// time; `recv` forwards the clock to the message arrival time if the message
// is "still in flight"; collectives synchronise clocks to the latest
// participant plus a tree-reduction cost. MPI_Wtime in the paper's programs
// maps to Comm::clock().
#pragma once

#include "sim/cost_model.hpp"
#include "sim/mailbox.hpp"
#include "sim/message.hpp"
#include "sim/topology.hpp"

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

// Compile-time switch for the protocol-checker hooks (the PCMD_CHECKER CMake
// option, a PUBLIC define on pcmd_sim; default on).
#ifndef PCMD_CHECKER_ENABLED
#define PCMD_CHECKER_ENABLED 1
#endif

// Shared-state access stamp for the checker's happens-before detector
// (sim/checker.hpp). Engines mark each cross-rank touch point:
//
//   PCMD_HB_ACCESS(comm, "column", col, /*is_write=*/true, "dlb");
//
// declaring "this rank now reads/writes logical object {kind, index}".
// A touch is legal only if every conflicting touch by another rank is
// separated from it by a message or collective path; the checker reports
// the rest as unordered-access violations. Compiles to nothing when the
// checker hooks are compiled out; costs a null-pointer branch when no
// checker is attached. `kind` and `site` must be string literals (the
// checker keeps the pointers).
#if PCMD_CHECKER_ENABLED
#define PCMD_HB_ACCESS(comm, kind, index, is_write, site)               \
  (comm).hb_access(                                                     \
      ::pcmd::sim::HbObject((kind), static_cast<std::int64_t>(index)),  \
      (is_write), (site))
#else
#define PCMD_HB_ACCESS(comm, kind, index, is_write, site) ((void)0)
#endif

namespace pcmd::sim {

class FaultInjector;
class ProtocolChecker;
class TraceSink;

// Identifies one piece of logically-shared protocol state for the
// happens-before detector: a small family name ("column", "halo", ...) plus
// an instance index. `kind` must point at storage that outlives the checker
// (in practice: a string literal).
struct HbObject {
  HbObject(const char* kind_in, std::int64_t index_in)
      : kind(kind_in), index(index_in) {}
  const char* kind;
  std::int64_t index;
};

// Reduction operators for collectives.
enum class ReduceOp { kSum, kMax, kMin };

// Per-rank accounting, inspectable after (or during) a run.
struct RankCounters {
  double compute_seconds = 0.0;    // charged via advance()
  double comm_wait_seconds = 0.0;  // time the clock jumped forward in recv()
  double collective_seconds = 0.0; // cost charged by collective_end()
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t recv_timeouts = 0;  // recv_deadline calls that timed out
};

class Engine;

// Lightweight per-rank handle passed to phase bodies.
class Comm {
 public:
  Comm(Engine* engine, int rank) : engine_(engine), rank_(rank) {}

  int rank() const { return rank_; }
  int size() const;

  // Charges modelled compute time to this rank's clock.
  void advance(double seconds);

  // Current virtual time on this rank.
  double clock() const;

  // Asynchronous point-to-point send; the payload is charged to the sender's
  // counters and arrives at `clock() + message_time(bytes, hops)`. When a
  // FaultInjector is attached the message may be dropped, corrupted,
  // delayed or slowed per the fault plan.
  void send(int dst, int tag, Buffer payload);

  // What the fault layer did to one transmission attempt. In a real machine
  // the sender learns this through the ack/timeout protocol; the virtual
  // machine hands it back directly so the reliable channel can charge the
  // equivalent virtual backoff time without modelling ack messages.
  struct SendOutcome {
    bool dropped = false;    // never entered the destination mailbox
    bool corrupted = false;  // delivered, but with a flipped payload byte
    double arrival = 0.0;    // virtual arrival time (meaningless if dropped)
    bool delivered_intact() const { return !dropped && !corrupted; }
  };

  // Send as one numbered attempt of a reliable transmission: the fault
  // decision is keyed on `attempt` (so a retry can succeed where the first
  // copy failed) and the message leaves `extra_delay` virtual seconds after
  // now (the retransmission backoff). Used by sim::ReliableChannel; plain
  // send(dst, tag, payload) is attempt 0 with no delay.
  SendOutcome send_attempt(int dst, int tag, Buffer payload,
                           std::uint32_t attempt, double extra_delay = 0.0);

  // Receives the message sent by `src` with `tag` in an earlier phase.
  //
  // recv NEVER blocks, on either engine: a message that was never sent (or
  // was sent in the current phase) throws ProtocolError immediately, with
  // rank/phase provenance, whether or not a ProtocolChecker is attached.
  // This replaces the deadlock a real MPI rank would sit in — use
  // recv_deadline when "no message" is an expected outcome (a crashed
  // peer) rather than a protocol bug.
  Buffer recv(int src, int tag);

  // Non-throwing variant.
  std::optional<Buffer> try_recv(int src, int tag);

  // Receive with a virtual-time deadline: delivers like recv when a message
  // is visible; otherwise models waiting `timeout` seconds for a message
  // that never came — the clock advances by `timeout`, the rank's
  // recv_timeouts counter increments, and nullopt is returned. This is the
  // crash-detection primitive: under BSP visibility a message absent now is
  // absent forever, so the timeout maps the "is the peer dead?" question
  // into virtual time deterministically.
  std::optional<Buffer> recv_deadline(int src, int tag, double timeout);

  // True if recv(src, tag) would succeed.
  bool has_message(int src, int tag) const;

  // Sources with a visible message of `tag`, sorted (deterministic).
  std::vector<int> sources_with(int tag) const;

  // Split-phase collective over all ranks. Every rank must call begin with
  // the same op and width in the same phase, then end in a later phase.
  //
  // `slot` is the logical contribution index (default: this rank). Layers
  // that separate logical roles from physical ranks (sim::Membership) pass
  // the role id so the floating-point combine order — and therefore the
  // reduced value, bit for bit — depends only on the logical configuration,
  // not on which physical rank happens to host each role. Two ranks passing
  // the same slot in one collective is a protocol error.
  void collective_begin(ReduceOp op, std::span<const double> values,
                        int slot = -1);
  std::vector<double> collective_end();

  // Convenience wrappers for the common scalar cases.
  void reduce_begin(ReduceOp op, double value) {
    collective_begin(op, std::span<const double>(&value, 1));
  }
  double reduce_end() { return collective_end().at(0); }

  // Barrier = zero-width collective.
  void barrier_begin() { collective_begin(ReduceOp::kSum, {}); }
  void barrier_end() { (void)collective_end(); }

  // Routes a PCMD_HB_ACCESS stamp to the attached checker's happens-before
  // detector (no-op with no checker, or with the hooks compiled out).
  // Prefer the macro: it disappears entirely under PCMD_CHECKER_ENABLED=0.
  void hb_access(HbObject object, bool is_write, const char* site);

  const RankCounters& counters() const;

 private:
  Engine* engine_;
  int rank_;
};

// Thrown on violations of the phase/message protocol.
class ProtocolError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

// Thrown when a payload fails its integrity check — the bytes arrived but
// were corrupted in flight. Distinct from the truncation/shape errors plain
// ProtocolError reports, so callers can tell "bad link" from "bad code".
class ChecksumError : public ProtocolError {
 public:
  using ProtocolError::ProtocolError;
};

// Raised when a peer is gone for good: a reliable channel spent its retry
// budget on it (every copy of a message was lost or corrupted), or a receive
// found no message from a rank that has crashed. The membership layer
// catches it to declare the peer dead instead of aborting the run.
class PeerDeadError : public ProtocolError {
 public:
  PeerDeadError(int peer, int tag, const std::string& what)
      : ProtocolError(what), peer_(peer), tag_(tag) {}

  int peer() const { return peer_; }
  int tag() const { return tag_; }

 private:
  int peer_;
  int tag_;
};

// Engine: owns rank state (clocks, mailboxes, collectives) and executes
// phases. Concrete subclasses decide sequential vs threaded execution.
class Engine {
 public:
  Engine(int ranks, MachineModel model);
  virtual ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  int size() const { return ranks_; }
  const MachineModel& model() const { return model_; }

  // Runs `body` once per rank as the next phase.
  virtual void run_phase(const std::function<void(Comm&)>& body) = 0;

  // Inspection (valid between phases).
  double clock(int rank) const;
  const RankCounters& counters(int rank) const;
  int current_phase() const { return phase_; }

  // Maximum clock across ranks — the virtual makespan so far.
  double makespan() const;

  // Aligns every rank's clock to the maximum (used by harnesses to model a
  // hard synchronisation point without paying collective cost).
  void align_clocks();

  // Overwrites every rank's clock, one value per rank. Clock skew carries
  // across phases, so a suspended run resumed on a fresh engine (implicitly
  // aligned at zero) would observe different per-step makespans; restoring
  // the captured clocks makes virtual time itself resume-invariant. Call
  // only between phases (from the driving thread).
  void restore_clocks(const std::vector<double>& clocks);

  // Attaches a protocol checker (sim/checker.hpp) observing every
  // communication event; nullptr detaches. Attach before the first phase —
  // traffic already in flight makes the trace unmatchable. Hooks only fire
  // when compiled with PCMD_CHECKER_ENABLED (the PCMD_CHECKER CMake
  // option); the checker's lifetime is the caller's problem.
  void set_checker(ProtocolChecker* checker);
  ProtocolChecker* checker() const { return checker_; }

  // Attaches an observability sink (sim/trace_sink.hpp) that receives every
  // compute/send/recv/collective event with virtual timestamps; nullptr
  // detaches. Orthogonal to the protocol checker: the checker verifies, the
  // sink records. Detached cost is one branch per event. The sink's
  // lifetime is the caller's problem.
  void set_trace_sink(TraceSink* sink);
  TraceSink* trace_sink() const { return sink_; }

  // Attaches a fault injector (sim/fault.hpp) applying its FaultPlan to
  // every send/advance; nullptr detaches. Attach before the first phase.
  // Throws std::invalid_argument naming the kind, the rank and the valid
  // range when the plan's stall, crash, sdc or degraded-link ranks fall
  // outside [0, size()); a degraded link's rank_b of -1 means every link.
  // The injector's lifetime is the caller's problem. Note the strict
  // ProtocolChecker assumes lossless delivery — do not attach both a
  // checker and a lossy fault plan.
  void set_fault_injector(FaultInjector* faults);
  FaultInjector* fault_injector() const { return faults_; }

  // Crash status. A crash scheduled at virtual time T takes effect at the
  // first phase boundary where the rank's clock has reached T: the rank's
  // phase body is simply never run again (its clock freezes, messages to it
  // rot unread, messages from it stop). Aliveness is recomputed only in
  // notify_phase_begin — on the driving thread, between phases — so phase
  // bodies may read it without synchronisation and every rank observes the
  // same view for a whole phase.
  bool alive(int rank) const { return alive_[static_cast<std::size_t>(rank)] != 0; }
  int alive_count() const;

  // Parked ranks idle at barriers: they are exempt from collective
  // completeness (a collective does not wait for them), modelling spare PEs
  // blocked in a recv that membership has not yet woken. Their phase bodies
  // still run — the program is expected to return immediately for a parked
  // rank. Unparking fast-forwards the rank's collective cursors and clock to
  // the running ranks' position so its next collective_begin joins the
  // current slot. Call only between phases (from the driving thread).
  void set_parked(int rank, bool parked);
  bool parked(int rank) const {
    return parked_[static_cast<std::size_t>(rank)] != 0;
  }

  // Administratively marks a rank dead, exactly as if a planned crash had
  // fired at the current phase boundary: its body never runs again and
  // collectives stop waiting for it. Used by the watchdog to excise a rank
  // that keeps producing corrupt state. Call only between phases.
  void declare_dead(int rank);

 protected:
  // Subclasses call this at the top of run_phase, after ++phase_.
  void notify_phase_begin();

  int phase_ = 0;

 private:
  friend class Comm;

  struct CollectiveSlot {
    ReduceOp op = ReduceOp::kSum;
    std::size_t width = 0;
    int contributions = 0;
    int last_begin_phase = -1;
    double max_clock = 0.0;
    // Contributions keyed by logical slot, combined in slot order at the
    // first end() so floating-point rounding is independent of execution
    // order AND of the role→rank placement. Presence is tracked per physical
    // rank separately, because completeness ("has everyone begun?") is a
    // question about ranks while the combine is a question about slots.
    std::vector<double> per_slot;    // width * ranks, slot-major
    std::vector<bool> present_slot;  // which logical slots contributed
    std::vector<bool> present_rank;  // which physical ranks contributed
    std::vector<double> combined;    // length == width, filled lazily
    bool have_combined = false;
  };

  struct RankState {
    double clock = 0.0;
    RankCounters counters;
    Mailbox mailbox;
    std::size_t begin_seq = 0;  // collectives begun by this rank
    std::size_t end_seq = 0;    // collectives completed by this rank
  };

  Comm::SendOutcome do_send(int src, int dst, int tag, Buffer payload,
                            std::uint32_t attempt, double extra_delay);
  Buffer do_recv(int rank, int src, int tag);
  std::optional<Buffer> do_try_recv(int rank, int src, int tag);
  std::optional<Buffer> do_recv_deadline(int rank, int src, int tag,
                                         double timeout);
  void do_collective_begin(int rank, ReduceOp op,
                           std::span<const double> values, int slot);
  std::vector<double> do_collective_end(int rank);
  void do_hb_access(int rank, HbObject object, bool is_write,
                    const char* site);

  int ranks_;
  MachineModel model_;
  HopModel hop_model_;
  ProtocolChecker* checker_ = nullptr;
  TraceSink* sink_ = nullptr;
  FaultInjector* faults_ = nullptr;
  // 1 = alive. Written only between phases (notify_phase_begin); read freely
  // by phase bodies. Once 0, stays 0.
  std::vector<char> alive_;
  // 1 = parked (idling spare). Written only between phases (set_parked);
  // read freely by phase bodies.
  std::vector<char> parked_;
  std::vector<std::unique_ptr<RankState>> states_;
  std::vector<CollectiveSlot> collectives_;
  mutable std::mutex collective_mutex_;
};

// An engine that runs each phase on a rank pool (thread_engine.cpp): its
// runners, the driving thread plus runners − 1 helper threads, claim the
// phase's ranks in ascending order from one shared counter until all have
// run. Every live rank of a phase runs even when another throws, and
// run_phase rethrows the exception of the lowest-numbered throwing rank.
// Only the two engines below choose a runner count.
class PooledEngine : public Engine {
 public:
  ~PooledEngine() override;
  void run_phase(const std::function<void(Comm&)>& body) final;

 private:
  friend class SeqEngine;
  friend class ThreadEngine;
  PooledEngine(int ranks, MachineModel model, int runners);

  struct Pool;
  std::unique_ptr<Pool> pool_;
};

// Deterministic sequential engine: the one-runner pool. The driving thread
// runs every rank of a phase itself, in ascending order.
class SeqEngine final : public PooledEngine {
 public:
  SeqEngine(int ranks, MachineModel model = MachineModel::t3e());
};

// Thread-backed engine: min(ranks, hardware_concurrency()) runners, so one
// engine never runs more threads than the host has cores, however many
// ranks it has. Produces results identical to SeqEngine.
class ThreadEngine final : public PooledEngine {
 public:
  ThreadEngine(int ranks, MachineModel model = MachineModel::t3e());
};

}  // namespace pcmd::sim
