#include "sim/comm.hpp"

#include "sim/checker.hpp"
#include "sim/fault.hpp"
#include "sim/trace_sink.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

// Protocol-checker hooks. Compiled in when PCMD_CHECKER_ENABLED is 1 (the
// PCMD_CHECKER CMake option, defaulted in comm.hpp); then each hook is one
// branch on a pointer that is null unless a checker is attached. Compiled
// out entirely when 0.
#if PCMD_CHECKER_ENABLED
#define PCMD_CHECKER_HOOK(engine, call)              \
  do {                                               \
    if (auto* pcmd_checker_ = (engine)->checker_) {  \
      pcmd_checker_->call;                           \
    }                                                \
  } while (0)
#else
#define PCMD_CHECKER_HOOK(engine, call) \
  do {                                  \
  } while (0)
#endif

namespace pcmd::sim {

// ---------------------------------------------------------------- Comm ----

int Comm::size() const { return engine_->size(); }

void Comm::advance(double seconds) {
  if (seconds < 0.0) {
    throw std::invalid_argument("Comm::advance: negative time");
  }
  auto& state = *engine_->states_[rank_];
  const double start = state.clock;
  double elapsed = seconds;
  if (auto* faults = engine_->faults_) {
    // A stalled rank really is computing for longer, so the stretch lands in
    // the clock AND compute_seconds — that is what lets the DLB see it.
    const double extra = faults->stall_extra(rank_, start, seconds);
    if (extra > 0.0) {
      elapsed += extra;
      faults->count_stall(extra);
    }
  }
  state.clock += elapsed;
  state.counters.compute_seconds += elapsed;
  PCMD_CHECKER_HOOK(engine_, on_clock(rank_, state.clock));
  if (auto* sink = engine_->sink_) sink->on_compute(rank_, start, elapsed);
}

double Comm::clock() const { return engine_->states_[rank_]->clock; }

void Comm::send(int dst, int tag, Buffer payload) {
  (void)engine_->do_send(rank_, dst, tag, std::move(payload), 0, 0.0);
}

Comm::SendOutcome Comm::send_attempt(int dst, int tag, Buffer payload,
                                     std::uint32_t attempt,
                                     double extra_delay) {
  return engine_->do_send(rank_, dst, tag, std::move(payload), attempt,
                          extra_delay);
}

Buffer Comm::recv(int src, int tag) { return engine_->do_recv(rank_, src, tag); }

std::optional<Buffer> Comm::try_recv(int src, int tag) {
  return engine_->do_try_recv(rank_, src, tag);
}

std::optional<Buffer> Comm::recv_deadline(int src, int tag, double timeout) {
  return engine_->do_recv_deadline(rank_, src, tag, timeout);
}

bool Comm::has_message(int src, int tag) const {
  return engine_->states_[rank_]->mailbox.has(src, tag,
                                              engine_->current_phase());
}

std::vector<int> Comm::sources_with(int tag) const {
  return engine_->states_[rank_]->mailbox.sources_with(
      tag, engine_->current_phase());
}

void Comm::collective_begin(ReduceOp op, std::span<const double> values,
                            int slot) {
  engine_->do_collective_begin(rank_, op, values, slot);
}

std::vector<double> Comm::collective_end() {
  return engine_->do_collective_end(rank_);
}

void Comm::hb_access(HbObject object, bool is_write, const char* site) {
  engine_->do_hb_access(rank_, object, is_write, site);
}

const RankCounters& Comm::counters() const {
  return engine_->states_[rank_]->counters;
}

// -------------------------------------------------------------- Engine ----

Engine::Engine(int ranks, MachineModel model)
    : ranks_(ranks), model_(std::move(model)), hop_model_(std::max(ranks, 1)) {
  if (ranks < 1) {
    throw std::invalid_argument("Engine: need at least one rank");
  }
  states_.reserve(ranks_);
  for (int r = 0; r < ranks_; ++r) {
    states_.push_back(std::make_unique<RankState>());
  }
  alive_.assign(static_cast<std::size_t>(ranks_), 1);
  parked_.assign(static_cast<std::size_t>(ranks_), 0);
}

Engine::~Engine() = default;

double Engine::clock(int rank) const { return states_.at(rank)->clock; }

const RankCounters& Engine::counters(int rank) const {
  return states_.at(rank)->counters;
}

double Engine::makespan() const {
  double m = 0.0;
  for (const auto& s : states_) m = std::max(m, s->clock);
  return m;
}

void Engine::align_clocks() {
  const double m = makespan();
  for (auto& s : states_) s->clock = m;
#if PCMD_CHECKER_ENABLED
  if (checker_) {
    for (int r = 0; r < ranks_; ++r) checker_->on_clock(r, m);
  }
#endif
}

void Engine::restore_clocks(const std::vector<double>& clocks) {
  if (clocks.size() != static_cast<std::size_t>(ranks_)) {
    throw std::invalid_argument(
        "Engine::restore_clocks: got " + std::to_string(clocks.size()) +
        " clocks for " + std::to_string(ranks_) + " ranks");
  }
  for (int r = 0; r < ranks_; ++r) {
    states_[static_cast<std::size_t>(r)]->clock = clocks[static_cast<std::size_t>(r)];
  }
#if PCMD_CHECKER_ENABLED
  if (checker_) {
    for (int r = 0; r < ranks_; ++r) {
      checker_->on_clock(r, clocks[static_cast<std::size_t>(r)]);
    }
  }
#endif
}

void Engine::set_checker(ProtocolChecker* checker) {
  checker_ = checker;
#if PCMD_CHECKER_ENABLED
  if (checker_) checker_->on_attach(ranks_);
#endif
}

void Engine::set_trace_sink(TraceSink* sink) {
  sink_ = sink;
  if (sink_) sink_->on_attach(ranks_);
}

void Engine::set_fault_injector(FaultInjector* faults) {
  if (faults) {
    const FaultPlan& plan = faults->plan();
    const auto check = [&](const char* kind, int rank) {
      if (rank >= 0 && rank < ranks_) return;
      throw std::invalid_argument(
          std::string("fault plan: ") + kind + " names rank " +
          std::to_string(rank) + ", but the engine's ranks are 0 to " +
          std::to_string(ranks_ - 1));
    };
    for (const auto& stall : plan.stalls) check("stall", stall.rank);
    for (const auto& crash : plan.crashes) check("crash", crash.rank);
    for (const auto& sdc : plan.sdcs) check("sdc", sdc.rank);
    for (const auto& link : plan.degraded_links) {
      check("degraded link", link.rank_a);
      if (link.rank_b != -1) check("degraded link", link.rank_b);
    }
  }
  faults_ = faults;
}

int Engine::alive_count() const {
  int n = 0;
  for (const char a : alive_) n += a != 0;
  return n;
}

void Engine::set_parked(int rank, bool parked) {
  auto& flag = parked_.at(static_cast<std::size_t>(rank));
  const char want = parked ? 1 : 0;
  if (flag == want) return;
  flag = want;
  if (parked) return;
  // Activation: the rank slept through an unknown number of collectives and
  // an unknown amount of virtual time. Fast-forward its cursors and clock to
  // the running ranks' position (equal across them between steps) so its
  // next collective_begin lands in the current slot, not a stale one.
  auto& state = *states_[static_cast<std::size_t>(rank)];
  std::size_t seq = state.end_seq;
  double clk = state.clock;
  for (int r = 0; r < ranks_; ++r) {
    if (r == rank || alive_[static_cast<std::size_t>(r)] == 0 ||
        parked_[static_cast<std::size_t>(r)] != 0) {
      continue;
    }
    seq = std::max(seq, states_[static_cast<std::size_t>(r)]->end_seq);
    clk = std::max(clk, states_[static_cast<std::size_t>(r)]->clock);
  }
  state.begin_seq = seq;
  state.end_seq = seq;
  state.clock = clk;
  PCMD_CHECKER_HOOK(this, on_clock(rank, state.clock));
}

void Engine::declare_dead(int rank) {
  alive_.at(static_cast<std::size_t>(rank)) = 0;
}

void Engine::notify_phase_begin() {
  PCMD_CHECKER_HOOK(this, on_phase_begin(phase_));
  if (faults_ != nullptr) {
    // Crashes land only here — between phases, on the driving thread — so
    // phase bodies see a consistent aliveness view and both engines agree
    // on exactly which phase a rank died before.
    for (int r = 0; r < ranks_; ++r) {
      if (alive_[static_cast<std::size_t>(r)] != 0 &&
          faults_->crashed(r, states_[static_cast<std::size_t>(r)]->clock)) {
        alive_[static_cast<std::size_t>(r)] = 0;
      }
    }
  }
}

Comm::SendOutcome Engine::do_send(int src, int dst, int tag, Buffer payload,
                                  std::uint32_t attempt, double extra_delay) {
  if (dst < 0 || dst >= ranks_) {
    throw std::out_of_range("Comm::send: destination rank out of range");
  }
  auto& sender = *states_[src];
  const auto bytes = static_cast<std::uint64_t>(payload.size());
  const int hops = hop_model_.hops(src, dst);

  FaultInjector::SendFault fault;
  if (faults_ != nullptr) {
    fault = faults_->send_fault(src, dst, tag, phase_, attempt);
  }

  Message msg;
  msg.src = src;
  msg.dst = dst;
  msg.tag = tag;
  msg.phase = phase_;
  msg.arrival = sender.clock + extra_delay + fault.extra_delay +
                model_.message_time(bytes, hops) * fault.link_factor;
  msg.payload = std::move(payload);

  Comm::SendOutcome outcome;
  outcome.arrival = msg.arrival;

  // The attempt is charged and traced whether or not the network then eats
  // it — the sender did the work either way.
  sender.counters.messages_sent += 1;
  sender.counters.bytes_sent += bytes;
  PCMD_CHECKER_HOOK(this, on_send(src, dst, tag, phase_,
                                  static_cast<std::size_t>(bytes)));
  if (auto* sink = sink_) {
    sink->on_send(src, dst, tag, static_cast<std::size_t>(bytes),
                  sender.clock);
  }

  if (fault.extra_delay > 0.0) faults_->count_delay();
  if (fault.drop) {
    faults_->count_drop();
    outcome.dropped = true;
    return outcome;
  }
  if (fault.corrupt && !msg.payload.empty()) {
    msg.payload[fault.corrupt_byte % msg.payload.size()] ^= fault.corrupt_mask;
    faults_->count_corrupt();
    outcome.corrupted = true;
  }
  states_[dst]->mailbox.push(std::move(msg));
  return outcome;
}

Buffer Engine::do_recv(int rank, int src, int tag) {
  auto msg = do_try_recv(rank, src, tag);
  if (!msg) {
    PCMD_CHECKER_HOOK(this, on_recv_missing(rank, src, tag, phase_));
    if (!alive(src)) {
      throw PeerDeadError(src, tag,
                          "Comm::recv: rank " + std::to_string(src) +
                              " is dead, so no message tag " +
                              std::to_string(tag) + " reaches rank " +
                              std::to_string(rank) + " in phase " +
                              std::to_string(phase_));
    }
    throw ProtocolError("Comm::recv: no message from rank " +
                        std::to_string(src) + " tag " + std::to_string(tag) +
                        " visible to rank " + std::to_string(rank) +
                        " in phase " + std::to_string(phase_) +
                        " (receives must follow the send's phase)");
  }
  return std::move(*msg);
}

std::optional<Buffer> Engine::do_try_recv(int rank, int src, int tag) {
  auto& state = *states_[rank];
  auto msg = state.mailbox.pop(src, tag, phase_);
  if (!msg) return std::nullopt;
  double wait = 0.0;
  if (msg->arrival > state.clock) {
    wait = msg->arrival - state.clock;
    state.counters.comm_wait_seconds += wait;
    state.clock = msg->arrival;
  }
  state.counters.messages_received += 1;
  state.counters.bytes_received += msg->payload.size();
  PCMD_CHECKER_HOOK(this, on_recv(rank, src, tag, phase_, msg->phase));
  PCMD_CHECKER_HOOK(this, on_clock(rank, state.clock));
  if (auto* sink = sink_) {
    sink->on_recv(rank, src, tag, msg->payload.size(), state.clock, wait);
  }
  return std::move(msg->payload);
}

std::optional<Buffer> Engine::do_recv_deadline(int rank, int src, int tag,
                                               double timeout) {
  if (timeout < 0.0) {
    throw std::invalid_argument("Comm::recv_deadline: negative timeout");
  }
  auto msg = do_try_recv(rank, src, tag);
  if (msg) return msg;
  // No message is visible, and under BSP visibility none can appear later:
  // model having waited out the full deadline.
  auto& state = *states_[rank];
  state.clock += timeout;
  state.counters.comm_wait_seconds += timeout;
  state.counters.recv_timeouts += 1;
  PCMD_CHECKER_HOOK(this, on_clock(rank, state.clock));
  return std::nullopt;
}

void Engine::do_hb_access(int rank, HbObject object, bool is_write,
                          const char* site) {
  PCMD_CHECKER_HOOK(this, on_access(rank, object, is_write, site, phase_));
}

void Engine::do_collective_begin(int rank, ReduceOp op,
                                 std::span<const double> values,
                                 int logical_slot) {
  const int logical = logical_slot < 0 ? rank : logical_slot;
  if (logical >= ranks_) {
    throw ProtocolError("collective_begin: logical slot " +
                        std::to_string(logical) + " out of range");
  }
  std::lock_guard lock(collective_mutex_);
  auto& state = *states_[rank];
  const std::size_t slot_index = state.begin_seq++;
  if (slot_index >= collectives_.size()) {
    collectives_.resize(slot_index + 1);
  }
  auto& slot = collectives_[slot_index];
  if (slot.contributions == 0) {
    slot.op = op;
    slot.width = values.size();
    slot.per_slot.assign(slot.width * ranks_, 0.0);
    slot.present_slot.assign(ranks_, false);
    slot.present_rank.assign(ranks_, false);
  } else if (slot.op != op || slot.width != values.size()) {
    throw ProtocolError("collective_begin: mismatched op/width across ranks");
  }
  if (slot.present_slot[static_cast<std::size_t>(logical)]) {
    throw ProtocolError("collective_begin: logical slot " +
                        std::to_string(logical) +
                        " contributed twice (two ranks claiming one role?)");
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    slot.per_slot[slot.width * static_cast<std::size_t>(logical) + i] =
        values[i];
  }
  slot.present_slot[static_cast<std::size_t>(logical)] = true;
  slot.present_rank[static_cast<std::size_t>(rank)] = true;
  slot.max_clock = std::max(slot.max_clock, state.clock);
  slot.last_begin_phase = std::max(slot.last_begin_phase, phase_);
  slot.contributions += 1;
  PCMD_CHECKER_HOOK(this, on_collective_begin(rank, phase_,
                                              static_cast<int>(op),
                                              values.size()));
  if (auto* sink = sink_) {
    sink->on_collective_begin(rank, static_cast<int>(op), values.size(),
                              state.clock);
  }
}

std::vector<double> Engine::do_collective_end(int rank) {
  std::lock_guard lock(collective_mutex_);
  auto& state = *states_[rank];
  const std::size_t slot_index = state.end_seq;
  // Completeness is judged against the ranks still alive: a collective only
  // blocks on participants that can still show up. A rank that contributed
  // and then crashed is kept in the combine — its value is already in flight.
  bool complete = slot_index < collectives_.size() &&
                  collectives_[slot_index].last_begin_phase < phase_ &&
                  collectives_[slot_index].contributions > 0;
  if (complete) {
    // Parked ranks are exempt too: a spare idling at the barrier will never
    // contribute until membership wakes it.
    const auto& present = collectives_[slot_index].present_rank;
    for (int r = 0; r < ranks_; ++r) {
      if (alive_[static_cast<std::size_t>(r)] != 0 &&
          parked_[static_cast<std::size_t>(r)] == 0 &&
          !present[static_cast<std::size_t>(r)]) {
        complete = false;
        break;
      }
    }
  }
  if (!complete) {
    throw ProtocolError(
        "collective_end: not all (live) ranks have called collective_begin "
        "in an earlier phase (begin and end must be in different phases)");
  }
  state.end_seq++;
  auto& slot = collectives_[slot_index];
  if (!slot.have_combined) {
    // Combine in logical-slot order so rounding never depends on scheduling
    // or on role placement; skip slots that never contributed (crashed
    // before this collective).
    slot.combined.assign(slot.width, 0.0);
    for (std::size_t i = 0; i < slot.width; ++i) {
      double acc = 0.0;
      bool first = true;
      for (int r = 0; r < ranks_; ++r) {
        if (!slot.present_slot[static_cast<std::size_t>(r)]) continue;
        const double v = slot.per_slot[slot.width * r + i];
        if (first) {
          acc = v;
          first = false;
          continue;
        }
        switch (slot.op) {
          case ReduceOp::kSum:
            acc += v;
            break;
          case ReduceOp::kMax:
            acc = std::max(acc, v);
            break;
          case ReduceOp::kMin:
            acc = std::min(acc, v);
            break;
        }
      }
      slot.combined[i] = acc;
    }
    slot.per_slot.clear();
    slot.per_slot.shrink_to_fit();
    slot.have_combined = true;
  }
  const double cost =
      model_.collective_time(ranks_, slot.width * sizeof(double));
  const double finish = slot.max_clock + cost;
  double wait = 0.0;
  if (finish > state.clock) {
    wait = finish - state.clock;
    state.counters.collective_seconds += wait;
    state.clock = finish;
  }
  PCMD_CHECKER_HOOK(this, on_collective_end(rank, phase_));
  PCMD_CHECKER_HOOK(this, on_clock(rank, state.clock));
  if (auto* sink = sink_) sink->on_collective_end(rank, state.clock, wait);
  return slot.combined;
}

}  // namespace pcmd::sim
