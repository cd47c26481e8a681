#include "sim/comm.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace pcmd::sim {

// The rank pool behind both engines. W runners — the driving thread plus
// W − 1 persistent helper threads — execute a phase by claiming ranks in
// ascending order from one shared counter until all P have been claimed.
// Claiming is dynamic rather than in fixed rank blocks because heavy ranks
// are contiguous (a droplet's core pillars), and a fixed block would leave
// one runner with most of the phase. SeqEngine is W = 1: the driving thread
// claims every rank itself, with no helper thread and no futex on its path.
//
// Ranks are independent within a phase (recv never consumes a message sent
// in the same phase), so which runner executes a rank changes no result.
// Every live rank runs even when another throws, and run() rethrows the
// exception of the lowest-numbered throwing rank, so which exception
// surfaces does not depend on timing.
//
// Ordering (C++20 atomic wait/notify; the dispatch path takes no lock):
//   * the driver writes `body` and `remaining`, then publishes the phase by
//     the release store of `next` = 0 and wakes helpers through `generation`;
//   * a claim is an acquire fetch_add on `next` (see claim() for the lone
//     runner). A claim r < P therefore observes the publication (body,
//     aliveness, every effect of the earlier phases); a claim r >= P runs
//     nothing;
//   * each runner subtracts the ranks it claimed from `remaining` with a
//     release RMW once its claims run out. The driver's acquire load of 0
//     synchronizes with all of them, so it observes every rank's effects
//     before run() returns;
//   * `next` is reset only after `remaining` reached 0, when all P ranks of
//     the phase have been claimed. A helper that wakes late therefore either
//     claims >= P or claims a rank of the next phase, whose body it reads.
struct PooledEngine::Pool {
  Pool(PooledEngine* engine, int runners)
      : engine(engine), ranks(engine->size()) {
    helpers.reserve(static_cast<std::size_t>(runners - 1));
    try {
      for (int i = 1; i < runners; ++i) {
        helpers.emplace_back([this] { helper_loop(); });
      }
    } catch (...) {
      stop();
      throw;
    }
  }

  ~Pool() { stop(); }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  void run(const std::function<void(Comm&)>& phase_body) {
    body = &phase_body;
    remaining.store(ranks, std::memory_order_relaxed);
    next.store(0, std::memory_order_release);
    if (!helpers.empty()) {
      generation.fetch_add(1, std::memory_order_release);
      generation.notify_all();
    }
    const int claimed = drain();
    int left = remaining.fetch_sub(claimed, std::memory_order_acq_rel) -
               claimed;
    while (left != 0) {
      remaining.wait(left, std::memory_order_acquire);
      left = remaining.load(std::memory_order_acquire);
    }
    if (error) std::rethrow_exception(std::exchange(error, nullptr));
  }

  // Claims and runs ranks until the phase has none left; returns how many
  // this runner claimed.
  int drain() {
    int claimed = 0;
    for (int r; (r = claim()) < ranks; ++claimed) {
      // Aliveness only changes between phases, so this read is stable for
      // the whole phase. Crashed ranks never run again.
      if (!engine->alive(r)) continue;
      try {
        Comm comm(engine, r);
        (*body)(comm);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!error || r < error_rank) {
          error = std::current_exception();
          error_rank = r;
        }
      }
    }
    return claimed;
  }

  // A lone runner (SeqEngine) has no one to race for a rank, so it skips the
  // locked read-modify-write: with it, an empty 36-rank phase costs four
  // times as much.
  int claim() {
    if (helpers.empty()) {
      const int r = next.load(std::memory_order_relaxed);
      next.store(r + 1, std::memory_order_relaxed);
      return r;
    }
    return next.fetch_add(1, std::memory_order_acquire);
  }

  void helper_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      generation.wait(seen, std::memory_order_acquire);
      seen = generation.load(std::memory_order_acquire);
      if (shutdown.load(std::memory_order_relaxed)) return;
      const int claimed = drain();
      if (claimed > 0 &&
          remaining.fetch_sub(claimed, std::memory_order_release) == claimed) {
        remaining.notify_one();  // last rank out wakes the driving thread
      }
    }
  }

  void stop() {
    shutdown.store(true, std::memory_order_relaxed);
    generation.fetch_add(1, std::memory_order_release);
    generation.notify_all();
    for (auto& t : helpers) t.join();
  }

  PooledEngine* engine;
  const int ranks;
  const std::function<void(Comm&)>* body = nullptr;
  alignas(64) std::atomic<int> next{0};  // the claim counter, hot per rank
  alignas(64) std::atomic<int> remaining{0};
  std::atomic<std::uint64_t> generation{0};
  std::atomic<bool> shutdown{false};
  std::mutex error_mutex;  // guards error and error_rank; cold path only
  std::exception_ptr error;
  int error_rank = 0;
  std::vector<std::thread> helpers;  // last: the threads use every member
};

PooledEngine::PooledEngine(int ranks, MachineModel model, int runners)
    : Engine(ranks, std::move(model)),
      pool_(std::make_unique<Pool>(this, runners)) {}

PooledEngine::~PooledEngine() = default;

void PooledEngine::run_phase(const std::function<void(Comm&)>& body) {
  ++phase_;
  notify_phase_begin();
  pool_->run(body);
}

namespace {
// W = min(P, cores): more runners than cores would only take turns.
int runner_count(int ranks) {
  const int cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return std::min(ranks, cores);
}
}  // namespace

ThreadEngine::ThreadEngine(int ranks, MachineModel model)
    : PooledEngine(ranks, std::move(model), runner_count(ranks)) {}

}  // namespace pcmd::sim
