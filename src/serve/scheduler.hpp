// Fault-contained job scheduler: the simulation-as-a-service core.
//
// A Scheduler owns a pool of host worker threads draining three priority
// lanes (high > normal > low). Each attempt runs inside run_attempt()'s
// containment boundary, so no job — malformed, crashing, deadline-blown or
// invariant-tripping — can take the service down; every submission reaches
// exactly one terminal state in the ResultStore:
//
//   succeeded               completed (attempts == 1)
//   succeeded, retried      completed after seed-remixed retries
//   deadline                cancelled when Σ t_step exceeded the budget
//   quarantined             poison: non-retryable failure, or the retry
//                           budget exhausted (spec + last error archived)
//
// Retry policy: retryable failures (checksum, peer-dead, unsurvivable —
// see runner.hpp for why unsurvivable retries) re-enqueue at the BACK of
// their lane with the attempt counter bumped and a deterministic, seeded
// exponential backoff charged in *virtual* seconds (recorded, never slept —
// the service has no wall-clock behaviour to make timing-dependent).
//
// Preemption: submitting a job that outranks a running *preemptible* job
// (clean fault plan — see JobSpec::preemptible) while no worker is idle
// raises that worker's eviction flag; the evicted attempt checkpoints,
// re-enqueues at the FRONT of its lane, and later resumes bitwise
// identically from the checkpoint.
//
// Idempotency: submissions are keyed by (spec digest, seed). A key already
// answered in the store is a cache hit (no re-run); a key already queued
// collapses into the in-flight entry.
//
// Admission control: submit() returns a typed SubmitResult and never
// blocks or throws on load. Each lane may carry a high-water mark; a
// submission to a full lane is shed (kRejectedOverloaded). Low-priority
// traffic sheds first by configuration: give the low lane the smallest
// mark. A deterministic circuit breaker (see BreakerConfig) rejects
// spec families that keep quarantining (kRejectedTripped).
//
// Durability: with a JobJournal attached, every admission, attempt start,
// preemption checkpoint and terminal record is journaled (flushed append)
// BEFORE the matching in-memory transition, and the ResultStore can run in
// FlushMode::kOnCompact. recover() replays the journal at startup: terminal
// records re-seed the store, pending jobs re-enqueue in their original
// lanes at their last started attempt (resuming from their last journaled
// checkpoint), and submission tallies are restored. Re-submitting an
// already-journaled submission after a restart consumes its journal entry
// instead of tallying again — at-least-once submission, exactly-once
// accounting — so a kill at any byte converges, after restart + drain, to
// a store byte-identical to the uninterrupted run and a counters_line()
// differing only in recovered=/shed=/tripped=.
//
// Determinism contract: the terminal record of every job — outcome,
// attempts, steps, virtual seconds, trajectory digest, energies — is a pure
// function of its spec, independent of worker count, lane timing and
// preemption. counters_line() only aggregates such values, so two runs of
// the same submission sequence print identical counters and write
// byte-identical stores. (Preemption/resume tallies ARE timing-dependent;
// they live in stats(), not in the deterministic line.)
#pragma once

#include "obs/counters.hpp"
#include "serve/job_spec.hpp"
#include "serve/journal.hpp"
#include "serve/runner.hpp"
#include "serve/store.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace pcmd::serve {

// Deterministic circuit breaker, per spec *family* (the spec with its seed
// masked — see JobSpec::family_digest). A family whose store holds at least
// `trip_quarantines` quarantined records (malformed specs excluded) is
// tripped, and stays tripped until `cooldown` virtual seconds of OTHER
// completed work accumulate past the family's own spend. Both sides of the
// comparison are pure functions of the store's record set — total virtual
// seconds plus recomputed retry backoff — so the breaker trips and cools
// identically across worker counts and across crash/recover boundaries.
struct BreakerConfig {
  int trip_quarantines = 0;  // 0 disables the breaker
  double cooldown = 1.0;     // virtual seconds
};

struct SchedulerConfig {
  int workers = 4;
  // Total attempts a retryable job gets before quarantine.
  int max_attempts = 3;
  // Virtual-seconds backoff: min(cap, base * 2^(retry-1)) * (1 + jitter),
  // jitter in [0, 1) drawn from SplitMix64(spec digest ^ attempt).
  double backoff_base = 1e-3;
  double backoff_cap = 1e-1;
  bool preemption_enabled = true;
  // Per-lane queue-depth caps, indexed by Priority; 0 = unbounded. A
  // submission whose lane already holds this many queued entries is shed.
  std::uint64_t high_water[3] = {0, 0, 0};
  BreakerConfig breaker;
  // Test seam: invoked on the worker thread immediately before each
  // attempt, outside every scheduler lock. Lets tests park a worker
  // deterministically (stalled-job drains, admission-control pressure).
  std::function<void(const JobSpec&)> before_attempt_hook;
};

// How submit() disposed of a submission.
enum class Admission : std::uint8_t {
  kAccepted = 0,            // enqueued to its lane
  kCacheHit = 1,            // already answered in the store
  kCollapsed = 2,           // already queued or running
  kRejectedOverloaded = 3,  // lane at its high-water mark; shed
  kRejectedTripped = 4,     // circuit breaker open for this spec family
  kMalformed = 5,           // unparseable text; quarantined terminally
};

const char* admission_name(Admission admission);

struct SubmitResult {
  Admission admission = Admission::kAccepted;
  std::string key;  // store key (terminal records land under it)
};

// Timing-dependent service tallies (NOT part of the determinism contract).
struct SchedulerStats {
  std::uint64_t preemptions = 0;
  std::uint64_t resumes = 0;
};

// Graceful-shutdown flavours for stop().
enum class StopMode {
  kDrain,       // finish all queued work, then halt the pool
  kCheckpoint,  // evict preemptible runners, keep queued work journaled
};

class Scheduler {
 public:
  // The store (and journal, when given) must outlive the scheduler.
  // `counters` (optional) receives the deterministic event tallies as they
  // happen. With a journal attached the scheduler journals every lifecycle
  // event and compacts both journal and store at stop()/destruction.
  Scheduler(SchedulerConfig config, ResultStore& store,
            obs::CounterBoard* counters = nullptr,
            JobJournal* journal = nullptr);
  ~Scheduler();  // stop(StopMode::kDrain) unless already stopped

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Replays the attached journal: terminal records re-seed the store,
  // pending submissions re-enqueue (original lane, last started attempt,
  // last checkpoint), tallies are restored, and every journaled submission
  // is remembered so its re-submission is consumed instead of re-tallied.
  // Call once, immediately after construction, before any submit().
  // Returns the number of jobs re-enqueued.
  std::size_t recover();

  // Admits a parsed job. Never blocks on load and never throws on a full
  // lane or a tripped breaker — overload is a typed result, not an error.
  // (A journal/store write failure still throws StoreError: the service
  // cannot persist its state and must stop loudly.)
  SubmitResult submit(const JobSpec& job);

  // Parses `text` (flag or JSON grammar) and submits. A malformed spec is
  // itself a terminal outcome: it is quarantined under a key derived from
  // the raw text, with the parse error archived — the service never throws
  // on bad input.
  SubmitResult submit(const std::string& text);

  // Blocks until every lane is empty and every worker is idle.
  void drain();

  // drain() with a deadline: waits at most `seconds` (wall time — this is
  // a shutdown bound, not simulation state) and reports whether the
  // scheduler went quiescent. A wedged worker makes this return false
  // instead of hanging process exit.
  bool try_drain(double seconds);

  // Halts the worker pool and compacts the store and journal. kDrain
  // finishes all queued work first; kCheckpoint evicts running preemptible
  // jobs into the journal and preserves every queued entry as journaled
  // pending state, so the next start resumes them. Idempotent; implied by
  // the destructor (kDrain).
  void stop(StopMode mode);
  // True once stop() has set its flags (after kDrain's drain). With
  // kCheckpoint, every preemptible job then running has its eviction flag
  // raised by that time.
  bool stopping() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return stopping_;
  }

  SchedulerStats stats() const;

  // Deterministic counter line, e.g.
  //   "SERVE-COUNTERS cache_hits=3 deadline=2 ... tripped=0"
  // computed from submission tallies and the store's terminal records.
  std::string counters_line() const;

  // The deterministic per-attempt backoff charge (virtual seconds) before
  // `attempt` (>= 2) of `job` runs. Exposed for tests. The digest overload
  // recomputes the same charge from a stored record's spec digest.
  static double retry_backoff_seconds(const SchedulerConfig& config,
                                      const JobSpec& job, int attempt);
  static double retry_backoff_seconds(const SchedulerConfig& config,
                                      std::uint64_t spec_digest, int attempt);

 private:
  struct QueueEntry {
    JobSpec job;
    std::string key;
    int attempt = 1;
    std::optional<PreemptState> resume;
  };

  struct WorkerSlot {
    std::atomic<bool> preempt{false};
    // Guarded by mutex_: what the worker is running, for eviction picks.
    bool busy = false;
    bool preemptible = false;
    Priority priority = Priority::kLow;
  };

  void worker_loop(int slot_index);
  // mutex_ held: pop the best entry, or nullopt when all lanes are empty.
  std::optional<QueueEntry> pop_locked();
  // mutex_ held: raise the eviction flag on the weakest running job that
  // `priority` outranks, if the lanes would otherwise make it wait.
  void maybe_preempt_locked(Priority priority);
  // mutex_ held: is the breaker open for this job's spec family?
  bool breaker_tripped_locked(const JobSpec& job) const;
  // mutex_ held: consume a journaled submission of `key` replayed by
  // recover(), if one is pending — the dedup that makes resubmission after
  // a crash tally-neutral.
  std::optional<Admission> consume_replayed_locked(const std::string& key);
  // mutex_ held: the canonical compacted journal image — one snapshot
  // event plus (after a checkpoint stop) every queued entry.
  std::vector<JournalEvent> compaction_events_locked() const;
  void journal_event(const JournalEvent& event);
  void bump(const char* counter);

  const SchedulerConfig config_;
  ResultStore& store_;
  obs::CounterBoard* counters_;
  JobJournal* journal_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // workers wait for entries
  std::condition_variable idle_cv_;   // drain()/stop() wait for quiescence
  std::deque<QueueEntry> lanes_[3];   // indexed by Priority
  std::set<std::string> in_flight_;   // queued or running keys
  // Journaled submissions replayed by recover(), keyed by store key and
  // consumed FIFO by post-restart resubmissions.
  std::map<std::string, std::deque<Admission>> replayed_;
  bool stopping_ = false;   // workers exit once the lanes run dry
  bool halted_ = false;     // workers exit without popping (checkpoint stop)
  bool stopped_ = false;    // pool joined; store/journal compacted
  int busy_workers_ = 0;
  std::uint64_t submitted_ = 0;
  std::uint64_t malformed_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t collapsed_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t tripped_ = 0;
  std::uint64_t recovered_ = 0;
  double backoff_virtual_seconds_ = 0.0;
  SchedulerStats stats_;

  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  std::vector<std::thread> pool_;
};

}  // namespace pcmd::serve
