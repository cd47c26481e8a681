#include "serve/scheduler.hpp"

#include "util/checksum.hpp"
#include "util/rng.hpp"

#include <chrono>
#include <cstdio>
#include <utility>

namespace pcmd::serve {

namespace {

std::string hex16(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace

const char* admission_name(Admission admission) {
  switch (admission) {
    case Admission::kAccepted: return "accepted";
    case Admission::kCacheHit: return "cache_hit";
    case Admission::kCollapsed: return "collapsed";
    case Admission::kRejectedOverloaded: return "rejected_overloaded";
    case Admission::kRejectedTripped: return "rejected_tripped";
    case Admission::kMalformed: return "malformed";
  }
  return "?";
}

Scheduler::Scheduler(SchedulerConfig config, ResultStore& store,
                     obs::CounterBoard* counters, JobJournal* journal)
    : config_(std::move(config)),
      store_(store),
      counters_(counters),
      journal_(journal) {
  const int workers = config_.workers < 1 ? 1 : config_.workers;
  slots_.reserve(workers);
  pool_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    slots_.push_back(std::make_unique<WorkerSlot>());
  }
  for (int i = 0; i < workers; ++i) {
    pool_.emplace_back([this, i] { worker_loop(i); });
  }
}

Scheduler::~Scheduler() {
  if (!stopped_) stop(StopMode::kDrain);
}

void Scheduler::bump(const char* counter) {
  if (counters_ != nullptr) counters_->add(counter);
}

void Scheduler::journal_event(const JournalEvent& event) {
  if (journal_ != nullptr) journal_->append(event);
}

std::optional<Admission> Scheduler::consume_replayed_locked(
    const std::string& key) {
  const auto it = replayed_.find(key);
  if (it == replayed_.end()) return std::nullopt;
  const Admission admission = it->second.front();
  it->second.pop_front();
  if (it->second.empty()) replayed_.erase(it);
  return admission;
}

std::size_t Scheduler::recover() {
  if (journal_ == nullptr) return 0;
  // Per-key pending picture rebuilt from the event sequence: the lane and
  // spec from the acceptance, the attempt from the last start (a fresh
  // attempt obsoletes any older checkpoint), the resume state from the
  // last checkpoint, erased again when a terminal record lands.
  struct Pending {
    Priority priority = Priority::kNormal;
    std::string spec;
    int attempt = 1;
    std::optional<PreemptState> resume;
  };
  std::vector<std::string> order;
  std::map<std::string, Pending> pending;
  std::size_t requeued = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const JournalEvent& event : journal_->events()) {
      switch (event.kind) {
        case JournalEventKind::kSubmitted: {
          const auto admission = static_cast<Admission>(event.admission);
          replayed_[event.key].push_back(admission);
          ++submitted_;
          switch (admission) {
            case Admission::kAccepted: {
              if (pending.count(event.key) == 0) order.push_back(event.key);
              Pending& entry = pending[event.key];
              entry.priority = static_cast<Priority>(event.priority);
              entry.spec = event.spec;
              if (event.attempt > entry.attempt) entry.attempt = event.attempt;
              break;
            }
            case Admission::kCacheHit: ++cache_hits_; break;
            case Admission::kCollapsed: ++collapsed_; break;
            case Admission::kRejectedOverloaded: ++shed_; break;
            case Admission::kRejectedTripped: ++tripped_; break;
            case Admission::kMalformed: ++malformed_; break;
          }
          break;
        }
        case JournalEventKind::kStarted: {
          const auto it = pending.find(event.key);
          if (it == pending.end()) break;
          if (event.attempt > it->second.attempt) {
            it->second.attempt = event.attempt;
            it->second.resume.reset();
          }
          break;
        }
        case JournalEventKind::kCheckpoint: {
          const auto it = pending.find(event.key);
          if (it == pending.end()) break;
          PreemptState state;
          state.checkpoint = event.checkpoint;
          state.steps_done = event.steps_done;
          state.virtual_seconds = event.virtual_seconds;
          state.clocks = event.clocks;
          it->second.resume = std::move(state);
          break;
        }
        case JournalEventKind::kTerminal: {
          store_.put(JobResultRecord::parse(event.record_line));
          pending.erase(event.key);
          break;
        }
        case JournalEventKind::kSnapshot:
          // Tallies from before the last compaction; the compacted pending
          // entries that follow are already counted in here.
          submitted_ += event.submitted;
          malformed_ += event.malformed;
          cache_hits_ += event.cache_hits;
          collapsed_ += event.collapsed;
          shed_ += event.shed;
          tripped_ += event.tripped;
          break;
        case JournalEventKind::kPending: {
          replayed_[event.key].push_back(Admission::kAccepted);
          if (pending.count(event.key) == 0) order.push_back(event.key);
          Pending& entry = pending[event.key];
          entry.priority = static_cast<Priority>(event.priority);
          entry.spec = event.spec;
          if (event.attempt > entry.attempt) entry.attempt = event.attempt;
          if (!event.checkpoint.empty()) {
            PreemptState state;
            state.checkpoint = event.checkpoint;
            state.steps_done = event.steps_done;
            state.virtual_seconds = event.virtual_seconds;
            state.clocks = event.clocks;
            entry.resume = std::move(state);
          }
          break;
        }
      }
    }
    for (const std::string& key : order) {
      const auto it = pending.find(key);
      if (it == pending.end()) continue;  // reached terminal before the kill
      if (store_.find(key)) continue;     // already answered
      QueueEntry entry;
      entry.job = JobSpec::parse_flags(it->second.spec);
      entry.job.priority = it->second.priority;
      entry.key = key;
      entry.attempt = it->second.attempt < 1 ? 1 : it->second.attempt;
      entry.resume = std::move(it->second.resume);
      if (entry.resume && !entry.job.preemptible()) entry.resume.reset();
      in_flight_.insert(key);
      lanes_[static_cast<int>(it->second.priority)].push_back(
          std::move(entry));
      ++recovered_;
      bump("recovered");
      ++requeued;
    }
  }
  if (requeued > 0) work_cv_.notify_all();
  return requeued;
}

SubmitResult Scheduler::submit(const JobSpec& job) {
  SubmitResult result;
  result.key = ResultStore::key_of(job);
  bool enqueued = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const auto replayed = consume_replayed_locked(result.key)) {
      // Journaled before the restart: the tallies were restored by
      // recover() and the job (if unanswered) is already re-enqueued.
      result.admission = *replayed;
      return result;
    }
    const int lane = static_cast<int>(job.priority);
    if (store_.find(result.key)) {
      result.admission = Admission::kCacheHit;
    } else if (in_flight_.count(result.key) != 0) {
      result.admission = Admission::kCollapsed;
    } else if (breaker_tripped_locked(job)) {
      result.admission = Admission::kRejectedTripped;
    } else if (config_.high_water[lane] != 0 &&
               lanes_[lane].size() >= config_.high_water[lane]) {
      result.admission = Admission::kRejectedOverloaded;
    } else {
      result.admission = Admission::kAccepted;
    }

    // Journal the admission before any in-memory transition: replay must
    // account for every tallied submission.
    JournalEvent event;
    event.kind = JournalEventKind::kSubmitted;
    event.key = result.key;
    event.admission = static_cast<std::uint8_t>(result.admission);
    event.priority = static_cast<std::uint8_t>(job.priority);
    if (result.admission == Admission::kAccepted) {
      event.spec = job.canonical();
      event.attempt = 1;
    }
    journal_event(event);

    ++submitted_;
    bump("submitted");
    switch (result.admission) {
      case Admission::kCacheHit:
        ++cache_hits_;
        bump("cache_hits");
        break;
      case Admission::kCollapsed:
        ++collapsed_;
        bump("collapsed");
        break;
      case Admission::kRejectedTripped:
        ++tripped_;
        bump("tripped");
        break;
      case Admission::kRejectedOverloaded:
        ++shed_;
        bump("shed");
        break;
      case Admission::kAccepted: {
        QueueEntry entry;
        entry.job = job;
        entry.key = result.key;
        in_flight_.insert(result.key);
        lanes_[lane].push_back(std::move(entry));
        maybe_preempt_locked(job.priority);
        enqueued = true;
        break;
      }
      case Admission::kMalformed:
        break;  // parsed specs are never malformed
    }
  }
  if (enqueued) work_cv_.notify_one();
  return result;
}

SubmitResult Scheduler::submit(const std::string& text) {
  JobSpec job;
  try {
    job = JobSpec::parse(text);
  } catch (const run::SpecError& e) {
    // Malformed input is a terminal outcome of the *submission*, keyed by
    // the raw text so a rerun quarantines it identically.
    SubmitResult result;
    result.key = "malformed:" + hex16(fnv1a64(text));
    result.admission = Admission::kMalformed;
    JobResultRecord record;
    record.key = result.key;
    record.spec = text;
    record.outcome = JobOutcome::kQuarantined;
    record.attempts = 0;
    record.failure = failure_kind_name(FailureKind::kMalformedSpec);
    record.error = e.what();

    const std::lock_guard<std::mutex> lock(mutex_);
    if (const auto replayed = consume_replayed_locked(result.key)) {
      result.admission = *replayed;
      if (!store_.find(result.key)) {
        // The kill landed between the two journaled halves of a malformed
        // submission: its admission was replayed (and tallied) but its
        // terminal record never reached the journal. Complete it now —
        // terminal first, WAL order — without re-tallying.
        JournalEvent terminal;
        terminal.kind = JournalEventKind::kTerminal;
        terminal.key = result.key;
        terminal.record_line = record.json_line();
        journal_event(terminal);
        store_.put(std::move(record));
      }
      return result;
    }

    JournalEvent submitted;
    submitted.kind = JournalEventKind::kSubmitted;
    submitted.key = result.key;
    submitted.admission = static_cast<std::uint8_t>(Admission::kMalformed);
    journal_event(submitted);
    JournalEvent terminal;
    terminal.kind = JournalEventKind::kTerminal;
    terminal.key = result.key;
    terminal.record_line = record.json_line();
    journal_event(terminal);

    ++submitted_;
    ++malformed_;
    bump("submitted");
    bump("malformed");
    bump("quarantined");
    store_.put(std::move(record));
    return result;
  }
  return submit(job);
}

void Scheduler::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] {
    return busy_workers_ == 0 && lanes_[0].empty() && lanes_[1].empty() &&
           lanes_[2].empty();
  });
}

bool Scheduler::try_drain(double seconds) {
  std::unique_lock<std::mutex> lock(mutex_);
  return idle_cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                           [this] {
                             return busy_workers_ == 0 && lanes_[0].empty() &&
                                    lanes_[1].empty() && lanes_[2].empty();
                           });
}

void Scheduler::stop(StopMode mode) {
  if (stopped_) return;
  if (mode == StopMode::kDrain) drain();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    if (mode == StopMode::kCheckpoint) {
      halted_ = true;
      for (const auto& slot : slots_) {
        if (slot->busy && slot->preemptible) {
          slot->preempt.store(true, std::memory_order_relaxed);
        }
      }
    }
  }
  work_cv_.notify_all();
  if (mode == StopMode::kCheckpoint) {
    // Preemptible runners checkpoint back into their lanes; everything
    // else runs to its terminal record. Queued entries stay queued.
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [this] { return busy_workers_ == 0; });
  }
  for (auto& thread : pool_) thread.join();
  pool_.clear();
  stopped_ = true;
  // Durable state reaches its canonical compacted form: the sorted store
  // file, and a journal reduced to a snapshot (plus any queued entries).
  store_.compact();
  if (journal_ != nullptr) {
    const std::lock_guard<std::mutex> lock(mutex_);
    journal_->compact(compaction_events_locked());
  }
}

std::vector<JournalEvent> Scheduler::compaction_events_locked() const {
  std::vector<JournalEvent> events;
  JournalEvent snapshot;
  snapshot.kind = JournalEventKind::kSnapshot;
  snapshot.submitted = submitted_;
  snapshot.malformed = malformed_;
  snapshot.cache_hits = cache_hits_;
  snapshot.collapsed = collapsed_;
  snapshot.shed = shed_;
  snapshot.tripped = tripped_;
  events.push_back(std::move(snapshot));
  for (int lane = 2; lane >= 0; --lane) {
    for (const QueueEntry& entry : lanes_[lane]) {
      JournalEvent event;
      event.kind = JournalEventKind::kPending;
      event.key = entry.key;
      event.admission = static_cast<std::uint8_t>(Admission::kAccepted);
      event.priority = static_cast<std::uint8_t>(lane);
      event.spec = entry.job.canonical();
      event.attempt = entry.attempt;
      if (entry.resume) {
        event.steps_done = entry.resume->steps_done;
        event.virtual_seconds = entry.resume->virtual_seconds;
        event.clocks = entry.resume->clocks;
        event.checkpoint = entry.resume->checkpoint;
      }
      events.push_back(std::move(event));
    }
  }
  return events;
}

SchedulerStats Scheduler::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::string Scheduler::counters_line() const {
  std::uint64_t succeeded = 0, retried_then_succeeded = 0, deadline = 0,
                quarantined = 0, retries = 0;
  for (const auto& [key, record] : store_.records()) {
    (void)key;
    // Each terminal record's retries are its attempts minus the first —
    // derived from durable state so the count survives crash recovery.
    if (record.attempts > 1) {
      retries += static_cast<std::uint64_t>(record.attempts - 1);
    }
    switch (record.outcome) {
      case JobOutcome::kSucceeded:
        ++succeeded;
        if (record.attempts > 1) ++retried_then_succeeded;
        break;
      case JobOutcome::kDeadline: ++deadline; break;
      case JobOutcome::kQuarantined: ++quarantined; break;
    }
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "SERVE-COUNTERS";
  out += " cache_hits=" + std::to_string(cache_hits_);
  out += " collapsed=" + std::to_string(collapsed_);
  out += " deadline=" + std::to_string(deadline);
  out += " malformed=" + std::to_string(malformed_);
  out += " quarantined=" + std::to_string(quarantined);
  out += " recovered=" + std::to_string(recovered_);
  out += " retried_then_succeeded=" + std::to_string(retried_then_succeeded);
  out += " retries=" + std::to_string(retries);
  out += " shed=" + std::to_string(shed_);
  out += " submitted=" + std::to_string(submitted_);
  out += " succeeded=" + std::to_string(succeeded);
  out += " tripped=" + std::to_string(tripped_);
  return out;
}

double Scheduler::retry_backoff_seconds(const SchedulerConfig& config,
                                        const JobSpec& job, int attempt) {
  return retry_backoff_seconds(config, job.digest(), attempt);
}

double Scheduler::retry_backoff_seconds(const SchedulerConfig& config,
                                        std::uint64_t spec_digest,
                                        int attempt) {
  double raw = config.backoff_base;
  for (int i = 2; i < attempt; ++i) raw *= 2.0;
  if (raw > config.backoff_cap) raw = config.backoff_cap;
  SplitMix64 mix(spec_digest ^ static_cast<std::uint64_t>(attempt));
  const double jitter =
      static_cast<double>(mix.next() >> 11) * 0x1.0p-53;  // [0, 1)
  return raw * (1.0 + jitter);
}

bool Scheduler::breaker_tripped_locked(const JobSpec& job) const {
  if (config_.breaker.trip_quarantines <= 0) return false;
  const std::uint64_t family = job.family_digest();
  // Every quantity below is a pure function of the store's record set —
  // virtual seconds actually simulated plus retry backoff recomputed from
  // each record's spec digest — so the verdict cannot depend on worker
  // count, completion order or a crash/recover boundary.
  std::uint64_t quarantines = 0;
  double global_clock = 0.0;
  double family_clock = 0.0;
  for (const auto& [key, record] : store_.records()) {
    (void)key;
    double credit = record.virtual_seconds;
    const std::uint64_t digest = fnv1a64(record.spec);
    for (int attempt = 2; attempt <= record.attempts; ++attempt) {
      credit += retry_backoff_seconds(config_, digest, attempt);
    }
    global_clock += credit;
    if (record.outcome != JobOutcome::kQuarantined) continue;
    if (record.attempts == 0) continue;  // malformed text: not a family
    if (family_digest_of_canonical(record.spec) != family) continue;
    ++quarantines;
    family_clock += credit;
  }
  if (quarantines <
      static_cast<std::uint64_t>(config_.breaker.trip_quarantines)) {
    return false;
  }
  // Open until `cooldown` virtual seconds of non-family work accumulate
  // beyond the family's own spend.
  return global_clock < family_clock + config_.breaker.cooldown;
}

std::optional<Scheduler::QueueEntry> Scheduler::pop_locked() {
  for (int lane = 2; lane >= 0; --lane) {
    if (!lanes_[lane].empty()) {
      QueueEntry entry = std::move(lanes_[lane].front());
      lanes_[lane].pop_front();
      return entry;
    }
  }
  return std::nullopt;
}

void Scheduler::maybe_preempt_locked(Priority priority) {
  if (!config_.preemption_enabled) return;
  for (const auto& slot : slots_) {
    if (!slot->busy) return;  // an idle worker will pick the job up
  }
  WorkerSlot* victim = nullptr;
  for (const auto& slot : slots_) {
    if (!slot->preemptible || slot->priority >= priority) continue;
    if (slot->preempt.load(std::memory_order_relaxed)) continue;
    if (victim == nullptr || slot->priority < victim->priority) {
      victim = slot.get();
    }
  }
  if (victim != nullptr) {
    victim->preempt.store(true, std::memory_order_relaxed);
  }
}

void Scheduler::worker_loop(int slot_index) {
  WorkerSlot& slot = *slots_[slot_index];
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [this] {
      return stopping_ || halted_ || !lanes_[0].empty() ||
             !lanes_[1].empty() || !lanes_[2].empty();
    });
    if (halted_) return;
    auto maybe_entry = pop_locked();
    if (!maybe_entry) {
      if (stopping_) return;
      continue;
    }
    QueueEntry entry = std::move(*maybe_entry);
    // Journal the start before the attempt has any effect: replay must
    // resume at this attempt number (fault seeds remix per attempt).
    JournalEvent started;
    started.kind = JournalEventKind::kStarted;
    started.key = entry.key;
    started.attempt = entry.attempt;
    journal_event(started);
    slot.busy = true;
    slot.preemptible =
        config_.preemption_enabled && entry.job.preemptible();
    slot.priority = entry.job.priority;
    ++busy_workers_;
    const bool resuming = entry.resume.has_value();
    if (resuming) ++stats_.resumes;
    lock.unlock();

    if (config_.before_attempt_hook) config_.before_attempt_hook(entry.job);

    AttemptContext context;
    context.attempt = entry.attempt;
    context.preempt_flag = &slot.preempt;
    context.resume = std::move(entry.resume);
    entry.resume.reset();
    AttemptResult result = run_attempt(entry.job, context);

    lock.lock();
    slot.busy = false;
    slot.preemptible = false;
    slot.preempt.store(false, std::memory_order_relaxed);

    bool requeued = false;
    bool terminal = false;
    JobResultRecord record;
    record.key = entry.key;
    record.spec = entry.job.canonical();
    record.seed = entry.job.run.system.seed;
    record.attempts = entry.attempt;
    record.steps = result.steps_done;
    record.virtual_seconds = result.virtual_seconds;

    switch (result.status) {
      case AttemptStatus::kCompleted:
        record.outcome = JobOutcome::kSucceeded;
        record.trajectory_digest = hex16(result.trajectory_digest);
        record.potential_energy = result.potential_energy;
        record.kinetic_energy = result.kinetic_energy;
        terminal = true;
        break;
      case AttemptStatus::kDeadline:
        record.outcome = JobOutcome::kDeadline;
        record.failure = "deadline";
        record.error = result.error;
        terminal = true;
        break;
      case AttemptStatus::kPreempted: {
        ++stats_.preemptions;
        if (result.preempt) {
          JournalEvent checkpoint;
          checkpoint.kind = JournalEventKind::kCheckpoint;
          checkpoint.key = entry.key;
          checkpoint.attempt = entry.attempt;
          checkpoint.steps_done = result.preempt->steps_done;
          checkpoint.virtual_seconds = result.preempt->virtual_seconds;
          checkpoint.clocks = result.preempt->clocks;
          checkpoint.checkpoint = result.preempt->checkpoint;
          journal_event(checkpoint);
        }
        entry.resume = std::move(result.preempt);
        lanes_[static_cast<int>(entry.job.priority)].push_front(
            std::move(entry));
        requeued = true;
        break;
      }
      case AttemptStatus::kFailed:
        if (failure_is_retryable(result.failure) &&
            entry.attempt < config_.max_attempts) {
          bump("retries");
          ++entry.attempt;
          backoff_virtual_seconds_ +=
              retry_backoff_seconds(config_, entry.job, entry.attempt);
          entry.resume.reset();
          lanes_[static_cast<int>(entry.job.priority)].push_back(
              std::move(entry));
          requeued = true;
        } else {
          record.outcome = JobOutcome::kQuarantined;
          record.failure = failure_kind_name(result.failure);
          record.error = result.error;
          terminal = true;
        }
        break;
    }

    if (terminal) {
      bump(job_outcome_name(record.outcome));
      lock.unlock();
      // WAL ordering: the journal carries the record before the store
      // does, so a crash between the two replays the terminal, never
      // loses it.
      JournalEvent event;
      event.kind = JournalEventKind::kTerminal;
      event.key = entry.key;
      event.record_line = record.json_line();
      journal_event(event);
      store_.put(std::move(record));
      lock.lock();
      in_flight_.erase(entry.key);
    }
    --busy_workers_;
    if (requeued) work_cv_.notify_one();
    if (busy_workers_ == 0 &&
        (halted_ || (lanes_[0].empty() && lanes_[1].empty() &&
                     lanes_[2].empty()))) {
      idle_cv_.notify_all();
    }
  }
}

}  // namespace pcmd::serve
