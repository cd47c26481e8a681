// Crash-replay battery: the serve layer's durability contract, checked the
// exhaustive way. A reference scheduler with a write-ahead journal runs a
// mixed battery (both engines, retries, quarantine, deadline, malformed,
// preemption pressure) to completion; then, for EVERY event boundary of the
// raw journal it produced, a fresh service is started on that prefix — as
// if the process had been killed right there — recover()ed, handed the
// same submission stream, and drained. Each replay must converge to a
// store byte-identical to the reference and a counters_line() differing
// only in its recovered= tally: at-least-once submission, exactly-once
// accounting.
//
// (Byte-granular kills reduce to these event boundaries: the journal load
// drops a half-written record as a torn tail, so a kill at any byte yields
// some prefix replayed here. journal_fuzz_test.cpp pins that reduction.)
//
// A second battery checks graceful checkpoint-stop: stop(kCheckpoint)
// evicts running preemptible work into the journal and preserves the
// queue; a successor scheduler must finish it to the same store bytes an
// uninterrupted run produces.
#include "serve/scheduler.hpp"
#include "support/temp_path.hpp"

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace pcmd::serve {
namespace {

using pcmd::testing::temp_path;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_bytes(const std::string& path, const sim::Buffer& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// counters_line() with the crash-dependent tally removed: a replay may
// legitimately report recovered=K where the reference says recovered=0.
std::string without_recovered(const std::string& line) {
  std::istringstream in(line);
  std::string token, out;
  while (in >> token) {
    if (token.rfind("recovered=", 0) == 0) continue;
    if (!out.empty()) out += ' ';
    out += token;
  }
  return out;
}

// Both engines, every terminal outcome, a retry chain and a preemption
// source: enough lifecycle-event diversity that the prefix sweep crosses a
// kill inside every replay rule.
std::vector<std::string> battery() {
  const std::string base = "--pe 9 --m 2 --density 0.2 ";
  return {
      base + "--steps 20 --seed 81 --priority low",  // preemption victim
      base + "--steps 6 --seed 82",
      base + "--steps 6 --seed 83 --engine thread",
      base + "--steps 8 --seed 7003 --faults seed=103,drop=0.45",  // retries
      base + "--steps 8 --seed 84 --faults seed=1,crash=4@0 "
             "--buddy-every 3 --spares 1",  // poison: quarantined
      base + "--steps 40 --seed 85 --deadline 1e-9",
      "--steps banana --seed 86",  // malformed
      base + "--steps 5 --seed 87 --priority high",  // preemptor
  };
}

SchedulerConfig small_config() {
  SchedulerConfig config;
  config.workers = 2;
  config.max_attempts = 3;
  return config;
}

TEST(CrashReplay, EveryJournalPrefixConvergesToTheReferenceStore) {
  const auto store_path = temp_path("crash_ref_store.jsonl");
  const auto journal_path = temp_path("crash_ref_journal.pj");
  std::remove(store_path.c_str());
  std::remove(journal_path.c_str());

  // Reference run. The raw (uncompacted) event log is captured after the
  // drain but BEFORE the destructor's stop() compacts it — that log is the
  // set of kill points. Appends are flushed, so the file is current.
  std::string reference_counters;
  std::string raw_journal;
  {
    ResultStore store(store_path, FlushMode::kOnCompact);
    JobJournal journal(journal_path);
    Scheduler scheduler(small_config(), store, nullptr, &journal);
    ASSERT_EQ(scheduler.recover(), 0u);
    for (const auto& text : battery()) scheduler.submit(text);
    scheduler.drain();
    reference_counters = scheduler.counters_line();
    raw_journal = slurp(journal_path);
  }
  const std::string reference_bytes = slurp(store_path);
  ASSERT_FALSE(reference_bytes.empty());

  const auto events = decode_journal(
      sim::Buffer(raw_journal.begin(), raw_journal.end()), nullptr);
  ASSERT_GE(events.size(), 2 * battery().size())
      << "every job must have journaled at least its submission and its "
         "terminal record";

  for (std::size_t prefix = 0; prefix <= events.size(); ++prefix) {
    const auto replay_store_path =
        temp_path("crash_replay_store_" + std::to_string(prefix) + ".jsonl");
    const auto replay_journal_path =
        temp_path("crash_replay_journal_" + std::to_string(prefix) + ".pj");
    std::remove(replay_store_path.c_str());
    write_bytes(replay_journal_path,
                encode_journal(std::vector<JournalEvent>(
                    events.begin(),
                    events.begin() + static_cast<std::ptrdiff_t>(prefix))));

    std::string replay_counters;
    {
      ResultStore store(replay_store_path, FlushMode::kOnCompact);
      JobJournal journal(replay_journal_path);
      Scheduler scheduler(small_config(), store, nullptr, &journal);
      scheduler.recover();
      // The client's at-least-once behaviour: resubmit everything.
      for (const auto& text : battery()) scheduler.submit(text);
      scheduler.drain();
      replay_counters = scheduler.counters_line();
    }
    EXPECT_EQ(slurp(replay_store_path), reference_bytes)
        << "killed after event " << prefix << " of " << events.size();
    EXPECT_EQ(without_recovered(replay_counters),
              without_recovered(reference_counters))
        << "killed after event " << prefix;
    std::remove(replay_store_path.c_str());
    std::remove(replay_journal_path.c_str());
  }
  std::remove(store_path.c_str());
  std::remove(journal_path.c_str());
}

TEST(CrashReplay, RepeatedCrashesStillConverge) {
  // Two stacked kills: replay a prefix, kill THAT run at one of its own
  // event boundaries, replay again. The journal written by the first
  // replay (prefix + its appends) is the second kill's input — the dedup
  // bookkeeping must hold across generations, not just one restart.
  const auto store_path = temp_path("crash2_ref_store.jsonl");
  const auto journal_path = temp_path("crash2_journal.pj");
  std::remove(store_path.c_str());
  std::remove(journal_path.c_str());

  std::string reference_counters;
  std::string raw;
  {
    ResultStore store(store_path, FlushMode::kOnCompact);
    JobJournal journal(journal_path);
    Scheduler scheduler(small_config(), store, nullptr, &journal);
    for (const auto& text : battery()) scheduler.submit(text);
    scheduler.drain();
    reference_counters = scheduler.counters_line();
    raw = slurp(journal_path);  // raw event log, pre-compaction
  }
  const std::string reference_bytes = slurp(store_path);
  const auto events =
      decode_journal(sim::Buffer(raw.begin(), raw.end()), nullptr);
  ASSERT_GE(events.size(), 8u);

  // First kill: a third of the way in. Run the restart WITHOUT draining to
  // completion — kill it again at a boundary of its own journal.
  const auto j2 = temp_path("crash2_gen.pj");
  write_bytes(j2, encode_journal(std::vector<JournalEvent>(
                      events.begin(),
                      events.begin() +
                          static_cast<std::ptrdiff_t>(events.size() / 3))));
  std::string raw2;
  const auto s2 = temp_path("crash2_gen_store.jsonl");
  std::remove(s2.c_str());
  {
    ResultStore store(s2, FlushMode::kOnCompact);
    JobJournal journal(j2);
    Scheduler scheduler(small_config(), store, nullptr, &journal);
    scheduler.recover();
    for (const auto& text : battery()) scheduler.submit(text);
    scheduler.drain();
    // "Kill": capture the raw journal here — the store file has not been
    // written yet (kOnCompact), exactly the state SIGKILL after the last
    // journaled event leaves behind.
    raw2 = slurp(j2);
  }
  std::remove(s2.c_str());
  const auto events2 =
      decode_journal(sim::Buffer(raw2.begin(), raw2.end()), nullptr);
  ASSERT_GT(events2.size(), events.size() / 3);

  // Second kill: truncate the second generation's journal mid-history too,
  // then let the third generation run to completion.
  const auto j3 = temp_path("crash2_gen3.pj");
  write_bytes(j3, encode_journal(std::vector<JournalEvent>(
                      events2.begin(),
                      events2.begin() + static_cast<std::ptrdiff_t>(
                                            2 * events2.size() / 3))));
  const auto s3 = temp_path("crash2_gen3_store.jsonl");
  std::remove(s3.c_str());
  std::string final_counters;
  {
    ResultStore store(s3, FlushMode::kOnCompact);
    JobJournal journal(j3);
    Scheduler scheduler(small_config(), store, nullptr, &journal);
    scheduler.recover();
    for (const auto& text : battery()) scheduler.submit(text);
    scheduler.drain();
    final_counters = scheduler.counters_line();
  }
  EXPECT_EQ(slurp(s3), reference_bytes);
  EXPECT_EQ(without_recovered(final_counters),
            without_recovered(reference_counters));

  std::remove(s3.c_str());
  std::remove(j3.c_str());
  std::remove(j2.c_str());
  std::remove(store_path.c_str());
  std::remove(journal_path.c_str());
}

TEST(CrashReplay, CheckpointStopHandsTheQueueToTheNextScheduler) {
  // Control: the same four jobs, uninterrupted. Both runs also submit a
  // seed that used to wrap to 2^64 - 1, whose pending canonical text made
  // the successor's recover() throw; it is a malformed record now.
  const std::vector<std::string> jobs = {
      "--pe 9 --m 2 --density 0.2 --steps 60 --seed 91 --priority low",
      "--pe 9 --m 2 --density 0.2 --steps 6 --seed 92",
      "--pe 9 --m 2 --density 0.2 --steps 6 --seed 93 --engine thread",
      "--pe 9 --m 2 --density 0.2 --steps 8 --seed 94",
  };
  const std::string wrapping = "--pe 9 --m 2 --steps 3 --seed -1";
  const auto control_path = temp_path("ckstop_control.jsonl");
  std::remove(control_path.c_str());
  {
    ResultStore store(control_path, FlushMode::kOnCompact);
    Scheduler scheduler({}, store);
    for (const auto& text : jobs) scheduler.submit(text);
    scheduler.submit(wrapping);
    scheduler.drain();
  }
  const std::string control_bytes = slurp(control_path);

  const auto store_path = temp_path("ckstop_store.jsonl");
  const auto journal_path = temp_path("ckstop_journal.pj");
  std::remove(store_path.c_str());
  std::remove(journal_path.c_str());

  // Interrupted service: one worker, held in the pre-attempt seam while
  // the queue fills, released only once stop(kCheckpoint) has raised the
  // eviction flag — so the running 60-step job deterministically
  // checkpoints instead of finishing.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool release = false;
  int held = 0;
  SchedulerConfig config;
  config.workers = 1;
  config.before_attempt_hook = [&](const JobSpec&) {
    std::unique_lock<std::mutex> lock(gate_mutex);
    ++held;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return release; });
  };
  std::size_t recovered = 0;
  {
    ResultStore store(store_path, FlushMode::kOnCompact);
    JobJournal journal(journal_path);
    Scheduler scheduler(config, store, nullptr, &journal);
    for (const auto& text : jobs) scheduler.submit(text);
    {
      std::unique_lock<std::mutex> lock(gate_mutex);
      gate_cv.wait(lock, [&] { return held >= 1; });
    }
    EXPECT_EQ(scheduler.submit(wrapping).admission, Admission::kMalformed);
    std::thread stopper([&] { scheduler.stop(StopMode::kCheckpoint); });
    while (!scheduler.stopping()) std::this_thread::yield();
    {
      const std::lock_guard<std::mutex> lock(gate_mutex);
      release = true;
    }
    gate_cv.notify_all();
    stopper.join();
    EXPECT_EQ(store.size(), 1u) << "only the malformed record may land "
                                   "before the stop";

    // Successor: same files, fresh scheduler. Everything resumes.
    ResultStore store2(store_path, FlushMode::kOnCompact);
    JobJournal journal2(journal_path);
    Scheduler scheduler2({}, store2, nullptr, &journal2);
    recovered = scheduler2.recover();
    scheduler2.drain();
  }
  EXPECT_EQ(recovered, jobs.size())
      << "the evicted runner and every queued entry must survive the stop";
  EXPECT_EQ(slurp(store_path), control_bytes)
      << "checkpoint-stop plus resume must be invisible in the records";

  std::remove(control_path.c_str());
  std::remove(store_path.c_str());
  std::remove(journal_path.c_str());
}

}  // namespace
}  // namespace pcmd::serve
