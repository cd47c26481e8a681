// serve::Scheduler chaos battery: a seeded mix of clean jobs, drop-heavy
// chaos jobs (some clearing on a seed-remixed retry, some exhausting the
// budget), unsurvivable poison jobs, deadline-doomed runs and malformed
// specs — fully drained, with every job in exactly one terminal state and
// the exact retry/quarantine accounting asserted per job. The determinism
// contract is checked the hard way: the same submission sequence through
// TWO schedulers with different worker counts must write byte-identical
// result stores and print identical counter lines.
//
// The chaos seeds are probed constants: with the 9-rank m=2 rho=0.2 8-step
// system under "drop=0.45", fault seeds 103/108/110 fail attempt 1 and
// clear on attempt 2, seed 112 needs attempt 3, and seeds 102/109 fail all
// three attempts into quarantine. These are deterministic functions of the
// fault-plan seed remix (attempt_fault_plan), not of scheduling.
#include "serve/scheduler.hpp"
#include "support/temp_path.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
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

std::string chaos_spec(int index) {
  return "--pe 9 --m 2 --density 0.2 --steps 8 --seed " +
         std::to_string(7000 + index) + " --faults seed=" +
         std::to_string(100 + index) + ",drop=0.45";
}

struct Expectation {
  std::string text;
  JobOutcome outcome = JobOutcome::kSucceeded;
  int attempts = 1;           // -1: don't check
  std::string failure;        // checked when non-empty
};

std::vector<Expectation> battery() {
  std::vector<Expectation> jobs;
  // Clean jobs: succeed first try, across lanes and engines.
  for (int s = 1; s <= 3; ++s) {
    jobs.push_back({"--pe 9 --m 2 --density 0.2 --steps 6 --seed " +
                        std::to_string(s),
                    JobOutcome::kSucceeded, 1, ""});
  }
  jobs.push_back({"--pe 9 --m 2 --density 0.2 --steps 6 --seed 4 "
                  "--priority high",
                  JobOutcome::kSucceeded, 1, ""});
  jobs.push_back({"--pe 9 --m 2 --density 0.2 --steps 6 --seed 5 "
                  "--priority low --engine thread",
                  JobOutcome::kSucceeded, 1, ""});
  // Retry-to-success: attempt 1 dies peer-dead, the remixed seed clears it.
  jobs.push_back({chaos_spec(3), JobOutcome::kSucceeded, 2, ""});
  jobs.push_back({chaos_spec(8), JobOutcome::kSucceeded, 2, ""});
  jobs.push_back({chaos_spec(10), JobOutcome::kSucceeded, 2, ""});
  jobs.push_back({chaos_spec(12), JobOutcome::kSucceeded, 3, ""});
  // Budget exhaustion: three attempts, three deaths, quarantine.
  jobs.push_back({chaos_spec(2), JobOutcome::kQuarantined, 3, "peer-dead"});
  jobs.push_back({chaos_spec(9), JobOutcome::kQuarantined, 3, "peer-dead"});
  // Poison: rank 4 crashes at t=0, before any buddy generation exists —
  // deterministically unsurvivable on every attempt.
  for (int s = 0; s < 2; ++s) {
    jobs.push_back({"--pe 9 --m 2 --density 0.2 --steps 8 --seed " +
                        std::to_string(40 + s) +
                        " --faults seed=1,crash=4@0 --buddy-every 3 "
                        "--spares 1",
                    JobOutcome::kQuarantined, 3, "unsurvivable"});
  }
  // Deadline: any positive virtual time exceeds 1e-9 after step one.
  for (int s = 0; s < 2; ++s) {
    jobs.push_back({"--pe 9 --m 2 --density 0.2 --steps 20 --seed " +
                        std::to_string(50 + s) + " --deadline 1e-9",
                    JobOutcome::kDeadline, 1, "deadline"});
  }
  // Malformed: terminal at submission, parse error archived.
  jobs.push_back({"--steps banana --seed 60", JobOutcome::kQuarantined, 0,
                  "malformed-spec"});
  jobs.push_back({"{\"seed\": 61, \"bogus\": 1}", JobOutcome::kQuarantined, 0,
                  "malformed-spec"});
  return jobs;
}

struct RunOutput {
  std::string store_bytes;
  std::string counters;
  std::map<std::string, JobResultRecord> records;
  std::vector<std::string> keys;  // parallel to battery()
  std::size_t torn = 0;
};

RunOutput run_battery(const char* file_tag, int workers) {
  const auto path = temp_path(file_tag);
  std::remove(path.c_str());
  RunOutput out;
  {
    ResultStore store(path);
    SchedulerConfig config;
    config.workers = workers;
    config.max_attempts = 3;
    Scheduler scheduler(config, store);
    for (const auto& job : battery()) {
      out.keys.push_back(scheduler.submit(job.text).key);
    }
    scheduler.drain();
    out.counters = scheduler.counters_line();
    out.records = store.records();
    out.torn = store.torn_records_dropped();
  }
  out.store_bytes = slurp(path);
  return out;
}

TEST(SchedulerChaos, FullDrainWithExactTerminalAccounting) {
  const auto jobs = battery();
  const auto run = run_battery("chaos_a.jsonl", 2);

  EXPECT_EQ(run.torn, 0u);
  ASSERT_EQ(run.keys.size(), jobs.size());
  EXPECT_EQ(run.records.size(), jobs.size())
      << "every job must reach exactly one terminal state";

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto it = run.records.find(run.keys[i]);
    ASSERT_NE(it, run.records.end()) << jobs[i].text;
    const auto& record = it->second;
    EXPECT_EQ(record.outcome, jobs[i].outcome) << jobs[i].text;
    if (jobs[i].attempts >= 0) {
      EXPECT_EQ(record.attempts, jobs[i].attempts) << jobs[i].text;
    }
    if (!jobs[i].failure.empty()) {
      EXPECT_EQ(record.failure, jobs[i].failure) << jobs[i].text;
      EXPECT_FALSE(record.error.empty()) << jobs[i].text;
    }
    if (record.outcome == JobOutcome::kSucceeded) {
      EXPECT_NE(record.trajectory_digest, "0000000000000000") << jobs[i].text;
    }
    if (record.outcome == JobOutcome::kDeadline) {
      EXPECT_GE(record.steps, 1) << jobs[i].text;
      EXPECT_LT(record.steps, 20) << jobs[i].text;
    }
  }
}

TEST(SchedulerChaos, StoreBytesAndCountersAreWorkerCountInvariant) {
  const auto two = run_battery("chaos_two.jsonl", 2);
  const auto four = run_battery("chaos_four.jsonl", 4);
  EXPECT_FALSE(two.store_bytes.empty());
  EXPECT_EQ(two.store_bytes, four.store_bytes);
  EXPECT_EQ(two.counters, four.counters);
}

TEST(SchedulerChaos, DuplicateSubmissionsCollapseAndCacheHit) {
  const auto path = temp_path("chaos_dup.jsonl");
  std::remove(path.c_str());
  const std::string text = "--pe 9 --m 2 --density 0.2 --steps 6 --seed 9";
  ResultStore store(path);
  {
    Scheduler scheduler({}, store);
    const auto k1 = scheduler.submit(text);
    const auto k2 = scheduler.submit(text);  // queued or running: collapses
    EXPECT_EQ(k1.key, k2.key);
    EXPECT_EQ(k1.admission, Admission::kAccepted);
    EXPECT_EQ(k2.admission, Admission::kCollapsed);
    scheduler.drain();
    const auto k3 = scheduler.submit(text);  // answered: cache hit
    EXPECT_EQ(k1.key, k3.key);
    EXPECT_EQ(k3.admission, Admission::kCacheHit);
    scheduler.drain();
    const auto line = scheduler.counters_line();
    EXPECT_NE(line.find("cache_hits=1"), std::string::npos) << line;
    EXPECT_NE(line.find("collapsed=1"), std::string::npos) << line;
    EXPECT_NE(line.find("submitted=3"), std::string::npos) << line;
  }
  EXPECT_EQ(store.size(), 1u);
}

TEST(SchedulerChaos, MidRunDeadlineCancelsDeterministically) {
  // Probe the job's full virtual cost, then grant half: the cancellation
  // step is a pure function of the trajectory, not of scheduling.
  const std::string base = "--pe 9 --m 2 --density 0.2 --steps 12 --seed 21";
  const auto probe = run_attempt(JobSpec::parse(base), {});
  ASSERT_EQ(probe.status, AttemptStatus::kCompleted);

  const auto half = JobSpec::parse(
      base + " --deadline " + std::to_string(probe.virtual_seconds / 2));
  const auto a = run_attempt(half, {});
  const auto b = run_attempt(half, {});
  EXPECT_EQ(a.status, AttemptStatus::kDeadline);
  EXPECT_GT(a.steps_done, 1);
  EXPECT_LT(a.steps_done, 12);
  EXPECT_EQ(a.steps_done, b.steps_done);
  EXPECT_EQ(a.virtual_seconds, b.virtual_seconds);
}

TEST(SchedulerChaos, RetryBackoffIsDeterministicSeededAndBounded) {
  SchedulerConfig config;
  const auto job = JobSpec::parse(chaos_spec(2));
  const auto other = JobSpec::parse(chaos_spec(9));
  for (int attempt = 2; attempt <= 6; ++attempt) {
    const double once = Scheduler::retry_backoff_seconds(config, job, attempt);
    const double twice = Scheduler::retry_backoff_seconds(config, job, attempt);
    EXPECT_EQ(once, twice);
    EXPECT_GT(once, 0.0);
    EXPECT_LE(once, 2.0 * config.backoff_cap);  // cap * (1 + jitter)
    EXPECT_NE(once, Scheduler::retry_backoff_seconds(config, other, attempt))
        << "jitter must be seeded per spec digest";
  }
  // Exponential growth below the cap.
  EXPECT_LT(Scheduler::retry_backoff_seconds(config, job, 2) / 2.0,
            Scheduler::retry_backoff_seconds(config, job, 3));
}

}  // namespace
}  // namespace pcmd::serve
