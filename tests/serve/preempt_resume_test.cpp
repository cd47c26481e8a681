// Preempt-resume battery: an attempt evicted at a checkpoint and resumed
// later must land on the SAME terminal record as an uninterrupted run —
// bitwise-identical trajectory digest, energies and virtual seconds. The
// harshest version is exercised directly through run_attempt(): with the
// eviction flag pinned high the job checkpoints after every single step,
// so a 12-step run becomes a chain of 12 resumes. Checked on both engines.
// At scheduler level, a high-priority arrival evicting a running
// low-priority job must leave both terminal records identical to solo runs.
#include "serve/runner.hpp"

#include "serve/scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>

namespace pcmd::serve {
namespace {

// Runs the job to completion, preempting at every opportunity. Returns the
// final (completed) result; counts how many times the job yielded.
AttemptResult run_in_fragments(const JobSpec& job, int* preempt_count) {
  std::atomic<bool> always_evict{true};
  AttemptContext context;
  context.preempt_flag = &always_evict;
  *preempt_count = 0;
  while (true) {
    const AttemptResult result = run_attempt(job, context);
    if (result.status != AttemptStatus::kPreempted) return result;
    ++*preempt_count;
    EXPECT_TRUE(result.preempt.has_value());
    EXPECT_GT(result.preempt->steps_done, context.resume
                                              ? context.resume->steps_done
                                              : 0)
        << "every fragment must make progress under a pinned eviction flag";
    context.resume = result.preempt;
  }
}

void expect_same_terminal(const AttemptResult& whole,
                          const AttemptResult& fragmented) {
  EXPECT_EQ(fragmented.status, AttemptStatus::kCompleted);
  EXPECT_EQ(fragmented.steps_done, whole.steps_done);
  EXPECT_EQ(fragmented.trajectory_digest, whole.trajectory_digest);
  EXPECT_EQ(fragmented.potential_energy, whole.potential_energy);
  EXPECT_EQ(fragmented.kinetic_energy, whole.kinetic_energy);
  EXPECT_EQ(fragmented.virtual_seconds, whole.virtual_seconds);
}

TEST(PreemptResume, EveryStepEvictionIsBitwiseInvariantOnSeqEngine) {
  const auto job =
      JobSpec::parse("--pe 9 --m 2 --density 0.2 --steps 12 --seed 31");
  ASSERT_TRUE(job.preemptible());
  const auto whole = run_attempt(job, {});
  ASSERT_EQ(whole.status, AttemptStatus::kCompleted);
  ASSERT_EQ(whole.steps_done, 12);

  int preempts = 0;
  const auto fragmented = run_in_fragments(job, &preempts);
  EXPECT_EQ(preempts, 11) << "one yield per step except the last";
  expect_same_terminal(whole, fragmented);
}

TEST(PreemptResume, EveryStepEvictionIsBitwiseInvariantOnThreadEngine) {
  const auto job = JobSpec::parse(
      "--pe 9 --m 2 --density 0.2 --steps 8 --seed 32 --engine thread");
  ASSERT_TRUE(job.preemptible());
  const auto whole = run_attempt(job, {});
  ASSERT_EQ(whole.status, AttemptStatus::kCompleted);

  int preempts = 0;
  const auto fragmented = run_in_fragments(job, &preempts);
  EXPECT_EQ(preempts, 7);
  expect_same_terminal(whole, fragmented);
}

TEST(PreemptResume, DeadlineAccountingSurvivesFragmentation) {
  // Grant half the probed virtual budget: whether the job runs whole or in
  // fragments, it must be cancelled at the same step with the same clock.
  const std::string base = "--pe 9 --m 2 --density 0.2 --steps 12 --seed 33";
  const auto probe = run_attempt(JobSpec::parse(base), {});
  ASSERT_EQ(probe.status, AttemptStatus::kCompleted);

  const auto job = JobSpec::parse(base + " --deadline " +
                                  std::to_string(probe.virtual_seconds / 2));
  const auto whole = run_attempt(job, {});
  ASSERT_EQ(whole.status, AttemptStatus::kDeadline);

  std::atomic<bool> always_evict{true};
  AttemptContext context;
  context.preempt_flag = &always_evict;
  AttemptResult fragment;
  while (true) {
    fragment = run_attempt(job, context);
    if (fragment.status != AttemptStatus::kPreempted) break;
    context.resume = fragment.preempt;
  }
  EXPECT_EQ(fragment.status, AttemptStatus::kDeadline);
  EXPECT_EQ(fragment.steps_done, whole.steps_done);
  EXPECT_EQ(fragment.virtual_seconds, whole.virtual_seconds);
}

TEST(PreemptResume, SchedulerEvictionLeavesTerminalRecordsSoloIdentical) {
  const std::string low_text =
      "--pe 9 --m 2 --density 0.2 --steps 24 --seed 34 --priority low";
  const std::string high_text =
      "--pe 9 --m 2 --density 0.2 --steps 6 --seed 35 --priority high";
  const auto low_solo = run_attempt(JobSpec::parse(low_text), {});
  const auto high_solo = run_attempt(JobSpec::parse(high_text), {});
  ASSERT_EQ(low_solo.status, AttemptStatus::kCompleted);
  ASSERT_EQ(high_solo.status, AttemptStatus::kCompleted);

  ResultStore store("");
  SchedulerConfig config;
  config.workers = 1;  // the high arrival can only run by evicting
  std::string low_key, high_key;
  std::uint64_t preemptions = 0;
  {
    Scheduler scheduler(config, store);
    low_key = scheduler.submit(JobSpec::parse(low_text)).key;
    high_key = scheduler.submit(JobSpec::parse(high_text)).key;
    scheduler.drain();
    preemptions = scheduler.stats().preemptions;
    EXPECT_EQ(scheduler.stats().resumes, preemptions);
  }
  // Whether the eviction won the race (the worker may not have started the
  // low job yet) is timing; the terminal records are not.
  const auto low = store.find(low_key);
  const auto high = store.find(high_key);
  ASSERT_TRUE(low.has_value());
  ASSERT_TRUE(high.has_value());
  EXPECT_EQ(low->outcome, JobOutcome::kSucceeded);
  EXPECT_EQ(high->outcome, JobOutcome::kSucceeded);
  EXPECT_EQ(low->attempts, 1) << "preemption is not a retry";
  EXPECT_EQ(high->attempts, 1);

  char expected[32];
  std::snprintf(expected, sizeof(expected), "%016llx",
                static_cast<unsigned long long>(low_solo.trajectory_digest));
  EXPECT_EQ(low->trajectory_digest, expected);
  EXPECT_EQ(low->steps, 24);
  EXPECT_EQ(low->virtual_seconds, low_solo.virtual_seconds);
  EXPECT_EQ(low->potential_energy, low_solo.potential_energy);
  std::snprintf(expected, sizeof(expected), "%016llx",
                static_cast<unsigned long long>(high_solo.trajectory_digest));
  EXPECT_EQ(high->trajectory_digest, expected);
}

TEST(Runner, TrajectoryDigestIsPinned) {
  // FNV-1a 64 over the id-sorted final particles' id, position and
  // velocity bytes. Balancing relabels ownership only, so DDM and DLB-DDM
  // land on the same trajectory and the same digest.
  for (const char* policy : {"", " --balancer none"}) {
    const auto job = JobSpec::parse(
        std::string("--pe 9 --m 2 --density 0.2 --steps 6 --seed 3") +
        policy);
    const auto result = run_attempt(job, AttemptContext{});
    ASSERT_EQ(result.status, AttemptStatus::kCompleted) << result.error;
    EXPECT_EQ(result.trajectory_digest, 0x3bd4595b5306e7a8ULL) << policy;
  }
}

TEST(Runner, ThreadEngineRecordsTheSeqEnginePhaseError) {
  // Rank 5 dies, and several ranks of one phase then miss its message. The
  // stored error is the lowest such rank's on both engines, every time, and
  // it names the dead sender.
  const std::string spec =
      "--pe 16 --m 2 --density 0.2 --steps 6 --seed 5 "
      "--faults seed=2,crash=5@0.01 --engine ";
  const auto seq = run_attempt(JobSpec::parse(spec + "seq"), {});
  ASSERT_EQ(seq.status, AttemptStatus::kFailed);
  ASSERT_EQ(seq.failure, FailureKind::kPeerDead) << seq.error;
  EXPECT_NE(seq.error.find("rank 5 is dead"), std::string::npos) << seq.error;
  const auto thread_job = JobSpec::parse(spec + "thread");
  for (int run = 0; run < 20; ++run) {
    const auto result = run_attempt(thread_job, {});
    EXPECT_EQ(result.failure, FailureKind::kPeerDead) << "run " << run;
    EXPECT_EQ(result.error, seq.error) << "run " << run;
  }
}

TEST(Runner, DeadPeerFailsAsPeerDeadInEveryBuild) {
  // Rank 4 dies before the first DLB step, which leaves its columns
  // unclaimed. Checked builds must not report that as an ownership
  // invariant violation: the next receive from the dead rank names it, as
  // in release builds.
  const auto result = run_attempt(
      JobSpec::parse("--pe 9 --m 2 --density 0.2 --steps 10 "
                     "--faults seed=1,crash=4@0.02"),
      {});
  ASSERT_EQ(result.status, AttemptStatus::kFailed);
  EXPECT_EQ(result.failure, FailureKind::kPeerDead) << result.error;
  EXPECT_EQ(result.error,
            "Comm::recv: rank 4 is dead, so no message tag 1 reaches rank 0 "
            "in phase 10");
}

TEST(PreemptResume, NonPreemptibleJobsIgnoreTheEvictionFlag) {
  const auto job = JobSpec::parse(
      "--pe 9 --m 2 --density 0.2 --steps 8 --seed 36 "
      "--faults seed=9,drop=0.1");
  ASSERT_FALSE(job.preemptible());
  std::atomic<bool> always_evict{true};
  AttemptContext context;
  context.preempt_flag = &always_evict;
  const auto result = run_attempt(job, context);
  EXPECT_NE(result.status, AttemptStatus::kPreempted)
      << "a faulted job must run to a terminal state, never checkpoint";
}

}  // namespace
}  // namespace pcmd::serve
