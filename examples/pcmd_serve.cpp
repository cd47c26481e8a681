// Simulation-as-a-service demonstrator: a mixed queue of clean and hostile
// jobs through the serve::Scheduler, twice.
//
//   ./pcmd_serve [--jobs N] [--workers W] [--max-attempts A]
//                [--store PATH] [--journal PATH] [--quiet 0|1]
//
// Phase 1 generates a deterministic mix — clean runs (flag and JSON
// grammars), drop-heavy chaos runs, malformed specs, poison jobs (a crash
// before the first buddy generation, or two crashes with no healing),
// deadline-doomed runs and periodic high-priority submissions that preempt
// running low-priority work — submits all of it and drains. Every other
// clean job and two poison jobs in three run on ThreadEngine. Phase 2
// resubmits the identical queue and must answer everything from the result
// store without re-running a single simulation, leaving the store file
// byte-for-byte unchanged.
//
// With --journal the scheduler write-ahead journals every lifecycle event
// and the store defers its file rewrite to compaction points. The harness
// then becomes kill-safe: SIGKILL it at any moment, rerun the identical
// command, and recover() replays the journal so the run converges to the
// same store bytes an uninterrupted run produces. (After such a restart the
// process-cumulative counters legitimately exceed a single run's — the
// resubmitted workload is genuinely new traffic past the last compaction —
// so the exact counter self-checks only run when the journal started
// empty.)
//
// The harness self-checks the service contract and exits non-zero on any
// violation: every job reaches exactly one terminal state, poison jobs are
// quarantined with their shape's failure — after exactly A attempts when
// it is retryable, after one when not — malformed specs are archived, clean
// jobs succeed first try, and the process survives it all (the run itself
// is the zero-service-crashes check).

#include "serve/runner.hpp"
#include "serve/scheduler.hpp"
#include "util/cli.hpp"

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace pcmd;

namespace {

enum class Category { kClean, kChaos, kMalformed, kPoison, kDeadline };

struct Submission {
  std::string text;
  Category category = Category::kClean;
  // kPoison: what every attempt fails with. A retryable failure quarantines
  // after max-attempts attempts, any other after the first.
  serve::FailureKind failure = serve::FailureKind::kNone;
  std::string key;  // filled at submit time
};

std::vector<Submission> make_queue(int jobs) {
  std::vector<Submission> queue;
  queue.reserve(jobs);
  const std::string base = "--pe 9 --m 2 --density 0.2 ";
  // Every other clean job runs on ThreadEngine, so the store and journal
  // diffs across worker counts cover both engines.
  int clean_jobs = 0;
  for (int i = 0; i < jobs; ++i) {
    Submission s;
    const int seed = 1000 + i;
    if (i % 25 == 24) {
      // High-priority arrivals: land while low-priority long jobs run and
      // evict them (they resume bitwise-identically later).
      s.text = base + "--steps 10 --seed " + std::to_string(seed) +
               " --priority high";
      s.category = Category::kClean;
      queue.push_back(std::move(s));
      continue;
    }
    switch (i % 10) {
      case 5:
        s.text = base + "--steps 30 --seed " + std::to_string(seed) +
                 " --priority low";
        s.category = Category::kClean;
        break;
      case 6:
        s.text = base + "--steps 8 --seed " + std::to_string(seed) +
                 " --faults seed=" + std::to_string(seed) + ",drop=0.45";
        s.category = Category::kChaos;
        break;
      case 7: {
        // Four malformed shapes in turn, each unique to its job. The last
        // two, a negative seed and an --m past int range, used to wrap into
        // runnable specs.
        const std::string id = std::to_string(seed);
        const std::string shapes[] = {
            "--seed " + id + " --steps banana",
            "{\"seed\": " + id + ", \"no-such-flag\": true}",
            "--pe 9 --m 2 --steps 3 --seed -" + id,
            "--pe 9 --m 4294967298 --steps 3 --seed " + id};
        s.text = shapes[i / 10 % 4];
        s.category = Category::kMalformed;
        break;
      }
      case 8: {
        // Three poison shapes in turn, each failing every attempt the same
        // way. The first two, on SeqEngine and then ThreadEngine: rank 4
        // dies at virtual t=0, before the first buddy generation exists, so
        // the watchdog cannot heal it and every attempt is unsurvivable. The
        // third: ranks 0 and 4 die with no healing, several ranks of one
        // phase miss their messages, and every attempt fails with the lowest
        // such rank's peer-dead error, naming the dead sender. It runs DDM
        // (--balancer none). The checked build's ownership check skips any
        // step with a dead role, so DLB would no longer trip it first; the
        // text stays as it is because it is part of the store's bytes.
        const std::string head =
            base + "--steps 10 --seed " + std::to_string(seed);
        const int shape = i / 10 % 3;
        if (shape < 2) {
          s.text = head + " --faults seed=1,crash=4@0 --buddy-every 3 "
                          "--spares 1" +
                   (shape == 1 ? " --engine thread" : "");
          s.failure = serve::FailureKind::kUnsurvivable;
        } else {
          s.text = head +
                   " --balancer none --faults seed=1,crash=4@0.02,crash=0@0.02"
                   " --engine thread";
          s.failure = serve::FailureKind::kPeerDead;
        }
        s.category = Category::kPoison;
        break;
      }
      case 9:
        s.text = base + "--steps 40 --seed " + std::to_string(seed) +
                 " --deadline 1e-9";
        s.category = Category::kDeadline;
        break;
      default: {
        const bool thread = clean_jobs++ % 2 == 1;
        if (i % 4 == 0) {
          s.text = "{\"pe\": 9, \"m\": 2, \"density\": 0.2, \"steps\": 10, "
                   "\"seed\": " + std::to_string(seed) +
                   (thread ? ", \"engine\": \"thread\"}" : "}");
        } else {
          s.text = base + "--steps 10 --seed " + std::to_string(seed) +
                   (thread ? " --engine thread" : "");
        }
        s.category = Category::kClean;
        break;
      }
    }
    queue.push_back(std::move(s));
  }
  return queue;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("SELF-CHECK FAILED: %s\n", what.c_str());
    ++g_failures;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const int jobs = static_cast<int>(cli.get_int("jobs", 120));
  const int workers = static_cast<int>(cli.get_int("workers", 4));
  const int max_attempts = static_cast<int>(cli.get_int("max-attempts", 3));
  const std::string store_path = cli.get("store", "serve_results.jsonl");
  const std::string journal_path = cli.get("journal", "");
  const bool quiet = cli.get_bool("quiet", false);
  const auto unknown = cli.unqueried_flags();
  if (!unknown.empty()) {
    std::fprintf(stderr,
                 "pcmd_serve: unknown flag --%s (accepted: --jobs N, "
                 "--workers W, --max-attempts A, --store PATH, "
                 "--journal PATH, --quiet 0|1)\n",
                 unknown.front().c_str());
    return 2;
  }

  const bool journaling = !journal_path.empty();
  // Without a journal every run starts cold. With one, existing files ARE
  // the state a killed predecessor left behind — keep them and recover.
  if (!journaling) std::remove(store_path.c_str());
  auto queue = make_queue(jobs);

  serve::SchedulerConfig config;
  config.workers = workers;
  config.max_attempts = max_attempts;

  obs::CounterBoard counters;
  serve::ResultStore store(store_path, journaling
                                           ? serve::FlushMode::kOnCompact
                                           : serve::FlushMode::kEveryPut);
  std::optional<serve::JobJournal> journal;
  if (journaling) journal.emplace(journal_path);
  serve::JobJournal* journal_ptr = journaling ? &*journal : nullptr;
  // Exact cumulative counter checks only hold when this process saw the
  // whole workload itself (see the header comment).
  const bool fresh_run = !journaling || journal->events().empty();

  // ---- phase 1: the mixed queue, cold --------------------------------------
  std::uint64_t preemptions = 0, resumes = 0;
  {
    serve::Scheduler scheduler(config, store, &counters, journal_ptr);
    const std::size_t recovered = scheduler.recover();
    if (recovered > 0 && !quiet) {
      std::printf("pcmd_serve: recovered %zu pending job(s) from journal\n",
                  recovered);
    }
    for (auto& s : queue) s.key = scheduler.submit(s.text).key;
    scheduler.drain();
    if (!quiet) std::puts(scheduler.counters_line().c_str());
    preemptions = scheduler.stats().preemptions;
    resumes = scheduler.stats().resumes;
    scheduler.stop(serve::StopMode::kDrain);  // compacts store + journal
  }

  const auto records = store.records();
  check(records.size() == queue.size(),
        "store holds " + std::to_string(records.size()) + " records for " +
            std::to_string(queue.size()) + " distinct jobs");
  check(store.torn_records_dropped() == 0, "no torn records on a fresh store");

  int chaos_retried = 0, chaos_quarantined = 0;
  for (const auto& s : queue) {
    const auto it = records.find(s.key);
    if (it == records.end()) {
      check(false, "no terminal record for job: " + s.text);
      continue;
    }
    const auto& r = it->second;
    switch (s.category) {
      case Category::kClean:
        check(r.outcome == serve::JobOutcome::kSucceeded && r.attempts == 1,
              "clean job succeeds first try: " + s.text);
        break;
      case Category::kChaos:
        // Transient chaos either masks entirely (reliable channel), clears
        // on a seed-remixed retry, or exhausts the budget — all are valid
        // terminal states; what is forbidden is vanishing or crashing.
        if (r.outcome == serve::JobOutcome::kSucceeded) {
          if (r.attempts > 1) ++chaos_retried;
        } else {
          check(r.outcome == serve::JobOutcome::kQuarantined &&
                    r.failure == "peer-dead",
                "chaos job quarantines only as peer-dead: " + s.text);
          ++chaos_quarantined;
        }
        break;
      case Category::kMalformed:
        check(r.outcome == serve::JobOutcome::kQuarantined &&
                  r.failure == "malformed-spec" && r.attempts == 0 &&
                  !r.error.empty(),
              "malformed spec archived with its parse error: " + s.text);
        break;
      case Category::kPoison: {
        const int attempts =
            serve::failure_is_retryable(s.failure) ? max_attempts : 1;
        check(r.outcome == serve::JobOutcome::kQuarantined &&
                  r.failure == serve::failure_kind_name(s.failure) &&
                  r.attempts == attempts && !r.error.empty(),
              "poison job quarantined after exactly " +
                  std::to_string(attempts) + " attempt(s): " + s.text);
        break;
      }
      case Category::kDeadline:
        check(r.outcome == serve::JobOutcome::kDeadline && r.steps >= 1,
              "deadline job cancelled by virtual-time budget: " + s.text);
        break;
    }
  }

  // ---- phase 2: identical resubmission must be pure cache ------------------
  const std::string bytes_before = slurp(store_path);
  std::uint64_t malformed_count = 0;
  for (const auto& s : queue) {
    if (s.category == Category::kMalformed) ++malformed_count;
  }
  {
    serve::Scheduler scheduler(config, store, &counters, journal_ptr);
    // No recover() here: the journal's construction-time events were already
    // replayed (and compacted away) by the phase-1 scheduler.
    for (const auto& s : queue) {
      const serve::SubmitResult result = scheduler.submit(s.text);
      check(result.key == s.key, "resubmission maps to the same key: " + s.text);
      if (fresh_run && s.category != Category::kMalformed) {
        check(result.admission == serve::Admission::kCacheHit,
              "well-formed resubmission is a typed cache hit: " + s.text);
      }
    }
    scheduler.drain();
    if (!quiet) std::puts(scheduler.counters_line().c_str());
    check(scheduler.stats().preemptions == 0 && scheduler.stats().resumes == 0,
          "phase 2 runs nothing, so nothing can be preempted");
    scheduler.stop(serve::StopMode::kDrain);
  }
  const std::string bytes_after = slurp(store_path);
  check(bytes_before == bytes_after,
        "store file is byte-identical after resubmission");
  if (fresh_run) {
    check(counters.value("cache_hits") == queue.size() - malformed_count,
          "every well-formed resubmission is a cache hit");
    check(counters.value("malformed") == 2 * malformed_count,
          "malformed resubmissions re-archive deterministically");
    check(counters.value("shed") == 0 && counters.value("tripped") == 0,
          "unbounded lanes shed nothing and trip nothing");
  }
  check(store.size() == records.size(), "phase 2 adds no records");

  std::printf(
      "pcmd_serve: %zu jobs -> %zu records (chaos retried %d, chaos "
      "quarantined %d, preemptions %llu, resumes %llu)\n",
      queue.size(), records.size(), chaos_retried, chaos_quarantined,
      static_cast<unsigned long long>(preemptions),
      static_cast<unsigned long long>(resumes));
  std::puts(counters.line("SERVE-EVENTS").c_str());

  if (g_failures > 0) {
    std::printf("pcmd_serve: %d self-check(s) FAILED\n", g_failures);
    return 1;
  }
  std::puts("SERVE-OK");
  return 0;
}
