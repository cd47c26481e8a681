#include "serve_workloads.hpp"

#include "md_workloads.hpp"
#include "stats.hpp"

#include "obs/counters.hpp"
#include "serve/journal.hpp"
#include "serve/runner.hpp"
#include "serve/scheduler.hpp"
#include "serve/store.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

namespace pcmd::ledger {

namespace {

namespace fs = std::filesystem;

// The submitting thread plus the workers fill the 4-core host.
constexpr int kWorkers = 3;
constexpr double kOpenRate = 60.0;  // submissions per second
// Bursts are sized so several fit in one run, each still 200 lanes deep.
constexpr int kBurstJobs = 200;
constexpr int kTinyJobs = 20;
constexpr int kSetupReps = 15;
constexpr double kSloMs = 250.0;
constexpr std::int64_t kPollNs = 500'000;

enum class Category { kClean, kChaos, kResubmit, kMalformed, kHigh };

struct Submission {
  double due = 0.0;  // seconds after the session starts
  std::string text;
  Category category = Category::kClean;
};

// Seeded Fisher-Yates shuffle of items[from..].
template <typename T>
void shuffle(std::vector<T>& items, std::size_t from, Rng& rng) {
  for (std::size_t i = items.size(); i > from + 1; --i) {
    std::swap(items[i - 1], items[from + rng.uniform_index(i - from)]);
  }
}

// The seeded mix: 70% clean jobs of 10..30 steps, 10% drop=0.3 chaos (the
// reliable channel retransmits), 10% resubmissions of an earlier job
// (cache hit or collapse), 5% malformed text, 5% high priority (preempts).
// Arrivals are Poisson at `rate`, or all due at t=0 when rate is 0. The
// category counts, the multiset of step counts and the total arrival span
// are fixed by `count` and `rate`; the seed picks their order, the gaps and
// the job seeds, so runs with different seeds offer the same load.
std::vector<Submission> make_mix(std::uint64_t seed, int count, double rate) {
  const std::string base =
      make_system("serve_job", seed).job_flags + " --steps ";
  Rng rng(seed ^ 0x5e57e5eedULL);
  const auto n = static_cast<std::size_t>(count);
  // Position 0 stays clean so every resubmission has an earlier job.
  std::vector<Category> categories(n, Category::kClean);
  std::size_t at = 1;
  const std::pair<Category, double> quotas[] = {{Category::kChaos, 0.10},
                                                {Category::kResubmit, 0.10},
                                                {Category::kMalformed, 0.05},
                                                {Category::kHigh, 0.05}};
  for (const auto& [category, fraction] : quotas) {
    const auto quota = std::lround(fraction * static_cast<double>(n));
    for (long k = 0; k < quota && at < n; ++k) categories[at++] = category;
  }
  shuffle(categories, 1, rng);
  std::vector<int> steps(n);
  for (std::size_t i = 0; i < n; ++i) steps[i] = 10 + static_cast<int>(i % 21);
  shuffle(steps, 0, rng);
  std::vector<double> due(n, 0.0);
  if (rate > 0.0) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += -std::log(1.0 - rng.uniform());
      due[i] = total;
    }
    for (double& d : due) d *= static_cast<double>(n) / rate / total;
  }

  std::vector<Submission> mix;
  std::vector<std::size_t> runnable;  // clean and high jobs, resubmittable
  for (std::size_t i = 0; i < n; ++i) {
    const std::string job_seed = std::to_string(seed * 100003ULL + i);
    const std::string clean =
        base + std::to_string(steps[i]) + " --seed " + job_seed;
    Submission s;
    s.due = due[i];
    s.category = categories[i];
    switch (s.category) {
      case Category::kClean:
        s.text = clean;
        break;
      case Category::kChaos:
        s.text = clean + " --faults seed=" + job_seed + ",drop=0.3";
        break;
      case Category::kResubmit:
        s.text = mix[runnable[rng.uniform_index(runnable.size())]].text;
        break;
      case Category::kMalformed:
        s.text = i % 2 == 0
                     ? "--seed " + job_seed + " --steps banana"
                     : "{\"seed\": " + job_seed + ", \"no-such-flag\": true}";
        break;
      case Category::kHigh:
        s.text = clean + " --priority high";
        break;
    }
    if (s.category == Category::kClean || s.category == Category::kHigh) {
      runnable.push_back(i);
    }
    mix.push_back(std::move(s));
  }
  return mix;
}

// An MD workload's own system served as a short burst: six 3-step jobs
// and two resubmissions.
std::vector<Submission> make_system_mix(const RunContext& context) {
  const System system = make_system(context.workload->system, context.seed);
  std::vector<Submission> mix;
  for (std::uint64_t i = 0; i < 6; ++i) {
    Submission s;
    s.text = system.job_flags + " --steps 3 --seed " +
             std::to_string(context.seed * 100003ULL + i);
    mix.push_back(s);
  }
  for (std::size_t i = 0; i < 2; ++i) {
    Submission s = mix[i];
    s.category = Category::kResubmit;
    mix.push_back(s);
  }
  return mix;
}

bool open_loop(const RunContext& context) {
  return std::string(context.workload->system) == "open";
}

// The open loop offers kOpenRate for the whole budget; a burst is
// kBurstJobs at t=0.
std::vector<Submission> workload_mix(const RunContext& context) {
  if (context.tiny) {
    return make_mix(context.seed, kTinyJobs,
                    open_loop(context) ? kOpenRate : 0.0);
  }
  if (open_loop(context)) {
    return make_mix(context.seed,
                    static_cast<int>(std::lround(kOpenRate * context.seconds)),
                    kOpenRate);
  }
  return make_mix(context.seed, kBurstJobs, 0.0);
}

struct Attempt {
  std::int64_t start = 0;
  std::thread::id thread;
};

// One submission's timeline on the now_ns() clock.
struct JobTrack {
  std::int64_t due = 0;
  std::int64_t submitted = 0;
  std::int64_t visible = -1;  // terminal record first seen in the store
  serve::SubmitResult admission;
};

struct Session {
  std::vector<JobTrack> jobs;
  std::map<std::string, std::vector<Attempt>> attempts;  // recorded only
  std::map<std::string, serve::JobResultRecord> records;
  std::int64_t begin = 0;    // t=0 of the due times
  std::int64_t stopped = 0;  // stop(kDrain) returned, compaction included
  std::uint64_t preemptions = 0;
};

// Offers `mix` to a fresh scheduler in `dir` from this thread, polling the
// store for terminal records, then drains and stops it. With
// `record_attempts`, each attempt's start is taken on the worker thread
// through the scheduler's before-attempt hook.
Session run_session(const std::vector<Submission>& mix, const fs::path& dir,
                    bool record_attempts) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  serve::ResultStore store((dir / "store.jsonl").string(),
                           serve::FlushMode::kOnCompact);
  serve::JobJournal journal((dir / "journal.bin").string());
  obs::CounterBoard counters;
  Session session;
  std::mutex attempts_mutex;
  serve::SchedulerConfig config;
  config.workers = kWorkers;
  if (record_attempts) {
    config.before_attempt_hook = [&](const serve::JobSpec& job) {
      const Attempt attempt{now_ns(), std::this_thread::get_id()};
      const std::string key = serve::ResultStore::key_of(job);
      const std::lock_guard<std::mutex> lock(attempts_mutex);
      session.attempts[key].push_back(attempt);
    };
  }
  serve::Scheduler scheduler(config, store, &counters, &journal);
  scheduler.recover();

  session.jobs.resize(mix.size());
  std::vector<std::size_t> pending;
  std::size_t next = 0;
  std::size_t seen_records = 0;
  session.begin = now_ns();
  while (next < mix.size() || !pending.empty()) {
    for (; next < mix.size(); ++next) {
      JobTrack& job = session.jobs[next];
      job.due = session.begin + std::llround(mix[next].due * 1e9);
      if (job.due > now_ns()) break;
      job.submitted = now_ns();
      job.admission = scheduler.submit(mix[next].text);
      const auto verdict = job.admission.admission;
      if (verdict == serve::Admission::kRejectedOverloaded ||
          verdict == serve::Admission::kRejectedTripped) {
        continue;  // never answered: a failed submission
      }
      // Cache hits and malformed text are answered inside submit().
      if (store.find(job.admission.key)) {
        job.visible = now_ns();
      } else {
        pending.push_back(next);
      }
    }
    // Records only appear, so a scan is due only when the count moved.
    if (const std::size_t count = store.size(); count != seen_records) {
      seen_records = count;
      std::erase_if(pending, [&](std::size_t i) {
        JobTrack& job = session.jobs[i];
        if (!store.find(job.admission.key)) return false;
        job.visible = now_ns();
        return true;
      });
    }
    // Poll while answers are outstanding; otherwise idle until the next
    // arrival.
    std::int64_t wake = now_ns() + kPollNs;
    if (next < mix.size()) {
      const std::int64_t due = session.jobs[next].due;
      wake = pending.empty() ? due : std::min(wake, due);
    }
    const std::int64_t sleep = wake - now_ns();
    if (sleep > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(sleep));
  }
  scheduler.stop(serve::StopMode::kDrain);
  session.stopped = now_ns();
  session.records = store.records();
  session.preemptions = scheduler.stats().preemptions;
  return session;
}

// Every submission must reach the terminal state its category expects.
void check_outcomes(const std::vector<Submission>& mix, const Session& session,
                    RunResult& result) {
  for (std::size_t i = 0; i < mix.size(); ++i) {
    const JobTrack& job = session.jobs[i];
    const auto verdict = job.admission.admission;
    const auto it = session.records.find(job.admission.key);
    bool ok = job.visible >= 0 && it != session.records.end();
    if (ok && mix[i].category == Category::kMalformed) {
      ok = it->second.outcome == serve::JobOutcome::kQuarantined &&
           it->second.failure == "malformed-spec";
    } else if (ok) {
      ok = it->second.outcome == serve::JobOutcome::kSucceeded;
    }
    if (mix[i].category == Category::kResubmit) {
      ok = ok && (verdict == serve::Admission::kCacheHit ||
                  verdict == serve::Admission::kCollapsed);
    }
    result.check(ok, "submission " + std::to_string(i) + " (" + mix[i].text +
                         "): admitted " + serve::admission_name(verdict) +
                         ", expected outcome not reached");
  }
}

std::string hex16(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

// Runs up to `samples` clean jobs of the mix directly through
// serve::run_attempt and checks each against its stored record; returns
// the run times in ms.
std::vector<double> direct_runs(const std::vector<Submission>& mix,
                                const Session& session, std::size_t samples,
                                RunResult& result) {
  std::vector<double> ms;
  for (std::size_t i = 0; i < mix.size() && ms.size() < samples; ++i) {
    if (mix[i].category != Category::kClean) continue;
    const auto it = session.records.find(session.jobs[i].admission.key);
    if (it == session.records.end()) continue;
    const auto job = serve::JobSpec::parse(mix[i].text);
    const std::int64_t start = now_ns();
    const auto attempt = serve::run_attempt(job, serve::AttemptContext{});
    ms.push_back(static_cast<double>(now_ns() - start) * 1e-6);
    result.check(attempt.status == serve::AttemptStatus::kCompleted &&
                     hex16(attempt.trajectory_digest) ==
                         it->second.trajectory_digest &&
                     attempt.steps_done == it->second.steps,
                 "stored record of \"" + mix[i].text +
                     "\" matches a direct run_attempt");
  }
  return ms;
}

double ms_between(std::int64_t from, std::int64_t to) {
  return static_cast<double>(to - from) * 1e-6;
}

// Seconds to restart the service over the durable state a stopped
// session left in `state`: generate the mix, load the compacted store
// (every terminal record) and journal, start the scheduler and replay the
// journal with recover(). Copying the files in beforehand and the
// tear-down afterwards are not timed.
double time_setup(const RunContext& context, const fs::path& state,
                  const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const char* file : {"store.jsonl", "journal.bin"}) {
    fs::copy_file(state / file, dir / file);
  }
  const std::int64_t start = now_ns();
  const auto mix = workload_mix(context);
  serve::ResultStore store((dir / "store.jsonl").string(),
                           serve::FlushMode::kOnCompact);
  serve::JobJournal journal((dir / "journal.bin").string());
  serve::SchedulerConfig config;
  config.workers = kWorkers;
  serve::Scheduler scheduler(config, store, nullptr, &journal);
  scheduler.recover();
  return static_cast<double>(now_ns() - start) * 1e-9;
}

}  // namespace

RunResult run_serve_timed(const RunContext& context) {
  const fs::path scratch(context.scratch_dir);
  RunResult result;
  const auto mix = workload_mix(context);
  const bool open = open_loop(context);
  // Set-up samples follow every session, so a run of bursts spreads them
  // over the same host conditions as the sessions themselves.
  const int setup_reps = context.tiny ? 2 : open ? kSetupReps : 4;
  std::vector<double> setup;
  std::vector<double> latency_ms;
  std::vector<double> rates;
  std::map<std::string, serve::JobResultRecord> first_records;
  const std::int64_t start = now_ns();
  for (int round = 0;; ++round) {
    const Session session = run_session(mix, scratch / "session", false);
    check_outcomes(mix, session, result);
    std::int64_t last_visible = session.begin;
    for (const JobTrack& job : session.jobs) {
      if (job.visible < 0) continue;
      latency_ms.push_back(ms_between(job.due, job.visible));
      last_visible = std::max(last_visible, job.visible);
    }
    // Open loop: completions per second of the offered stream. Bursts:
    // submissions per second from the first submit to the stopped service.
    const std::int64_t end = open ? last_visible : session.stopped;
    rates.push_back(static_cast<double>(mix.size()) /
                    (static_cast<double>(end - session.begin) * 1e-9));
    for (int rep = 0; rep < setup_reps; ++rep) {
      const double s =
          time_setup(context, scratch / "session", scratch / "setup");
      if (round > 0 || rep > 0) setup.push_back(s);  // the first warms up
    }
    if (round == 0) {
      first_records = session.records;
      direct_runs(mix, session, 3, result);
    } else {
      result.check(session.records.size() == first_records.size() &&
                       std::equal(session.records.begin(),
                                  session.records.end(),
                                  first_records.begin(),
                                  [](const auto& a, const auto& b) {
                                    return a.second.json_line() ==
                                           b.second.json_line();
                                  }),
                   "every burst stores byte-identical records");
    }
    if (open || context.tiny ||
        static_cast<double>(now_ns() - start) * 1e-9 >= context.seconds) {
      break;
    }
  }
  result.metrics["setup_s"] = median(setup);
  result.metrics["throughput"] = median(rates);
  result.metrics["latency_ms_p50"] = median(latency_ms);
  result.note_latency("job", latency_ms, 1.0);
  return result;
}

void probe_serve_layers(const RunContext& context, RunResult& result) {
  const bool serve_kind = context.workload->kind == WorkloadKind::kServe;
  const auto mix = serve_kind ? workload_mix(context)
                              : make_system_mix(context);
  const fs::path scratch(context.scratch_dir);
  const Session session = run_session(mix, scratch / "session", true);
  check_outcomes(mix, session, result);

  // Spans: job (due -> visible) -> queue (due -> first attempt) and
  // attempt.k. An attempt ends at the next start on its worker thread or
  // of its own job, or when its record became visible.
  SpanLog& log = *context.spans;
  const std::uint32_t job_name = log.intern("job");
  const std::uint32_t queue_name = log.intern("queue");
  std::vector<std::pair<std::int64_t, std::thread::id>> starts;
  for (const auto& [key, attempts] : session.attempts) {
    for (const Attempt& a : attempts) starts.emplace_back(a.start, a.thread);
  }
  std::sort(starts.begin(), starts.end());
  std::vector<double> queue_ms, service_ms, late_ms;
  double busy_ns = 0.0;
  std::int64_t last_visible = session.begin;
  std::size_t slo_misses = 0;
  std::size_t cache_hits = 0, collapsed = 0;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    const JobTrack& job = session.jobs[i];
    late_ms.push_back(ms_between(job.due, job.submitted));
    const auto verdict = job.admission.admission;
    cache_hits += verdict == serve::Admission::kCacheHit ? 1 : 0;
    collapsed += verdict == serve::Admission::kCollapsed ? 1 : 0;
    if (job.visible < 0 || ms_between(job.due, job.visible) > kSloMs) {
      ++slo_misses;
    }
    if (job.visible < 0) continue;
    last_visible = std::max(last_visible, job.visible);
    const auto trace = static_cast<std::int64_t>(i);
    const auto tid = static_cast<std::int32_t>(i + 1);
    const std::int32_t parent =
        log.add(job_name, job.due, job.visible, -1, trace, tid);
    const auto it = session.attempts.find(job.admission.key);
    if (verdict != serve::Admission::kAccepted ||
        it == session.attempts.end()) {
      continue;
    }
    const auto& attempts = it->second;
    log.add(queue_name, job.due, attempts.front().start, parent, trace, tid);
    queue_ms.push_back(ms_between(job.due, attempts.front().start));
    service_ms.push_back(ms_between(attempts.front().start, job.visible));
    for (std::size_t k = 0; k < attempts.size(); ++k) {
      std::int64_t end = job.visible;
      if (k + 1 < attempts.size()) end = std::min(end, attempts[k + 1].start);
      const auto next_on_thread = std::find_if(
          std::upper_bound(starts.begin(), starts.end(),
                           std::make_pair(attempts[k].start,
                                          attempts[k].thread)),
          starts.end(),
          [&](const auto& s) { return s.second == attempts[k].thread; });
      if (next_on_thread != starts.end()) {
        end = std::min(end, next_on_thread->first);
      }
      busy_ns += static_cast<double>(end - attempts[k].start);
      log.add(log.intern("attempt." + std::to_string(k + 1)),
              attempts[k].start, end, parent, trace, tid);
    }
  }
  const std::int64_t wall =
      (open_loop(context) ? last_visible : session.stopped) - session.begin;
  result.metrics["serve.queue_ms_p50"] = percentile(queue_ms, 50);
  result.metrics["serve.queue_ms_p99"] = percentile(queue_ms, 99);
  result.metrics["serve.service_ms_p50"] = percentile(service_ms, 50);
  result.metrics["serve.overhead_frac"] =
      1.0 - busy_ns / (kWorkers * static_cast<double>(wall));
  result.metrics["serve.cache_hits"] = static_cast<double>(cache_hits);
  result.metrics["serve.collapsed"] = static_cast<double>(collapsed);
  result.metrics["serve.preemptions"] =
      static_cast<double>(session.preemptions);
  result.metrics["serve.slo_miss_frac"] =
      static_cast<double>(slo_misses) / static_cast<double>(mix.size());
  result.metrics["serve.gen_late_ms_p99"] = percentile(late_ms, 99);
  double attempts = 0.0;
  double ran = 0.0;  // malformed specs never run: their records show 0
  for (const auto& [key, record] : session.records) {
    attempts += record.attempts;
    ran += record.attempts > 0 ? 1.0 : 0.0;
  }
  result.metrics["serve.attempts"] = attempts;
  result.metrics["serve.retries"] = attempts - ran;
  result.metrics["serve.run_ms_p50"] =
      median(direct_runs(mix, session, context.tiny ? 2 : 8, result));

  // Direct calls into the service's own layers on this mix's texts and
  // records.
  std::vector<double> parse_us;
  for (const Submission& s : mix) {
    if (s.category == Category::kMalformed) continue;
    const std::int64_t start = now_ns();
    const auto job = serve::JobSpec::parse(s.text);
    parse_us.push_back(static_cast<double>(now_ns() - start) * 1e-3);
    (void)job;
  }
  result.metrics["serve.parse_us"] = median(parse_us);
  const fs::path probe = scratch / "probe";
  fs::remove_all(probe);
  fs::create_directories(probe);
  std::vector<double> append_us, put_us;
  {
    serve::JobJournal journal((probe / "journal.bin").string());
    serve::ResultStore store((probe / "store.jsonl").string(),
                             serve::FlushMode::kOnCompact);
    for (const auto& [key, record] : session.records) {
      serve::JournalEvent event;
      event.kind = serve::JournalEventKind::kTerminal;
      event.key = key;
      event.record_line = record.json_line();
      std::int64_t start = now_ns();
      journal.append(event);
      append_us.push_back(static_cast<double>(now_ns() - start) * 1e-3);
      serve::JobResultRecord copy = record;
      start = now_ns();
      store.put(std::move(copy));
      put_us.push_back(static_cast<double>(now_ns() - start) * 1e-3);
    }
    std::vector<double> compact_ms;
    for (int rep = 0; rep < 3; ++rep) {
      const std::int64_t start = now_ns();
      store.compact();
      compact_ms.push_back(ms_between(start, now_ns()));
    }
    result.metrics["serve.store_compact_ms"] = median(compact_ms);
  }
  result.metrics["serve.journal_append_us"] = median(append_us);
  result.metrics["serve.store_put_us"] = median(put_us);
}

}  // namespace pcmd::ledger
