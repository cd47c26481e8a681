// serve::ResultStore battery: record round-trips, order-independent
// byte-identical persistence (the determinism contract the CI serve job
// diffs on), idempotent reload, and the crash-safety story — atomic
// temp+rename writes, a torn trailing record dropped on reload, and real
// mid-file corruption failing loudly.
#include "serve/store.hpp"

#include "serve/error.hpp"
#include "support/temp_path.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
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

JobResultRecord sample(const std::string& key, JobOutcome outcome,
                       int attempts) {
  JobResultRecord record;
  record.key = key;
  record.spec = "--pe 9 --m 2 --steps 10 --seed 3";
  record.seed = 3;
  record.outcome = outcome;
  record.attempts = attempts;
  record.steps = 10;
  record.virtual_seconds = 0.012345678901234567;
  record.trajectory_digest = "00ff00ff00ff00ff";
  record.potential_energy = -812.5;
  record.kinetic_energy = 101.25;
  if (outcome == JobOutcome::kQuarantined) {
    record.failure = "peer-dead";
    record.error = "peer 4 silent past deadline\nwith a \"quoted\" detail";
  }
  return record;
}

TEST(ResultStore, RecordRoundTripsExactly) {
  const auto record = sample("aa:3", JobOutcome::kQuarantined, 3);
  const auto back = JobResultRecord::parse(record.json_line());
  EXPECT_EQ(back.key, record.key);
  EXPECT_EQ(back.spec, record.spec);
  EXPECT_EQ(back.seed, record.seed);
  EXPECT_EQ(back.outcome, record.outcome);
  EXPECT_EQ(back.attempts, record.attempts);
  EXPECT_EQ(back.steps, record.steps);
  EXPECT_EQ(back.virtual_seconds, record.virtual_seconds);  // %.17g: bitwise
  EXPECT_EQ(back.trajectory_digest, record.trajectory_digest);
  EXPECT_EQ(back.potential_energy, record.potential_energy);
  EXPECT_EQ(back.kinetic_energy, record.kinetic_energy);
  EXPECT_EQ(back.failure, record.failure);
  EXPECT_EQ(back.error, record.error);
}

TEST(ResultStore, FileBytesAreIndependentOfPutOrder) {
  const auto a = temp_path("store_order_a.jsonl");
  const auto b = temp_path("store_order_b.jsonl");
  std::remove(a.c_str());
  std::remove(b.c_str());
  const std::vector<std::string> keys = {"cc:1", "aa:2", "bb:3", "dd:4"};
  {
    ResultStore store(a);
    for (auto it = keys.begin(); it != keys.end(); ++it) {
      store.put(sample(*it, JobOutcome::kSucceeded, 1));
    }
  }
  {
    ResultStore store(b);
    for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
      store.put(sample(*it, JobOutcome::kSucceeded, 1));
    }
  }
  const std::string bytes = slurp(a);
  EXPECT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, slurp(b));
}

TEST(ResultStore, ReloadRestoresEveryRecordAndRewritesIdentically) {
  const auto path = temp_path("store_reload.jsonl");
  std::remove(path.c_str());
  {
    ResultStore store(path);
    store.put(sample("aa:1", JobOutcome::kSucceeded, 1));
    store.put(sample("bb:2", JobOutcome::kQuarantined, 3));
    store.put(sample("cc:3", JobOutcome::kDeadline, 1));
  }
  const std::string before = slurp(path);

  ResultStore reloaded(path);
  EXPECT_EQ(reloaded.size(), 3u);
  EXPECT_EQ(reloaded.torn_records_dropped(), 0u);
  const auto hit = reloaded.find("bb:2");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->outcome, JobOutcome::kQuarantined);
  EXPECT_EQ(hit->attempts, 3);
  EXPECT_FALSE(reloaded.find("zz:9").has_value());

  // A put of identical content must leave identical bytes.
  reloaded.put(sample("aa:1", JobOutcome::kSucceeded, 1));
  EXPECT_EQ(slurp(path), before);
}

TEST(ResultStore, TornTrailingRecordIsDroppedAndRepairedOnNextPut) {
  const auto path = temp_path("store_torn.jsonl");
  std::remove(path.c_str());
  {
    ResultStore store(path);
    store.put(sample("aa:1", JobOutcome::kSucceeded, 1));
    store.put(sample("bb:2", JobOutcome::kSucceeded, 1));
  }
  // Simulate a non-atomic writer dying mid-record: append half a record
  // with no trailing newline.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const std::string half = sample("cc:3", JobOutcome::kSucceeded, 1)
                                 .json_line()
                                 .substr(0, 40);
    out << half;
  }
  ResultStore store(path);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.torn_records_dropped(), 1u);
  EXPECT_FALSE(store.find("cc:3").has_value());

  // The next put rewrites the whole file; the torn tail is gone for good.
  store.put(sample("cc:3", JobOutcome::kSucceeded, 1));
  ResultStore repaired(path);
  EXPECT_EQ(repaired.size(), 3u);
  EXPECT_EQ(repaired.torn_records_dropped(), 0u);
}

TEST(ResultStore, MidFileCorruptionFailsLoudly) {
  const auto path = temp_path("store_corrupt.jsonl");
  std::remove(path.c_str());
  {
    ResultStore store(path);
    store.put(sample("aa:1", JobOutcome::kSucceeded, 1));
    store.put(sample("bb:2", JobOutcome::kSucceeded, 1));
  }
  std::string bytes = slurp(path);
  // Damage the FIRST line (a complete, newline-terminated record): this is
  // not a torn tail, it is corruption, and silently dropping it would lose
  // an answered job.
  bytes[bytes.find('{') + 1] = '#';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  EXPECT_THROW(ResultStore{path}, StoreError);
}

TEST(ResultStore, MissingFileIsAFreshStoreAndEmptyPathNeverWrites) {
  const auto path = temp_path("store_never_written.jsonl");
  std::remove(path.c_str());
  {
    const ResultStore store(path);
    EXPECT_EQ(store.size(), 0u);
  }
  ResultStore memory_only("");
  memory_only.put(sample("aa:1", JobOutcome::kSucceeded, 1));
  EXPECT_EQ(memory_only.size(), 1u);
  EXPECT_TRUE(slurp(path).empty());
}

TEST(ResultStore, UnknownOutcomeAndMissingFieldsAreStoreErrors) {
  EXPECT_THROW(parse_job_outcome("exploded"), StoreError);
  EXPECT_THROW(JobResultRecord::parse("{\"key\": \"a\"}"), StoreError);
  EXPECT_THROW(JobResultRecord::parse("not json at all"), StoreError);
}

}  // namespace
}  // namespace pcmd::serve
