// serve::JobSpec grammar battery: both wire grammars (flag text and flat
// JSON) land on the same spec, canonical() round-trips through the parser,
// the digest keys what shapes the trajectory (and nothing else), and every
// malformed input throws run::SpecError naming the flag/key and token.
#include "serve/job_spec.hpp"

#include "serve/flat_json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

namespace pcmd::serve {
namespace {

// Expects fn() to throw run::SpecError whose message contains every needle.
template <typename Fn>
void expect_rejected(Fn fn, std::initializer_list<const char*> needles) {
  try {
    fn();
    FAIL() << "expected run::SpecError";
  } catch (const run::SpecError& e) {
    const std::string message = e.what();
    for (const char* needle : needles) {
      EXPECT_NE(message.find(needle), std::string::npos)
          << "message \"" << message << "\" lacks \"" << needle << "\"";
    }
  }
}

TEST(JobSpec, FlagAndJsonGrammarsAgree) {
  const auto flags = JobSpec::parse(
      "--pe 9 --m 2 --density 0.2 --steps 12 --seed 77 --priority high "
      "--engine thread --deadline 0.5");
  const auto json = JobSpec::parse(
      "{\"pe\": 9, \"m\": 2, \"density\": 0.2, \"steps\": 12, \"seed\": 77, "
      "\"priority\": \"high\", \"engine\": \"thread\", \"deadline\": 0.5}");
  EXPECT_EQ(flags.canonical(), json.canonical());
  EXPECT_EQ(flags.digest(), json.digest());
  EXPECT_EQ(flags.priority, Priority::kHigh);
  EXPECT_EQ(flags.engine, EngineKind::kThread);
  EXPECT_DOUBLE_EQ(flags.deadline, 0.5);
  EXPECT_EQ(flags.run.system.pe_count, 9);
  EXPECT_EQ(flags.run.steps, 12);
}

TEST(JobSpec, CanonicalRoundTripsThroughTheParser) {
  const char* specs[] = {
      "--pe 9 --m 2 --density 0.2 --steps 10 --seed 3",
      "--pe 9 --steps 5 --faults seed=7,drop=0.3 --engine thread",
      "--pe 9 --m 2 --steps 8 --faults seed=1,crash=4@0 --buddy-every 3 "
      "--spares 1",
      "--pe 9 --m 2 --steps 8 --recovery 1 --deadline 0.25",
      "--pe 9 --m 2 --steps 8 --degrade rank=4,at=0.05 --degrade-factor 3",
  };
  for (const char* text : specs) {
    const auto job = JobSpec::parse(text);
    const auto reparsed = JobSpec::parse_flags(job.canonical());
    EXPECT_EQ(reparsed.canonical(), job.canonical()) << text;
    EXPECT_EQ(reparsed.digest(), job.digest()) << text;
    EXPECT_EQ(reparsed.digest_hex(), job.digest_hex()) << text;
  }
}

TEST(JobSpec, PriorityDoesNotChangeTheDigestButPhysicsDoes) {
  const std::string base = "--pe 9 --m 2 --steps 10 --seed 3";
  const auto normal = JobSpec::parse(base);
  const auto high = JobSpec::parse(base + " --priority high");
  EXPECT_EQ(normal.digest(), high.digest());

  EXPECT_NE(normal.digest(), JobSpec::parse(base + " --dlb 0").digest());
  EXPECT_NE(normal.digest(),
            JobSpec::parse(base + " --engine thread").digest());
  EXPECT_NE(normal.digest(),
            JobSpec::parse(base + " --deadline 1.0").digest());
  EXPECT_NE(normal.digest(),
            JobSpec::parse("--pe 9 --m 2 --steps 10 --seed 4").digest());
}

TEST(JobSpec, DdmSpellingsShareOneDigest) {
  // DDM has one setting, --balancer none, so one store key however it is
  // spelled.
  const std::string base = "--pe 9 --m 2 --density 0.2 --steps 6 --seed 3";
  const auto none = JobSpec::parse(base + " --balancer none");
  EXPECT_EQ(none.canonical().find("--dlb"), std::string::npos);
  for (const char* spelling : {" --dlb 0", " --dlb 0 --balancer none",
                               " --dlb 0 --balancer rescale"}) {
    const auto job = JobSpec::parse(base + spelling);
    EXPECT_EQ(job.canonical(), none.canonical()) << spelling;
    EXPECT_EQ(job.digest(), none.digest()) << spelling;
  }
}

TEST(JobSpec, ParentCanonicalFormsStillParse) {
  // Canonical texts as journals hold them from before --dlb and --recovery
  // left the canonical form: each parses to the policy and the healing
  // setting it meant, so those journals replay.
  const std::string head =
      "--pe 9 --m 2 --density 0.20000000000000001 --seed 3 --steps 6 --dlb ";
  const std::string tail =
      " --checkpoint-every 0 --buddy-every 0 --spares 0 --recovery 0 "
      "--deadline 0 --engine seq";
  const std::pair<const char*, ddm::BalancerKind> policies[] = {
      {"1 --balancer permanent", ddm::BalancerKind::kPermanent},
      {"1 --balancer none", ddm::BalancerKind::kNone},
      {"0 --balancer permanent", ddm::BalancerKind::kNone},
      {"0 --balancer rescale", ddm::BalancerKind::kNone},
  };
  for (const auto& [middle, kind] : policies) {
    const auto job = JobSpec::parse_flags(head + middle + tail);
    EXPECT_EQ(job.run.balancer.kind, kind) << middle;
    EXPECT_FALSE(job.run.healing_enabled()) << middle;
  }
  // --recovery 1 is self-healing every 10 steps with no spares.
  EXPECT_EQ(JobSpec::parse_flags(
                "--pe 9 --m 2 --density 0.25600000000000001 --seed 12345 "
                "--steps 8 --dlb 1 --balancer permanent --checkpoint-every 0 "
                "--buddy-every 0 --spares 0 --recovery 1 --deadline 0.25 "
                "--engine seq")
                .canonical(),
            JobSpec::parse("--pe 9 --m 2 --steps 8 --buddy-every 10 "
                           "--spares 0 --deadline 0.25")
                .canonical());
  EXPECT_EQ(JobSpec::parse_flags(
                head + "1 --balancer permanent --faults seed=1,crash=4@0 "
                       "--checkpoint-every 0 --buddy-every 3 --spares 1 "
                       "--recovery 0 --deadline 0 --engine seq")
                .canonical(),
            JobSpec::parse("--pe 9 --m 2 --density 0.2 --seed 3 --steps 6 "
                           "--faults seed=1,crash=4@0 --buddy-every 3 "
                           "--spares 1")
                .canonical());
}

TEST(JobSpec, FamilyDigestBytesArePinned) {
  // The circuit breaker keys families by this digest in the store, so its
  // value for a given text must never drift. Includes the edge cases of the
  // "--seed <n>" mask: an empty seed token, a double space (the mask
  // inserts "0" before it) and a repeated flag (only the first is masked).
  const std::pair<const char*, std::uint64_t> pinned[] = {
      {"", 0xcbf29ce484222325ULL},
      {"--seed ", 0x9e805178b78aec62ULL},
      {"--seed 42", 0x9e805178b78aec62ULL},
      {"--pe 9 --seed 12345 --steps 5", 0x3295c0448e443accULL},
      {"--pe 9 --m 2", 0x98ce26a845366204ULL},
      {"x --seed  7", 0x58018a2f2f8a6683ULL},
      {"--seed 1 --seed 2", 0x09d5fffd37d34eb3ULL},
  };
  for (const auto& [canonical, digest] : pinned) {
    EXPECT_EQ(family_digest_of_canonical(canonical), digest)
        << "'" << canonical << "'";
  }
}

TEST(JobSpec, PreemptibleOnlyWhenProvablyResumeInvariant) {
  EXPECT_TRUE(JobSpec::parse("--pe 9 --m 2 --steps 10").preemptible());
  EXPECT_FALSE(
      JobSpec::parse("--pe 9 --m 2 --steps 10 --faults seed=1,drop=0.1")
          .preemptible());
  EXPECT_FALSE(JobSpec::parse("--pe 9 --m 2 --steps 10 --recovery 1")
                   .preemptible());
  EXPECT_FALSE(
      JobSpec::parse("--pe 9 --m 2 --steps 10 --buddy-every 3 --spares 1")
          .preemptible());
  EXPECT_FALSE(
      JobSpec::parse("--pe 9 --m 2 --steps 10 --degrade rank=1,at=0.01")
          .preemptible());
}

TEST(JobSpec, MalformedFlagsThrowNamingFlagAndToken) {
  expect_rejected([] { JobSpec::parse("--steps banana"); },
                  {"steps", "banana"});
  expect_rejected([] { JobSpec::parse("--pe 7 --m 2"); },
                  {"pe_count", "7", "square"});
  expect_rejected([] { JobSpec::parse("--pe 9 --m 1"); }, {"m", "2"});
  expect_rejected([] { JobSpec::parse("--priority urgent"); },
                  {"--priority", "urgent", "high"});
  expect_rejected([] { JobSpec::parse("--engine cuda"); },
                  {"--engine", "cuda", "thread"});
  expect_rejected([] { JobSpec::parse("--deadline -1"); },
                  {"--deadline", "negative"});
  expect_rejected([] { JobSpec::parse("--steps 0"); }, {"--steps", "0"});
  expect_rejected([] { JobSpec::parse("--no-such-flag 1"); },
                  {"--no-such-flag"});
  expect_rejected([] { JobSpec::parse("--faults seed=x"); }, {"--faults"});
}

TEST(JobSpec, IntegersThatWouldWrapAreRejected) {
  // These used to wrap: --pe 4294967305 ran pe = 9, --m 4294967298 ran
  // m = 2, and --seed -1 became 2^64 - 1, whose canonical text does not
  // re-parse.
  expect_rejected([] { JobSpec::parse("--pe 4294967305 --m 2"); },
                  {"--pe", "'4294967305'", "out of range"});
  expect_rejected([] { JobSpec::parse("--pe 9 --m 4294967298"); },
                  {"--m", "'4294967298'", "out of range"});
  expect_rejected([] { JobSpec::parse("{\"pe\": 9, \"seed\": -1}"); },
                  {"--seed", "'-1'", "out of range"});
}

TEST(JobSpec, MalformedJsonThrowsNamingByteOffset) {
  expect_rejected([] { JobSpec::parse("{\"steps\": 10"); }, {"byte"});
  expect_rejected([] { JobSpec::parse("{\"steps\": [10]}"); },
                  {"flat scalar", "byte"});
  expect_rejected([] { JobSpec::parse("{\"a\": 1, \"a\": 2}"); },
                  {"duplicate", "\"a\""});
  expect_rejected([] { JobSpec::parse("{\"steps\": null}"); }, {"null"});
  expect_rejected([] { JobSpec::parse("{\"steps\": 10} trailing"); },
                  {"end of input"});
  expect_rejected([] { JobSpec::parse("{\"no such flag\": 1}"); },
                  {"no such flag"});
}

TEST(FlatJson, EscapeRoundTripsThroughTheScanner) {
  const std::string nasty = "a\"b\\c\nd\te\rf\x01g";
  const auto fields =
      parse_flat_json("{\"k\": \"" + json_escape(nasty) + "\"}");
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0].first, "k");
  EXPECT_EQ(fields[0].second, nasty);
}

TEST(FlatJson, PreservesDocumentOrderAndScalarSpellings) {
  const auto fields =
      parse_flat_json("{\"b\": 2, \"a\": true, \"c\": \"x\"}");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0].first, "b");
  EXPECT_EQ(fields[0].second, "2");
  EXPECT_EQ(fields[1].second, "true");
  EXPECT_EQ(fields[2].second, "x");
}

}  // namespace
}  // namespace pcmd::serve
