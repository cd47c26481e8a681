// pcmd-analyze rule battery: every rule class has a seeded-violation fixture
// under tests/tools/fixtures loaded under a synthetic src/ display path
// (path-scoped rules key on the display path), and each violation must be
// reported with the right rule name and file:line. Ends with the clean-tree
// smoke test: the committed tree itself must produce zero findings.
#include "analyzer.hpp"
#include "tokenizer.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace {

using pcmd::analyze::Finding;
using pcmd::analyze::Source;
using pcmd::analyze::Token;

std::string fixture_path(const std::string& name) {
  return std::string(PCMD_SOURCE_ROOT) + "/tests/tools/fixtures/" + name;
}

Source load_fixture(const std::string& name, const std::string& display) {
  return pcmd::analyze::load_source(fixture_path(name), display);
}

std::vector<Finding> analyze_one(const Source& source) {
  return pcmd::analyze::analyze({source});
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// ---- tokenizer ------------------------------------------------------------

TEST(Tokenizer, TracksLinesAndStripsComments) {
  const auto tokens = pcmd::analyze::tokenize(
      "int x = 42; // trailing comment\n/* block\ncomment */ foo();\n");
  std::vector<std::string> texts;
  for (const auto& token : tokens) texts.push_back(token.text);
  const std::vector<std::string> expected = {"int", "x", "=", "42", ";",
                                             "foo", "(", ")", ";"};
  EXPECT_EQ(texts, expected);
  EXPECT_EQ(tokens.front().line, 1);
  EXPECT_EQ(tokens[5].line, 3);  // foo — after the two-line block comment
}

TEST(Tokenizer, CollapsesStringLiteralContents) {
  // The contents of literals must never trip identifier rules.
  const auto tokens =
      pcmd::analyze::tokenize("log(\"call rand() or time()\");\n");
  for (const auto& token : tokens) {
    if (token.kind == Token::Kind::kIdentifier) {
      EXPECT_NE(token.text, "rand");
      EXPECT_NE(token.text, "time");
    }
    if (token.kind == Token::Kind::kString) {
      EXPECT_TRUE(token.text.empty());
    }
  }
}

TEST(Tokenizer, StaticAssertIsOneIdentifier) {
  const auto tokens =
      pcmd::analyze::tokenize("static_assert(true, \"msg\");\n");
  ASSERT_FALSE(tokens.empty());
  EXPECT_EQ(tokens.front().text, "static_assert");
}

// ---- per-rule fixtures ----------------------------------------------------

TEST(Analyzer, LayeringViolationReportedWithLine) {
  const auto findings = analyze_one(
      load_fixture("layering_violation.cpp", "src/md/layering_violation.cpp"));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "layering");
  EXPECT_EQ(findings[0].file, "src/md/layering_violation.cpp");
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_TRUE(contains(findings[0].message, "ddm/wire.hpp"));
}

TEST(Analyzer, UnorderedContainerFlaggedInProtocolCode) {
  const auto findings = analyze_one(load_fixture(
      "unordered_container.cpp", "src/ddm/unordered_container.cpp"));
  ASSERT_EQ(findings.size(), 2u);  // the include line and the usage
  EXPECT_EQ(findings[0].rule, "unordered-container");
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_EQ(findings[1].rule, "unordered-container");
  EXPECT_EQ(findings[1].line, 8);
}

TEST(Analyzer, UnorderedContainerScopedToSimAndDdm) {
  // The same text outside src/ddm and src/sim is legal.
  const auto findings = analyze_one(load_fixture(
      "unordered_container.cpp", "src/md/unordered_container.cpp"));
  EXPECT_TRUE(findings.empty());
}

TEST(Analyzer, WallClockAndRandomnessFlagged) {
  const auto findings =
      analyze_one(load_fixture("wall_clock.cpp", "src/core/wall_clock.cpp"));
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].rule, "wall-clock");
  EXPECT_EQ(findings[0].line, 11);  // time(nullptr)
  EXPECT_EQ(findings[1].line, 15);  // std::rand()
  EXPECT_EQ(findings[2].line, 19);  // system_clock
}

TEST(Analyzer, WallClockAllowedInObs) {
  const auto findings =
      analyze_one(load_fixture("wall_clock.cpp", "src/obs/wall_clock.cpp"));
  EXPECT_TRUE(findings.empty());
}

TEST(Analyzer, NakedAssertFlaggedButStaticAssertIsNot) {
  const auto findings =
      analyze_one(load_fixture("naked_assert.cpp", "src/core/naked_assert.cpp"));
  ASSERT_EQ(findings.size(), 1u);  // static_assert on line 8 must not count
  EXPECT_EQ(findings[0].rule, "naked-assert");
  EXPECT_EQ(findings[0].line, 11);
}

TEST(Analyzer, PointerKeyedContainersFlagged) {
  const auto findings =
      analyze_one(load_fixture("pointer_key.cpp", "src/core/pointer_key.cpp"));
  ASSERT_EQ(findings.size(), 2u);  // the string-keyed map must not count
  EXPECT_EQ(findings[0].rule, "pointer-key");
  EXPECT_EQ(findings[0].line, 14);
  EXPECT_EQ(findings[1].rule, "pointer-key");
  EXPECT_EQ(findings[1].line, 15);
}

TEST(Analyzer, HotAllocFlaggedInsideAnnotatedBodiesOnly) {
  const auto findings =
      analyze_one(load_fixture("hot_alloc.cpp", "src/md/hot_alloc.cpp"));
  // The member vector, the bodiless declaration, and the unannotated
  // function must not count.
  ASSERT_EQ(findings.size(), 3u);
  for (const auto& finding : findings) {
    EXPECT_EQ(finding.rule, "hot-alloc");
    EXPECT_EQ(finding.file, "src/md/hot_alloc.cpp");
  }
  EXPECT_EQ(findings[0].line, 19);  // std::vector construction
  EXPECT_EQ(findings[1].line, 20);  // new expression
  EXPECT_EQ(findings[2].line, 21);  // make_unique
  EXPECT_TRUE(contains(findings[0].message, "vector construction"));
  EXPECT_TRUE(contains(findings[1].message, "`new` expression"));
  EXPECT_TRUE(contains(findings[2].message, "make_unique"));
}

TEST(Analyzer, HotAllocScopedToSrc) {
  // The same text under bench/ is legal — harnesses may allocate freely.
  const auto findings =
      analyze_one(load_fixture("hot_alloc.cpp", "bench/hot_alloc.cpp"));
  EXPECT_TRUE(findings.empty());
}

TEST(Analyzer, UnsortedIncludeBlockFlagged) {
  const auto findings = analyze_one(
      load_fixture("include_sort.cpp", "src/util/include_sort.cpp"));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "include-sort");
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_TRUE(contains(findings[0].message, "alpha.hpp"));
}

TEST(Analyzer, WirePairingCatchesDriftAndOrphans) {
  const auto findings = analyze_one(
      load_fixture("wire_mismatch.cpp", "src/ddm/wire_mismatch.cpp"));
  ASSERT_EQ(findings.size(), 3u);
  for (const auto& finding : findings) {
    EXPECT_EQ(finding.rule, "wire-pairing");
    EXPECT_EQ(finding.file, "src/ddm/wire_mismatch.cpp");
  }
  // pack_widget anchors both the call-count and the field-set findings.
  EXPECT_EQ(findings[0].line, 28);
  EXPECT_EQ(findings[1].line, 28);
  EXPECT_EQ(findings[2].line, 41);  // pack_orphan
  std::string all;
  for (const auto& finding : findings) all += finding.message + "\n";
  EXPECT_TRUE(contains(all, "put-family"));
  EXPECT_TRUE(contains(all, "only packed: count"));
  EXPECT_TRUE(contains(all, "no matching unpack_orphan"));
}

TEST(Analyzer, ServeRawWritesFlaggedOutsideStoreAndJournal) {
  const auto findings = analyze_one(
      load_fixture("serve_raw_write.cpp", "src/serve/serve_raw_write.cpp"));
  // The `int fopen` member and the `w.fopen` access must not count; the
  // <fstream> include line itself does (same convention as
  // unordered-container: the include is the earliest signal).
  ASSERT_EQ(findings.size(), 3u);
  for (const auto& finding : findings) {
    EXPECT_EQ(finding.rule, "serve-durable-writes");
    EXPECT_EQ(finding.file, "src/serve/serve_raw_write.cpp");
  }
  EXPECT_EQ(findings[0].line, 5);   // #include <fstream>
  EXPECT_EQ(findings[1].line, 11);  // ofstream
  EXPECT_EQ(findings[2].line, 16);  // fopen(...)
  EXPECT_TRUE(contains(findings[0].message, "JobJournal"));
}

TEST(Analyzer, ServeRawWritesScopedToServeOutsideItsWritePaths) {
  // The two sanctioned write paths and everything outside src/serve are
  // exempt — the rule is about the serve layer's durable state, not file
  // I/O in general.
  EXPECT_TRUE(analyze_one(load_fixture("serve_raw_write.cpp",
                                       "src/serve/journal.cpp"))
                  .empty());
  EXPECT_TRUE(analyze_one(load_fixture("serve_raw_write.cpp",
                                       "src/serve/store.cpp"))
                  .empty());
  EXPECT_TRUE(analyze_one(load_fixture("serve_raw_write.cpp",
                                       "src/run/serve_raw_write.cpp"))
                  .empty());
}

TEST(Analyzer, DdmComputeChargeFlaggedOutsideTheRankCore) {
  const auto findings = analyze_one(load_fixture(
      "ddm_compute_charge.cpp", "src/ddm/ddm_compute_charge.cpp"));
  // The `int advance` member, its access and std::advance must not count.
  ASSERT_EQ(findings.size(), 4u);
  for (const auto& finding : findings) {
    EXPECT_EQ(finding.rule, "ddm-compute-charge");
    EXPECT_EQ(finding.file, "src/ddm/ddm_compute_charge.cpp");
  }
  EXPECT_EQ(findings[0].line, 10);  // md::accumulate_forces(...)
  EXPECT_EQ(findings[1].line, 15);  // comm.advance(...)
  EXPECT_EQ(findings[2].line, 16);  // other->advance(...)
  EXPECT_EQ(findings[3].line, 17);  // advance_compute(...)
  EXPECT_TRUE(contains(findings[0].message, "ddm::RankMd"));
}

TEST(Analyzer, DdmComputeChargeScopedToDdmOutsideTheRankCore) {
  // The core's own files and everything outside src/ddm are exempt: the
  // serial engine and the virtual machine advance clocks too.
  EXPECT_TRUE(analyze_one(load_fixture("ddm_compute_charge.cpp",
                                       "src/ddm/rank_md.cpp"))
                  .empty());
  EXPECT_TRUE(analyze_one(load_fixture("ddm_compute_charge.cpp",
                                       "src/ddm/rank_md.hpp"))
                  .empty());
  EXPECT_TRUE(analyze_one(load_fixture("ddm_compute_charge.cpp",
                                       "src/md/ddm_compute_charge.cpp"))
                  .empty());
}

TEST(Analyzer, IncludeCycleReportedOnce) {
  const auto findings = pcmd::analyze::analyze(
      {load_fixture("cycle_a.hpp", "src/util/cycle_a.hpp"),
       load_fixture("cycle_b.hpp", "src/util/cycle_b.hpp")});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "include-cycle");
  EXPECT_EQ(findings[0].file, "src/util/cycle_b.hpp");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_TRUE(contains(findings[0].message, "src/util/cycle_a.hpp"));
  EXPECT_TRUE(contains(findings[0].message, "src/util/cycle_b.hpp"));
}

TEST(Analyzer, FormatIsFileLineRuleMessage) {
  const Finding finding = {"layering", "src/md/a.cpp", 3, "boom"};
  EXPECT_EQ(pcmd::analyze::format(finding), "src/md/a.cpp:3: [layering] boom");
}

// ---- clean-tree smoke test ------------------------------------------------
//
// The committed tree must be clean: every rule the analyzer enforces is a
// convention the codebase actually follows. Fixture files are excluded by
// collect_tree itself.

TEST(Analyzer, CommittedTreeIsClean) {
  const auto sources = pcmd::analyze::collect_tree(PCMD_SOURCE_ROOT);
  ASSERT_GT(sources.size(), 100u);  // sanity: the walk found the tree
  const auto findings = pcmd::analyze::analyze(sources);
  for (const auto& finding : findings) {
    ADD_FAILURE() << pcmd::analyze::format(finding);
  }
  EXPECT_TRUE(findings.empty());
}

}  // namespace
