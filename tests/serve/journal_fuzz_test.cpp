// Fuzz battery for the write-ahead job journal, in the style of
// md/checkpoint_fuzz_test.cpp: exact round-trips for every event kind, then
// systematic damage. The contract is asymmetric by design — it mirrors the
// ResultStore reload policy:
//
//   * truncation (missing bytes at EOF) is a torn tail: decode returns the
//     complete prefix and counts the dropped bytes, because a crash mid-
//     append is an expected shutdown, not corruption;
//   * any damage inside a complete record — header or payload, one bit is
//     enough — throws a typed StoreError naming the record index and byte
//     offset, because silent loss of an interior lifecycle event would
//     desynchronise replay from the store.
//
// The header CRC is what keeps those two regimes separate: without it, a
// bit flip in payload_len could make an interior record appear to run past
// EOF and masquerade as a torn tail.
#include "serve/journal.hpp"

#include "serve/error.hpp"
#include "support/temp_path.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace pcmd::serve {
namespace {

using pcmd::testing::temp_path;

void write_bytes(const std::string& path, const sim::Buffer& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// One event of every kind, every field populated — the round-trip and the
// flip sweep both cover the full wire surface.
std::vector<JournalEvent> full_battery() {
  std::vector<JournalEvent> events;

  JournalEvent submitted;
  submitted.kind = JournalEventKind::kSubmitted;
  submitted.key = "00deadbeef00cafe:42";
  submitted.admission = 0;  // accepted
  submitted.priority = 2;
  submitted.spec = "--pe 9 --m 2 --density 0.2 --steps 8 --seed 42";
  events.push_back(submitted);

  JournalEvent started;
  started.kind = JournalEventKind::kStarted;
  started.key = submitted.key;
  started.attempt = 3;
  events.push_back(started);

  JournalEvent checkpoint;
  checkpoint.kind = JournalEventKind::kCheckpoint;
  checkpoint.key = submitted.key;
  checkpoint.attempt = 3;
  checkpoint.steps_done = 17;
  checkpoint.virtual_seconds = 0.001953125;  // exact in binary
  checkpoint.clocks = {0.5, 1.25, -3.75, 1e-9};
  checkpoint.checkpoint = {0x00, 0x01, 0xff, 0x7f, 0x80, 0x5a};
  events.push_back(checkpoint);

  JournalEvent terminal;
  terminal.kind = JournalEventKind::kTerminal;
  terminal.key = submitted.key;
  terminal.record_line = "{\"attempts\": 1, \"key\": \"k\"}";
  events.push_back(terminal);

  JournalEvent snapshot;
  snapshot.kind = JournalEventKind::kSnapshot;
  snapshot.submitted = 120;
  snapshot.malformed = 6;
  snapshot.cache_hits = 54;
  snapshot.collapsed = 3;
  snapshot.shed = 2;
  snapshot.tripped = 1;
  events.push_back(snapshot);

  JournalEvent pending;
  pending.kind = JournalEventKind::kPending;
  pending.key = "00feedface000000:7";
  pending.admission = 0;
  pending.priority = 0;
  pending.spec = "--pe 9 --m 2 --density 0.2 --steps 30 --seed 7";
  pending.attempt = 2;
  pending.steps_done = 11;
  pending.virtual_seconds = 2.5;
  pending.clocks = {0.125};
  pending.checkpoint = {0xab, 0xcd};
  events.push_back(pending);

  return events;
}

void expect_equal(const JournalEvent& out, const JournalEvent& in) {
  EXPECT_EQ(out.kind, in.kind);
  EXPECT_EQ(out.key, in.key);
  EXPECT_EQ(out.admission, in.admission);
  EXPECT_EQ(out.priority, in.priority);
  EXPECT_EQ(out.spec, in.spec);
  EXPECT_EQ(out.attempt, in.attempt);
  EXPECT_EQ(out.steps_done, in.steps_done);
  EXPECT_EQ(out.virtual_seconds, in.virtual_seconds);  // bitwise: memcpy
  EXPECT_EQ(out.clocks, in.clocks);
  EXPECT_EQ(out.checkpoint, in.checkpoint);
  EXPECT_EQ(out.record_line, in.record_line);
  EXPECT_EQ(out.submitted, in.submitted);
  EXPECT_EQ(out.malformed, in.malformed);
  EXPECT_EQ(out.cache_hits, in.cache_hits);
  EXPECT_EQ(out.collapsed, in.collapsed);
  EXPECT_EQ(out.shed, in.shed);
  EXPECT_EQ(out.tripped, in.tripped);
}

TEST(JournalFuzz, EveryEventKindRoundTripsExactly) {
  const auto events = full_battery();
  const auto decoded = decode_journal(encode_journal(events), nullptr);
  ASSERT_EQ(decoded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    expect_equal(decoded[i], events[i]);
  }
  EXPECT_TRUE(decode_journal({}, nullptr).empty());
}

TEST(JournalFuzz, SubmittedRecordBytesArePinned) {
  // Absolute bytes of one kSubmitted record: "PJ", version 1, kind 1,
  // payload length 141, payload CRC32, header CRC32, then the payload (key,
  // admission, priority, spec, and every other field at its default).
  // Journals written by an earlier build must keep replaying.
  const sim::Buffer pinned = {
      0x50, 0x4a, 0x01, 0x01, 0x8d, 0x00, 0x00, 0x00, 0x9f, 0x30, 0xb4, 0xf9,
      0x18, 0x07, 0x4e, 0xc6, 0x13, 0x00, 0x00, 0x00, 0x30, 0x30, 0x64, 0x65,
      0x61, 0x64, 0x62, 0x65, 0x65, 0x66, 0x30, 0x30, 0x63, 0x61, 0x66, 0x65,
      0x3a, 0x34, 0x32, 0x00, 0x02, 0x20, 0x00, 0x00, 0x00, 0x2d, 0x2d, 0x70,
      0x65, 0x20, 0x39, 0x20, 0x2d, 0x2d, 0x6d, 0x20, 0x32, 0x20, 0x2d, 0x2d,
      0x73, 0x74, 0x65, 0x70, 0x73, 0x20, 0x38, 0x20, 0x2d, 0x2d, 0x73, 0x65,
      0x65, 0x64, 0x20, 0x34, 0x32, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00,
  };
  JournalEvent submitted;
  submitted.kind = JournalEventKind::kSubmitted;
  submitted.key = "00deadbeef00cafe:42";
  submitted.admission = 0;
  submitted.priority = 2;
  submitted.spec = "--pe 9 --m 2 --steps 8 --seed 42";
  EXPECT_EQ(encode_journal_event(submitted), pinned);

  std::size_t torn = 1;
  const auto decoded = decode_journal(pinned, &torn);
  EXPECT_EQ(torn, 0u);
  ASSERT_EQ(decoded.size(), 1u);
  expect_equal(decoded[0], submitted);
}

TEST(JournalFuzz, TruncationAtEveryByteIsATornTailNeverAnError) {
  const auto events = full_battery();
  const auto sealed = encode_journal(events);
  // Complete-record prefix boundaries, to classify each truncation point.
  std::vector<std::size_t> boundaries = {0};
  for (const auto& event : events) {
    boundaries.push_back(boundaries.back() +
                         encode_journal_event(event).size());
  }
  ASSERT_EQ(boundaries.back(), sealed.size());

  for (std::size_t len = 0; len <= sealed.size(); ++len) {
    const sim::Buffer cut(sealed.begin(),
                          sealed.begin() + static_cast<std::ptrdiff_t>(len));
    std::size_t complete = 0;
    while (complete + 1 < boundaries.size() &&
           boundaries[complete + 1] <= len) {
      ++complete;
    }
    std::size_t torn = 0;
    std::vector<JournalEvent> decoded;
    ASSERT_NO_THROW(decoded = decode_journal(cut, &torn)) << "length " << len;
    ASSERT_EQ(decoded.size(), complete) << "length " << len;
    EXPECT_EQ(torn, len - boundaries[complete]) << "length " << len;
    for (std::size_t i = 0; i < complete; ++i) {
      expect_equal(decoded[i], events[i]);
    }
  }
}

TEST(JournalFuzz, EverySingleBitFlipInACompleteFileThrowsNamedStoreError) {
  // The file ends on a record boundary, so there is no torn tail to hide
  // behind: every flip — magic, version, kind, lengths, CRCs, payload —
  // must surface as typed corruption naming a record.
  const auto sealed = encode_journal(full_battery());
  for (std::size_t byte = 0; byte < sealed.size(); ++byte) {
    for (const std::uint8_t mask : {0x01, 0x80}) {
      auto corrupted = sealed;
      corrupted[byte] ^= mask;
      try {
        (void)decode_journal(corrupted, nullptr);
        FAIL() << "byte " << byte << " mask " << int(mask)
               << ": corruption decoded silently";
      } catch (const StoreError& e) {
        EXPECT_NE(std::string(e.what()).find("job journal: record "),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(JournalFuzz, InteriorTruncationCannotMasqueradeAsATornTail) {
  // Chop a record out of the middle: the splice point lands inside record 1
  // and the next header read is garbage — this must throw, not drop events.
  const auto events = full_battery();
  const auto sealed = encode_journal(events);
  const auto first = encode_journal_event(events[0]).size();
  sim::Buffer spliced(sealed.begin(),
                      sealed.begin() + static_cast<std::ptrdiff_t>(first + 7));
  spliced.insert(spliced.end(), sealed.end() - 40, sealed.end());
  EXPECT_THROW((void)decode_journal(spliced, nullptr), StoreError);
}

TEST(JournalFuzz, TrailingGarbageSplitsByTheHeaderBoundary) {
  // Fewer than a header's worth of trailing junk is indistinguishable from
  // a half-written append: torn tail. A full (junk) header is checked and
  // fails its CRC: corruption.
  const auto events = full_battery();
  for (std::size_t extra = 1; extra < 16; ++extra) {
    auto sealed = encode_journal(events);
    sealed.resize(sealed.size() + extra, 0x5a);
    std::size_t torn = 0;
    const auto decoded = decode_journal(sealed, &torn);
    EXPECT_EQ(decoded.size(), events.size()) << extra << " trailing bytes";
    EXPECT_EQ(torn, extra);
  }
  auto sealed = encode_journal(events);
  sealed.resize(sealed.size() + 16, 0x5a);
  EXPECT_THROW((void)decode_journal(sealed, nullptr), StoreError);
}

TEST(JournalFuzz, JobJournalLoadsAppendsAndReloads) {
  const auto path = temp_path("journal_roundtrip.pj");
  std::remove(path.c_str());
  const auto events = full_battery();
  {
    JobJournal journal(path);
    EXPECT_TRUE(journal.events().empty());
    EXPECT_EQ(journal.torn_bytes_dropped(), 0u);
    for (const auto& event : events) journal.append(event);
  }
  JobJournal reloaded(path);
  ASSERT_EQ(reloaded.events().size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    expect_equal(reloaded.events()[i], events[i]);
  }
  EXPECT_EQ(reloaded.torn_bytes_dropped(), 0u);
  std::remove(path.c_str());
}

TEST(JournalFuzz, JobJournalDropsTheTornTailAndKeepsAppending) {
  const auto path = temp_path("journal_torn.pj");
  const auto events = full_battery();
  auto sealed = encode_journal(events);
  sealed.resize(sealed.size() - 5);  // tear the last record
  write_bytes(path, sealed);

  JournalEvent extra;
  extra.kind = JournalEventKind::kStarted;
  extra.key = "k";
  extra.attempt = 1;
  {
    // Loading truncates the fragment off the file, so the append lands on
    // a record boundary — a second crash-restart must not find the interior
    // corrupted by an append written on top of the torn bytes.
    JobJournal journal(path);
    EXPECT_EQ(journal.events().size(), events.size() - 1);
    EXPECT_GT(journal.torn_bytes_dropped(), 0u);
    journal.append(extra);
  }
  JobJournal reloaded(path);
  ASSERT_EQ(reloaded.events().size(), events.size());
  EXPECT_EQ(reloaded.torn_bytes_dropped(), 0u);
  expect_equal(reloaded.events().back(), extra);
  std::remove(path.c_str());
}

TEST(JournalFuzz, JobJournalLoadOfCorruptFileThrowsNamingThePath) {
  const auto path = temp_path("journal_corrupt.pj");
  auto sealed = encode_journal(full_battery());
  sealed[sealed.size() / 2] ^= 0x10;
  write_bytes(path, sealed);
  try {
    JobJournal journal(path);
    FAIL() << "corrupt journal opened silently";
  } catch (const StoreError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("job journal: record "), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(JournalFuzz, MemorylessJournalIsANoOp) {
  JobJournal journal("");
  journal.append(full_battery().front());
  journal.compact(full_battery());
  EXPECT_TRUE(journal.events().empty());
  EXPECT_EQ(journal.torn_bytes_dropped(), 0u);
}

}  // namespace
}  // namespace pcmd::serve
