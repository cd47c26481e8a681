#include "ddm/wire.hpp"

#include <gtest/gtest.h>

namespace pcmd::ddm {
namespace {

TEST(Wire, DigestRoundTrip) {
  const std::vector<std::int32_t> columns = {3, 7, 11};
  auto buffer = pack_digest(1.25, columns);
  double busy = 0.0;
  std::vector<std::int32_t> out;
  unpack_digest(std::move(buffer), busy, out);
  EXPECT_DOUBLE_EQ(busy, 1.25);
  EXPECT_EQ(out, columns);
}

TEST(Wire, EmptyDigest) {
  auto buffer = pack_digest(0.0, {});
  double busy = 1.0;
  std::vector<std::int32_t> out = {9};
  unpack_digest(std::move(buffer), busy, out);
  EXPECT_DOUBLE_EQ(busy, 0.0);
  EXPECT_TRUE(out.empty());
}

TEST(Wire, AnnounceRoundTrip) {
  AnnounceRecord record;
  record.target = 5;
  record.column = 42;
  const auto out = unpack_announce(pack_announce(record));
  EXPECT_EQ(out.target, 5);
  EXPECT_EQ(out.column, 42);
}

TEST(Wire, AnnounceNoTransfer) {
  const auto out = unpack_announce(pack_announce(AnnounceRecord{}));
  EXPECT_EQ(out.target, -1);
  EXPECT_EQ(out.column, -1);
}

// Absolute bytes of one sealed announce {target 5, column 42}: magic "PMDW",
// the payload's CRC32, then the two int32 fields, all little-endian. A change
// to the header layout or the checksum breaks this, not just the round trip.
TEST(Wire, SealedAnnounceBytesArePinned) {
  const sim::Buffer pinned = {
      0x57, 0x44, 0x4d, 0x50, 0x57, 0x9e, 0x4d, 0xe2,
      0x05, 0x00, 0x00, 0x00, 0x2a, 0x00, 0x00, 0x00,
  };
  AnnounceRecord record;
  record.target = 5;
  record.column = 42;
  EXPECT_EQ(pack_announce(record), pinned);
  const auto out = unpack_announce(pinned);
  EXPECT_EQ(out.target, 5);
  EXPECT_EQ(out.column, 42);
}

TEST(Wire, ParticlesRoundTrip) {
  md::ParticleVector particles(2);
  particles[0].id = 10;
  particles[0].position = {1, 2, 3};
  particles[0].velocity = {4, 5, 6};
  particles[0].force = {7, 8, 9};
  particles[1].id = 20;
  particles[1].position = {-1, -2, -3};
  const auto out = unpack_particles(pack_particles(particles));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 10);
  EXPECT_EQ(out[0].position, Vec3(1, 2, 3));
  EXPECT_EQ(out[0].velocity, Vec3(4, 5, 6));
  EXPECT_EQ(out[0].force, Vec3(7, 8, 9));
  EXPECT_EQ(out[1].id, 20);
}

TEST(Wire, EmptyParticles) {
  EXPECT_TRUE(unpack_particles(pack_particles({})).empty());
}

TEST(Wire, HaloRoundTrip) {
  std::vector<HaloRecord> records = {{1, {0.5, 1.5, 2.5}}, {2, {3.5, 4.5, 5.5}}};
  const auto out = unpack_halo(pack_halo(records));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 1);
  EXPECT_EQ(out[1].position, Vec3(3.5, 4.5, 5.5));
}

TEST(Wire, HaloIsSmallerThanFullParticles) {
  md::ParticleVector particles(10);
  std::vector<HaloRecord> records(10);
  EXPECT_LT(pack_halo(records).size(), pack_particles(particles).size());
}

TEST(Wire, TagsAreDistinct) {
  const int tags[] = {kTagDigest,   kTagAnnounce, kTagTransfer, kTagMigrate1,
                      kTagMigrate2, kTagHalo,     kTagInitHalo};
  for (std::size_t i = 0; i < std::size(tags); ++i) {
    for (std::size_t j = i + 1; j < std::size(tags); ++j) {
      EXPECT_NE(tags[i], tags[j]);
    }
  }
}

}  // namespace
}  // namespace pcmd::ddm
