#include "storage/hash_ring.hpp"

#include <gtest/gtest.h>

#include <map>

namespace colony {
namespace {

ObjectKey key(int i) { return ObjectKey{"chat", "obj" + std::to_string(i)}; }

TEST(HashRing, DeterministicOwner) {
  HashRing a, b;
  for (std::uint32_t s = 0; s < 4; ++s) {
    a.add_shard(s);
    b.add_shard(s);
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.owner(key(i)), b.owner(key(i)));
  }
}

TEST(HashRing, ReasonablyBalanced) {
  HashRing ring;
  for (std::uint32_t s = 0; s < 4; ++s) ring.add_shard(s);
  std::map<std::uint32_t, int> counts;
  constexpr int kKeys = 4000;
  for (int i = 0; i < kKeys; ++i) ++counts[ring.owner(key(i))];
  for (const auto& [shard, count] : counts) {
    // 64 vnodes/shard gives a rough balance; accept a 2.5x spread.
    EXPECT_GT(count, kKeys / 12) << "shard " << shard;
    EXPECT_LT(count, kKeys / 2) << "shard " << shard;
  }
}

TEST(HashRing, RemovalMovesOnlyVictimKeys) {
  HashRing before;
  for (std::uint32_t s = 0; s < 4; ++s) before.add_shard(s);

  HashRing after;
  for (std::uint32_t s = 0; s < 4; ++s) after.add_shard(s);
  after.remove_shard(3);

  int moved = 0;
  constexpr int kKeys = 2000;
  for (int i = 0; i < kKeys; ++i) {
    const auto was = before.owner(key(i));
    const auto now = after.owner(key(i));
    if (was != 3) {
      EXPECT_EQ(was, now) << "non-victim key moved";
    } else {
      EXPECT_NE(now, 3u);
      ++moved;
    }
  }
  EXPECT_GT(moved, 0);
}

TEST(HashRing, AdditionStealsOnlyFromExisting) {
  HashRing before;
  for (std::uint32_t s = 0; s < 3; ++s) before.add_shard(s);
  HashRing after;
  for (std::uint32_t s = 0; s < 3; ++s) after.add_shard(s);
  after.add_shard(3);
  constexpr int kKeys = 2000;
  for (int i = 0; i < kKeys; ++i) {
    const auto was = before.owner(key(i));
    const auto now = after.owner(key(i));
    // A key either stays put or moves to the new shard.
    EXPECT_TRUE(now == was || now == 3u);
  }
}

TEST(HashRing, SingleShardOwnsEverything) {
  HashRing ring;
  ring.add_shard(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ring.owner(key(i)), 7u);
  }
}

TEST(HashRingDeath, EmptyRingAborts) {
  HashRing ring;
  EXPECT_DEATH((void)ring.owner(key(1)), "empty");
}

TEST(HashRingDeath, DuplicateShardAborts) {
  HashRing ring;
  ring.add_shard(1);
  EXPECT_DEATH(ring.add_shard(1), "already");
}

TEST(HashRing, FnvMatchesKnownVector) {
  // FNV-1a 64-bit of empty string is the offset basis.
  EXPECT_EQ(HashRing::hash(""), 14695981039346656037ULL);
}

}  // namespace
}  // namespace colony
