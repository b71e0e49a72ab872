// RoundArgmax (core/round_argmax.h) against a flat first-max scan: over
// seeded random scripts of key raises and lowers, at sizes around the
// block boundary, Best() must return exactly the smallest row index
// holding the largest key, or kNone when every key is 0.

#include "core/round_argmax.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace tpp::core {
namespace {

constexpr size_t kBlock = RoundArgmax::kBlock;

// The rule the selector replaces: first strict max, 0 never wins.
size_t FlatFirstMax(const std::vector<uint64_t>& keys) {
  uint64_t best = 0;
  size_t best_i = RoundArgmax::kNone;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] > best) {
      best = keys[i];
      best_i = i;
    }
  }
  return best_i;
}

uint64_t Zero(size_t) { return 0; }

void Assign(RoundArgmax& argmax, std::vector<uint64_t>& keys, size_t i,
            uint64_t key) {
  keys[i] = key;
  argmax.Set(i, key);
}

TEST(RoundArgmaxTest, EmptyAndAllZero) {
  RoundArgmax argmax;
  EXPECT_EQ(argmax.Best(), RoundArgmax::kNone);
  argmax.Rebuild(0, Zero);
  EXPECT_EQ(argmax.size(), 0u);
  EXPECT_EQ(argmax.Best(), RoundArgmax::kNone);
  for (size_t n : {1u, 63u, 64u, 65u, 1000u}) {
    argmax.Rebuild(n, Zero);
    EXPECT_EQ(argmax.size(), n);
    EXPECT_EQ(argmax.Best(), RoundArgmax::kNone) << n;
    // Raise then lower every key back to 0.
    for (size_t i = 0; i < n; ++i) argmax.Set(i, i + 1);
    EXPECT_EQ(argmax.Best(), n - 1) << n;
    for (size_t i = 0; i < n; ++i) argmax.Set(i, 0);
    EXPECT_EQ(argmax.Best(), RoundArgmax::kNone) << n;
  }
}

// Equal maxima on both sides of every block boundary: the lower row must
// win, and lowering it must hand the pick to the next tied row.
TEST(RoundArgmaxTest, TiesStraddlingBlockBoundariesGoToSmallestRow) {
  const size_t n = 5 * kBlock + 3;
  for (size_t boundary = kBlock; boundary < n; boundary += kBlock) {
    RoundArgmax argmax;
    std::vector<uint64_t> keys(n);
    for (size_t i = 0; i < n; ++i) keys[i] = 1 + i % 3;
    argmax.Rebuild(n, [&](size_t i) { return keys[i]; });
    Assign(argmax, keys, boundary - 1, 7);
    Assign(argmax, keys, boundary, 7);
    Assign(argmax, keys, n - 1, 7);
    EXPECT_EQ(argmax.Best(), boundary - 1);
    Assign(argmax, keys, boundary - 1, 2);
    EXPECT_EQ(argmax.Best(), boundary);
    Assign(argmax, keys, boundary, 0);
    EXPECT_EQ(argmax.Best(), n - 1);
    Assign(argmax, keys, boundary - 1, 7);
    EXPECT_EQ(argmax.Best(), boundary - 1);
    EXPECT_EQ(argmax.Best(), FlatFirstMax(keys));
  }
}

// The packed (own, cross) keys of the CT/WT loops: the high word must
// dominate, so a larger own beats any cross.
TEST(RoundArgmaxTest, PackedKeysOrderLexicographically) {
  RoundArgmax argmax;
  argmax.Rebuild(3 * kBlock, Zero);
  argmax.Set(0, uint64_t{1} << 32 | 0xffffffffu);
  argmax.Set(kBlock + 5, uint64_t{2} << 32);
  argmax.Set(2 * kBlock, uint64_t{2} << 32 | 1);
  EXPECT_EQ(argmax.Best(), 2 * kBlock);
  argmax.Set(2 * kBlock, uint64_t{2} << 32);
  EXPECT_EQ(argmax.Best(), kBlock + 5);
}

// Seeded random scripts: rounds of a few raises and lowers (small key
// ranges make ties common), each followed by Best() checked against the
// flat scan. Every few rounds the whole selector is rebuilt, the path a
// greedy loop takes on an all-dirty round.
TEST(RoundArgmaxTest, MatchesFlatFirstMaxOnRandomScripts) {
  for (size_t n : {1u, 63u, 64u, 65u, 1000u}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      Rng rng(seed * 1000 + n);
      const uint64_t range = seed % 2 == 0 ? 4 : 1000;
      RoundArgmax argmax;
      argmax.Rebuild(n, Zero);
      std::vector<uint64_t> keys(n, 0);
      for (size_t round = 0; round < 300; ++round) {
        if (round % 97 == 50) {
          argmax.Rebuild(n, [&](size_t i) { return keys[i]; });
        }
        const size_t edits = 1 + rng.UniformIndex(12);
        for (size_t e = 0; e < edits; ++e) {
          const size_t i = rng.UniformIndex(n);
          uint64_t key = keys[i];
          switch (rng.UniformIndex(4)) {
            case 0: key = 0; break;                             // dies
            case 1: key = key > 0 ? rng.UniformIndex(key) : 0; break;
            case 2: key += 1 + rng.UniformIndex(range); break;  // raise
            default: key = rng.UniformIndex(range + 1); break;
          }
          Assign(argmax, keys, i, key);
        }
        // Lowering the current best is what every greedy pick does.
        const size_t best = FlatFirstMax(keys);
        ASSERT_EQ(argmax.Best(), best) << "n=" << n << " seed=" << seed
                                       << " round=" << round;
        if (best != RoundArgmax::kNone && rng.UniformIndex(2) == 0) {
          Assign(argmax, keys, best, rng.UniformIndex(keys[best]));
        }
      }
    }
  }
}

}  // namespace
}  // namespace tpp::core
