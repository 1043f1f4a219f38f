#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace xtest::util {
namespace {

// Mt64 against the standard engine it reproduces, over 100M outputs at
// five seeds.  Block fills of every size class around the 312-word state
// (empty, one, half, just under / at / just over a whole state, and a
// library block) alternate with single draws; 13 single draws per cycle
// shift each cycle by 173 words, coprime to 312, so every fill size
// starts at every offset into the state.
TEST(Mt64, MatchesStdMt19937_64AcrossFillSizesAndStateOffsets) {
  constexpr std::size_t kState = 312;
  const std::size_t sizes[] = {0, 1, 155, 156, 311, 312, 313, 16384};
  constexpr std::size_t kPerSeed = 20'000'000;
  std::vector<std::uint64_t> block(16384);
  std::size_t total = 0;
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{20010618},
        std::uint64_t{900913}, ~std::uint64_t{0}}) {
    std::mt19937_64 oracle(seed);
    Mt64 mt(seed);
    std::vector<std::vector<bool>> started(std::size(sizes),
                                           std::vector<bool>(kState));
    std::size_t drawn = 0, mismatches = 0;
    while (drawn < kPerSeed) {
      for (std::size_t s = 0; s < std::size(sizes); ++s) {
        started[s][drawn % kState] = true;
        mt.fill(block.data(), sizes[s]);
        for (std::size_t k = 0; k < sizes[s]; ++k)
          mismatches += block[k] != oracle();
        mismatches += mt() != oracle();
        drawn += sizes[s] + 1;
      }
      for (int k = 0; k < 5; ++k) mismatches += mt() != oracle();
      drawn += 5;
    }
    EXPECT_EQ(mismatches, 0u) << "seed " << seed;
    for (std::size_t s = 0; s < std::size(sizes); ++s)
      EXPECT_EQ(std::count(started[s].begin(), started[s].end(), true),
                static_cast<std::ptrdiff_t>(kState))
          << "seed " << seed << " fill size " << sizes[s];
    total += drawn;
  }
  EXPECT_GE(total, 100'000'000u);
}

TEST(Rng, DeterministicBySeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.below(1000), b.below(1000));
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.below(1u << 30) == b.below(1u << 30);
  EXPECT_LT(same, 3);
}

TEST(Rng, GaussianMomentsRoughlyCorrect) {
  // The defect distribution is Gaussian with sigma = 50% (3-sigma = 150%);
  // check the generator's sample moments.
  Rng rng(7);
  const double sigma = 0.5;
  const int n = 200000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gaussian(sigma);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(std::sqrt(var), sigma, 0.01);
}

TEST(Rng, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

// The stream property behind parallel library generation (DESIGN.md D12):
// a gaussian draw consumes whole pairs of raw engine outputs from an even
// offset, so a buffered raw stream replays to exactly Rng::gaussian's
// variates, and each pair decides its own accept/reject and variate.

std::vector<std::uint64_t> raw_stream(std::uint64_t seed, std::size_t n) {
  Mt64 engine(seed);
  std::vector<std::uint64_t> raw(n);
  engine.fill(raw.data(), raw.size());
  return raw;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(RngReplay, ReplayedStreamEqualsRngGaussianOverAMillionDraws) {
  const double sigma = 0.5;
  const std::vector<std::uint64_t> raw = raw_stream(20010618, 2'600'000);
  std::vector<double> replayed(raw.size() / 2);
  const std::size_t n = replay_gaussians(raw.data(), raw.data() + raw.size(),
                                         sigma, replayed.data());
  ASSERT_GE(n, 1'000'000u);
  // The polar method rejected some pairs, and the replay skipped them
  // exactly where Rng::gaussian did.
  EXPECT_LT(n, raw.size() / 2);
  Rng rng(20010618);
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < n; ++k)
    mismatches += !same_bits(replayed[k], rng.gaussian(sigma));
  EXPECT_EQ(mismatches, 0u);
}

TEST(RngReplay, EachPairReplaysOnItsOwn) {
  const double sigma = 0.5;
  const std::vector<std::uint64_t> raw = raw_stream(7, 400'000);
  std::vector<double> whole(raw.size() / 2);
  const std::size_t n = replay_gaussians(raw.data(), raw.data() + raw.size(),
                                         sigma, whole.data());
  std::size_t k = 0, rejected = 0, mismatches = 0;
  for (std::size_t p = 0; p < raw.size(); p += 2) {
    double one = 0.0;
    if (replay_gaussians(raw.data() + p, raw.data() + p + 2, sigma, &one) ==
        0) {
      ++rejected;
      continue;
    }
    mismatches += k >= n || !same_bits(one, whole[k]);
    ++k;
  }
  EXPECT_EQ(k, n);
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace xtest::util
