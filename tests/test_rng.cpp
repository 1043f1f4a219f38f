#include "util/rng.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

namespace xtest::util {
namespace {

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
  std::mt19937_64 engine(seed);
  std::vector<std::uint64_t> raw(n);
  for (std::uint64_t& x : raw) x = engine();
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
