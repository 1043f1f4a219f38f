// Deterministic random number generation for defect-library construction.
//
// All stochastic experiments in the library are seeded explicitly so that a
// campaign is exactly reproducible: the same seed always yields the same
// defect library, hence the same coverage table.

#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <random>

namespace xtest::util {

/// MT19937-64, bit-exact with std::mt19937_64: the same seeding, twist and
/// tempering, so the same seed gives the same output stream.  fill()
/// writes a block of outputs at once.  The twist selects its matrix term
/// without a branch, so at the repo's ordinary -O3 flags the compiler
/// vectorizes both the twist and the tempering (DESIGN.md D12); the
/// standard engine's branchy twist runs several times slower.
class Mt64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt64(result_type seed) {
    state_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i)
      state_[i] = kInitMultiplier * (state_[i - 1] ^ (state_[i - 1] >> 62)) +
                  i;
    next_ = kN;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (next_ == kN) twist();
    return temper(state_[next_++]);
  }

  /// The next `n` outputs, as `n` calls of operator() would return them.
  void fill(result_type* out, std::size_t n) {
    while (n > 0) {
      if (next_ == kN) twist();
      const std::size_t k = std::min(n, kN - next_);
      const result_type* x = state_.data() + next_;
      for (std::size_t i = 0; i < k; ++i) out[i] = temper(x[i]);
      next_ += k;
      out += k;
      n -= k;
    }
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr result_type kMatrixA = 0xB5026F5AA96619E9ull;
  static constexpr result_type kUpperMask = ~result_type{0} << 31;
  static constexpr result_type kInitMultiplier = 6364136223846793005ull;

  /// The twist's term for the upper bits of `hi` and the lower 31 of `lo`.
  static result_type mix(result_type hi, result_type lo) {
    const result_type y = (hi & kUpperMask) | (lo & ~kUpperMask);
    return (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
  }

  static result_type temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    return z ^ (z >> 43);
  }

  /// Regenerates all kN words.  Words [0, kN - kM) read only old state;
  /// the rest read words kN - kM back, already new: each loop is free of
  /// loop-carried dependences within a vector's reach.
  void twist() {
    std::size_t k = 0;
    for (; k < kN - kM; ++k)
      state_[k] = state_[k + kM] ^ mix(state_[k], state_[k + 1]);
    for (; k < kN - 1; ++k)
      state_[k] = state_[k + kM - kN] ^ mix(state_[k], state_[k + 1]);
    state_[kN - 1] = state_[kM - 1] ^ mix(state_[kN - 1], state_[0]);
    next_ = 0;
  }

  std::array<result_type, kN> state_;
  std::size_t next_;
};

/// Mt64 with convenience draws.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Standard normal times `sigma`.
  ///
  /// Load-bearing: every call builds a fresh std::normal_distribution, so
  /// the polar method always consumes whole (u, v) pairs of engine outputs
  /// starting at an even offset, and its cached second variate is dropped.
  /// A variate therefore depends only on the two raw outputs of the pair
  /// that produced it, which is what lets replay_gaussians (below) turn
  /// any even-aligned stretch of the raw stream into the same variates on
  /// another thread.  Changing this (say, keeping one distribution alive)
  /// changes every defect library and every recorded library pin.
  double gaussian(double sigma) {
    return std::normal_distribution<double>(0.0, sigma)(engine_);
  }

  /// Uniform in [0, 1).
  double uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) {
    return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(engine_);
  }

 private:
  Mt64 engine_;
};

/// A URNG that replays buffered raw Mt64 outputs.  It has the engine's
/// range, so any std distribution draws from it exactly what it would
/// have drawn from the engine that produced the buffer.  Reading past the
/// end sets overran() and returns 2^62 (a canonical 0.25, which
/// the polar method accepts at once), so a draw that runs out of data
/// ends promptly and can be discarded.
class RawReplay {
 public:
  using result_type = Mt64::result_type;

  RawReplay(const result_type* begin, const result_type* end)
      : next_(begin), end_(end) {}

  static constexpr result_type min() { return Mt64::min(); }
  static constexpr result_type max() { return Mt64::max(); }

  result_type operator()() {
    if (next_ == end_) {
      overran_ = true;
      return result_type{1} << 62;
    }
    return *next_++;
  }

  bool empty() const { return next_ == end_; }
  bool overran() const { return overran_; }

 private:
  const result_type* next_;
  const result_type* end_;
  bool overran_ = false;
};

/// Writes to `out` the variates that successive Rng::gaussian(sigma) calls
/// draw from the raw engine outputs [begin, end), and returns how many.
/// The stretch must start where a gaussian draw starts (an even offset of
/// a gaussian-only stream) and have even length; pairs the polar method
/// rejects yield nothing, so `out` needs room for (end - begin) / 2.
/// Replaying consecutive stretches gives the variates of the whole.
inline std::size_t replay_gaussians(const std::uint64_t* begin,
                                    const std::uint64_t* end, double sigma,
                                    double* out) {
  assert((end - begin) % 2 == 0);
  RawReplay raw(begin, end);
  std::size_t n = 0;
  while (!raw.empty()) {
    const double g = std::normal_distribution<double>(0.0, sigma)(raw);
    if (raw.overran()) break;  // the stretch ended in rejected pairs
    out[n++] = g;
  }
  return n;
}

}  // namespace xtest::util
