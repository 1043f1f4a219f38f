// Deterministic random number generation for defect-library construction.
//
// All stochastic experiments in the library are seeded explicitly so that a
// campaign is exactly reproducible: the same seed always yields the same
// defect library, hence the same coverage table.

#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <random>

namespace xtest::util {

/// Thin wrapper over std::mt19937_64 with convenience draws.
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

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// A URNG that replays buffered raw std::mt19937_64 outputs.  It has the
/// engine's range, so any std distribution draws from it exactly what it
/// would have drawn from the engine that produced the buffer.  Reading
/// past the end sets overran() and returns 2^62 (a canonical 0.25, which
/// the polar method accepts at once), so a draw that runs out of data
/// ends promptly and can be discarded.
class RawReplay {
 public:
  using result_type = std::mt19937_64::result_type;

  RawReplay(const result_type* begin, const result_type* end)
      : next_(begin), end_(end) {}

  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }

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
