// Hot-path evaluation of the crosstalk error model.
//
// `CrosstalkErrorModel::receive` is called once per bus transfer -- millions
// of times per defect-simulation campaign -- and the reference implementation
// re-reads the RC network through per-bit `bit()`/`with_bit()` accessors and
// recomputes per-wire capacitance totals on every call.  This module provides
// the production path:
//
//  * `BusEvaluator` precomputes, once per (network, thresholds) pair -- i.e.
//    once per injected defect -- the contiguous coupling rows and the per-wire
//    glitch denominators, and evaluates a whole transfer in a single pass over
//    packed `std::uint64_t` words.  Stable wires integrate charge only over
//    the *toggled* aggressors (`v1 ^ v2`), and the result word is mutated
//    locally instead of through chained `with_bit` copies.
//
//  * `TransitionCache` memoizes receive results per defect.  Instruction-fetch
//    loops drive the same (held, driven) pairs thousands of times per run, so
//    a small direct-mapped table keyed by `(held << width) | word` converts
//    almost the whole campaign inner loop into table lookups.  Invalidation
//    is O(1) via a generation counter; hit/miss counters feed the campaign
//    stats JSON.
//
// Bitwise-equivalence guarantee: `BusEvaluator::receive` performs the exact
// floating-point operations of the reference model in the same order (the
// precomputed denominator is `ground_cap(i) + net_coupling(i)` evaluated the
// same way, aggressor sums accumulate in ascending wire order, and the Miller
// sum keeps the reference's full ascending loop), so its verdicts are
// bit-identical to `CrosstalkErrorModel::receive` -- enforced by the property
// tests in tests/test_fastpath.cpp.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "xtalk/error_model.h"
#include "xtalk/rc_network.h"

namespace xtest::xtalk {

/// Precomputed per-defect receive evaluator.  Immutable after construction,
/// so one instance may be shared by concurrent readers.
class BusEvaluator {
 public:
  /// Empty evaluator (width 0): behaves like an ideal bus.
  BusEvaluator() = default;

  BusEvaluator(const RcNetwork& net, const ErrorModelConfig& config);

  /// Re-derives the evaluator for (net, config) in place, reusing its
  /// buffers: the same terms in the same order as construction, so the
  /// result is bit-identical to BusEvaluator(net, config) without
  /// allocating when the width does not grow.
  void rebuild(const RcNetwork& net, const ErrorModelConfig& config);

  unsigned width() const { return width_; }

  /// True when a quiet transfer (v1 == v2) provably samples the driven word,
  /// letting callers skip evaluation entirely.  Holds whenever the glitch
  /// threshold is positive (always true for calibrated configs).
  bool quiet_is_identity() const { return quiet_is_identity_; }

  /// True when *every* transfer provably samples the driven word: no wire
  /// can glitch or sample late under any transition (worst-case charge /
  /// Miller bounds, computed once at construction).  Calibrated nominal
  /// networks satisfy this by design -- the thresholds sit a cth_ratio
  /// factor above anything the nominal couplings can excite -- so nominal
  /// bus traffic needs no per-transfer evaluation at all.
  bool always_identity() const { return always_identity_; }

  /// Wires that could deviate on some transition (empty iff
  /// always_identity).  receive() only evaluates these; for a single
  /// coupling defect that is typically the victim and its neighbours.
  unsigned active_wires() const {
    return static_cast<unsigned>(active_.size());
  }

  /// The word the receiver samples when `v2` is driven after `v1`.
  /// Bit-identical to CrosstalkErrorModel::receive on the same network.
  std::uint64_t receive(std::uint64_t v1, std::uint64_t v2) const;

 private:
  unsigned width_ = 0;
  bool quiet_is_identity_ = false;
  bool always_identity_ = false;
  double vdd_v_ = 0.0;
  double glitch_threshold_v_ = 0.0;
  double delay_slack_ns_ = 0.0;
  double driver_resistance_ohm_ = 0.0;
  std::vector<double> rows_;          // width x width coupling, row-major
  std::vector<double> glitch_denom_;  // ground_cap(i) + net_coupling(i)
  std::vector<double> ground_;        // ground_cap(i)
  std::vector<unsigned> active_;      // wires whose worst case can deviate
};

/// Two-way set-associative memo of receive results for one bus under one
/// defect.
///
/// Key layout is `(held << width) | driven` -- unique for width <= 16 (all
/// system buses are 12/8/3 wires), checked by `cacheable`.  The hash picks
/// a set of two entries kept in MRU order; a straight-line SBST program has
/// hundreds of unique transitions that each recur once per run, so a
/// direct-mapped table ping-pongs colliding pairs into steady-state misses
/// (~10% of all transfers) that two ways absorb almost entirely.  Entries
/// are validated against a generation counter so `invalidate()` is O(1);
/// the backing table is only rebuilt on the (astronomically rare)
/// generation wrap.  Not thread-safe: each worker's System owns its own
/// caches, exactly like the simulator state they memoize.
class TransitionCache {
 public:
  /// Empty cache: lookups miss without counting, inserts are dropped.
  TransitionCache() = default;

  /// 2^14 entries (two ways per set), clamped to the key space
  /// (2 * width bits).
  explicit TransitionCache(unsigned width);

  /// Whether the packed key is collision-free for this bus width.
  static bool cacheable(unsigned width) { return width >= 1 && width <= 16; }

  bool enabled() const { return !entries_.empty(); }

  /// Inline, like insert: both run on every evaluated bus transfer.
  bool lookup(std::uint64_t key, std::uint64_t& value) {
    if (entries_.empty()) return false;
    const std::size_t base = index(key);
    Entry& e0 = entries_[base];
    if (e0.generation == generation_ && e0.key == key) {
      value = e0.value;
      ++hits_;
      return true;
    }
    Entry& e1 = entries_[base + 1];
    if (e1.generation == generation_ && e1.key == key) {
      value = e1.value;
      std::swap(e0, e1);  // keep the set in MRU order
      ++hits_;
      return true;
    }
    ++misses_;
    return false;
  }

  void insert(std::uint64_t key, std::uint64_t value) {
    if (entries_.empty()) return;
    const std::size_t base = index(key);
    entries_[base + 1] = entries_[base];  // evict the LRU way
    entries_[base] = Entry{key, value, generation_};
  }

  /// Drops every entry in O(1).  Call whenever the underlying network,
  /// thresholds, or forced-fault state changes.
  void invalidate();

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t value = 0;
    std::uint32_t generation = 0;  // valid iff == generation_
  };

  /// Base of the two-entry set for `key` (always even).
  std::size_t index(std::uint64_t key) const {
    // Fibonacci hash: spreads the low-entropy packed keys over the sets.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_)
           << 1;
  }

  std::vector<Entry> entries_;
  std::uint32_t generation_ = 1;  // entries default to 0 == invalid
  unsigned shift_ = 64;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace xtest::xtalk
