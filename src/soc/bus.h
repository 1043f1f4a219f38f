// Tri-state system bus with hold-last-value semantics.
//
// The paper's testbed (Section 4.1): "access to busses is controlled by
// tri-state buffers.  When all tri-state buffers are disabled, the signal
// on the bus becomes high impedance ('z').  When 'z' appears, we assume the
// bus holds the last defined value before 'z'."  A TristateBus therefore
// remembers the last driven word; each new transfer forms the transition
// (held, driven), which is what excites crosstalk, and the receiver samples
// the word the error model produces.

#pragma once

#include <cassert>
#include <optional>

#include "util/bitvec.h"
#include "xtalk/error_model.h"
#include "xtalk/fast_model.h"
#include "xtalk/maf.h"
#include "xtalk/rc_network.h"

namespace xtest::soc {

enum class BusKind : std::uint8_t { kAddress, kData, kControl };

std::string to_string(BusKind k);

class TristateBus {
 public:
  /// A bus powers up holding all zeros (the reset value of its drivers).
  TristateBus(BusKind kind, unsigned width)
      : kind_(kind), width_(width), held_(util::BusWord::zeros(width)) {}

  BusKind kind() const { return kind_; }
  unsigned width() const { return width_; }

  /// Word currently held on the wires.
  util::BusWord held() const { return held_; }

  /// Drives `word` onto the bus and returns what the receiver samples.
  /// `net`/`model` may be null to bypass crosstalk evaluation (ideal bus).
  /// After the transfer the bus holds the *driven* word: the wires settle
  /// to their final values once the glitch/delay transient has passed.
  util::BusWord transfer(util::BusWord word, const xtalk::RcNetwork* net,
                         const xtalk::CrosstalkErrorModel* model) {
    assert(word.width() == width_);
    const util::BusWord received = receive(held_, word, net, model);
    held_ = word;
    return received;
  }

  /// Hot-path transfer through a precomputed evaluator (bit-identical to
  /// the reference overload on the same network/thresholds).  `cache`
  /// (optional) memoizes (held, driven) -> received per defect; `eval` may
  /// be null or empty for an ideal bus.
  util::BusWord transfer(util::BusWord word, const xtalk::BusEvaluator* eval,
                         xtalk::TransitionCache* cache) {
    assert(word.width() == width_);
    const util::BusWord received = receive(held_, word, eval, cache);
    held_ = word;
    return received;
  }

  /// The word the receiver samples when `word` is driven onto wires
  /// holding `held`, by the reference model.  Pure: no bus state changes.
  static util::BusWord receive(util::BusWord held, util::BusWord word,
                               const xtalk::RcNetwork* net,
                               const xtalk::CrosstalkErrorModel* model);

  /// The same through a precomputed evaluator.  A quiet bus (re-driving
  /// the held word) skips evaluation entirely when the evaluator proves
  /// the identity -- the most common transfer in real programs.  Inline:
  /// it runs once per simulated bus cycle.
  static util::BusWord receive(util::BusWord held, util::BusWord word,
                               const xtalk::BusEvaluator* eval,
                               xtalk::TransitionCache* cache) {
    if (eval == nullptr || eval->width() == 0) return word;
    // Early exits: an evaluator whose worst case provably never deviates
    // (calibrated nominal networks) samples the driven word on *every*
    // transition, and a quiet bus (no wire toggles) does so whenever the
    // glitch threshold is positive.  Neither case touches the cache.
    if (eval->always_identity()) return word;
    const std::uint64_t v1 = held.bits();
    const std::uint64_t v2 = word.bits();
    if (v1 == v2 && eval->quiet_is_identity()) return word;
    const unsigned width = word.width();
    if (cache != nullptr && cache->enabled()) {
      const std::uint64_t key = (v1 << width) | v2;
      std::uint64_t value = 0;
      if (!cache->lookup(key, value)) {
        value = eval->receive(v1, v2);
        cache->insert(key, value);
      }
      return {width, value};
    }
    return {width, eval->receive(v1, v2)};
  }

  /// Ideal bus: `transfer(word, nullptr, nullptr)` would be ambiguous
  /// between the two evaluating overloads; both degrade to this.
  util::BusWord transfer(util::BusWord word, std::nullptr_t, std::nullptr_t) {
    return transfer(word, static_cast<const xtalk::RcNetwork*>(nullptr),
                    nullptr);
  }

  /// Resets the held value (e.g. at system reset).
  void reset() { held_ = util::BusWord::zeros(width_); }

  /// Sets the held word: after a transfer the wires hold the driven word,
  /// and a slice restore reinstates a captured one.  The next transfer
  /// then forms exactly the (held, driven) transition the uninterrupted
  /// run would have formed.
  void restore_held(util::BusWord held) { held_ = held; }

 private:
  BusKind kind_;
  unsigned width_;
  util::BusWord held_;
};

}  // namespace xtest::soc
