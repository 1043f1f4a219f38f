#include "xtalk/fast_model.h"

#include <bit>
#include <cassert>

namespace xtest::xtalk {

namespace {
// Same constant as the reference model (error_model.cpp): the delay
// expressions must round identically.
constexpr double kLn2 = 0.6931471805599453;
}  // namespace

BusEvaluator::BusEvaluator(const RcNetwork& net,
                           const ErrorModelConfig& config) {
  rebuild(net, config);
}

void BusEvaluator::rebuild(const RcNetwork& net,
                           const ErrorModelConfig& config) {
  width_ = net.width();
  quiet_is_identity_ = config.glitch_threshold_v > 0.0;
  vdd_v_ = config.vdd_v;
  glitch_threshold_v_ = config.glitch_threshold_v;
  delay_slack_ns_ = config.delay_slack_ns;
  driver_resistance_ohm_ = net.driver_resistance();
  assert(width_ >= 1 && width_ <= 64);
  // Every slot of the three tables is written below.
  rows_.resize(static_cast<std::size_t>(width_) * width_);
  glitch_denom_.resize(width_);
  ground_.resize(width_);
  active_.clear();
  // Sound worst-case bounds, conservative in the FP sense: a wire whose
  // worst achievable excursion (all aggressors conspiring) sits strictly
  // below the threshold -- with a relative margin dwarfing any rounding
  // the per-transition sums can accumulate -- provably never deviates,
  // on any transition, and receive() need not evaluate it at all.
  constexpr double kFpMargin = 1.0 + 1e-9;
  active_.reserve(width_);
  for (unsigned i = 0; i < width_; ++i) {
    double sum_abs = 0.0;    // worst |injected charge| on a stable wire
    double sum_pos2 = 0.0;   // worst Miller load on a switching wire
    double net_sum = 0.0;    // RcNetwork::net_coupling(i), term by term
    for (unsigned j = 0; j < width_; ++j) {
      const double c = net.coupling(i, j);
      rows_[static_cast<std::size_t>(i) * width_ + j] = c;
      sum_abs += c < 0.0 ? -c : c;
      if (c > 0.0) sum_pos2 += 2.0 * c;
      net_sum += c;
    }
    // Exactly the reference's `total`: ground_cap(i) + net_coupling(i),
    // with net_coupling summing all couplings in ascending wire order.
    glitch_denom_[i] = net.ground_cap(i) + net_sum;
    ground_[i] = net.ground_cap(i);

    const double dv_max = vdd_v_ * sum_abs / glitch_denom_[i];
    const bool can_glitch =
        !(dv_max * kFpMargin < glitch_threshold_v_);
    const double delay_max =
        kLn2 * driver_resistance_ohm_ * (ground_[i] + sum_pos2) * 1e-6;
    const bool can_delay = delay_max * kFpMargin > delay_slack_ns_;
    if (can_glitch || can_delay) active_.push_back(i);
  }
  always_identity_ = active_.empty();
}

std::uint64_t BusEvaluator::receive(std::uint64_t v1, std::uint64_t v2) const {
  assert(width_ != 0);
  const std::uint64_t toggled = v1 ^ v2;
  if (toggled == 0 && quiet_is_identity_) return v2;
  if (always_identity_) return v2;

  std::uint64_t out = v2;
  // Only the active wires are evaluated; the pruned ones provably keep
  // their driven value (bounds above), and each wire's decision depends
  // only on (v1, v2) and its own row, so skipping the others is exact.
  for (const unsigned i : active_) {
    const double* row = &rows_[static_cast<std::size_t>(i) * width_];
    const std::uint64_t bit = std::uint64_t{1} << i;
    if ((toggled & bit) == 0) {
      // Stable wire: charge injected by the toggled aggressors only, summed
      // in ascending wire order like the reference (quiet aggressors
      // contribute exactly nothing there too -- they are `continue`d).
      double injected = 0.0;
      for (std::uint64_t m = toggled; m != 0; m &= m - 1) {
        const unsigned j = static_cast<unsigned>(std::countr_zero(m));
        injected += (((v2 >> j) & 1) != 0 ? 1.0 : -1.0) * row[j];
      }
      const double dv = vdd_v_ * injected / glitch_denom_[i];
      const bool b2 = (v2 & bit) != 0;
      const bool flips = b2 ? (-dv >= glitch_threshold_v_)
                            : (dv >= glitch_threshold_v_);
      if (flips) out ^= bit;
    } else {
      // Switching wire: the reference walks every aggressor in ascending
      // order (quiet Miller factor 1), so this loop must too to keep the
      // floating-point sum bit-identical.  The j == i term multiplies the
      // zero diagonal by Miller 0 and adds exactly +0.0.
      const bool rising = (v2 & bit) != 0;
      double ceff = ground_[i];
      for (unsigned j = 0; j < width_; ++j) {
        double miller = 1.0;
        if (((toggled >> j) & 1) != 0)
          miller = (((v2 >> j) & 1) != 0) == rising ? 0.0 : 2.0;
        ceff += miller * row[j];
      }
      const double delay = kLn2 * driver_resistance_ohm_ * ceff * 1e-6;
      if (delay > delay_slack_ns_) out ^= bit;  // receiver samples old bit
    }
  }
  return out;
}

TransitionCache::TransitionCache(unsigned width) {
  assert(cacheable(width));
  unsigned log2_entries = 14;
  if (log2_entries > 2 * width) log2_entries = 2 * width;
  // At least one full set of two ways (width >= 1 keeps 2 in range).
  if (log2_entries < 2) log2_entries = 2;
  entries_.assign(std::size_t{1} << log2_entries, Entry{});
  shift_ = 64 - (log2_entries - 1);  // hash selects a set, not an entry
}

void TransitionCache::invalidate() {
  if (entries_.empty()) return;
  if (++generation_ == 0) {
    // Generation wrapped: entries stamped 0 would read as valid again.
    for (Entry& e : entries_) e.generation = 0;
    generation_ = 1;
  }
}

}  // namespace xtest::xtalk
