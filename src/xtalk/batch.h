// Defect-batched (transition-major) evaluation.
//
// A defect-simulation campaign asks the same question once per defect:
// "does this defect corrupt any of the transitions the self-test program
// drives?"  The per-defect loop answers it by re-simulating the whole
// program under each defect.  This module supports the inverted,
// transition-major loop: gather a *batch* of defects into a
// structure-of-arrays view (`DefectBatch`) and score one (held, driven)
// transition against every defect of the batch in a single pass
// (`BatchEvaluator::screen`), so the campaign can prove most defects
// undetected straight from the gold run's transition stream without
// simulating them at all.
//
// Layout: for each wire pair (i, j) the defect-applied coupling values of
// all lanes are contiguous (`pair_row`), so the per-lane inner loops are
// unit-stride over plain double arrays -- auto-vectorizable C++ today, and
// the scalar kernels below (`accumulate_row`, ...) are the dispatch seam
// for an explicit AVX2 path later.
//
// Bitwise-equivalence guarantee: `BatchEvaluator` performs, per lane, the
// exact floating-point operations of `BusEvaluator::receive` in the same
// order (aggressor sums ascend by wire, the Miller sum keeps the full
// ascending loop, and the glitch denominator is `ground + net_coupling`
// summed the reference way), so a lane's received word is bit-identical to
// simulating that defect alone.  Enforced by tests/test_batch_equivalence.
//
// Exactness of the gather: `DefectBatch` keeps each lane's original
// multiplicative factors verbatim alongside the derived coupling rows, so
// `scatter` reproduces every source `Defect` field exactly (the derived
// coupling `nominal * factor` cannot be divided back without rounding).

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "xtalk/defect.h"
#include "xtalk/error_model.h"
#include "xtalk/maf.h"
#include "xtalk/rc_network.h"

namespace xtest::xtalk {

/// Structure-of-arrays view of a slice of a defect library against one
/// nominal network.  Immutable after construction.
class DefectBatch {
 public:
  /// Gathers `library[indices[k]]` into lane k.  Every gathered defect
  /// must match the nominal width (throws std::invalid_argument
  /// otherwise; the campaign pre-filters mismatches into the ordinary
  /// quarantine path).  `forced` optionally pins an ideal MAF per lane
  /// (empty = none anywhere; otherwise one entry per lane).
  DefectBatch(const RcNetwork& nominal, const DefectLibrary& library,
              std::vector<std::size_t> indices,
              std::vector<std::optional<MafFault>> forced = {});

  /// Whole-library convenience gather (lane k = defect k).
  DefectBatch(const RcNetwork& nominal, const DefectLibrary& library,
              std::vector<std::optional<MafFault>> forced = {});

  unsigned width() const { return width_; }
  std::size_t lanes() const { return lanes_; }
  double ground(unsigned i) const { return ground_[i]; }
  double driver_resistance() const { return driver_resistance_ohm_; }

  /// Library index gathered into `lane`.
  std::size_t source_index(std::size_t lane) const { return sources_[lane]; }

  /// Reconstructs lane `lane`'s defect exactly (original factors, not the
  /// derived couplings).
  Defect scatter(std::size_t lane) const;

  const std::optional<MafFault>& forced(std::size_t lane) const {
    return forced_[lane];
  }

  /// The defect-applied coupling(i, j) of every lane, contiguous:
  /// pair_row(i, j)[lane].  The diagonal rows are all zeros, like the
  /// RcNetwork diagonal.
  const double* pair_row(unsigned i, unsigned j) const {
    return &coupling_[(static_cast<std::size_t>(i) * width_ + j) * lanes_];
  }

 private:
  unsigned width_ = 0;
  std::size_t lanes_ = 0;
  double driver_resistance_ohm_ = 0.0;
  std::vector<std::size_t> sources_;
  std::vector<double> factors_;   // lane-major, lanes x width*(width-1)/2
  std::vector<double> coupling_;  // (width*width) rows of `lanes` values
  std::vector<double> ground_;    // per wire (defects never touch ground)
  std::vector<std::optional<MafFault>> forced_;  // one per lane
};

/// Scores one (held, driven) transition against every lane of a batch.
/// Construct once per (batch, thresholds) pair; `screen` is the hot call.
/// Not thread-safe (owns scratch buffers) -- each campaign screen worker
/// builds its own.
class BatchEvaluator {
 public:
  /// `batch` must outlive the evaluator.  `config` is the bus's error
  /// model (the system's calibrated per-bus thresholds).
  BatchEvaluator(const DefectBatch& batch, const ErrorModelConfig& config);

  unsigned width() const { return batch_->width(); }
  std::size_t lanes() const { return batch_->lanes(); }
  bool quiet_is_identity() const { return quiet_is_identity_; }

  /// The word lane `lane`'s defect makes the receiver sample for the
  /// transition v1 -> v2.  Bit-identical to BusEvaluator::receive on the
  /// lane's scattered defect applied to the nominal network; a forced MAF
  /// on the lane overrides the model word exactly when the transition is
  /// its MA test and `direction` matches (mirroring soc::System).
  std::uint64_t receive(std::size_t lane, std::uint64_t v1, std::uint64_t v2,
                        BusDirection direction =
                            BusDirection::kCpuToCore) const;

  /// One transition against all live lanes: clears live[l] for every lane
  /// whose received word differs from `expected` (the gold received word).
  /// Dead lanes stay dead.  Returns the number of lanes still live.
  std::size_t screen(std::uint64_t v1, std::uint64_t v2,
                     BusDirection direction, std::uint64_t expected,
                     std::uint8_t* live);

 private:
  const DefectBatch* batch_;
  bool quiet_is_identity_ = false;
  double vdd_v_ = 0.0;
  double glitch_threshold_v_ = 0.0;
  double delay_slack_ns_ = 0.0;
  double driver_resistance_ohm_ = 0.0;
  std::vector<double> glitch_denom_;  // per (wire, lane), lane-contiguous
  // Forced-MAF lanes, precomputed: the MA pair is the unique fully
  // exciting transition, so the override is a word compare per lane.
  bool any_forced_ = false;
  std::vector<std::uint8_t> forced_active_;
  std::vector<std::uint64_t> forced_v1_, forced_v2_, forced_word_;
  std::vector<BusDirection> forced_direction_;
  // Scratch reused across screen calls (per-lane accumulator + out word).
  std::vector<double> acc_;
  std::vector<std::uint64_t> out_;
};

}  // namespace xtest::xtalk
