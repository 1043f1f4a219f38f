// Defect library generation (Fig. 10 of the paper).
//
// A candidate defect perturbs every coupling capacitance of the nominal bus
// by an independent Gaussian percentage (the paper uses a 3-sigma point of
// 150%, i.e. sigma = 50%).  A candidate is *recorded* as a defect exactly
// when the net coupling capacitance on some wire exceeds the threshold Cth
// -- the criterion of Cuviello et al. (ICCAD'99) for "some MA test can
// detect it".  Candidates below the threshold are electrically benign and
// are discarded, exactly as in the paper's flow.
//
// Generation runs on `parallel`'s threads, and the library does not depend
// on how many (DESIGN.md D12): only the raw engine stream is drawn
// serially; the gaussian draws and the Cth test fan out, and candidates
// are accepted strictly in index order.

#pragma once

#include <cstdint>
#include <vector>

#include "util/parallel.h"
#include "xtalk/rc_network.h"

namespace xtest::xtalk {

struct DefectConfig {
  /// Gaussian sigma of the capacitance variation, in percent.  The paper's
  /// "3-delta point of 150%" is sigma = 50.
  double sigma_pct = 50.0;
  /// Net-coupling threshold in fF above which a wire is defective.
  double cth_fF = 0.0;
  /// Number of defects to generate.
  std::size_t count = 1000;
  std::uint64_t seed = 20010618;  // DAC 2001 week
  /// Abort knob so mis-calibrated configs fail loudly instead of spinning.
  std::size_t max_attempts = 200'000'000;
};

/// Cth used in all experiments: a fixed multiple of the largest *nominal*
/// net coupling, i.e. the acceptable-glitch-height / delay margin expressed
/// in capacitance terms.  With the default ratio the outermost wires cannot
/// become defective under the paper's 3-sigma = 150% distribution, which is
/// what produces the zero-coverage side lines of Fig. 11.
double recommended_cth(const RcNetwork& nominal, double ratio = 1.6);

/// The terms of every wire's net coupling under a defect, precomputed once
/// per nominal network: row i holds, for j ascending and j != i, the
/// nominal coupling(min(i,j), max(i,j)) and the index of pair (i, j) in a
/// defect's factors (Defect's order).  A row's sum takes the products in
/// RcNetwork::net_coupling's order, so it is bitwise equal to
/// Defect(width, factors).apply(nominal).net_coupling(i) without building
/// the network.  This is the one summation behind the Cth test.
class CouplingRows {
 public:
  explicit CouplingRows(const RcNetwork& nominal);

  unsigned width() const { return width_; }

  /// Net coupling of wire i under a defect's `factors`.
  double net_coupling(unsigned i, const double* factors) const;

  /// Whether some wire's net coupling under `factors` exceeds `cth_fF`;
  /// stops at the first wire that does.
  bool any_exceeds(const double* factors, double cth_fF) const;

 private:
  unsigned width_;
  std::vector<double> coupling_;    // width rows of width-1 terms
  std::vector<std::uint32_t> pair_;  // the factor index of each term
};

/// Net coupling of every wire of `nominal` under a defect's `factors` (one
/// per wire pair, in Defect's order), written to net[0..width): the
/// CouplingRows sums.
void perturbed_net_coupling(const RcNetwork& nominal, const double* factors,
                            double* net);

/// One recorded defect: a multiplicative factor for every unordered wire
/// pair (i < j), row-major in the upper triangle.
class Defect {
 public:
  /// Throws std::invalid_argument when the factor count does not match the
  /// width or any factor is negative or non-finite (defects loaded from
  /// archived CSVs must fail loudly, not poison a campaign).
  Defect(unsigned width, std::vector<double> factors);

  unsigned width() const { return width_; }

  double factor(unsigned i, unsigned j) const;

  /// The nominal network with this defect's perturbation applied.  Throws
  /// std::invalid_argument on a width mismatch.
  RcNetwork apply(const RcNetwork& nominal) const;

  /// The same network written into `out`, reusing its buffers (the
  /// per-defect swap of a campaign's simulator).  `out` is untouched when
  /// the width check throws.
  void apply(const RcNetwork& nominal, RcNetwork& out) const;

  /// Wires whose net coupling exceeds `cth_fF` under this defect.  Throws
  /// std::invalid_argument on a width mismatch.
  std::vector<unsigned> defective_wires(const RcNetwork& nominal,
                                        double cth_fF) const;

 private:
  std::size_t tri_index(unsigned i, unsigned j) const;
  void check_width(const RcNetwork& nominal, const char* caller) const;

  unsigned width_;
  std::vector<double> factors_;  // width*(width-1)/2 entries
};

/// A generated library plus generation statistics.
class DefectLibrary {
 public:
  /// Rejection-samples `config.count` defects on `parallel`'s threads;
  /// the library and attempts() are the same at every thread count.
  /// Throws std::runtime_error if `max_attempts` candidates do not yield
  /// enough defects.
  static DefectLibrary generate(const RcNetwork& nominal,
                                const DefectConfig& config,
                                const util::ParallelConfig& parallel = {});

  /// Wraps an explicit defect list (e.g. reloaded from CSV) as a library.
  /// The defects are taken as-is; a width that does not match the target
  /// bus surfaces at apply() time, where the campaign quarantines it.
  static DefectLibrary from_defects(const DefectConfig& config,
                                    std::vector<Defect> defects);

  const std::vector<Defect>& defects() const { return defects_; }
  std::size_t size() const { return defects_.size(); }
  const Defect& operator[](std::size_t i) const { return defects_[i]; }

  const DefectConfig& config() const { return config_; }
  /// Candidates drawn, including rejected (benign) ones.
  std::size_t attempts() const { return attempts_; }

  /// Histogram: for each wire, how many library defects make it defective.
  std::vector<std::size_t> defective_wire_histogram(
      const RcNetwork& nominal) const;

 private:
  DefectLibrary(DefectConfig config, std::vector<Defect> defects,
                std::size_t attempts)
      : config_(config), defects_(std::move(defects)), attempts_(attempts) {}

  DefectConfig config_;
  std::vector<Defect> defects_;
  std::size_t attempts_ = 0;
};

}  // namespace xtest::xtalk
