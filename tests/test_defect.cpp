#include "xtalk/defect.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <random>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "sim/campaign.h"
#include "soc/system.h"
#include "spec/scenario.h"
#include "xtalk/error_model.h"

namespace xtest::xtalk {
namespace {

RcNetwork nominal12() {
  BusGeometry g;
  g.width = 12;
  return RcNetwork(g);
}

DefectConfig config_for(const RcNetwork& nom, std::size_t count = 50,
                        std::uint64_t seed = 99) {
  DefectConfig dc;
  dc.cth_fF = recommended_cth(nom, 1.6);
  dc.count = count;
  dc.seed = seed;
  return dc;
}

TEST(Defect, TriangularIndexingConsistent) {
  const unsigned w = 5;
  std::vector<double> factors(w * (w - 1) / 2);
  for (std::size_t i = 0; i < factors.size(); ++i)
    factors[i] = 1.0 + 0.01 * static_cast<double>(i);
  const Defect d(w, factors);
  // factor(i,j) == factor(j,i) and all entries distinct by construction.
  std::set<double> seen;
  for (unsigned i = 0; i < w; ++i)
    for (unsigned j = i + 1; j < w; ++j) {
      EXPECT_DOUBLE_EQ(d.factor(i, j), d.factor(j, i));
      seen.insert(d.factor(i, j));
    }
  EXPECT_EQ(seen.size(), factors.size());
}

TEST(Defect, ApplyScalesCouplings) {
  const RcNetwork nom = nominal12();
  std::vector<double> factors(12 * 11 / 2, 1.0);
  Defect d(12, factors);
  const RcNetwork same = d.apply(nom);
  for (unsigned i = 0; i < 12; ++i)
    EXPECT_DOUBLE_EQ(same.net_coupling(i), nom.net_coupling(i));

  factors[0] = 2.5;  // pair (0,1)
  const RcNetwork scaled = Defect(12, factors).apply(nom);
  EXPECT_DOUBLE_EQ(scaled.coupling(0, 1), 2.5 * nom.coupling(0, 1));
  EXPECT_DOUBLE_EQ(scaled.coupling(0, 2), nom.coupling(0, 2));
}

TEST(Defect, NetCouplingHelperMatchesTheAppliedNetworkBitwise) {
  const RcNetwork nom = nominal12();
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> factor(0.0, 3.0);
  std::vector<double> net(12);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> factors(12 * 11 / 2);
    for (double& f : factors) f = trial % 7 == 0 ? 0.0 : factor(rng);
    const RcNetwork applied = Defect(12, factors).apply(nom);
    perturbed_net_coupling(nom, factors.data(), net.data());
    for (unsigned i = 0; i < 12; ++i) {
      const double want = applied.net_coupling(i);
      EXPECT_EQ(std::memcmp(&net[i], &want, sizeof want), 0)
          << "trial " << trial << " wire " << i;
    }
  }
}

// The library's Cth test (CouplingRows) against the network a defect
// really builds, on the paper system's three buses: per-wire sums bitwise
// equal, and the accept/reject decision exact at its edge -- Cth equal to
// the candidate's largest net coupling rejects it, one ULP below accepts.
TEST(CouplingRows, CthTestMatchesTheAppliedNetworkBitwiseOnEveryBus) {
  const soc::System system;
  std::mt19937_64 rng(20010618);
  std::normal_distribution<double> variation(0.0, 0.5);
  for (const RcNetwork* nom :
       {&system.nominal_address_network(), &system.nominal_data_network(),
        &system.nominal_control_network()}) {
    const unsigned w = nom->width();
    const CouplingRows rows(*nom);
    ASSERT_EQ(rows.width(), w);
    for (int trial = 0; trial < 300; ++trial) {
      std::vector<double> factors(static_cast<std::size_t>(w) * (w - 1) / 2);
      for (double& f : factors) f = std::max(0.0, 1.0 + variation(rng));
      const Defect defect(w, factors);
      const RcNetwork applied = defect.apply(*nom);
      double best = 0.0;
      std::vector<unsigned> at_best;
      for (unsigned i = 0; i < w; ++i) {
        const double want = applied.net_coupling(i);
        const double got = rows.net_coupling(i, factors.data());
        EXPECT_EQ(std::memcmp(&got, &want, sizeof want), 0)
            << "width " << w << " trial " << trial << " wire " << i;
        if (want > best) at_best.clear();
        if (want >= best) at_best.push_back(i);
        best = std::max(best, want);
      }
      ASSERT_GT(best, 0.0);
      const double below = std::nextafter(best, 0.0);
      EXPECT_FALSE(rows.any_exceeds(factors.data(), best))
          << "width " << w << " trial " << trial;
      EXPECT_TRUE(rows.any_exceeds(factors.data(), below))
          << "width " << w << " trial " << trial;
      EXPECT_TRUE(defect.defective_wires(*nom, best).empty());
      EXPECT_EQ(defect.defective_wires(*nom, below), at_best);
    }
  }
}

TEST(Defect, DefectiveWiresRejectsAWidthMismatch) {
  const Defect d(5, std::vector<double>(10, 1.0));
  EXPECT_THROW(d.defective_wires(nominal12(), 1.0), std::invalid_argument);
}

TEST(Defect, DefectiveWiresUsesCth) {
  const RcNetwork nom = nominal12();
  const double cth = recommended_cth(nom, 1.6);
  std::vector<double> factors(12 * 11 / 2, 1.0);
  factors[0] = 10.0;  // blow up pair (0,1)
  const Defect d(12, factors);
  const auto bad = d.defective_wires(nom, cth);
  // Both endpoints of the blown-up pair cross the threshold.
  EXPECT_EQ(bad, (std::vector<unsigned>{0, 1}));
}

TEST(DefectLibrary, GeneratesRequestedCount) {
  const RcNetwork nom = nominal12();
  const DefectLibrary lib = DefectLibrary::generate(nom, config_for(nom));
  EXPECT_EQ(lib.size(), 50u);
  EXPECT_GE(lib.attempts(), lib.size());
}

TEST(DefectLibrary, EveryDefectExceedsCthSomewhere) {
  // The acceptance criterion of Fig. 10: candidates below Cth are benign
  // and discarded.
  const RcNetwork nom = nominal12();
  const DefectConfig dc = config_for(nom);
  const DefectLibrary lib = DefectLibrary::generate(nom, dc);
  for (const Defect& d : lib.defects()) {
    EXPECT_GT(d.apply(nom).max_net_coupling(), dc.cth_fF);
    EXPECT_FALSE(d.defective_wires(nom, dc.cth_fF).empty());
  }
}

TEST(DefectLibrary, DeterministicBySeed) {
  const RcNetwork nom = nominal12();
  const DefectLibrary a = DefectLibrary::generate(nom, config_for(nom, 20, 5));
  const DefectLibrary b = DefectLibrary::generate(nom, config_for(nom, 20, 5));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k)
    for (unsigned i = 0; i < 12; ++i)
      for (unsigned j = i + 1; j < 12; ++j)
        EXPECT_DOUBLE_EQ(a[k].factor(i, j), b[k].factor(i, j));
}

TEST(DefectLibrary, DifferentSeedsDiffer) {
  const RcNetwork nom = nominal12();
  const DefectLibrary a = DefectLibrary::generate(nom, config_for(nom, 5, 1));
  const DefectLibrary b = DefectLibrary::generate(nom, config_for(nom, 5, 2));
  EXPECT_NE(a[0].factor(0, 1), b[0].factor(0, 1));
}

TEST(DefectLibrary, OutermostWiresNeverDefective) {
  // The geometric fact behind Fig. 11's zero-coverage side lines: the
  // outermost wires' nominal net coupling is so much smaller that the
  // 3-sigma=150% distribution cannot push them over Cth.
  const RcNetwork nom = nominal12();
  const DefectLibrary lib =
      DefectLibrary::generate(nom, config_for(nom, 200, 7));
  const auto hist = lib.defective_wire_histogram(nom);
  EXPECT_EQ(hist.front(), 0u);
  EXPECT_EQ(hist.back(), 0u);
  // And the center dominates the edges.
  EXPECT_GT(hist[5] + hist[6], hist[1] + hist[10]);
}

TEST(DefectLibrary, FactorsNonNegative) {
  const RcNetwork nom = nominal12();
  const DefectLibrary lib = DefectLibrary::generate(nom, config_for(nom));
  for (const Defect& d : lib.defects())
    for (unsigned i = 0; i < 12; ++i)
      for (unsigned j = i + 1; j < 12; ++j)
        EXPECT_GE(d.factor(i, j), 0.0);
}

TEST(DefectLibrary, RejectsNonPositiveCth) {
  const RcNetwork nom = nominal12();
  DefectConfig dc;
  dc.cth_fF = 0.0;
  EXPECT_THROW(DefectLibrary::generate(nom, dc), std::invalid_argument);
}

TEST(DefectLibrary, ThrowsWhenYieldTooLow) {
  const RcNetwork nom = nominal12();
  DefectConfig dc = config_for(nom, 10);
  dc.cth_fF = 100.0 * nom.max_net_coupling();  // unreachable threshold
  dc.max_attempts = 2000;
  EXPECT_THROW(DefectLibrary::generate(nom, dc), std::runtime_error);
}

TEST(DefectLibrary, DetectableExactlyWhenAboveCth) {
  // Ties the library to the error model: a defect is detectable by some MA
  // test iff a wire's net coupling exceeds Cth (the ICCAD'99 criterion our
  // calibration enforces).
  const RcNetwork nom = nominal12();
  const double cth = recommended_cth(nom, 1.6);
  const CrosstalkErrorModel model(ErrorModelConfig::calibrated(nom, cth));
  const DefectLibrary lib = DefectLibrary::generate(nom, config_for(nom, 30));
  for (const Defect& d : lib.defects()) {
    const RcNetwork net = d.apply(nom);
    bool any = false;
    for (const MafFault& f : enumerate_mafs(12, false))
      any = any || model.corrupts(net, ma_test(12, f));
    EXPECT_TRUE(any);
  }
}

// ---------------------------------------------------------------------------
// Library pins.  Each records an FNV-1a hash over the bit pattern of every
// factor plus the attempt count, taken from the serial generator that drew
// each candidate in turn with util::Rng::gaussian.  Generation on threads
// must reproduce them exactly at every thread count (3 gives uneven
// shares): a change to the draw order, the Cth test's summation order or
// the acceptance order shows up here.

std::uint64_t fnv_fold(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xFFu;
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint64_t library_hash(const DefectLibrary& lib) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const Defect& d : lib.defects())
    for (unsigned i = 0; i < d.width(); ++i)
      for (unsigned j = i + 1; j < d.width(); ++j) {
        const double f = d.factor(i, j);
        std::uint64_t bits = 0;
        std::memcpy(&bits, &f, sizeof bits);
        h = fnv_fold(h, bits);
      }
  return fnv_fold(h, lib.attempts());
}

struct LibraryPin {
  std::string label;
  std::string scenario;
  soc::BusKind bus;
  std::size_t count;
  std::size_t attempts;
  std::uint64_t hash;
};

constexpr soc::BusKind kAddr = soc::BusKind::kAddress;

const std::vector<LibraryPin>& library_pins() {
  static const std::vector<LibraryPin> pins = {
      {"paper_baseline", "paper-baseline", kAddr, 200, 4389,
       0x332BF0C9542C316Aull},
      {"wide_bus_32", "wide-bus-32", kAddr, 200, 4389, 0x332BF0C9542C316Aull},
      {"slow_tester", "slow-tester", kAddr, 200, 4389, 0x332BF0C9542C316Aull},
      {"control_bus", "control-bus", soc::BusKind::kControl, 200, 4355,
       0x61BEEF716AD3A506ull},
      {"bist_compare", "bist-compare", kAddr, 500, 10802,
       0x4E2FFACF56D86921ull},
      {"stress_1k_defects", "stress-1k-defects", kAddr, 1000, 21028,
       0xD1183FDFB803A214ull},
      {"online_baseline", "online-baseline", kAddr, 64, 1526,
       0xE6874C01D491DC9Aull},
      {"low_swing_bus", "low-swing-bus", kAddr, 200, 4389,
       0x332BF0C9542C316Aull},
      {"stress_8000", "stress-1k-defects", kAddr, 8000, 165430,
       0xF26CB7A155ADF0AEull},
      {"data_bus_3000", "paper-baseline", soc::BusKind::kData, 3000, 73152,
       0x6BCAFAF497642DEDull},
  };
  return pins;
}

void PrintTo(const LibraryPin& pin, std::ostream* os) { *os << pin.label; }

class LibraryPinTest : public ::testing::TestWithParam<LibraryPin> {};

TEST_P(LibraryPinTest, SameLibraryAndAttemptsAtEveryThreadCount) {
  const LibraryPin& pin = GetParam();
  const spec::ScenarioSpec s = spec::builtin_scenario(pin.scenario);
  for (const unsigned threads : {1u, 2u, 3u, 4u}) {
    const DefectLibrary lib = sim::make_defect_library(
        s.system, pin.bus, pin.count, s.seed, s.sigma_pct, {threads});
    ASSERT_EQ(lib.size(), pin.count) << "threads=" << threads;
    EXPECT_EQ(lib.attempts(), pin.attempts) << "threads=" << threads;
    EXPECT_EQ(library_hash(lib), pin.hash) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pins, LibraryPinTest, ::testing::ValuesIn(library_pins()),
    [](const ::testing::TestParamInfo<LibraryPin>& info) {
      return info.param.label;
    });

TEST(LibraryPins, EveryBuiltinIsPinnedAtItsOwnBusAndCount) {
  for (const std::string& name : spec::builtin_scenario_names()) {
    const spec::ScenarioSpec s = spec::builtin_scenario(name);
    bool pinned = false;
    for (const LibraryPin& pin : library_pins())
      pinned = pinned || (pin.scenario == name && pin.bus == s.bus &&
                          pin.count == s.defect_count);
    EXPECT_TRUE(pinned) << name;
  }
}

TEST(LibraryPins, MaxAttemptsBoundaryIsTheSameAtEveryThreadCount) {
  // paper-baseline accepts its 200th defect at exactly attempt 4389:
  // that budget suffices, one less throws, at any thread count.
  const LibraryPin& pin = library_pins().front();
  const spec::ScenarioSpec s = spec::builtin_scenario(pin.scenario);
  const soc::System system(s.system);
  DefectConfig dc;
  dc.sigma_pct = s.sigma_pct;
  dc.cth_fF = system.address_cth();
  dc.count = pin.count;
  dc.seed = s.seed;
  for (const unsigned threads : {1u, 2u, 3u, 4u}) {
    dc.max_attempts = pin.attempts;
    const DefectLibrary lib = DefectLibrary::generate(
        system.nominal_address_network(), dc, {threads});
    EXPECT_EQ(library_hash(lib), pin.hash) << "threads=" << threads;
    dc.max_attempts = pin.attempts - 1;
    EXPECT_THROW(DefectLibrary::generate(system.nominal_address_network(), dc,
                                         {threads}),
                 std::runtime_error)
        << "threads=" << threads;
  }
}

TEST(LibraryPins, ZeroCountDrawsNothing) {
  const RcNetwork nom = nominal12();
  DefectConfig dc = config_for(nom, 0);
  dc.max_attempts = 0;
  for (const unsigned threads : {1u, 4u}) {
    const DefectLibrary lib = DefectLibrary::generate(nom, dc, {threads});
    EXPECT_EQ(lib.size(), 0u);
    EXPECT_EQ(lib.attempts(), 0u);
  }
}

}  // namespace
}  // namespace xtest::xtalk
