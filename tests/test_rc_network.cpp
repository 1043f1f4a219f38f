#include "xtalk/rc_network.h"

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

namespace xtest::xtalk {
namespace {

BusGeometry geo(unsigned width) {
  BusGeometry g;
  g.width = width;
  return g;
}

TEST(RcNetwork, NominalCouplingFromGeometry) {
  const BusGeometry g = geo(8);
  const RcNetwork net(g);
  const double c1 = g.coupling_fF_per_um * g.wire_length_um;
  EXPECT_DOUBLE_EQ(net.coupling(0, 1), c1);
  EXPECT_DOUBLE_EQ(net.coupling(3, 4), c1);
  // 1/d^2 decay.
  EXPECT_DOUBLE_EQ(net.coupling(0, 2), c1 / 4.0);
  EXPECT_DOUBLE_EQ(net.coupling(0, 4), c1 / 16.0);
}

TEST(RcNetwork, CouplingIsSymmetricWithZeroDiagonal) {
  const RcNetwork net(geo(12));
  for (unsigned i = 0; i < 12; ++i) {
    EXPECT_EQ(net.coupling(i, i), 0.0);
    for (unsigned j = 0; j < 12; ++j)
      EXPECT_DOUBLE_EQ(net.coupling(i, j), net.coupling(j, i));
  }
}

TEST(RcNetwork, GroundCapUniform) {
  const BusGeometry g = geo(8);
  const RcNetwork net(g);
  for (unsigned i = 0; i < 8; ++i)
    EXPECT_DOUBLE_EQ(net.ground_cap(i),
                     g.ground_fF_per_um * g.wire_length_um);
}

TEST(RcNetwork, NetCouplingPeaksAtCenterWires) {
  // The root cause of Fig. 11's shape: center wires have more neighbours,
  // hence more net coupling, hence a higher chance of becoming defective.
  const RcNetwork net(geo(12));
  const double edge = net.net_coupling(0);
  const double second = net.net_coupling(1);
  const double center = net.net_coupling(5);
  EXPECT_LT(edge, second);
  EXPECT_LT(second, center);
  EXPECT_DOUBLE_EQ(net.max_net_coupling(), net.net_coupling(5));
  // Symmetry.
  EXPECT_DOUBLE_EQ(net.net_coupling(0), net.net_coupling(11));
  EXPECT_DOUBLE_EQ(net.net_coupling(1), net.net_coupling(10));
}

TEST(RcNetwork, ScaleCouplingAffectsBothWires) {
  RcNetwork net(geo(8));
  const double before3 = net.net_coupling(3);
  const double before4 = net.net_coupling(4);
  const double c34 = net.coupling(3, 4);
  net.scale_coupling(3, 4, 2.0);
  EXPECT_DOUBLE_EQ(net.coupling(3, 4), 2.0 * c34);
  EXPECT_DOUBLE_EQ(net.coupling(4, 3), 2.0 * c34);
  EXPECT_DOUBLE_EQ(net.net_coupling(3), before3 + c34);
  EXPECT_DOUBLE_EQ(net.net_coupling(4), before4 + c34);
  // Other wires only see their own couplings to 3/4 unchanged.
  EXPECT_DOUBLE_EQ(net.net_coupling(0),
                   RcNetwork(geo(8)).net_coupling(0));
}

TEST(RcNetwork, ScaleCouplingsEqualsScalingEachPairWithOneRevisionBump) {
  // The bulk form Defect::apply uses: bitwise the per-pair products, and a
  // fresh revision so no derived-data cache mistakes it for the nominal.
  const RcNetwork nominal(geo(12));
  std::vector<double> factors;
  RcNetwork per_pair = nominal;
  for (unsigned i = 0; i < 12; ++i)
    for (unsigned j = i + 1; j < 12; ++j) {
      factors.push_back(0.25 + 0.037 * static_cast<double>(factors.size()));
      per_pair.scale_coupling(i, j, factors.back());
    }
  RcNetwork bulk = nominal;
  bulk.scale_couplings(factors.data());
  EXPECT_NE(bulk.revision(), nominal.revision());
  for (unsigned i = 0; i < 12; ++i)
    for (unsigned j = 0; j < 12; ++j) {
      const double a = bulk.coupling(i, j), b = per_pair.coupling(i, j);
      EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << i << "," << j;
    }
}

TEST(RcNetwork, SetCoupling) {
  RcNetwork net(geo(4));
  net.set_coupling(0, 3, 123.0);
  EXPECT_DOUBLE_EQ(net.coupling(3, 0), 123.0);
}

TEST(RcNetwork, LongerWiresCoupleMore) {
  BusGeometry a = geo(8);
  BusGeometry b = geo(8);
  b.wire_length_um = 2.0 * a.wire_length_um;
  EXPECT_DOUBLE_EQ(RcNetwork(b).coupling(0, 1),
                   2.0 * RcNetwork(a).coupling(0, 1));
}

TEST(RcNetwork, DecayExponentControlsFarCoupling) {
  BusGeometry g = geo(8);
  g.distance_decay_exponent = 1.0;
  const RcNetwork slow(g);
  g.distance_decay_exponent = 3.0;
  const RcNetwork fast(g);
  EXPECT_GT(slow.coupling(0, 4), fast.coupling(0, 4));
  EXPECT_DOUBLE_EQ(slow.coupling(0, 1), fast.coupling(0, 1));
}

class RcNetworkWidths : public ::testing::TestWithParam<unsigned> {};

TEST_P(RcNetworkWidths, MaxNetCouplingGrowsWithWidthThenSaturates) {
  const unsigned w = GetParam();
  const RcNetwork net(geo(w));
  // Every wire's net coupling is at most the theoretical two-sided sum.
  const double c1 = net.coupling(0, 1);
  for (unsigned i = 0; i < w; ++i) {
    EXPECT_GT(net.net_coupling(i), 0.0);
    EXPECT_LT(net.net_coupling(i), 2.0 * c1 * 1.6449341);  // 2 * zeta(2)
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, RcNetworkWidths,
                         ::testing::Values(2u, 4u, 8u, 12u, 16u, 32u, 64u));

}  // namespace
}  // namespace xtest::xtalk
