// Deterministic fault injection: spec parsing, rule semantics, and the
// determinism guarantees the chaos soak leans on.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/fault_injector.h"

namespace xtest::util {
namespace {

TEST(FaultInjector, DisarmedCountsNothingAndNeverFires) {
  FaultInjector inj;
  EXPECT_FALSE(inj.armed());
  EXPECT_FALSE(inj.fire("checkpoint.rename"));
  EXPECT_NO_THROW(inj.maybe_fail("checkpoint.rename"));
  EXPECT_EQ(inj.hits("checkpoint.rename"), 0u);
}

TEST(FaultInjector, LiteralAndStringSitesShareOneCounter) {
  FaultInjector inj;
  inj.configure("signature.capture@2");
  const char* literal = "signature.capture";
  EXPECT_NO_THROW(inj.maybe_fail(literal));
  try {
    inj.maybe_fail(std::string(literal));
    FAIL() << "the second hit must fail";
  } catch (const InjectedFault& e) {
    EXPECT_EQ(std::string(e.what()),
              "injected fault at signature.capture (hit 2)");
  }
  EXPECT_NO_THROW(inj.maybe_fail(literal));
  EXPECT_EQ(inj.hits(literal), 3u);
  EXPECT_EQ(inj.fired(literal), 1u);
}

TEST(FaultInjector, AlwaysRuleFiresEveryHitOfItsSiteOnly) {
  FaultInjector inj;
  inj.configure("checkpoint.rename");
  EXPECT_TRUE(inj.armed());
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(inj.fire("checkpoint.rename"));
  EXPECT_FALSE(inj.fire("checkpoint.fsync"));
  EXPECT_EQ(inj.hits("checkpoint.rename"), 3u);
  EXPECT_EQ(inj.fired("checkpoint.rename"), 3u);
  // Unmatched sites are still counted while armed: the summary shows
  // which sites a run actually crossed.
  EXPECT_EQ(inj.hits("checkpoint.fsync"), 1u);
  EXPECT_EQ(inj.fired("checkpoint.fsync"), 0u);
}

TEST(FaultInjector, NthRuleFiresExactlyTheNthHitOnce) {
  FaultInjector inj;
  inj.configure("parallel.item@3");
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) fired.push_back(inj.fire("parallel.item"));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false,
                                      false}));
  EXPECT_EQ(inj.fired("parallel.item"), 1u);
}

TEST(FaultInjector, MaybeFailThrowsInjectedFaultNamingSiteAndHit) {
  FaultInjector inj;
  inj.configure("serialize.image@2");
  EXPECT_NO_THROW(inj.maybe_fail("serialize.image"));
  try {
    inj.maybe_fail("serialize.image");
    FAIL() << "expected InjectedFault";
  } catch (const InjectedFault& e) {
    EXPECT_NE(std::string(e.what()).find("serialize.image"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("hit 2"), std::string::npos);
  }
}

TEST(FaultInjector, ProbabilisticRuleIsAPureFunctionOfSeedSiteHit) {
  // Same seed -> identical fire pattern, run after run.
  const auto pattern = [](std::uint64_t seed) {
    FaultInjector inj;
    inj.configure("parallel.item%0.3:" + std::to_string(seed));
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) fired.push_back(inj.fire("parallel.item"));
    return fired;
  };
  const std::vector<bool> a = pattern(42);
  EXPECT_EQ(a, pattern(42));
  EXPECT_NE(a, pattern(43));

  // p=0.3 over 200 hits: the exact count is seed-dependent but must be
  // nowhere near 0 or 200.
  std::size_t fires = 0;
  for (const bool f : a) fires += f;
  EXPECT_GT(fires, 20u);
  EXPECT_LT(fires, 120u);
}

TEST(FaultInjector, ProbabilisticDecisionsIgnoreOtherSitesInterleaving) {
  // The chaos soak depends on this: which hits of a site fail must not
  // depend on how many times *other* sites were hit in between (thread
  // interleaving reorders sites freely).
  const auto pattern = [](bool interleave) {
    FaultInjector inj;
    inj.configure("checkpoint.fsync%0.5:7");
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      if (interleave)
        for (int j = 0; j < 3; ++j) inj.fire("checkpoint.rename");
      fired.push_back(inj.fire("checkpoint.fsync"));
    }
    return fired;
  };
  EXPECT_EQ(pattern(false), pattern(true));
}

TEST(FaultInjector, TrailingStarMatchesAnySiteWithThatPrefix) {
  FaultInjector inj;
  inj.configure("checkpoint.*@1");
  EXPECT_TRUE(inj.fire("checkpoint.rename"));
  EXPECT_TRUE(inj.fire("checkpoint.fsync"));  // per-site hit counters
  EXPECT_FALSE(inj.fire("parallel.item"));
  // An exact rule wins over a prefix rule.
  inj.configure("checkpoint.*,checkpoint.fsync@2");
  EXPECT_FALSE(inj.fire("checkpoint.fsync"));
  EXPECT_TRUE(inj.fire("checkpoint.fsync"));
  EXPECT_TRUE(inj.fire("checkpoint.rename"));
}

TEST(FaultInjector, ConfigureResetsCountersAndEmptySpecDisarms) {
  FaultInjector inj;
  inj.configure("a.site");
  inj.fire("a.site");
  inj.configure("a.site@2");
  EXPECT_EQ(inj.hits("a.site"), 0u);  // counters reset
  EXPECT_FALSE(inj.fire("a.site"));   // hit 1 of the new rule
  EXPECT_TRUE(inj.fire("a.site"));
  inj.configure("");
  EXPECT_FALSE(inj.armed());
  inj.configure("a.site");
  inj.disarm();
  EXPECT_FALSE(inj.armed());
  EXPECT_FALSE(inj.fire("a.site"));
}

TEST(FaultInjector, MalformedSpecsThrowAndLeaveInjectorUsable) {
  FaultInjector inj;
  for (const char* bad :
       {"site@0", "site@x", "site@", "site%1.5", "site%-0.1", "site%x",
        "site%", "site@1%0.5", "@3", "%0.5", "a.site:notanumber"}) {
    EXPECT_THROW(inj.configure(bad), std::invalid_argument) << bad;
  }
  // A failed configure must not leave a half-armed injector.
  inj.configure("good.site@1");
  EXPECT_TRUE(inj.fire("good.site"));
}

TEST(FaultInjector, SummaryListsEveryTrackedSite) {
  FaultInjector inj;
  inj.configure("a.one@1");
  inj.fire("a.one");
  inj.fire("b.two");
  const std::string s = inj.summary();
  EXPECT_NE(s.find("a.one hits=1 fired=1"), std::string::npos) << s;
  EXPECT_NE(s.find("b.two hits=1 fired=0"), std::string::npos) << s;
}

}  // namespace
}  // namespace xtest::util
