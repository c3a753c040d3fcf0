#include "pufferfish/mqm_approx.h"

#include <gtest/gtest.h>

#include <cmath>

#include "pufferfish/mqm_exact.h"

namespace pf {
namespace {

MarkovChain Theta1() {
  return MarkovChain::Make({0.8, 0.2}, Matrix{{0.9, 0.1}, {0.4, 0.6}})
      .ValueOrDie();
}

ChainClassSummary Theta1Summary() {
  // pi = (0.8, 0.2), reversible, second eigenvalue 0.5 -> g = 2 * 0.5 = 1.
  ChainClassSummary s;
  s.pi_min = 0.2;
  s.eigengap = 1.0;
  s.all_reversible = true;
  return s;
}

TEST(MqmApproxTest, SummaryFromChainsMatchesHandValues) {
  const ChainClassSummary s = SummarizeChainClass({Theta1()}).ValueOrDie();
  EXPECT_NEAR(s.pi_min, 0.2, 1e-9);
  EXPECT_NEAR(s.eigengap, 1.0, 1e-7);
  EXPECT_TRUE(s.all_reversible);
}

TEST(MqmApproxTest, InfluenceBoundFormula) {
  const ChainClassSummary s = Theta1Summary();
  // Two-sided quilt with a = b = 6: Delta = exp(-3)/0.2 = 0.2489.
  const MarkovQuilt q = ChainQuilt(100, 50, 6, 6).ValueOrDie();
  const double delta = std::exp(-3.0) / 0.2;
  const double expected = std::log((1 + delta) / (1 - delta)) * 3.0;
  EXPECT_NEAR(ChainQuiltInfluenceBound(s, q).ValueOrDie(), expected, 1e-9);
}

TEST(MqmApproxTest, InfluenceBoundSidesWeightedCorrectly) {
  const ChainClassSummary s = Theta1Summary();
  const double left =
      ChainQuiltInfluenceBound(s, ChainQuilt(100, 50, 8, 0).ValueOrDie())
          .ValueOrDie();
  const double right =
      ChainQuiltInfluenceBound(s, ChainQuilt(100, 50, 0, 8).ValueOrDie())
          .ValueOrDie();
  // The past side carries the doubled factor (Lemma C.1): left = 2 * right.
  EXPECT_NEAR(left, 2.0 * right, 1e-9);
  const double both =
      ChainQuiltInfluenceBound(s, ChainQuilt(100, 50, 8, 8).ValueOrDie())
          .ValueOrDie();
  EXPECT_NEAR(both, left + right, 1e-9);
}

TEST(MqmApproxTest, InfluenceBoundInfiniteTooClose) {
  // Delta >= 1 when t <= 2 log(1/pi_min)/g = 2 log 5 ~ 3.2.
  const ChainClassSummary s = Theta1Summary();
  const double e =
      ChainQuiltInfluenceBound(s, ChainQuilt(100, 50, 1, 1).ValueOrDie())
          .ValueOrDie();
  EXPECT_TRUE(std::isinf(e));
}

TEST(MqmApproxTest, TrivialQuiltZeroInfluence) {
  EXPECT_DOUBLE_EQ(
      ChainQuiltInfluenceBound(Theta1Summary(), TrivialQuilt(0, 10)).ValueOrDie(),
      0.0);
}

TEST(MqmApproxTest, BoundDominatesExactInfluence) {
  // The Lemma 4.8 bound must upper-bound the exact Eq. (5) influence.
  const MarkovChain theta = Theta1();
  const ChainClassSummary s = SummarizeChainClass({theta}).ValueOrDie();
  for (int a = 4; a <= 20; a += 4) {
    for (int b = 4; b <= 20; b += 4) {
      const MarkovQuilt q = ChainQuilt(100, 50, a, b).ValueOrDie();
      const double exact = ChainQuiltInfluenceExact(theta, 100, q).ValueOrDie();
      const double bound = ChainQuiltInfluenceBound(s, q).ValueOrDie();
      EXPECT_GE(bound + 1e-12, exact) << "a=" << a << " b=" << b;
    }
  }
}

TEST(MqmApproxTest, AStarFormula) {
  const ChainClassSummary s = Theta1Summary();
  const double eps = 1.0;
  const double ratio = (std::exp(eps / 6.0) + 1.0) / (std::exp(eps / 6.0) - 1.0);
  const double expected = 2.0 * std::ceil(std::log(ratio / 0.2) / 1.0);
  EXPECT_EQ(LemmaFourNineAStar(s, eps).ValueOrDie(),
            static_cast<std::size_t>(expected));
}

TEST(MqmApproxTest, LongChainUsesMiddleNodeShortcut) {
  ChainMqmOptions options;
  options.epsilon = 1.0;
  options.max_nearby = 0;  // Auto (Lemma 4.9).
  const ChainMqmResult r =
      MqmApproxAnalyze(Theta1Summary(), 5000, options).ValueOrDie();
  EXPECT_TRUE(r.used_stationary_shortcut);
  EXPECT_EQ(r.worst_node, 2500);
  EXPECT_TRUE(std::isfinite(r.sigma_max));
  EXPECT_GT(r.sigma_max, 0.0);
}

TEST(MqmApproxTest, ShortcutAgreesWithFullScan) {
  ChainMqmOptions fast;
  fast.epsilon = 1.0;
  fast.max_nearby = 0;
  ChainMqmOptions slow = fast;
  slow.allow_stationary_shortcut = false;
  const std::size_t length = 600;
  const double sigma_fast =
      MqmApproxAnalyze(Theta1Summary(), length, fast).ValueOrDie().sigma_max;
  const double sigma_slow =
      MqmApproxAnalyze(Theta1Summary(), length, slow).ValueOrDie().sigma_max;
  EXPECT_NEAR(sigma_fast, sigma_slow, 1e-9);
}

TEST(MqmApproxTest, ApproxNeverBeatsExact) {
  // MQMExact computes exact influences, so its sigma is <= MQMApprox's.
  const MarkovChain theta = Theta1();
  ChainMqmOptions options;
  options.epsilon = 1.0;
  options.max_nearby = 60;
  const double exact_sigma =
      MqmExactAnalyze({theta}, 300, options).ValueOrDie().sigma_max;
  ChainMqmOptions approx_options = options;
  approx_options.max_nearby = 0;
  const double approx_sigma =
      MqmApproxAnalyze({theta}, 300, approx_options).ValueOrDie().sigma_max;
  EXPECT_LE(exact_sigma, approx_sigma + 1e-9);
}

TEST(MqmApproxTest, SigmaDecreasesWithEpsilon) {
  ChainMqmOptions lo, hi;
  lo.epsilon = 0.2;
  hi.epsilon = 5.0;
  lo.max_nearby = hi.max_nearby = 0;
  const double sigma_lo =
      MqmApproxAnalyze(Theta1Summary(), 2000, lo).ValueOrDie().sigma_max;
  const double sigma_hi =
      MqmApproxAnalyze(Theta1Summary(), 2000, hi).ValueOrDie().sigma_max;
  EXPECT_GT(sigma_lo, sigma_hi);
}

TEST(MqmApproxTest, NoiseIndependentOfLengthForLongChains) {
  // Theorem 4.10: for long chains the scale does not grow with T.
  ChainMqmOptions options;
  options.epsilon = 1.0;
  options.max_nearby = 0;
  const double sigma_1k =
      MqmApproxAnalyze(Theta1Summary(), 1000, options).ValueOrDie().sigma_max;
  const double sigma_100k =
      MqmApproxAnalyze(Theta1Summary(), 100000, options).ValueOrDie().sigma_max;
  EXPECT_NEAR(sigma_1k, sigma_100k, 1e-9);
}

TEST(MqmApproxTest, RejectsBadSummaries) {
  ChainClassSummary bad;
  bad.pi_min = 0.0;
  bad.eigengap = 1.0;
  ChainMqmOptions options;
  options.epsilon = 1.0;
  EXPECT_FALSE(MqmApproxAnalyze(bad, 100, options).ok());
  bad.pi_min = 0.2;
  bad.eigengap = 0.0;
  EXPECT_FALSE(MqmApproxAnalyze(bad, 100, options).ok());
}

TEST(MqmApproxTest, RejectsLengthsPastTheIntLimit) {
  ChainMqmOptions options;
  options.epsilon = 1.0;
  EXPECT_EQ(MqmApproxAnalyze(Theta1Summary(), kMaxChainLength + 1, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      MqmApproxAnalyze({Theta1()}, kMaxChainLength + 1, options).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(MqmApproxTest, SummaryRejectsPeriodicChains) {
  const MarkovChain cycle =
      MarkovChain::Make({0.5, 0.5}, Matrix{{0.0, 1.0}, {1.0, 0.0}}).ValueOrDie();
  EXPECT_FALSE(SummarizeChainClass({cycle}).ok());
}

}  // namespace
}  // namespace pf
