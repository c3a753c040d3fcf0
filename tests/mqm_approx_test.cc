#include "pufferfish/mqm_approx.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "pufferfish/markov_quilt_mechanism.h"
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

// ------------------------------------------------------- reference scan --

// Algorithm 4 spelled out over the materialized Lemma 4.6 family: every
// quilt of ChainQuiltFamily is bounded with ChainQuiltInfluenceBound and
// scored with QuiltScoreFromInfluence. The trivial quilt is the incumbent;
// a quilt replaces the incumbent only with a strictly smaller score, in
// family order.
QuiltScore ReferenceScoreNode(const ChainClassSummary& s, std::size_t length,
                              int node, double epsilon,
                              std::size_t max_nearby) {
  QuiltScore best;
  best.quilt = TrivialQuilt(node, length);
  best.score = static_cast<double>(length) / epsilon;
  for (const MarkovQuilt& q : ChainQuiltFamily(length, node, max_nearby)) {
    if (q.IsTrivial()) continue;
    const double e = ChainQuiltInfluenceBound(s, q).ValueOrDie();
    const double score = QuiltScoreFromInfluence(q.NearbyCount(), epsilon, e);
    if (score < best.score) {
      best.score = score;
      best.influence = e;
      best.quilt = q;
    }
  }
  return best;
}

// The Lemma 4.9 rule on top of ReferenceScoreNode: the middle node alone
// when its optimum is two-sided or trivial, otherwise every node with the
// first strict maximum winning.
ChainMqmResult ReferenceAnalyze(const ChainClassSummary& s, std::size_t length,
                                const ChainMqmOptions& options) {
  const double eps = options.epsilon;
  std::size_t width = options.max_nearby;
  if (width == 0) width = 4 * LemmaFourNineAStar(s, eps).ValueOrDie();
  ChainMqmResult r;
  auto take = [&r](const QuiltScore& q, int node) {
    r.sigma_max = q.score;
    r.worst_node = node;
    r.active_quilt = q.quilt;
    r.influence = q.influence;
  };
  if (options.allow_stationary_shortcut && length >= 3) {
    const int mid = static_cast<int>(length / 2);
    const QuiltScore m = ReferenceScoreNode(s, length, mid, eps, width);
    if (m.quilt.quilt.size() == 2 || m.quilt.IsTrivial()) {
      take(m, mid);
      r.used_stationary_shortcut = true;
      return r;
    }
  }
  r.sigma_max = -std::numeric_limits<double>::infinity();
  for (int i = 0; i < static_cast<int>(length); ++i) {
    const QuiltScore q = ReferenceScoreNode(s, length, i, eps, width);
    if (q.score > r.sigma_max) take(q, i);
  }
  return r;
}

::testing::AssertionResult SameResult(const ChainMqmResult& got,
                                      const ChainMqmResult& want) {
  if (got.sigma_max == want.sigma_max && got.worst_node == want.worst_node &&
      got.influence == want.influence &&
      got.used_stationary_shortcut == want.used_stationary_shortcut &&
      got.active_quilt.target == want.active_quilt.target &&
      got.active_quilt.quilt == want.active_quilt.quilt &&
      got.active_quilt.nearby_count == want.active_quilt.nearby_count) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "got sigma " << got.sigma_max << " node " << got.worst_node
         << " influence " << got.influence << " shortcut "
         << got.used_stationary_shortcut << " "
         << got.active_quilt.ToString() << "; want sigma " << want.sigma_max
         << " node " << want.worst_node << " influence " << want.influence
         << " shortcut " << want.used_stationary_shortcut << " "
         << want.active_quilt.ToString();
}

TEST(MqmApproxTest, BitIdenticalToMaterializedFamilyReference) {
  // (pi_min, g): Theta1; a slow mixer; the electricity summary; a fast
  // mixer; and a chain so slow that most side bounds are infinite. Short
  // lengths sit below 8 a*, where one-sided optima force the full scan.
  const ChainClassSummary summaries[] = {
      {0.2, 1.0, true},
      {0.05, 0.3, false},
      {2.3e-4, 0.171, true},
      {0.5, 2.0, true},
      {0.3, 0.02, true},
  };
  int cases = 0;
  auto check = [&cases](const ChainClassSummary& s, double eps,
                        std::size_t length, std::size_t width) {
    for (bool shortcut : {true, false}) {
      ChainMqmOptions options;
      options.epsilon = eps;
      options.max_nearby = width;
      options.allow_stationary_shortcut = shortcut;
      const ChainMqmResult got =
          MqmApproxAnalyze(s, length, options).ValueOrDie();
      EXPECT_TRUE(SameResult(got, ReferenceAnalyze(s, length, options)))
          << "pi_min " << s.pi_min << " g " << s.eigengap << " eps " << eps
          << " T " << length << " width " << width << " shortcut "
          << shortcut;
      ++cases;
    }
  };
  // The reference scans O(T * min(T, width)^2) quilts with the shortcut
  // off, so the full grid stops at T = 128 and longer chains take one
  // epsilon and fewer widths.
  for (const ChainClassSummary& s : summaries) {
    for (double eps : {0.2, 1.0, 3.0}) {
      for (std::size_t length : {3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 16, 21, 32,
                                 50, 64, 100, 128}) {
        for (std::size_t width : {0, 3, 17, 90}) check(s, eps, length, width);
      }
    }
    check(s, 1.0, 257, 0);
    for (std::size_t length : {200, 400}) {
      for (std::size_t width : {17, 90}) check(s, 1.0, length, width);
    }
  }
  EXPECT_EQ(cases, 5 * (3 * 17 * 4 + 1 + 2 * 2) * 2);
}

TEST(MqmApproxTest, ShortcutOffScanIsIndependentOfLength) {
  // One node per boundary class: at T = 10^6 the full scan scores about
  // 2 * 4a* + 1 nodes and lands on the shortcut's sigma bit for bit.
  const ChainClassSummary electricity{2.3e-4, 0.171, true};
  ChainMqmOptions on;
  on.epsilon = 1.0;
  on.max_nearby = 0;
  ChainMqmOptions off = on;
  off.allow_stationary_shortcut = false;
  const std::size_t length = 1000000;
  const ChainMqmResult fast =
      MqmApproxAnalyze(electricity, length, on).ValueOrDie();
  const ChainMqmResult scan =
      MqmApproxAnalyze(electricity, length, off).ValueOrDie();
  EXPECT_TRUE(fast.used_stationary_shortcut);
  EXPECT_FALSE(scan.used_stationary_shortcut);
  EXPECT_EQ(scan.sigma_max, fast.sigma_max);
  EXPECT_EQ(scan.influence, fast.influence);
  EXPECT_EQ(ChainQuiltOffsets(scan.active_quilt),
            ChainQuiltOffsets(fast.active_quilt));
  EXPECT_EQ(scan.active_quilt.nearby_count, fast.active_quilt.nearby_count);
}

TEST(MqmApproxTest, AStarSaturatesInsteadOfOverflowing) {
  const ChainClassSummary s = Theta1Summary();
  // exp(eps/6) rounds to 1: the ratio is +inf.
  EXPECT_EQ(LemmaFourNineAStar(s, 1e-17).ValueOrDie(), kMaxAStar);
  // A vanishing gap.
  EXPECT_EQ(LemmaFourNineAStar({0.5, 1e-300, true}, 1.0).ValueOrDie(),
            kMaxAStar);
  // exp(eps/6) overflows: the ratio takes its limit 1, so
  // a* = 2 ceil(log(1 / 0.2) / 1) = 4.
  EXPECT_EQ(LemmaFourNineAStar(s, 5000.0).ValueOrDie(), 4u);
  EXPECT_EQ(LemmaFourNineAStar(s, 1e300).ValueOrDie(), 4u);
}

TEST(MqmApproxTest, ExtremeWidthsEqualTheWidthCappedAtTMinusOne) {
  // A width of T-1 already admits every quilt, so the saturated automatic
  // width and an explicit width past INT_MAX both score as T-1 does.
  const std::size_t length = 2000;
  ChainMqmOptions capped;
  capped.max_nearby = length - 1;
  for (double eps : {1e-17, 1.0}) {
    capped.epsilon = eps;
    const ChainMqmResult want =
        MqmApproxAnalyze(Theta1Summary(), length, capped).ValueOrDie();
    ChainMqmOptions wide = capped;
    wide.max_nearby = std::numeric_limits<std::size_t>::max();
    EXPECT_TRUE(SameResult(
        MqmApproxAnalyze(Theta1Summary(), length, wide).ValueOrDie(), want))
        << "eps " << eps;
    if (eps == 1e-17) {
      wide.max_nearby = 0;  // Saturated a*.
      EXPECT_TRUE(SameResult(
          MqmApproxAnalyze(Theta1Summary(), length, wide).ValueOrDie(), want));
      EXPECT_LT(want.sigma_max, static_cast<double>(length) / eps);
    }
  }
  // epsilon = 5000: the auto width is the finite 4 a* = 16.
  ChainMqmOptions huge_eps;
  huge_eps.epsilon = 5000.0;
  huge_eps.max_nearby = 0;
  ChainMqmOptions sixteen = huge_eps;
  sixteen.max_nearby = 16;
  EXPECT_TRUE(SameResult(
      MqmApproxAnalyze(Theta1Summary(), length, huge_eps).ValueOrDie(),
      MqmApproxAnalyze(Theta1Summary(), length, sixteen).ValueOrDie()));
  // g = 1e-9: 4 a* is past INT_MAX. No side bound is finite within T nodes,
  // so the trivial quilt serves.
  ChainMqmOptions auto_width;
  auto_width.epsilon = 1.0;
  auto_width.max_nearby = 0;
  const ChainMqmResult slow =
      MqmApproxAnalyze({0.5, 1e-9, true}, 1000000, auto_width).ValueOrDie();
  EXPECT_EQ(slow.sigma_max, 1e6);
  EXPECT_TRUE(slow.active_quilt.IsTrivial());
  EXPECT_TRUE(slow.used_stationary_shortcut);
}

TEST(MqmApproxTest, SummaryRejectsPeriodicChains) {
  const MarkovChain cycle =
      MarkovChain::Make({0.5, 0.5}, Matrix{{0.0, 1.0}, {1.0, 0.0}}).ValueOrDie();
  EXPECT_FALSE(SummarizeChainClass({cycle}).ok());
}

}  // namespace
}  // namespace pf
