#include "graphical/markov_chain.h"

#include <gtest/gtest.h>

#include <cmath>

namespace pf {
namespace {

// The Section 4.4 running example chains.
MarkovChain Theta1() {
  return MarkovChain::Make({1.0, 0.0}, Matrix{{0.9, 0.1}, {0.4, 0.6}})
      .ValueOrDie();
}
MarkovChain Theta2() {
  return MarkovChain::Make({0.9, 0.1}, Matrix{{0.8, 0.2}, {0.3, 0.7}})
      .ValueOrDie();
}

TEST(MarkovChainTest, ValidationRejectsBadInputs) {
  EXPECT_FALSE(MarkovChain::Make({0.5, 0.6}, Matrix::Identity(2)).ok());
  EXPECT_FALSE(MarkovChain::Make({1.0}, Matrix::Identity(2)).ok());
  EXPECT_FALSE(
      MarkovChain::Make({0.5, 0.5}, Matrix{{0.9, 0.2}, {0.5, 0.5}}).ok());
}

TEST(MarkovChainTest, MarginalEvolution) {
  const MarkovChain theta = Theta1();
  const Vector m0 = theta.MarginalAt(0);
  EXPECT_DOUBLE_EQ(m0[0], 1.0);
  const Vector m1 = theta.MarginalAt(1);
  EXPECT_NEAR(m1[0], 0.9, 1e-12);
  EXPECT_NEAR(m1[1], 0.1, 1e-12);
  const Vector m2 = theta.MarginalAt(2);
  EXPECT_NEAR(m2[0], 0.9 * 0.9 + 0.1 * 0.4, 1e-12);
}

TEST(MarkovChainTest, MarginalLongHorizonUsesPowers) {
  const MarkovChain theta = Theta1();
  const Vector m = theta.MarginalAt(200);
  // Far past mixing: stationary [0.8, 0.2].
  EXPECT_NEAR(m[0], 0.8, 1e-9);
  EXPECT_NEAR(m[1], 0.2, 1e-9);
}

// Running example: stationary distributions [0.8, 0.2] and [0.6, 0.4].
TEST(MarkovChainTest, PaperStationaryDistributions) {
  const Vector pi1 = Theta1().StationaryDistribution().ValueOrDie();
  EXPECT_NEAR(pi1[0], 0.8, 1e-10);
  EXPECT_NEAR(pi1[1], 0.2, 1e-10);
  const Vector pi2 = Theta2().StationaryDistribution().ValueOrDie();
  EXPECT_NEAR(pi2[0], 0.6, 1e-10);
  EXPECT_NEAR(pi2[1], 0.4, 1e-10);
}

// Running example: pi_min values 0.2 and 0.4.
TEST(MarkovChainTest, PaperPiMin) {
  EXPECT_NEAR(Theta1().MinStationaryProbability().ValueOrDie(), 0.2, 1e-10);
  EXPECT_NEAR(Theta2().MinStationaryProbability().ValueOrDie(), 0.4, 1e-10);
}

// Running example: both chains are reversible and their time reversal has
// the same transition matrix.
TEST(MarkovChainTest, PaperTimeReversalIsSelf) {
  for (const MarkovChain& theta : {Theta1(), Theta2()}) {
    EXPECT_TRUE(theta.IsReversible().ValueOrDie());
    const MarkovChain rev = theta.TimeReversal().ValueOrDie();
    for (std::size_t i = 0; i < 2; ++i) {
      for (std::size_t j = 0; j < 2; ++j) {
        EXPECT_NEAR(rev.transition()(i, j), theta.transition()(i, j), 1e-10);
      }
    }
  }
}

TEST(MarkovChainTest, NonReversibleThreeCycle) {
  // A biased 3-cycle is not reversible.
  Matrix p{{0.1, 0.8, 0.1}, {0.1, 0.1, 0.8}, {0.8, 0.1, 0.1}};
  const MarkovChain theta =
      MarkovChain::Make({1.0 / 3, 1.0 / 3, 1.0 / 3}, p).ValueOrDie();
  EXPECT_FALSE(theta.IsReversible().ValueOrDie());
  // Time reversal still has the same stationary distribution.
  const MarkovChain rev = theta.TimeReversal().ValueOrDie();
  const Vector pi = rev.StationaryDistribution().ValueOrDie();
  EXPECT_NEAR(pi[0], 1.0 / 3, 1e-9);
}

TEST(MarkovChainTest, IrreducibilityAndAperiodicity) {
  EXPECT_TRUE(Theta1().IsIrreducible());
  EXPECT_TRUE(Theta1().IsAperiodic());
  // Absorbing state: reducible.
  const MarkovChain absorbing =
      MarkovChain::Make({0.5, 0.5}, Matrix{{1.0, 0.0}, {0.5, 0.5}}).ValueOrDie();
  EXPECT_FALSE(absorbing.IsIrreducible());
  // Deterministic 2-cycle: irreducible but periodic.
  const MarkovChain cycle =
      MarkovChain::Make({0.5, 0.5}, Matrix{{0.0, 1.0}, {1.0, 0.0}}).ValueOrDie();
  EXPECT_TRUE(cycle.IsIrreducible());
  EXPECT_FALSE(cycle.IsAperiodic());
}

// Running example: the eigengap of P P* is 0.75 for both chains. Our
// Eigengap() uses the reversible convention of Eq. (14): since both chains
// are reversible, g = 2 (1 - |lambda_2(P)|) = 2 (1 - 0.5) = 1.0, and the
// PP* version is 1 - 0.25 = 0.75.
TEST(MarkovChainTest, PaperEigengap) {
  for (const MarkovChain& theta : {Theta1(), Theta2()}) {
    const double g = theta.Eigengap().ValueOrDie();
    EXPECT_NEAR(g, 1.0, 1e-8);  // Reversible convention (Eq. (14)).
    // Check the PP* eigengap of the running example directly: 0.75.
    const MarkovChain rev = theta.TimeReversal().ValueOrDie();
    const Matrix pp = theta.transition() * rev.transition();
    // lambda_2(PP*) = lambda_2(P)^2 = 0.25 for these chains.
    const MarkovChain pp_chain =
        MarkovChain::Make(theta.StationaryDistribution().ValueOrDie(), pp)
            .ValueOrDie();
    const double pp_gap = pp_chain.Eigengap().ValueOrDie();
    // PP* is itself reversible; halve the doubled convention back.
    EXPECT_NEAR(pp_gap / 2.0, 0.75, 1e-8);
  }
}

// Lazy two-state chain with switch probability q: eigenvalues 1 and 1 - 2q,
// so the reversible gap is 2 (2q) = 4q however slowly the chain mixes.
MarkovChain LazyChain(double q) {
  return MarkovChain::Make({0.5, 0.5}, Matrix{{1.0 - q, q}, {q, 1.0 - q}})
      .ValueOrDie();
}

TEST(MarkovChainTest, EigengapExcludesOnlyThePerronEigenvalue) {
  for (double q : {0.3, 1e-3, 1e-6}) {
    EXPECT_NEAR(LazyChain(q).Eigengap().ValueOrDie(), 4.0 * q, 4.0 * q * 1e-6)
        << "q = " << q;
  }
  // lambda_2 = 1 - 2e-10 lies within 1e-9 of 1. It is still the slowest
  // mixing component, not a second Perron eigenvalue: g = 4e-10, not 2.
  const MarkovChain slow = LazyChain(1e-10);
  ASSERT_TRUE(slow.IsIrreducible());
  ASSERT_TRUE(slow.IsAperiodic());
  EXPECT_NEAR(slow.Eigengap().ValueOrDie(), 4e-10, 4e-10 * 1e-3);
  // One state: no eigenvalue besides the Perron one; the gap stays 1
  // (doubled, the chain being reversible).
  const MarkovChain single =
      MarkovChain::Make({1.0}, Matrix{{1.0}}).ValueOrDie();
  EXPECT_EQ(single.Eigengap().ValueOrDie(), 2.0);
}

TEST(MarkovChainTest, TransitionPowerCaching) {
  const MarkovChain theta = Theta1();
  const Matrix& p3 = theta.TransitionPower(3);
  const Matrix expected = theta.transition().Power(3);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j)
      EXPECT_NEAR(p3(i, j), expected(i, j), 1e-12);
  EXPECT_TRUE(theta.TransitionPower(0) == Matrix::Identity(2));
}

TEST(MarkovChainTest, SampleRespectsDeterministicChain) {
  const MarkovChain cycle =
      MarkovChain::Make({1.0, 0.0}, Matrix{{0.0, 1.0}, {1.0, 0.0}}).ValueOrDie();
  Rng rng(0);
  const StateSequence seq = cycle.Sample(6, &rng);
  const StateSequence expected = {0, 1, 0, 1, 0, 1};
  EXPECT_EQ(seq, expected);
}

TEST(MarkovChainTest, SampleEmpiricalFrequencies) {
  const MarkovChain theta = Theta1();
  Rng rng(123);
  const StateSequence seq = theta.Sample(200000, &rng);
  double frac0 = 0.0;
  for (int s : seq) frac0 += (s == 0) ? 1.0 : 0.0;
  frac0 /= static_cast<double>(seq.size());
  EXPECT_NEAR(frac0, 0.8, 0.01);  // Stationary share of state 0.
}

TEST(MarkovChainTest, EstimateRecoversTransitions) {
  const MarkovChain theta = Theta1();
  Rng rng(7);
  const StateSequence seq = theta.Sample(300000, &rng);
  const MarkovChain est = MarkovChain::Estimate({seq}, 2).ValueOrDie();
  EXPECT_NEAR(est.transition()(0, 0), 0.9, 0.01);
  EXPECT_NEAR(est.transition()(1, 1), 0.6, 0.01);
  // Initial distribution is the stationary distribution of the estimate.
  const Vector pi = est.StationaryDistribution().ValueOrDie();
  EXPECT_NEAR(DistanceL1(pi, est.initial()), 0.0, 1e-9);
}

TEST(MarkovChainTest, EstimateHandlesUnseenStates) {
  // State 2 never appears: its row becomes uniform.
  const StateSequence seq = {0, 1, 0, 1, 1, 0};
  const MarkovChain est = MarkovChain::Estimate({seq}, 3).ValueOrDie();
  EXPECT_NEAR(est.transition()(2, 0), 1.0 / 3.0, 1e-12);
  EXPECT_FALSE(MarkovChain::Estimate({{0, 5}}, 3).ok());
}

}  // namespace
}  // namespace pf
