// Streaming bit-identity suite: ChainMqmAnalysis::ExtendTo(T') must equal
// a cold analysis at T' — sigma_max, worst node, active quilt, influence,
// shortcut flag, AND the dedup diagnostics (scored_nodes /
// memory.peak_bytes, which certify that the retained class store ends up
// in exactly the state a cold scan builds) — across stationary /
// non-stationary / free-initial chains, shortcut on/off, and thread
// counts; plus chained extensions equal the one-shot analysis.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/deadline.h"
#include "common/matrix.h"
#include "graphical/markov_chain.h"
#include "pufferfish/mqm_exact.h"

namespace pf {
namespace {

void ExpectBitIdentical(const ChainMqmResult& got,
                        const ChainMqmResult& want) {
  EXPECT_EQ(got.sigma_max, want.sigma_max);
  EXPECT_EQ(got.worst_node, want.worst_node);
  EXPECT_EQ(got.influence, want.influence);
  EXPECT_EQ(got.active_quilt.target, want.active_quilt.target);
  EXPECT_EQ(got.active_quilt.quilt, want.active_quilt.quilt);
  EXPECT_EQ(got.active_quilt.nearby_count, want.active_quilt.nearby_count);
  EXPECT_EQ(got.used_stationary_shortcut, want.used_stationary_shortcut);
  EXPECT_EQ(got.total_nodes, want.total_nodes);
  EXPECT_EQ(got.scored_nodes, want.scored_nodes);
  EXPECT_EQ(got.memory.peak_bytes, want.memory.peak_bytes);
}

const Matrix kBinary{{0.9, 0.1}, {0.4, 0.6}};

Vector StationaryOf(const Matrix& p) {
  return MarkovChain::Make(Vector(p.rows(), 1.0 / p.rows()), p)
      .ValueOrDie()
      .StationaryDistribution()
      .ValueOrDie();
}

TEST(MqmStreamingTest, ExtendMatchesColdAcrossVariantsAndThreads) {
  const std::vector<Vector> initials = {StationaryOf(kBinary),
                                        Vector{1.0, 0.0}, Vector{0.3, 0.7}};
  for (const Vector& q : initials) {
    const MarkovChain chain = MarkovChain::Make(q, kBinary).ValueOrDie();
    for (bool shortcut : {true, false}) {
      for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        ChainMqmOptions options;
        options.epsilon = 1.0;
        options.max_nearby = 12;
        options.allow_stationary_shortcut = shortcut;
        options.num_threads = threads;
        for (std::size_t delta : {std::size_t{1}, std::size_t{13},
                                  std::size_t{100}}) {
          ChainMqmAnalysis analysis =
              ChainMqmAnalysis::Analyze({chain}, 120, options).ValueOrDie();
          ASSERT_TRUE(analysis.ExtendTo(120 + delta).ok());
          EXPECT_EQ(analysis.length(), 120 + delta);
          const ChainMqmResult cold =
              MqmExactAnalyze({chain}, 120 + delta, options).ValueOrDie();
          ExpectBitIdentical(analysis.result(), cold);
        }
      }
    }
  }
}

TEST(MqmStreamingTest, FreeInitialExtendMatchesCold) {
  const Matrix p{{0.85, 0.15}, {0.25, 0.75}};
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    ChainMqmOptions options;
    options.epsilon = 1.0;
    options.max_nearby = 10;
    options.num_threads = threads;
    for (std::size_t delta :
         {std::size_t{1}, std::size_t{10}, std::size_t{80}}) {
      ChainMqmAnalysis analysis =
          ChainMqmAnalysis::AnalyzeFreeInitial({p}, 80, options).ValueOrDie();
      ASSERT_TRUE(analysis.ExtendTo(80 + delta).ok());
      const ChainMqmResult cold =
          MqmExactAnalyzeFreeInitial({p}, 80 + delta, options).ValueOrDie();
      ExpectBitIdentical(analysis.result(), cold);
    }
  }
}

TEST(MqmStreamingTest, FreeInitialThreeStateExtend) {
  const Matrix p{{0.7, 0.2, 0.1}, {0.1, 0.6, 0.3}, {0.3, 0.1, 0.6}};
  ChainMqmOptions options;
  options.epsilon = 0.8;
  options.max_nearby = 9;
  options.num_threads = 1;
  ChainMqmAnalysis analysis =
      ChainMqmAnalysis::AnalyzeFreeInitial({p}, 60, options).ValueOrDie();
  ASSERT_TRUE(analysis.ExtendTo(150).ok());
  ExpectBitIdentical(
      analysis.result(),
      MqmExactAnalyzeFreeInitial({p}, 150, options).ValueOrDie());
}

TEST(MqmStreamingTest, ChainedExtensionsEqualOneShot) {
  const MarkovChain chain =
      MarkovChain::Make({1.0, 0.0}, kBinary).ValueOrDie();
  ChainMqmOptions options;
  options.epsilon = 1.0;
  options.max_nearby = 8;
  options.allow_stationary_shortcut = false;
  options.num_threads = 1;
  ChainMqmAnalysis analysis =
      ChainMqmAnalysis::Analyze({chain}, 100, options).ValueOrDie();
  // T -> T+1 -> ... -> T+10 -> T+47: every step must stay bit-identical.
  for (std::size_t t = 101; t <= 110; ++t) {
    ASSERT_TRUE(analysis.ExtendTo(t).ok());
    ExpectBitIdentical(analysis.result(),
                       MqmExactAnalyze({chain}, t, options).ValueOrDie());
  }
  ASSERT_TRUE(analysis.ExtendTo(157).ok());
  ExpectBitIdentical(analysis.result(),
                     MqmExactAnalyze({chain}, 157, options).ValueOrDie());
}

TEST(MqmStreamingTest, ExtendThroughMixingTransient) {
  // Start inside the mixing transient (T smaller than the mixing time), so
  // extensions re-key nodes whose marginals are still bit-distinct.
  const MarkovChain chain =
      MarkovChain::Make({1.0, 0.0}, Matrix{{0.97, 0.03}, {0.02, 0.98}})
          .ValueOrDie();
  ChainMqmOptions options;
  options.epsilon = 1.0;
  options.max_nearby = 6;
  options.allow_stationary_shortcut = false;
  options.num_threads = 1;
  ChainMqmAnalysis analysis =
      ChainMqmAnalysis::Analyze({chain}, 20, options).ValueOrDie();
  for (std::size_t t : {std::size_t{21}, std::size_t{35}, std::size_t{90},
                        std::size_t{400}}) {
    ASSERT_TRUE(analysis.ExtendTo(t).ok());
    ExpectBitIdentical(analysis.result(),
                       MqmExactAnalyze({chain}, t, options).ValueOrDie());
  }
}

TEST(MqmStreamingTest, MultiThetaClassExtend) {
  const MarkovChain theta1 =
      MarkovChain::Make({1.0, 0.0}, kBinary).ValueOrDie();
  const MarkovChain theta2 =
      MarkovChain::Make({0.9, 0.1}, Matrix{{0.8, 0.2}, {0.3, 0.7}})
          .ValueOrDie();
  ChainMqmOptions options;
  options.epsilon = 1.0;
  options.max_nearby = 15;
  ChainMqmAnalysis analysis =
      ChainMqmAnalysis::Analyze({theta1, theta2}, 100, options).ValueOrDie();
  ASSERT_TRUE(analysis.ExtendTo(130).ok());
  ExpectBitIdentical(
      analysis.result(),
      MqmExactAnalyze({theta1, theta2}, 130, options).ValueOrDie());
}

TEST(MqmStreamingTest, ShortcutModeSwitchOnExtend) {
  // T = 2 is below the shortcut's length floor; the extension crosses it,
  // and must make the same mode decision (and produce the same bits) as a
  // cold analysis at the new length.
  const Vector pi = StationaryOf(kBinary);
  const MarkovChain chain = MarkovChain::Make(pi, kBinary).ValueOrDie();
  ChainMqmOptions options;
  options.epsilon = 1.0;
  options.max_nearby = 10;
  ChainMqmAnalysis analysis =
      ChainMqmAnalysis::Analyze({chain}, 2, options).ValueOrDie();
  ASSERT_TRUE(analysis.ExtendTo(50).ok());
  const ChainMqmResult cold =
      MqmExactAnalyze({chain}, 50, options).ValueOrDie();
  EXPECT_TRUE(cold.used_stationary_shortcut);
  ExpectBitIdentical(analysis.result(), cold);
}

TEST(MqmStreamingTest, ExhaustiveModeExtendMatchesCold) {
  // dedup_nodes = false keeps no per-node state; ExtendTo transparently
  // re-scans and must still match cold exactly.
  const MarkovChain chain =
      MarkovChain::Make({0.3, 0.7}, kBinary).ValueOrDie();
  ChainMqmOptions options;
  options.epsilon = 1.0;
  options.max_nearby = 8;
  options.dedup_nodes = false;
  options.num_threads = 1;
  ChainMqmAnalysis analysis =
      ChainMqmAnalysis::Analyze({chain}, 70, options).ValueOrDie();
  ASSERT_TRUE(analysis.ExtendTo(95).ok());
  ExpectBitIdentical(analysis.result(),
                     MqmExactAnalyze({chain}, 95, options).ValueOrDie());
}

TEST(MqmStreamingTest, OverflowedScanFallsBackToColdOnExtend) {
  // A slow-mixing chain overflows the class store (non-resumable state);
  // ExtendTo must detect that and still return cold-identical results.
  const MarkovChain chain =
      MarkovChain::Make({1.0, 0.0}, Matrix{{0.99, 0.01}, {0.03, 0.97}})
          .ValueOrDie();
  ChainMqmOptions options;
  options.epsilon = 1.0;
  options.max_nearby = 4;
  options.allow_stationary_shortcut = false;
  options.num_threads = 1;
  ChainMqmAnalysis analysis =
      ChainMqmAnalysis::Analyze({chain}, 1500, options).ValueOrDie();
  EXPECT_GT(analysis.result().scored_nodes, 256u);  // Overflow engaged.
  ASSERT_TRUE(analysis.ExtendTo(1600).ok());
  ExpectBitIdentical(analysis.result(),
                     MqmExactAnalyze({chain}, 1600, options).ValueOrDie());
}

TEST(MqmStreamingTest, ExtendValidation) {
  const MarkovChain chain =
      MarkovChain::Make({0.3, 0.7}, kBinary).ValueOrDie();
  ChainMqmOptions options;
  options.epsilon = 1.0;
  options.max_nearby = 8;
  ChainMqmAnalysis analysis =
      ChainMqmAnalysis::Analyze({chain}, 50, options).ValueOrDie();
  EXPECT_FALSE(analysis.ExtendTo(49).ok());  // Shrink refused.
  EXPECT_TRUE(analysis.ExtendTo(50).ok());   // Same length is a no-op.
  EXPECT_EQ(analysis.length(), 50u);
}

TEST(MqmStreamingTest, ExtendIsIncrementallyCheap) {
  // The work counter must show the append reused the interior: after a
  // +1 extension, scored_nodes grows by at most O(max_nearby), not O(T).
  const MarkovChain chain =
      MarkovChain::Make({1.0, 0.0}, kBinary).ValueOrDie();
  ChainMqmOptions options;
  options.epsilon = 1.0;
  options.max_nearby = 8;
  options.allow_stationary_shortcut = false;
  ChainMqmAnalysis analysis =
      ChainMqmAnalysis::Analyze({chain}, 5000, options).ValueOrDie();
  const std::size_t before = analysis.result().scored_nodes;
  ASSERT_TRUE(analysis.ExtendTo(5001).ok());
  const std::size_t after = analysis.result().scored_nodes;
  EXPECT_LE(after, before + options.max_nearby + 2);
}

TEST(MqmStreamingTest, SteadyStateAppendAllocatesNothing) {
  // The zero-allocation hot path: once the chain is far past its mixing
  // transient (the marginal stream has gone period-1) and the class store
  // holds every boundary class, a +1 append only swaps retained buffers
  // and re-joins existing classes — memory.mallocs must be EXACTLY zero.
  const MarkovChain chain =
      MarkovChain::Make({1.0, 0.0}, kBinary).ValueOrDie();
  ChainMqmOptions options;
  options.epsilon = 1.0;
  options.max_nearby = 8;
  options.allow_stationary_shortcut = false;
  ChainMqmAnalysis analysis =
      ChainMqmAnalysis::Analyze({chain}, 5000, options).ValueOrDie();
  // Two warm-up appends absorb any one-time growth (scratch buffers,
  // class-store headroom) left over from the cold analysis.
  ASSERT_TRUE(analysis.ExtendTo(5001).ok());
  ASSERT_TRUE(analysis.ExtendTo(5002).ok());
  for (std::size_t target = 5003; target <= 5010; ++target) {
    ASSERT_TRUE(analysis.ExtendTo(target).ok());
    EXPECT_EQ(analysis.result().memory.mallocs, 0u)
        << "append to T=" << target << " allocated";
    EXPECT_GT(analysis.result().memory.arena_retained_bytes, 0u);
  }
}

// ------------------------------------------- stationary shortcut appends --
//
// Streaming appends on a stationary-initial chain take the Lemma C.4
// shortcut, which scores only the middle node and memoizes that score by
// (exact marginal, dl, dr) across ExtendTo calls.

MarkovChain StationaryChain(const Matrix& p) {
  return MarkovChain::Make(StationaryOf(p), p).ValueOrDie();
}

// The last chain has a negative second eigenvalue: its marginal stream
// settles into a bitwise two-cycle, so the middle node's value (and its
// sigma, in the last bits) alternates with the node's parity and both memo
// slots are live.
std::vector<MarkovChain> StationaryChains() {
  return {StationaryChain(kBinary),
          StationaryChain(
              Matrix{{0.7, 0.2, 0.1}, {0.1, 0.6, 0.3}, {0.3, 0.1, 0.6}}),
          StationaryChain(Matrix{{0.6, 0.2, 0.1, 0.1},
                                 {0.1, 0.5, 0.3, 0.1},
                                 {0.2, 0.1, 0.6, 0.1},
                                 {0.25, 0.25, 0.25, 0.25}}),
          StationaryChain(Matrix{{0.4, 0.6}, {0.7, 0.3}})};
}

TEST(MqmStreamingTest, ChainedShortcutExtensionsMatchCold) {
  // Starts below 2 * ell + 1, so the middle node's clip distances (dl, dr)
  // change along the way and the memoized score must miss; later appends
  // reuse it. +1..+8 steps cover both parities of the middle node.
  constexpr std::size_t kEll = 12;
  constexpr std::size_t kSteps = 210;
  for (const MarkovChain& chain : StationaryChains()) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      ChainMqmOptions options;
      options.epsilon = 1.0;
      options.max_nearby = kEll;
      options.num_threads = threads;
      std::size_t t = 4;
      ChainMqmAnalysis analysis =
          ChainMqmAnalysis::Analyze({chain}, t, options).ValueOrDie();
      for (std::size_t step = 0; step < kSteps; ++step) {
        t += 1 + (step * 5) % 8;
        ASSERT_TRUE(analysis.ExtendTo(t).ok());
        const ChainMqmResult& got = analysis.result();
        ExpectBitIdentical(got,
                           MqmExactAnalyze({chain}, t, options).ValueOrDie());
        // Cold and extended analyses share the middle cursor's jump; the
        // single-quilt evaluator walks node by node, so it independently
        // pins the middle node's value.
        if (got.used_stationary_shortcut && !got.active_quilt.IsTrivial()) {
          EXPECT_EQ(got.influence,
                    ChainQuiltInfluenceExact(chain, t, got.active_quilt)
                        .ValueOrDie());
        }
      }
      EXPECT_TRUE(analysis.result().used_stationary_shortcut)
          << chain.num_states() << " states, " << threads << " threads";
    }
  }
}

TEST(MqmStreamingTest, SteadyStateShortcutAppendAllocatesNothing) {
  // The shortcut twin of SteadyStateAppendAllocatesNothing: once the
  // memoized middle score covers the saturated key, an append only moves
  // the middle cursor and re-materializes the active quilt.
  for (const MarkovChain& chain : StationaryChains()) {
    ChainMqmOptions options;
    options.epsilon = 1.0;
    options.max_nearby = 8;
    ChainMqmAnalysis analysis =
        ChainMqmAnalysis::Analyze({chain}, 5000, options).ValueOrDie();
    ASSERT_TRUE(analysis.result().used_stationary_shortcut);
    ASSERT_TRUE(analysis.ExtendTo(5001).ok());
    ASSERT_TRUE(analysis.ExtendTo(5002).ok());
    for (std::size_t target = 5003; target <= 5010; ++target) {
      ASSERT_TRUE(analysis.ExtendTo(target).ok());
      EXPECT_EQ(analysis.result().memory.mallocs, 0u)
          << "append to T=" << target << " allocated";
      EXPECT_TRUE(analysis.result().used_stationary_shortcut);
    }
  }
}

TEST(MqmStreamingTest, CancelledShortcutExtensionRetriesBitIdentical) {
  // The expired deadline fires while the extension is still building
  // distance tables, before any score is memoized; the retry must match a
  // cold analysis.
  const MarkovChain chain = StationaryChain(kBinary);
  ChainMqmOptions options;
  options.epsilon = 1.0;
  options.max_nearby = 12;
  ChainMqmAnalysis analysis =
      ChainMqmAnalysis::Analyze({chain}, 10, options).ValueOrDie();
  const ChainMqmResult before = analysis.result();
  {
    DeadlineScope scope(Deadline::Expired());
    EXPECT_EQ(analysis.ExtendTo(2000).code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_EQ(analysis.length(), 10u);
  ExpectBitIdentical(analysis.result(), before);
  ASSERT_TRUE(analysis.ExtendTo(2000).ok());
  ExpectBitIdentical(analysis.result(),
                     MqmExactAnalyze({chain}, 2000, options).ValueOrDie());
}

TEST(MqmStreamingTest, HugeLengthsUpToTheIntLimit) {
  // Chain nodes are int indices. The last representable length analyzes
  // in O(1) under the shortcut (the middle cursor jumps once the marginal
  // cycles); one more is refused by every entry point and leaves a
  // resumable analysis unchanged.
  const MarkovChain chain = StationaryChain(kBinary);
  ChainMqmOptions options;
  options.epsilon = 1.0;
  options.max_nearby = 12;
  ChainMqmAnalysis analysis =
      ChainMqmAnalysis::Analyze({chain}, 10000, options).ValueOrDie();
  const double sigma = analysis.result().sigma_max;
  ASSERT_TRUE(analysis.ExtendTo(kMaxChainLength).ok());
  const ChainMqmResult cold =
      MqmExactAnalyze({chain}, kMaxChainLength, options).ValueOrDie();
  ExpectBitIdentical(analysis.result(), cold);
  EXPECT_TRUE(cold.used_stationary_shortcut);
  EXPECT_EQ(static_cast<std::size_t>(cold.worst_node), kMaxChainLength / 2);
  // Past the boundary region the interior quilt's score is
  // length-independent.
  EXPECT_EQ(cold.sigma_max, sigma);

  EXPECT_EQ(analysis.ExtendTo(kMaxChainLength + 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(analysis.length(), kMaxChainLength);
  ExpectBitIdentical(analysis.result(), cold);
  EXPECT_EQ(ChainMqmAnalysis::Analyze({chain}, kMaxChainLength + 1, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ChainMqmAnalysis::AnalyzeFreeInitial({kBinary},
                                                 kMaxChainLength + 1, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace pf
