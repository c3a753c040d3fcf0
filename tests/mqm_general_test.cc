// Algorithm 2 at scale: the canonical node-class dedup, the inference
// backends, and the separator quilt search must all be exact refinements —
// bit-identical where bit-identity is promised (dedup on/off, any thread
// count), numerically identical across backends, and able to analyze
// networks far past the old enumeration cap.
#include <gtest/gtest.h>

#include <cmath>

#include "common/fingerprint.h"
#include "data/topologies.h"
#include "pufferfish/markov_quilt_mechanism.h"
#include "pufferfish/node_classes.h"

namespace pf {
namespace {

// Dyadic CPTs keep every conditional probability exactly representable, so
// even cross-backend comparisons are exact (sums and products of dyadic
// rationals of this scale round nowhere).
const Vector kRoot = {0.5, 0.5};
const Matrix kEdge = BinaryNoisyCopyCpt(0.25);
const Matrix kMerge = BinaryNoisyOrCpt(0.25);

std::vector<BayesianNetwork> TestTopologies() {
  std::vector<BayesianNetwork> nets;
  nets.push_back(TreeNetwork(13, 2, kRoot, kEdge).ValueOrDie());
  nets.push_back(TreeNetwork(8, 1, kRoot, kEdge).ValueOrDie());  // Chain.
  nets.push_back(GridNetwork(3, 3, kRoot, kEdge, kMerge).ValueOrDie());
  nets.push_back(HubSpokeNetwork(1, 9, kRoot, kEdge, kEdge).ValueOrDie());
  nets.push_back(HubSpokeNetwork(3, 3, kRoot, kEdge, kEdge).ValueOrDie());
  return nets;
}

void ExpectBitIdentical(const MqmAnalysis& a, const MqmAnalysis& b) {
  EXPECT_EQ(DoubleBits(a.sigma_max), DoubleBits(b.sigma_max));
  EXPECT_EQ(a.worst_node, b.worst_node);
  ASSERT_EQ(a.active.size(), b.active.size());
  for (std::size_t i = 0; i < a.active.size(); ++i) {
    EXPECT_EQ(DoubleBits(a.active[i].score), DoubleBits(b.active[i].score));
    EXPECT_EQ(DoubleBits(a.active[i].influence),
              DoubleBits(b.active[i].influence));
    EXPECT_EQ(a.active[i].quilt.quilt, b.active[i].quilt.quilt) << "node " << i;
    EXPECT_EQ(a.active[i].quilt.nearby_count, b.active[i].quilt.nearby_count);
    EXPECT_EQ(a.active[i].quilt.nearby, b.active[i].quilt.nearby);
    EXPECT_EQ(a.active[i].quilt.remote, b.active[i].quilt.remote);
  }
}

TEST(MqmGeneralDedupTest, OnOffBitIdentityAcrossTopologies) {
  for (const BayesianNetwork& bn : TestTopologies()) {
    for (const QuiltSearchMode search :
         {QuiltSearchMode::kExhaustive, QuiltSearchMode::kSeparator}) {
      MqmAnalyzeOptions options;
      options.quilt_search = search;
      options.dedup_nodes = true;
      const MqmAnalysis dedup =
          AnalyzeMarkovQuiltMechanism({bn}, 1.0, options).ValueOrDie();
      options.dedup_nodes = false;
      const MqmAnalysis exhaustive =
          AnalyzeMarkovQuiltMechanism({bn}, 1.0, options).ValueOrDie();
      ExpectBitIdentical(dedup, exhaustive);
      EXPECT_EQ(exhaustive.scored_nodes, exhaustive.total_nodes);
      EXPECT_LE(dedup.scored_nodes, dedup.total_nodes);
      EXPECT_EQ(dedup.total_nodes, bn.num_nodes());
    }
  }
}

TEST(MqmGeneralDedupTest, ThreadCountInvariance) {
  for (const BayesianNetwork& bn : TestTopologies()) {
    MqmAnalyzeOptions options;
    options.num_threads = 1;
    const MqmAnalysis serial =
        AnalyzeMarkovQuiltMechanism({bn}, 0.7, options).ValueOrDie();
    options.num_threads = 8;
    const MqmAnalysis parallel =
        AnalyzeMarkovQuiltMechanism({bn}, 0.7, options).ValueOrDie();
    ExpectBitIdentical(serial, parallel);
    EXPECT_EQ(serial.scored_nodes, parallel.scored_nodes);
  }
}

TEST(MqmGeneralDedupTest, SymmetricTopologiesCollapse) {
  // A star: the hub is one class, the 9 interchangeable spokes another.
  const BayesianNetwork star =
      HubSpokeNetwork(1, 9, kRoot, kEdge, kEdge).ValueOrDie();
  const MqmAnalysis star_analysis =
      AnalyzeMarkovQuiltMechanism({star}, 1.0, MqmAnalyzeOptions{}).ValueOrDie();
  EXPECT_EQ(star_analysis.total_nodes, 10u);
  EXPECT_EQ(star_analysis.scored_nodes, 2u);
  EXPECT_GT(star_analysis.dedup_ratio(), 4.0);
  // A perfect binary tree with uniform CPTs: one class per depth.
  const BayesianNetwork tree = TreeNetwork(31, 2, kRoot, kEdge).ValueOrDie();
  const MqmAnalysis tree_analysis =
      AnalyzeMarkovQuiltMechanism({tree}, 1.0, MqmAnalyzeOptions{}).ValueOrDie();
  EXPECT_EQ(tree_analysis.total_nodes, 31u);
  EXPECT_EQ(tree_analysis.scored_nodes, 5u);  // Depths 0..4.
}

TEST(MqmGeneralBackendTest, EliminationMatchesEnumerationBitwise) {
  // Dyadic CPTs: both backends do exact arithmetic, so sigma_max agrees to
  // the last bit on every network small enough for enumeration.
  for (const BayesianNetwork& bn : TestTopologies()) {
    MqmAnalyzeOptions options;
    options.backend = InferenceBackend::kVariableElimination;
    const MqmAnalysis elim =
        AnalyzeMarkovQuiltMechanism({bn}, 1.0, options).ValueOrDie();
    options.backend = InferenceBackend::kEnumeration;
    const MqmAnalysis enu =
        AnalyzeMarkovQuiltMechanism({bn}, 1.0, options).ValueOrDie();
    EXPECT_EQ(DoubleBits(elim.sigma_max), DoubleBits(enu.sigma_max));
    EXPECT_EQ(elim.worst_node, enu.worst_node);
  }
}

TEST(MqmGeneralScaleTest, HundredNodeTreeAnalyzesUnderTheOldGuard) {
  // 100 binary nodes: the enumeration reference refuses under the default
  // guard (2^100 joint assignments); the structured path analyzes it.
  const BayesianNetwork tree = TreeNetwork(100, 2, kRoot, kEdge).ValueOrDie();
  MqmAnalyzeOptions options;
  options.backend = InferenceBackend::kEnumeration;
  const Result<MqmAnalysis> refused =
      AnalyzeMarkovQuiltMechanism({tree}, 1.0, options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);

  const MqmAnalysis analysis =
      AnalyzeMarkovQuiltMechanism({tree}, 1.0, MqmAnalyzeOptions{}).ValueOrDie();
  EXPECT_TRUE(std::isfinite(analysis.sigma_max));
  EXPECT_GT(analysis.sigma_max, 0.0);
  // Never worse than the trivial quilt's n / epsilon.
  EXPECT_LE(analysis.sigma_max, 100.0 + 1e-9);
  EXPECT_EQ(analysis.active.size(), 100u);
  EXPECT_EQ(analysis.treewidth_bound, 1u);
  EXPECT_LT(analysis.scored_nodes, 40u);  // Dedup collapses most of the tree.
  EXPECT_GT(analysis.memory.peak_bytes, 0u);
}

TEST(MqmGeneralTest, StatsAreFilledAndConsistent) {
  // Square grid: the transpose (r, c) <-> (c, r) maps the factor system
  // onto itself (the merge CPT is parent-symmetric), so off-diagonal cells
  // pair up into classes; diagonal cells stay singletons.
  const BayesianNetwork grid =
      GridNetwork(3, 3, kRoot, kEdge, kMerge).ValueOrDie();
  const MqmAnalysis analysis =
      AnalyzeMarkovQuiltMechanism({grid}, 1.0, MqmAnalyzeOptions{}).ValueOrDie();
  EXPECT_EQ(analysis.total_nodes, 9u);
  EXPECT_EQ(analysis.scored_nodes, 6u);  // 3 diagonal + 3 mirrored pairs.
  EXPECT_GE(analysis.dedup_ratio(), 1.0);
  EXPECT_GE(analysis.induced_width, 1u);
  EXPECT_GE(analysis.treewidth_bound, 2u);
  EXPECT_GT(analysis.memory.peak_bytes, 0u);
  // A non-square grid has no factor-graph symmetry at all: every node is
  // its own class, and the analysis says so rather than guessing.
  const BayesianNetwork skew =
      GridNetwork(3, 4, kRoot, kEdge, kMerge).ValueOrDie();
  const MqmAnalysis skew_analysis =
      AnalyzeMarkovQuiltMechanism({skew}, 1.0, MqmAnalyzeOptions{}).ValueOrDie();
  EXPECT_EQ(skew_analysis.scored_nodes, skew_analysis.total_nodes);
}

TEST(MqmGeneralTest, MultiThetaClassesUseTheUnionGraph) {
  // Two thetas over 4 nodes with different structures: a chain 0-1-2-3 and
  // a star centered at 0. A quilt must separate in BOTH; the union moral
  // graph enforces it.
  BayesianNetwork chain = TreeNetwork(4, 1, kRoot, kEdge).ValueOrDie();
  BayesianNetwork star = HubSpokeNetwork(1, 3, kRoot, kEdge, kEdge).ValueOrDie();
  const MqmAnalysis analysis =
      AnalyzeMarkovQuiltMechanism({chain, star}, 1.0, MqmAnalyzeOptions{})
          .ValueOrDie();
  EXPECT_TRUE(std::isfinite(analysis.sigma_max));
  // Node 3 is a leaf of both structures, but its union-graph neighborhood
  // is {0, 2}; any active non-trivial quilt for node 1 must block node 0
  // (its neighbor in both graphs).
  for (const QuiltScore& qs : analysis.active) {
    if (qs.quilt.quilt.empty()) continue;
    const MoralGraph g = UnionMoralGraph({chain, star});
    for (int r : qs.quilt.remote) {
      EXPECT_TRUE(g.Separates(qs.quilt.quilt, qs.quilt.target, r));
    }
  }
}

TEST(MqmGeneralTest, MultiThetaDifferentStructuresMatchEnumerationBitwise) {
  // The chain + star pair of MultiThetaClassesUseTheUnionGraph: the thetas'
  // factor scopes differ, so every theta switch rebuilds the elimination
  // plan. Dyadic CPTs make both backends exact, so every score, influence
  // and quilt must agree to the last bit.
  const BayesianNetwork chain = TreeNetwork(4, 1, kRoot, kEdge).ValueOrDie();
  const BayesianNetwork star =
      HubSpokeNetwork(1, 3, kRoot, kEdge, kEdge).ValueOrDie();
  MqmAnalyzeOptions options;
  options.backend = InferenceBackend::kVariableElimination;
  const MqmAnalysis elim =
      AnalyzeMarkovQuiltMechanism({chain, star}, 1.0, options).ValueOrDie();
  options.backend = InferenceBackend::kEnumeration;
  const MqmAnalysis enu =
      AnalyzeMarkovQuiltMechanism({chain, star}, 1.0, options).ValueOrDie();
  ExpectBitIdentical(elim, enu);
}

TEST(MqmGeneralTest, SharedCanonicalizerMatchesStandaloneCanonicalization) {
  // The test topologies, plus a star whose third leaf differs from the
  // other two only in its CPT values.
  std::vector<BayesianNetwork> networks = TestTopologies();
  BayesianNetwork star;
  ASSERT_TRUE(star.AddNode("hub", 2, {}, Matrix{{0.5, 0.5}}).ok());
  ASSERT_TRUE(star.AddNode("s0", 2, {0}, kEdge).ok());
  ASSERT_TRUE(star.AddNode("s1", 2, {0}, kEdge).ok());
  ASSERT_TRUE(star.AddNode("odd", 2, {0}, BinaryNoisyCopyCpt(0.125)).ok());
  networks.push_back(star);
  for (const BayesianNetwork& bn : networks) {
    const std::vector<BayesianNetwork> thetas = {bn};
    const MoralGraph graph = UnionMoralGraph(thetas);
    const NodeCanonicalizer canonicalizer(thetas, graph);
    const int n = static_cast<int>(bn.num_nodes());
    std::vector<NodeCanonicalForm> shared, standalone;
    for (int i = 0; i < n; ++i) {
      shared.push_back(canonicalizer.Canonicalize(i));
      standalone.push_back(CanonicalizeNode(thetas, graph, i));
      EXPECT_EQ(shared.back().order, standalone.back().order) << "node " << i;
      EXPECT_EQ(shared.back().order, CanonicalNodeOrder(thetas, graph, i));
      EXPECT_EQ(shared.back().key, standalone.back().key) << "node " << i;
    }
    // Class membership agrees pairwise: unmaterialized against standalone
    // forms, and materialized shared forms against each other.
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        const NodeCanonicalForm& a = standalone[static_cast<std::size_t>(i)];
        const NodeCanonicalForm& b = standalone[static_cast<std::size_t>(j)];
        EXPECT_EQ(canonicalizer.SameProblem(
                      shared[static_cast<std::size_t>(i)], b),
                  a.SameProblem(b))
            << i << " vs " << j;
      }
    }
    for (NodeCanonicalForm& form : shared) canonicalizer.Materialize(&form);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        const std::size_t ui = static_cast<std::size_t>(i);
        const std::size_t uj = static_cast<std::size_t>(j);
        EXPECT_EQ(shared[ui].SameProblem(shared[uj]),
                  standalone[ui].SameProblem(standalone[uj]))
            << i << " vs " << j;
      }
      EXPECT_TRUE(shared[static_cast<std::size_t>(i)].SameProblem(
          standalone[static_cast<std::size_t>(i)]));
    }
  }
}

TEST(MqmGeneralTest, CanonicalFormsGroupExactlyNotByHashAlone) {
  // Two leaves of a uniform star share their canonical form; a leaf with a
  // different CPT must not join their class even though the topology
  // matches.
  BayesianNetwork star;
  ASSERT_TRUE(star.AddNode("hub", 2, {}, Matrix{{0.5, 0.5}}).ok());
  ASSERT_TRUE(star.AddNode("s0", 2, {0}, kEdge).ok());
  ASSERT_TRUE(star.AddNode("s1", 2, {0}, kEdge).ok());
  ASSERT_TRUE(star.AddNode("odd", 2, {0}, BinaryNoisyCopyCpt(0.125)).ok());
  const MoralGraph graph = UnionMoralGraph({star});
  const NodeCanonicalForm s0 = CanonicalizeNode({star}, graph, 1);
  const NodeCanonicalForm s1 = CanonicalizeNode({star}, graph, 2);
  const NodeCanonicalForm odd = CanonicalizeNode({star}, graph, 3);
  EXPECT_EQ(s0.key, s1.key);
  EXPECT_TRUE(s0.SameProblem(s1));
  EXPECT_FALSE(s0.SameProblem(odd));
  const MqmAnalysis analysis =
      AnalyzeMarkovQuiltMechanism({star}, 1.0, MqmAnalyzeOptions{}).ValueOrDie();
  EXPECT_EQ(analysis.scored_nodes, 3u);  // hub, {s0, s1}, odd.
}

}  // namespace
}  // namespace pf
