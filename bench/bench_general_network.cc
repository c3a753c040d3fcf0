// General-network (Algorithm 2) scaling: sizes x topologies x threads.
// The quantity timed is the sigma analysis — the expensive,
// data-independent phase — on the structured workloads the seed could not
// touch: trees, grids, and hub-and-spoke networks of up to hundreds of
// binary nodes (the enumeration reference refuses anything past ~22).
//
// Benchmark families:
//  - Elimination:  variable-elimination backend + auto quilt search +
//                  canonical node-class dedup (the default fast path), at
//                  1/2/4/8 analysis threads;
//  - Enumeration:  the exponential-in-node-count reference backend, run at
//                  the sizes it can still reach — this is the baseline the
//                  ISSUE's >= 10x criterion measures against (compare
//                  Tree/18/... across the two families);
//  - NoDedup:      elimination with dedup_nodes = false, isolating the
//                  node-class win from the inference win;
//  - TwoTreeClass: the class of two 31-node binary trees (flip 0.3 and
//                  0.35, root 0.3) that pf-bench's cold-analyze workload
//                  analyzes, on one thread: 5 node classes whose quilts
//                  each replay one elimination plan per (theta, value).
//  - CompileNewEpsilonTwoTreeClass: the same class behind a PrivacyEngine
//                  whose quilt-influence table is warm; each iteration
//                  compiles a never-seen epsilon, so it times the scoring
//                  pass that replaces a cold analysis after the first.
//
// Counters report sigma, scored-vs-total nodes, the dedup ratio, the
// observed induced width, and peak factor-table bytes.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "data/topologies.h"
#include "engine/engine.h"
#include "pufferfish/markov_quilt_mechanism.h"

namespace pf {
namespace {

constexpr double kEpsilon = 2.0;

enum Topology : int { kTree = 0, kGrid = 1, kHubSpoke = 2 };

const char* TopologyName(int topology) {
  switch (topology) {
    case kTree: return "tree";
    case kGrid: return "grid";
    case kHubSpoke: return "hub-spoke";
  }
  return "?";
}

// Deterministically built workloads (no RNG), dyadic CPTs: every run and
// every backend sees bit-identical models.
BayesianNetwork MakeNetwork(int topology, std::size_t num_nodes) {
  const Vector root = BinaryRoot(0.5);
  const Matrix edge = BinaryNoisyCopyCpt(0.375);
  switch (topology) {
    case kGrid: {
      // Near-square grid of ~num_nodes cells (3 rows keeps width small).
      const std::size_t rows = num_nodes < 9 ? 2 : 3;
      return GridNetwork(rows, (num_nodes + rows - 1) / rows, root, edge,
                         BinaryNoisyOrCpt(0.375))
          .ValueOrDie();
    }
    case kHubSpoke: {
      // Backbone of hubs with 4 household spokes each.
      const std::size_t hubs = (num_nodes + 4) / 5;
      return HubSpokeNetwork(hubs, 4, root, edge, edge).ValueOrDie();
    }
    case kTree:
    default:
      return TreeNetwork(num_nodes, 2, root, edge).ValueOrDie();
  }
}

MqmAnalyzeOptions Options(InferenceBackend backend, bool dedup,
                          std::size_t threads) {
  MqmAnalyzeOptions options;
  options.backend = backend;
  options.dedup_nodes = dedup;
  options.num_threads = threads;
  return options;
}

void ReportCounters(benchmark::State& state, const MqmAnalysis& analysis) {
  state.counters["sigma"] = analysis.sigma_max;
  state.counters["nodes"] = static_cast<double>(analysis.total_nodes);
  state.counters["scored"] = static_cast<double>(analysis.scored_nodes);
  state.counters["dedup_ratio"] = analysis.dedup_ratio();
  state.counters["width"] = static_cast<double>(analysis.induced_width);
  state.counters["peak_kb"] =
      static_cast<double>(analysis.memory.peak_bytes) / 1024.0;
}

// ---- Elimination backend (the fast path): sizes x topologies x threads.
void BM_Analyze(benchmark::State& state) {
  const int topology = static_cast<int>(state.range(0));
  const std::size_t num_nodes = static_cast<std::size_t>(state.range(1));
  const std::size_t threads = static_cast<std::size_t>(state.range(2));
  const BayesianNetwork bn = MakeNetwork(topology, num_nodes);
  const MqmAnalyzeOptions options =
      Options(InferenceBackend::kVariableElimination, true, threads);
  MqmAnalysis analysis;
  for (auto _ : state) {
    analysis = AnalyzeMarkovQuiltMechanism({bn}, kEpsilon, options).ValueOrDie();
    benchmark::DoNotOptimize(analysis.sigma_max + 0.0);
  }
  ReportCounters(state, analysis);
  state.SetLabel(TopologyName(topology));
}
BENCHMARK(BM_Analyze)
    ->ArgNames({"topo", "n", "threads"})
    // Tree: past the 100-node acceptance size, at 1/2/4/8 threads.
    ->Args({kTree, 18, 1})
    ->Args({kTree, 63, 1})
    ->Args({kTree, 127, 1})
    ->Args({kTree, 127, 2})
    ->Args({kTree, 127, 4})
    ->Args({kTree, 127, 8})
    ->Args({kTree, 255, 1})
    ->Args({kTree, 255, 8})
    // Grid: treewidth ~3, the hardest inference here.
    ->Args({kGrid, 18, 1})
    ->Args({kGrid, 60, 1})
    ->Args({kGrid, 120, 1})
    ->Args({kGrid, 120, 8})
    // Hub-and-spoke: the flu contact-network shape.
    ->Args({kHubSpoke, 20, 1})
    ->Args({kHubSpoke, 100, 1})
    ->Args({kHubSpoke, 250, 1})
    ->Args({kHubSpoke, 250, 8})
    ->Unit(benchmark::kMillisecond);

// ---- Enumeration reference at the sizes it can still reach.
void BM_AnalyzeEnumeration(benchmark::State& state) {
  const int topology = static_cast<int>(state.range(0));
  const std::size_t num_nodes = static_cast<std::size_t>(state.range(1));
  const BayesianNetwork bn = MakeNetwork(topology, num_nodes);
  const MqmAnalyzeOptions options =
      Options(InferenceBackend::kEnumeration, true, 1);
  MqmAnalysis analysis;
  for (auto _ : state) {
    analysis = AnalyzeMarkovQuiltMechanism({bn}, kEpsilon, options).ValueOrDie();
    benchmark::DoNotOptimize(analysis.sigma_max + 0.0);
  }
  ReportCounters(state, analysis);
  state.SetLabel(TopologyName(topology));
}
BENCHMARK(BM_AnalyzeEnumeration)
    ->ArgNames({"topo", "n"})
    ->Args({kTree, 14})
    ->Args({kTree, 18})
    ->Args({kGrid, 18})
    ->Args({kHubSpoke, 15})
    ->Unit(benchmark::kMillisecond);

// ---- Elimination without node-class dedup: isolates the two wins.
void BM_AnalyzeNoDedup(benchmark::State& state) {
  const int topology = static_cast<int>(state.range(0));
  const std::size_t num_nodes = static_cast<std::size_t>(state.range(1));
  const BayesianNetwork bn = MakeNetwork(topology, num_nodes);
  const MqmAnalyzeOptions options =
      Options(InferenceBackend::kVariableElimination, false, 1);
  MqmAnalysis analysis;
  for (auto _ : state) {
    analysis = AnalyzeMarkovQuiltMechanism({bn}, kEpsilon, options).ValueOrDie();
    benchmark::DoNotOptimize(analysis.sigma_max + 0.0);
  }
  ReportCounters(state, analysis);
  state.SetLabel(TopologyName(topology));
}
BENCHMARK(BM_AnalyzeNoDedup)
    ->ArgNames({"topo", "n"})
    ->Args({kTree, 127})
    ->Args({kGrid, 120})
    ->Args({kHubSpoke, 250})
    ->Unit(benchmark::kMillisecond);

// ---- The cold-analyze model: two same-shape thetas of a 31-node tree.
std::vector<BayesianNetwork> TwoTreeClass() {
  std::vector<BayesianNetwork> thetas;
  for (double flip : {0.3, 0.35}) {
    thetas.push_back(
        TreeNetwork(31, 2, BinaryRoot(0.3), BinaryNoisyCopyCpt(flip))
            .ValueOrDie());
  }
  return thetas;
}

void BM_AnalyzeTwoTreeClass(benchmark::State& state) {
  const std::vector<BayesianNetwork> thetas = TwoTreeClass();
  const MqmAnalyzeOptions options =
      Options(InferenceBackend::kVariableElimination, true, 1);
  MqmAnalysis analysis;
  for (auto _ : state) {
    analysis = AnalyzeMarkovQuiltMechanism(thetas, kEpsilon, options).ValueOrDie();
    benchmark::DoNotOptimize(analysis.sigma_max + 0.0);
  }
  ReportCounters(state, analysis);
  state.SetLabel("tree x2 thetas");
}
BENCHMARK(BM_AnalyzeTwoTreeClass)->Unit(benchmark::kMillisecond);

// ---- A later epsilon on the same model: the engine's cache scores its
// quilt-influence table instead of re-running the eliminations.
void BM_CompileNewEpsilonTwoTreeClass(benchmark::State& state) {
  EngineOptions options;
  options.num_threads = 1;
  options.cache_capacity = 16;  // As in pf-bench: plans evict, the table stays.
  auto engine =
      PrivacyEngine::Create(ModelSpec::NetworkClass(TwoTreeClass()), options)
          .ValueOrDie();
  // Warm the table (and the plan for kEpsilon, never requested again).
  double epsilon = kEpsilon;
  double sigma =
      engine->Compile(QuerySpec::Sum(epsilon)).ValueOrDie().plan->sigma;
  for (auto _ : state) {
    epsilon += 1e-7;  // Never seen: plans are keyed by the epsilon's bits.
    sigma = engine->Compile(QuerySpec::Sum(epsilon)).ValueOrDie().plan->sigma;
    benchmark::DoNotOptimize(sigma + 0.0);
  }
  state.counters["sigma"] = sigma;
  state.SetLabel("tree x2 thetas, warm table");
}
BENCHMARK(BM_CompileNewEpsilonTwoTreeClass)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pf

BENCHMARK_MAIN();
