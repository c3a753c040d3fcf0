// Regenerates Table 2: wall-clock time to compute the Laplace noise scale
// (the sigma analysis) for each algorithm on each problem, epsilon = 1.
//
//  - synthetic: per-theta cost averaged over the grid p0, p1 in
//    {0.1, 0.11, ..., 0.9} (the paper's protocol), for GK16, MQMApprox and
//    MQMExact;
//  - the three activity groups and the electricity problem: MQMApprox and
//    MQMExact on the empirical chain (GK16 is N/A there).
//
// Expected shape (paper): MQMApprox is orders of magnitude faster than
// MQMExact; MQMExact's cost grows with the state space and chain length
// (electricity slowest) but stays manageable.
#include <benchmark/benchmark.h>

#include "baselines/gk16.h"
#include "bench/activity_experiment.h"
#include "bench/bench_util.h"
#include "data/electricity.h"
#include "pufferfish/mqm_approx.h"
#include "pufferfish/mqm_exact.h"

namespace pf {
namespace {

constexpr double kEpsilon = 1.0;
constexpr std::size_t kSyntheticLength = 100;

// Grid of synthetic transition matrices, p0, p1 in {0.1, 0.11, ..., 0.9}.
const std::vector<Matrix>& SyntheticGrid() {
  static auto* grid = new std::vector<Matrix>([] {
    std::vector<Matrix> g;
    for (int i = 10; i <= 90; ++i) {
      for (int j = 10; j <= 90; j += 8) {  // Thinned inner axis.
        g.push_back(BinaryChainIntervalClass::TransitionFor(i / 100.0, j / 100.0));
      }
    }
    return g;
  }());
  return *grid;
}

void BM_Synthetic_GK16(benchmark::State& state) {
  const auto& grid = SyntheticGrid();
  std::size_t idx = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Gk16Analyze({grid[idx % grid.size()]}, kSyntheticLength, kEpsilon));
    ++idx;
  }
}
BENCHMARK(BM_Synthetic_GK16);

void BM_Synthetic_MQMApprox(benchmark::State& state) {
  const auto& grid = SyntheticGrid();
  std::size_t idx = 0;
  for (auto _ : state) {
    const Matrix& p = grid[idx % grid.size()];
    const MarkovChain chain =
        MarkovChain::Make({0.5, 0.5}, p).ValueOrDie();
    ChainMqmOptions options;
    options.epsilon = kEpsilon;
    options.max_nearby = 0;
    benchmark::DoNotOptimize(
        MqmApproxAnalyze({chain}, kSyntheticLength, options));
    ++idx;
  }
}
BENCHMARK(BM_Synthetic_MQMApprox);

void BM_Synthetic_MQMExact(benchmark::State& state) {
  const auto& grid = SyntheticGrid();
  std::size_t idx = 0;
  for (auto _ : state) {
    ChainMqmOptions options;
    options.epsilon = kEpsilon;
    options.max_nearby = 90;
    benchmark::DoNotOptimize(MqmExactAnalyzeFreeInitial(
        {grid[idx % grid.size()]}, kSyntheticLength, options));
    ++idx;
  }
}
BENCHMARK(BM_Synthetic_MQMExact);

void BM_Activity_MQMApprox(benchmark::State& state) {
  const auto& exp =
      bench::GetActivityExperiment(bench::kAllGroups[state.range(0)]);
  for (auto _ : state) {
    ChainMqmOptions options;
    options.epsilon = kEpsilon;
    options.max_nearby = 0;
    benchmark::DoNotOptimize(
        MqmApproxAnalyze({exp.chain}, exp.data.LongestChain(), options));
  }
  state.SetLabel(ActivityGroupName(bench::kAllGroups[state.range(0)]));
}
BENCHMARK(BM_Activity_MQMApprox)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_Activity_MQMExact(benchmark::State& state) {
  const auto& exp =
      bench::GetActivityExperiment(bench::kAllGroups[state.range(0)]);
  ChainMqmOptions approx_options;
  approx_options.epsilon = kEpsilon;
  approx_options.max_nearby = 0;
  const std::size_t ell =
      MqmApproxAnalyze({exp.chain}, exp.data.LongestChain(), approx_options)
          .ValueOrDie()
          .active_quilt.NearbyCount() +
      2;
  for (auto _ : state) {
    ChainMqmOptions options;
    options.epsilon = kEpsilon;
    options.max_nearby = ell;
    benchmark::DoNotOptimize(
        MqmExactAnalyze({exp.chain}, exp.data.LongestChain(), options));
  }
  state.SetLabel(ActivityGroupName(bench::kAllGroups[state.range(0)]));
}
BENCHMARK(BM_Activity_MQMExact)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

// Electricity: simulate once (T = 10^6, 51 states), estimate the chain.
const MarkovChain& ElectricityChain() {
  static auto* chain = new MarkovChain([] {
    ElectricitySimOptions sim;
    Rng rng(0xE1EC);
    const StateSequence seq = SimulateElectricity(sim, &rng).ValueOrDie();
    return MarkovChain::Estimate({seq}, kNumPowerLevels).ValueOrDie();
  }());
  return *chain;
}
constexpr std::size_t kElectricityLength = 1000000;

void BM_Electricity_MQMApprox(benchmark::State& state) {
  const MarkovChain& chain = ElectricityChain();
  for (auto _ : state) {
    ChainMqmOptions options;
    options.epsilon = kEpsilon;
    options.max_nearby = 0;
    benchmark::DoNotOptimize(
        MqmApproxAnalyze({chain}, kElectricityLength, options));
  }
}
BENCHMARK(BM_Electricity_MQMApprox)->Unit(benchmark::kMillisecond);

// Algorithm 4 alone: the one above also re-runs the 51-state eigen-summary
// (SummarizeChainClass) every iteration; here it is computed once.
void BM_Electricity_MQMApproxFromSummary(benchmark::State& state) {
  const ChainClassSummary summary =
      SummarizeChainClass({ElectricityChain()}).ValueOrDie();
  ChainMqmOptions options;
  options.epsilon = kEpsilon;
  options.max_nearby = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MqmApproxAnalyze(summary, kElectricityLength, options));
  }
}
BENCHMARK(BM_Electricity_MQMApproxFromSummary)
    ->Unit(benchmark::kMicrosecond);

void BM_Electricity_MQMExact(benchmark::State& state) {
  const MarkovChain& chain = ElectricityChain();
  ChainMqmOptions approx_options;
  approx_options.epsilon = kEpsilon;
  approx_options.max_nearby = 0;
  const std::size_t ell =
      MqmApproxAnalyze({chain}, kElectricityLength, approx_options)
          .ValueOrDie()
          .active_quilt.NearbyCount() +
      2;
  for (auto _ : state) {
    ChainMqmOptions options;
    options.epsilon = kEpsilon;
    options.max_nearby = ell;
    benchmark::DoNotOptimize(
        MqmExactAnalyze({chain}, kElectricityLength, options));
  }
}
BENCHMARK(BM_Electricity_MQMExact)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pf

BENCHMARK_MAIN();
