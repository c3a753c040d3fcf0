// Long-chain scaling of the MQMExact sigma analysis: T in {1e3, 1e4, 1e5}
// crossed with k in {2, 8, 32} states. The quantity timed is the Table 2
// runtime — time to compute the noise scale — pushed to the chain lengths
// the electricity workload needs (Section 5.3, T ~ 1e4 and beyond).
//
// Three families of benchmarks:
//  - Dedup:      the marginal-dedup node scan (the default fast path);
//  - Exhaustive: the pre-optimization reference that scores every node
//                (dedup_nodes = false), run at the smaller T only — this
//                is the baseline the ISSUE's >= 5x criterion measures
//                against (compare Dedup/10000/<k> vs Exhaustive/10000/<k>);
//  - FreeInitial: the Appendix C.4 class on the streamed power ladder,
//                whose peak memory must stay O(k^2 * max_nearby), not
//                O(T * k^2) (reported by the ladder_mb counter).
//
// All benchmarks run single-threaded (num_threads = 1) so the dedup ratio,
// not thread fan-out, is what the numbers show; counters report
// scored-vs-total nodes and ladder memory.
//
// BM_MqmApproxLength times MQMApprox (Algorithm 4) on the electricity class
// summary from T = 1e4 to 1e9: its cost must not grow with T.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "common/matrix.h"
#include "common/random.h"
#include "data/electricity.h"
#include "graphical/markov_chain.h"
#include "pufferfish/mqm_approx.h"
#include "pufferfish/mqm_exact.h"

namespace pf {
namespace {

constexpr double kEpsilon = 1.0;
// Modest quilt-width cap so the exhaustive baseline finishes at T = 1e4;
// the dedup path's advantage only grows with wider caps.
constexpr std::size_t kMaxNearby = 16;

// A dense, fast-mixing k-state transition matrix: a lazy random walk whose
// off-diagonal mass tilts toward neighboring states. Deterministically
// generated (no RNG) so every run and both scan paths see the same model.
Matrix DenseTransition(std::size_t k) {
  Matrix p(k, k, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t d = i > j ? i - j : j - i;
      p(i, j) = (i == j ? 2.0 : 1.0) / (1.0 + static_cast<double>(d));
      row_sum += p(i, j);
    }
    for (std::size_t j = 0; j < k; ++j) p(i, j) /= row_sum;
  }
  return p;
}

// Point-mass initial distribution: maximally non-stationary, so the dedup
// scan has to track the marginal through its whole mixing transient.
MarkovChain DeltaChain(std::size_t k) {
  Vector q(k, 0.0);
  q[0] = 1.0;
  return MarkovChain::Make(q, DenseTransition(k)).ValueOrDie();
}

// The scan benchmarks keep the shortcut off to time the scan, not Lemma
// C.4; only the stationary streaming leg turns it on.
ChainMqmOptions Options(bool dedup, bool shortcut = false) {
  ChainMqmOptions options;
  options.epsilon = kEpsilon;
  options.max_nearby = kMaxNearby;
  options.allow_stationary_shortcut = shortcut;
  options.dedup_nodes = dedup;
  options.num_threads = 1;
  return options;
}

void ReportChainCounters(benchmark::State& state, const ChainMqmResult& r) {
  state.counters["total_nodes"] = static_cast<double>(r.total_nodes);
  state.counters["scored_nodes"] = static_cast<double>(r.scored_nodes);
  state.counters["dedup_ratio"] = r.dedup_ratio();
  state.counters["ladder_mb"] =
      static_cast<double>(r.memory.peak_bytes) / (1024.0 * 1024.0);
}

void BM_LongChain_Dedup(benchmark::State& state) {
  const std::size_t length = static_cast<std::size_t>(state.range(0));
  const std::size_t k = static_cast<std::size_t>(state.range(1));
  const MarkovChain chain = DeltaChain(k);
  ChainMqmResult last;
  for (auto _ : state) {
    last = MqmExactAnalyze({chain}, length, Options(true)).ValueOrDie();
    benchmark::DoNotOptimize(last.sigma_max);
  }
  ReportChainCounters(state, last);
}
BENCHMARK(BM_LongChain_Dedup)
    ->ArgsProduct({{1000, 10000, 100000}, {2, 8, 32}})
    ->Unit(benchmark::kMillisecond);

// The pre-optimization baseline: every node scored. Kept to T <= 1e4 —
// at T = 1e5 x k = 32 a single iteration takes minutes, which is the
// point of the fast path.
void BM_LongChain_Exhaustive(benchmark::State& state) {
  const std::size_t length = static_cast<std::size_t>(state.range(0));
  const std::size_t k = static_cast<std::size_t>(state.range(1));
  const MarkovChain chain = DeltaChain(k);
  ChainMqmResult last;
  for (auto _ : state) {
    last = MqmExactAnalyze({chain}, length, Options(false)).ValueOrDie();
    benchmark::DoNotOptimize(last.sigma_max);
  }
  ReportChainCounters(state, last);
}
BENCHMARK(BM_LongChain_Exhaustive)
    ->ArgsProduct({{1000, 10000}, {2, 8, 32}})
    ->Unit(benchmark::kMillisecond);

// Free-initial (Appendix C.4) on the streamed power ladder. The ladder_mb
// counter is the memory story: it stays flat in T where the
// pre-optimization path allocated T k^2 doubles.
void BM_LongChain_FreeInitial(benchmark::State& state) {
  const std::size_t length = static_cast<std::size_t>(state.range(0));
  const std::size_t k = static_cast<std::size_t>(state.range(1));
  const Matrix p = DenseTransition(k);
  ChainMqmResult last;
  for (auto _ : state) {
    last = MqmExactAnalyzeFreeInitial({p}, length, Options(true)).ValueOrDie();
    benchmark::DoNotOptimize(last.sigma_max);
  }
  ReportChainCounters(state, last);
}
BENCHMARK(BM_LongChain_FreeInitial)
    ->ArgsProduct({{1000, 10000, 100000}, {2, 8, 32}})
    ->Unit(benchmark::kMillisecond);

// ----------------------------------------------------------- MQMApprox --
//
// Algorithm 4 at T in {1e4, 1e6, 1e9}, shortcut on (1) or off (0), on the
// summary of the 51-state electricity chain estimated from the simulated
// trace (as bench_table2_runtime does). The summary is computed once,
// outside the timed loop. The shortcut scores the middle node; the scan
// scores one node per boundary class, at most 2 * 4a* + 1 of them.
const ChainClassSummary& ElectricitySummary() {
  static const ChainClassSummary summary = [] {
    ElectricitySimOptions sim;
    Rng rng(0xE1EC);
    const StateSequence seq = SimulateElectricity(sim, &rng).ValueOrDie();
    const MarkovChain chain =
        MarkovChain::Estimate({seq}, kNumPowerLevels).ValueOrDie();
    return SummarizeChainClass({chain}).ValueOrDie();
  }();
  return summary;
}

void BM_MqmApproxLength(benchmark::State& state) {
  const std::size_t length = static_cast<std::size_t>(state.range(0));
  const ChainClassSummary& summary = ElectricitySummary();
  ChainMqmOptions options;
  options.epsilon = kEpsilon;
  options.max_nearby = 0;  // Lemma 4.9 automatic width.
  options.allow_stationary_shortcut = state.range(1) != 0;
  ChainMqmResult last;
  for (auto _ : state) {
    last = MqmApproxAnalyze(summary, length, options).ValueOrDie();
    benchmark::DoNotOptimize(last.sigma_max);
  }
  state.counters["sigma_max"] = last.sigma_max;
}
BENCHMARK(BM_MqmApproxLength)
    ->ArgsProduct({{10000, 1000000, 1000000000}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

// ------------------------------------------------ streaming / appends --
//
// The continual-release workload: a chain that grows by delta observations
// per serving tick. BM_Streaming_Append measures the steady-state cost of
// ChainMqmAnalysis::ExtendTo; BM_Streaming_Cold throws the analysis away
// and re-runs the full dedup scan, the baseline an append is compared
// against (Append/<T>/<delta<=100>/<s> vs Cold/<T>/<s>). The argument s
// picks the path:
//  - 0: point-mass initial, shortcut off — the dedup scan re-keys
//       O(max_nearby) boundary nodes and streams the delta appended ones;
//  - 1: stationary initial, shortcut on (the engines' default) — Lemma C.4
//       scores only the middle node, and the memoized score makes an
//       append O(1) once the middle's clip distances saturate.
// Fixed iteration counts keep the growing T near its nominal value across
// the run.

constexpr std::size_t kStreamK = 8;

MarkovChain StreamChain(bool stationary) {
  const MarkovChain chain = DeltaChain(kStreamK);
  if (!stationary) return chain;
  return MarkovChain::Make(chain.StationaryDistribution().ValueOrDie(),
                           chain.transition())
      .ValueOrDie();
}

void BM_Streaming_Append(benchmark::State& state) {
  const std::size_t base = static_cast<std::size_t>(state.range(0));
  const std::size_t delta = static_cast<std::size_t>(state.range(1));
  const bool stationary = state.range(2) != 0;
  const MarkovChain chain = StreamChain(stationary);
  ChainMqmAnalysis analysis =
      ChainMqmAnalysis::Analyze({chain}, base, Options(true, stationary))
          .ValueOrDie();
  std::size_t t = base;
  for (auto _ : state) {
    t += delta;
    if (!analysis.ExtendTo(t).ok()) state.SkipWithError("ExtendTo failed");
    benchmark::DoNotOptimize(analysis.result().sigma_max);
  }
  state.counters["final_T"] = static_cast<double>(t);
  state.counters["shortcut"] = analysis.result().used_stationary_shortcut;
  ReportChainCounters(state, analysis.result());
}
BENCHMARK(BM_Streaming_Append)
    ->ArgsProduct({{10000, 100000}, {1, 100, 10000}, {0, 1}})
    ->Iterations(50)
    ->Unit(benchmark::kMicrosecond);

void BM_Streaming_Cold(benchmark::State& state) {
  const std::size_t length = static_cast<std::size_t>(state.range(0));
  const bool stationary = state.range(1) != 0;
  const MarkovChain chain = StreamChain(stationary);
  ChainMqmResult last;
  for (auto _ : state) {
    last = MqmExactAnalyze({chain}, length, Options(true, stationary))
               .ValueOrDie();
    benchmark::DoNotOptimize(last.sigma_max);
  }
  ReportChainCounters(state, last);
}
BENCHMARK(BM_Streaming_Cold)
    ->ArgsProduct({{10000, 100000}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pf

BENCHMARK_MAIN();
