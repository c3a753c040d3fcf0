// Concurrency stress over the arena-backed hot paths, meant for the
// ASan/UBSan CI leg (-DPF_SANITIZE=ON): many threads driving Analyze /
// ExtendTo / Compile against ONE engine while the record grows. The
// engine's locks serialize what must be serial (resumable extensions, the
// model hot-swap); the per-thread arenas and scratch buffers must keep
// every thread's analysis bytes disjoint — exactly what the sanitizers
// check. The functional assertions are deliberately light; determinism is
// pinned elsewhere (mqm_streaming_test, parallel_test).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "graphical/bayesian_network.h"
#include "graphical/markov_chain.h"

namespace pf {
namespace {

MarkovChain StressChain() {
  return MarkovChain::Make({0.6, 0.4}, Matrix{{0.8, 0.2}, {0.3, 0.7}})
      .ValueOrDie();
}

TEST(HotPathStressTest, ConcurrentCompileAndAppendOnOneChainEngine) {
  auto engine =
      PrivacyEngine::Create(ModelSpec::ChainClass({StressChain()}, 200))
          .ValueOrDie();
  constexpr int kReaders = 4;
  constexpr int kItersPerReader = 25;
  constexpr int kAppends = 20;
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);
  // Readers: compile and re-analyze at a per-thread epsilon while the
  // record grows underneath them. Every answer must be a valid plan for
  // SOME length the engine passed through — the locks guarantee that; the
  // sanitizers guarantee the scratch reuse behind it never aliases.
  for (int reader = 0; reader < kReaders; ++reader) {
    threads.emplace_back([&engine, &failed, reader] {
      const double epsilon = 0.5 + 0.25 * reader;
      for (int i = 0; i < kItersPerReader; ++i) {
        const auto compiled = engine->Compile(QuerySpec::Mean(epsilon));
        if (!compiled.ok() || compiled.ValueOrDie().plan->sigma <= 0.0) {
          failed.store(true);
          return;
        }
        const auto stats = engine->AnalyzeStats(epsilon);
        if (!stats.ok() || stats.ValueOrDie().total_nodes == 0) {
          failed.store(true);
          return;
        }
      }
    });
  }
  // Writer: grow the record one observation at a time — each append
  // invalidates compiled queries and extends the resumable analyses.
  threads.emplace_back([&engine, &failed] {
    for (int i = 0; i < kAppends; ++i) {
      if (!engine->AppendObservations(1).ok()) {
        failed.store(true);
        return;
      }
      std::this_thread::yield();
    }
  });
  for (std::thread& t : threads) t.join();
  ASSERT_FALSE(failed.load());
  EXPECT_EQ(engine->record_length(), 200u + kAppends);

  // The final state still answers exactly like a cold engine at the grown
  // length (spot check, not the full bit-identity suite).
  auto cold = PrivacyEngine::Create(
                  ModelSpec::ChainClass({StressChain()}, 200 + kAppends))
                  .ValueOrDie();
  EXPECT_DOUBLE_EQ(
      engine->Compile(QuerySpec::Mean(1.0)).ValueOrDie().plan->sigma,
      cold->Compile(QuerySpec::Mean(1.0)).ValueOrDie().plan->sigma);
}

TEST(HotPathStressTest, ConcurrentNetworkAnalysesShareThreadLocalArenas) {
  const MarkovChain chain = StressChain();
  auto engine = PrivacyEngine::Create(
                    ModelSpec::NetworkClass(
                        {BayesianNetwork::FromMarkovChain(
                             chain.initial(), chain.transition(), 24)
                             .ValueOrDie()}))
                    .ValueOrDie();
  constexpr int kThreads = 4;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  // Distinct epsilons defeat the plan cache. The first miss builds the
  // model's quilt-influence table (elimination on the thread that misses
  // first); every later epsilon only scores that table. The sibling test
  // below keeps the elimination workspaces under concurrent load.
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, &failed, t] {
      for (int i = 0; i < 6; ++i) {
        const double epsilon = 1.0 + 0.1 * (t * 6 + i);
        const auto stats = engine->AnalyzeStats(epsilon);
        if (!stats.ok() || stats.ValueOrDie().total_nodes != 24u) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_FALSE(failed.load());
}

TEST(HotPathStressTest, ConcurrentNetworkColdAnalysesShareThreadLocalArenas) {
  const MarkovChain chain = StressChain();
  auto engine = PrivacyEngine::Create(
                    ModelSpec::NetworkClass(
                        {BayesianNetwork::FromMarkovChain(
                             chain.initial(), chain.transition(), 24)
                             .ValueOrDie()}))
                    .ValueOrDie();
  const std::shared_ptr<const Mechanism> mechanism = engine->mechanism();
  const double reference = mechanism->Analyze(1.0).ValueOrDie().sigma;
  constexpr int kThreads = 4;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  // Mechanism::Analyze bypasses the cache, so every call runs the full
  // elimination-backed analysis — each thread on its own thread_local
  // elimination workspace.
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mechanism, &failed, reference, t] {
      for (int i = 0; i < 6; ++i) {
        const double epsilon = (i % 2 == 0) ? 1.0 : 1.0 + 0.1 * (t * 6 + i);
        const auto plan = mechanism->Analyze(epsilon);
        if (!plan.ok() || plan.ValueOrDie().mqm.total_nodes != 24u ||
            (epsilon == 1.0 && plan.ValueOrDie().sigma != reference)) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_FALSE(failed.load());
}

}  // namespace
}  // namespace pf
