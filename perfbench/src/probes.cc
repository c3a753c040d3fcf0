// Layer probes of a traced run: each probe calls one layer's public entry
// point directly, on the workload's own engine and inputs (and, for the
// analysis layers, on the four cold-analysis models), inside spans named
// after the layer. The per-layer metrics are the median self times of
// those spans together with the spans of the workload's own traffic.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "engine/batch_kernels.h"
#include "inputs.h"
#include "layers.h"
#include "pufferfish/composition.h"
#include "trace.h"

namespace pfbench {
namespace {

constexpr int kReps = 200;
constexpr int kSlowReps = 20;

/// Cold-analysis models of the analyze probes (as in cold-analyze).
constexpr std::size_t kActivityLength = 9500;
constexpr std::size_t kElectricityLength = 1000000;
constexpr std::size_t kTreeNodes = 31;
constexpr std::size_t kFluCliques = 6;
constexpr int kAnalyzeReps = 3;

template <typename T>
T Probe(pf::Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "pf-bench: probe %s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(result).value();
}

void ProbeSession(const ProbeTarget& t) {
  pf::SessionOptions options;
  options.seed = Mix64(t.seed ^ 0x9E55);
  auto session = t.engine->CreateSession(options);
  (void)session->Release(t.warm_spec, *t.record);  // Warms the compile cache.
  for (int i = 0; i < kReps; ++i) {
    Span span("engine.session.release");
    (void)Probe(session->Release(t.warm_spec, *t.record), "Session::Release");
  }
  auto shared = std::make_shared<const pf::StateSequence>(*t.record);
  for (int i = 0; i < kReps; ++i) {
    Span root("bench.probe.submit");
    std::future<pf::Result<pf::ReleaseResult>> future;
    {
      Span span("engine.session.submit");
      future = session->Submit(t.warm_spec, shared);
    }
    Span span("engine.executor.resolve");
    (void)Probe(future.get(), "Session::Submit");
  }
}

void ProbeExecutor(const ProbeTarget& t) {
  pf::Executor& executor = t.engine->executor();
  for (int i = 0; i < kReps; ++i) {
    auto started = std::make_shared<std::atomic<std::int64_t>>(0);
    const std::int64_t call = NowNs();
    pf::Executor::Permit permit = Probe(executor.TryAcquire(), "TryAcquire");
    auto future = executor.Submit(std::move(permit), [started] {
      started->store(NowNs(), std::memory_order_relaxed);
      return 0;
    });
    future.wait();
    RecordSpan("engine.executor.handoff", call,
               started->load(std::memory_order_relaxed));
  }
}

void ProbeCompile(const ProbeTarget& t) {
  for (int i = 0; i < kReps; ++i) {
    Span span("engine.compile.warm");
    (void)Probe(t.engine->Compile(t.warm_spec), "Compile (warm)");
  }
  for (int i = 0; i < 3; ++i) {
    // A never-seen epsilon: the plan cache misses and analyzes cold.
    const pf::QuerySpec cold =
        t.warm_spec.WithEpsilon(t.warm_spec.epsilon * (1.0 + 1e-6 * (i + 1)));
    Span span("engine.compile.cold");
    (void)Probe(t.engine->Compile(cold), "Compile (cold)");
  }
}

/// Batch plan compile + execute; returns unique queries per row.
double ProbeBatchPlan(const ProbeTarget& t) {
  const std::size_t n = t.record->size();
  pf::CompiledBatchPlan plan =
      Probe(pf::CompileBatchPlan(t.engine, t.batch, n), "CompileBatchPlan");
  for (int i = 0; i < kSlowReps; ++i) {
    Span span("engine.batch_plan.compile");
    plan = Probe(pf::CompileBatchPlan(t.engine, t.batch, n), "CompileBatchPlan");
  }
  for (int i = 0; i < kSlowReps; ++i) {
    Span span("engine.batch_plan.execute");
    (void)Probe(pf::ExecuteBatchPlan(plan, *t.record, t.seed,
                                     static_cast<std::uint64_t>(i) * plan.num_rows()),
                "ExecuteBatchPlan");
  }
  return static_cast<double>(plan.logical.unique.size()) /
         static_cast<double>(plan.num_rows());
}

void ProbeKernels(const ProbeTarget& t) {
  const pf::StateSequence& record = *t.record;
  pf::AggregateSpec spec;
  spec.k = t.engine->num_states();
  spec.need_sum = true;
  spec.match_states = {0, 1};
  std::vector<std::int64_t> counts(spec.k), matches(2);
  for (int i = 0; i < kSlowReps; ++i) {
    // Exactly kAggregateObs observations per span, in record-sized chunks.
    Span span("engine.batch_kernels.aggregate");
    for (std::size_t done = 0; done < kAggregateObs;) {
      const std::size_t n = std::min(record.size(), kAggregateObs - done);
      pf::AggregateStats stats;
      stats.counts = counts.data();
      stats.match_counts = matches.data();
      pf::AggregateStates(record.data(), n, spec, &stats);
      done += n;
    }
  }
  std::vector<double> lipschitz(kKernelRows), sigmas(kKernelRows),
      scales(kKernelRows), values(kKernelRows);
  std::vector<std::size_t> offsets(kKernelRows + 1);
  std::vector<std::uint64_t> seeds(kKernelRows);
  for (std::size_t r = 0; r < kKernelRows; ++r) {
    lipschitz[r] = 1.0 + static_cast<double>(r % 7);
    sigmas[r] = 2.0;
    offsets[r] = r;
    seeds[r] = pf::TicketNoiseSeed(t.seed, r);
  }
  offsets[kKernelRows] = kKernelRows;
  for (int i = 0; i < kReps; ++i) {
    Span span("engine.batch_kernels.clip");
    pf::ClipScales(lipschitz.data(), sigmas.data(), kKernelRows, scales.data());
  }
  for (int i = 0; i < kSlowReps; ++i) {
    Span span("engine.batch_kernels.noise");
    pf::BatchLaplaceNoise(values.data(), offsets.data(), scales.data(),
                          seeds.data(), kKernelRows);
  }
}

void ProbeScalarRelease(const ProbeTarget& t) {
  const pf::PrivacyEngine::CompiledQuery q =
      Probe(t.engine->Compile(t.warm_spec), "Compile (warm)");
  const pf::Vector value(1, 100.0);
  std::uint64_t ticket = 0;
  for (int i = 0; i < kSlowReps; ++i) {
    Span span("pufferfish.release");
    for (std::size_t d = 0; d < kDrawsPerSpan; ++d) {
      // Per-ticket stream initialisation is part of every scalar release.
      pf::Rng rng(pf::TicketNoiseSeed(t.seed, ticket++));
      (void)Probe(pf::ReleaseVector(*q.plan, value, q.query.lipschitz, &rng),
                  "ReleaseVector");
    }
  }
}

void ProbeComposition(const ProbeTarget& t) {
  const pf::PrivacyEngine::CompiledQuery q =
      Probe(t.engine->Compile(t.warm_spec), "Compile (warm)");
  const pf::MarkovQuilt& quilt = q.plan->chain.active_quilt;
  const double eps = q.plan->epsilon;
  for (int i = 0; i < kSlowReps; ++i) {
    pf::CompositionAccountant accountant;
    Span span("pufferfish.composition.charge");
    for (std::size_t c = 0; c < kChargesPerSpan; ++c) {
      if (!pf::ComposedBudgetAdmits(accountant.num_releases() + 1, eps, 1e12) ||
          !accountant.RecordReleaseStrict(eps, quilt).ok()) {
        std::fprintf(stderr, "pf-bench: probe composition refused a charge\n");
        std::exit(2);
      }
    }
  }
}

void ProbeExtension(std::uint64_t seed) {
  pf::EngineOptions options;
  options.num_threads = 2;
  options.mechanism = pf::MechanismKind::kMqmExact;
  auto engine = MustCreate(
      pf::ModelSpec::ChainClass({ActivityChain()}, 4096), options);
  const pf::QuerySpec spec = pf::QuerySpec::Sum(1.0);
  (void)Probe(engine->Compile(spec), "Compile (extension seed)");
  std::uint64_t mix = Mix64(seed ^ 0xE7E);
  for (int i = 0; i < kSlowReps; ++i) {
    const std::size_t delta = 1 + static_cast<std::size_t>(UnitDouble(&mix) * 8.0);
    {
      Span span("engine.append");
      if (!engine->AppendObservations(delta).ok()) std::exit(2);
    }
    Span span("pufferfish.extend");
    (void)Probe(engine->Compile(spec), "Compile (extend)");
  }
}

/// Analysis probes on the four cold-analysis models, then their stats.
std::vector<Metric> ProbeAnalysis(std::uint64_t seed,
                                  const std::string& out_dir) {
  pf::EngineOptions options;
  options.num_threads = 1;
  const pf::ModelSpec models[] = {
      pf::ModelSpec::ChainClass({ActivityChain()}, kActivityLength),
      pf::ModelSpec::ChainClass({ElectricityChain()}, kElectricityLength),
      pf::ModelSpec::NetworkClass(TreeNetworks(kTreeNodes)),
      pf::ModelSpec::OutputPairs(FluPairs(kFluCliques))};
  const char* names[] = {"pufferfish.analyze.mqm_exact",
                         "pufferfish.analyze.mqm_approx",
                         "pufferfish.analyze.mqm_general",
                         "pufferfish.analyze.wasserstein"};
  std::uint64_t state = Mix64(seed ^ 0xA7A);
  std::size_t total_nodes = 0, scored_nodes = 0, peak_bytes = 0, mallocs = 0,
              induced_width = 0;
  std::unique_ptr<pf::PrivacyEngine> exact_engine;
  for (std::size_t m = 0; m < 4; ++m) {
    auto engine = MustCreate(models[m], options);
    const auto mechanism = engine->mechanism();
    for (int i = 0; i < kAnalyzeReps; ++i) {
      const double eps = 0.9 + 0.2 * UnitDouble(&state);
      Span span(names[m]);
      (void)Probe(mechanism->Analyze(eps), "Mechanism::Analyze");
    }
    const pf::PrivacyEngine::AnalysisStats stats =
        Probe(engine->AnalyzeStats(0.9 + 0.2 * UnitDouble(&state)),
              "AnalyzeStats");
    total_nodes += stats.total_nodes;
    scored_nodes += stats.scored_nodes;
    peak_bytes = std::max(peak_bytes, stats.memory.peak_bytes);
    mallocs += stats.memory.mallocs;
    induced_width = std::max(induced_width, stats.induced_width);
    if (m == 0) exact_engine = std::move(engine);
  }
  // Warm restart of the exact engine, with a few served plans in its cache.
  for (int i = 0; i < kAnalyzeReps; ++i) {
    (void)Probe(exact_engine->Compile(
                    pf::QuerySpec::Sum(0.9 + 0.2 * UnitDouble(&state))),
                "Compile (snapshot plan)");
  }
  const std::string path =
      out_dir + "/probe-" + std::to_string(::getpid()) + ".pfplan";
  double snapshot_bytes = 0.0;
  for (int i = 0; i < kSlowReps; ++i) {
    Span root("bench.probe.restart");
    {
      Span span("pufferfish.plan_store.save");
      if (!exact_engine->SaveAnalyses(path).ok()) std::exit(2);
    }
    std::unique_ptr<pf::PrivacyEngine> fresh;
    {
      Span span("engine.create");
      fresh = MustCreate(models[0], options);
    }
    Span span("pufferfish.plan_store.load");
    (void)Probe(fresh->LoadAnalyses(path), "LoadAnalyses");
  }
  struct stat st {};
  if (::stat(path.c_str(), &st) == 0) snapshot_bytes = static_cast<double>(st.st_size);
  std::remove(path.c_str());
  return {
      {"pufferfish.analyze.scored_nodes", static_cast<double>(scored_nodes),
       "count"},
      {"pufferfish.analyze.dedup_ratio",
       scored_nodes == 0 ? 1.0
                         : static_cast<double>(total_nodes) /
                               static_cast<double>(scored_nodes),
       "ratio"},
      {"pufferfish.analyze.peak_bytes", static_cast<double>(peak_bytes), "bytes"},
      {"pufferfish.analyze.mallocs", static_cast<double>(mallocs), "count"},
      {"graphical.elimination.induced_width", static_cast<double>(induced_width),
       "count"},
      {"pufferfish.plan_store.snapshot_bytes", snapshot_bytes, "bytes"},
  };
}

}  // namespace

std::vector<Metric> ProbeLayers(const ProbeTarget& target,
                                const std::string& out_dir) {
  TraceScope scope(true);
  ProbeSession(target);
  ProbeExecutor(target);
  ProbeCompile(target);
  const double unique_per_row = ProbeBatchPlan(target);
  ProbeKernels(target);
  ProbeScalarRelease(target);
  ProbeComposition(target);
  ProbeExtension(target.seed);
  std::vector<Metric> facts = ProbeAnalysis(target.seed, out_dir);
  facts.push_back({"engine.batch_plan.unique_per_row", unique_per_row, "ratio"});
  return facts;
}

}  // namespace pfbench
