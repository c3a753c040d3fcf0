// cold-analyze: a closed loop whose operation cold-compiles a never-seen
// epsilon on four engines — activity (MQMExact), electricity (MQMApprox),
// a binary tree network (MQM-general via variable elimination) and flu
// output pairs (Wasserstein) — the paper's Table 2 quantity. After each
// cycle, untimed by the cycle, a restart leg runs SaveAnalyses, a fresh
// Create, LoadAnalyses and a first Release on the activity engine. Every
// kCyclesPerSetup cycles the engines are set up afresh, untimed by the
// cycle and timed into setup_s.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench.h"
#include "data/activity.h"
#include "inputs.h"
#include "trace.h"

namespace pfbench {
namespace {

constexpr std::size_t kActivityLength = 9500;
constexpr std::size_t kElectricityLength = 1000000;
constexpr std::size_t kTreeNodes = 31;
constexpr std::size_t kFluCliques = 6;
/// One engine thread: on a shared host, the time of work split across
/// threads (and of spawning them) follows how many vCPUs the host lends at
/// the moment, by up to 3x; one thread's time does not.
constexpr std::size_t kEngineThreads = 1;
/// Plans the restart engine holds (its snapshot's contents).
constexpr std::size_t kRestartPlans = 4;
/// Operations per latency window: the p50 window is short (about 50 ms),
/// so a run holds many and the least disturbed one is found even when the
/// host is quiet only in brief stretches; the tail window is long enough
/// for a p90.
constexpr std::size_t kP50Window = 5;
constexpr std::size_t kTailWindow = 120;
/// Cycles between in-run set-ups (each timed into setup_s): frequent
/// enough that a brief quiet stretch of the host holds several.
constexpr std::size_t kCyclesPerSetup = 10;
constexpr std::uint64_t kDigestCycles = 2;
/// Plans each engine keeps (FIFO eviction beyond).
constexpr std::size_t kCacheCapacity = 16;
/// Releases of the untimed noise check in Verify.
constexpr std::size_t kNoiseReleases = 200;

enum Engine : std::size_t { kExact, kApprox, kGeneral, kWasserstein, kEngines };
constexpr const char* kAnalyzeNames[kEngines] = {
    "analyze_mqm_exact_ms", "analyze_mqm_approx_ms", "analyze_mqm_general_ms",
    "analyze_wasserstein_ms"};

class ColdAnalyze : public Workload {
 public:
  explicit ColdAnalyze(std::string out_dir)
      : snapshot_path_(std::move(out_dir) + "/cold-analyze-" +
                       std::to_string(::getpid()) + ".pfplan") {}

  void MakeInputs(std::uint64_t seed, double /*seconds*/) override {
    seed_ = seed;
    std::uint64_t state = Mix64(seed ^ 0xC07D);
    base_epsilon_ = 0.9 + 0.2 * UnitDouble(&state);
    record_ = SampleRecord(ActivityChain(), kActivityLength, seed);
    models_[kExact] = pf::ModelSpec::ChainClass({ActivityChain()}, kActivityLength);
    models_[kApprox] =
        pf::ModelSpec::ChainClass({ElectricityChain()}, kElectricityLength);
    models_[kGeneral] = pf::ModelSpec::NetworkClass(TreeNetworks(kTreeNodes));
    models_[kWasserstein] = pf::ModelSpec::OutputPairs(FluPairs(kFluCliques));
    for (std::size_t p = 0; p < kRestartPlans; ++p) {
      restart_eps_[p] = 0.5 + 0.25 * static_cast<double>(p) + 0.01 * UnitDouble(&state);
      restart_sigma_[p] = ColdSigma(models_[kExact], Options(), restart_eps_[p]);
    }
    sum_truth_ = BuiltinTruth(pf::QuerySpec::Sum(1.0), record_.data(),
                              record_.size(), pf::kNumActivityStates,
                              record_.size());
  }

  void Setup() override {
    for (std::size_t e = 0; e < kEngines; ++e) {
      engines_[e] = MustCreate(models_[e], Options());
    }
    restart_engine_ = MustCreate(models_[kExact], Options());
    for (double eps : restart_eps_) {
      (void)restart_engine_->Compile(pf::QuerySpec::Sum(eps));
    }
  }

  void Teardown() override {
    for (auto& e : engines_) e.reset();
    restart_engine_.reset();
  }

  Digest DigestLeg() override {
    Digest digest;
    Checks checks;
    for (std::uint64_t i = 0; i < kDigestCycles; ++i) {
      std::int64_t end = 0;
      Cycle(i, &end, &digest, &checks);
    }
    return digest;
  }

  void Run(double seconds, bool trace, RunOutput* out) override {
    for (auto& t : engine_ms_) t = LatencySamples(LatencyLog::kKept);
    restart_ = LatencySamples(LatencyLog::kKept);
    plans_.clear();
    depth_max_ = 0;
    executor_ = pf::Executor::Stats();
    cache_ = pf::AnalysisCache::Stats();
    out->latency.SetWindows(kP50Window, kTailWindow);
    RunClosedLoop(seconds, trace, kDigestCycles,
                  [&](std::uint64_t i, std::int64_t* end) {
                    const double work =
                        Cycle(i, end, &out->digest, &out->checks);
                    if ((i + 1) % kCyclesPerSetup == 0) Recycle(out);
                    return work;
                  },
                  out);
    SamplePlans(last_eps_, last_sigma_);
    const Summary cycle = out->latency.all().Summarize(out->wall_s * 1e6);
    const Summary restart = restart_.Summarize(out->wall_s * 1e6);
    out->report = {
        {"analyze_p50_ms", cycle.p50 / 1e3, "ms"},
        {"analyze_p90_ms", cycle.tail / 1e3, "ms"},
        {"restart_p50_ms", restart.p50 / 1e3, "ms"},
    };
    for (std::size_t e = 0; e < kEngines; ++e) {
      out->report.push_back(
          {kAnalyzeNames[e], engine_ms_[e].Summarize(0.0).p50 / 1e3, "ms"});
    }
    out->counters = {
        {"engine.session.refused", static_cast<double>(out->failed), "count"},
    };
  }

  void Verify(RunOutput* out) override {
    // Sampled cold plans must equal a cold analysis on an uncached engine.
    for (const auto& [e, eps, sigma] : plans_) {
      out->checks.Expect(sigma == ColdSigma(models_[e], Options(), eps),
                         std::string(kAnalyzeNames[e]) +
                             ": compiled sigma differs from a cold analysis");
    }
    // Released noise: a batch of warm releases on the restart engine.
    pf::SessionOptions options;
    options.seed = Mix64(seed_ ^ 0x0153);
    auto session = restart_engine_->CreateSession(options);
    std::size_t ok = 0;
    for (std::size_t r = 0; r < kNoiseReleases; ++r) {
      pf::Result<pf::ReleaseResult> rel =
          session->Release(pf::QuerySpec::Sum(restart_eps_[0]), record_);
      if (!rel.ok()) continue;
      ++ok;
      CheckRestartRelease(rel.value(), 0, &out->checks);
    }
    out->checks.Expect(ok == kNoiseReleases, "a noise-check release failed");
    out->checks.Expect(
        session->num_releases() == ok &&
            SpendMatches(session->EpsilonSpent(), ok, restart_eps_[0]),
        "EpsilonSpent differs from the Theorem 4.4 composed spend");
    // No cycle is ever refused here, so any failure fails the run.
    out->checks.Expect(out->failed == 0, "a cycle failed or was refused");
    Fold();
    out->checks.Expect(
        executor_.submitted == executor_.admitted + executor_.shed,
        "executor counters: submitted != admitted + shed");
    const pf::AnalysisCache::Stats& cache = cache_;
    out->counters.push_back(
        {"engine.executor.shed", static_cast<double>(executor_.shed), "count"});
    out->counters.push_back({"engine.executor.queue_depth_max",
                             static_cast<double>(depth_max_), "count"});
    out->counters.push_back({"pufferfish.analysis_cache.hits",
                             static_cast<double>(cache.hits), "count"});
    out->counters.push_back({"pufferfish.analysis_cache.misses",
                             static_cast<double>(cache.misses), "count"});
    out->counters.push_back({"pufferfish.analysis_cache.extensions",
                             static_cast<double>(cache.extensions), "count"});
    std::remove(snapshot_path_.c_str());
  }

  ProbeTarget Target() override {
    ProbeTarget t;
    t.engine = restart_engine_.get();
    t.record = &record_;
    t.warm_spec = pf::QuerySpec::Sum(restart_eps_[0]);
    t.batch.Add(pf::QuerySpec::Sum(restart_eps_[0]))
        .Add(pf::QuerySpec::CountHistogram(restart_eps_[0]));
    t.seed = seed_;
    return t;
  }

 private:
  static pf::EngineOptions Options() {
    pf::EngineOptions options;
    options.num_threads = kEngineThreads;
    // Every cycle adds a plan per engine; a small cache keeps memory from
    // growing with the number of cycles a run completes.
    options.cache_capacity = kCacheCapacity;
    return options;
  }

  void SamplePlans(double eps, const std::array<double, kEngines>& sigma) {
    for (std::size_t e = 0; e < kEngines; ++e) plans_.emplace_back(e, eps, sigma[e]);
  }

  /// Adds the counters of the four cold engines to the run's totals.
  void Fold() {
    for (const auto& engine : engines_) {
      const pf::Executor::Stats e = engine->executor().stats();
      executor_.submitted += e.submitted;
      executor_.admitted += e.admitted;
      executor_.shed += e.shed;
      const pf::AnalysisCache::Stats c = engine->cache_stats();
      cache_.hits += c.hits;
      cache_.misses += c.misses;
      cache_.extensions += c.extensions;
    }
  }

  /// Tears the engines down and sets them up again, timed into setup_s.
  void Recycle(RunOutput* out) {
    Fold();
    Teardown();
    const std::int64_t start = NowNs();
    Setup();
    out->setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }

  void CheckRestartRelease(const pf::ReleaseResult& rel, std::size_t plan,
                           Checks* checks) const {
    Expected want;
    want.truth = sum_truth_.values.data();
    want.dim = 1;
    want.epsilon = restart_eps_[plan];
    want.sigma = restart_sigma_[plan];
    want.lipschitz = sum_truth_.lipschitz;
    CheckRelease(rel.value.data(), rel.value.size(), rel.epsilon, rel.sigma,
                 -1.0, want, checks);
  }

  /// Cycle i: four cold compiles (timed), then the restart leg.
  double Cycle(std::uint64_t i, std::int64_t* end, Digest* digest,
               Checks* checks) {
    // Never seen: the cache keys plans by the epsilon's bit pattern.
    const double eps = base_epsilon_ + 1e-7 * static_cast<double>(i + 1);
    std::array<double, kEngines> sigma{};
    for (std::size_t e = 0; e < kEngines; ++e) {
      const std::int64_t start = NowNs();
      pf::Result<pf::PrivacyEngine::CompiledQuery> compiled = [&] {
        Span span("engine.compile.cold");
        return engines_[e]->Compile(pf::QuerySpec::Sum(eps));
      }();
      engine_ms_[e].Add(static_cast<double>(NowNs() - start) / 1e3);
      depth_max_ = std::max(depth_max_, engines_[e]->executor().queue_depth());
      if (!compiled.ok()) return -1.0;
      sigma[e] = compiled.value().plan->sigma;
      checks->Expect(compiled.value().plan->epsilon == eps,
                     "compiled plan has the wrong epsilon");
    }
    *end = NowNs();
    if (i < kDigestCycles) digest->Add(i, sigma.data(), sigma.size());
    // Sampled at geometrically spaced cycles (0, 1, 3, 7, ...) and, after
    // the run, at the last one.
    last_eps_ = eps;
    last_sigma_ = sigma;
    if ((i & (i + 1)) == 0) SamplePlans(eps, sigma);
    return Restart(i, digest, checks) ? static_cast<double>(kEngines) : -1.0;
  }

  /// Save, fresh engine, load, first release; timed into restart_.
  bool Restart(std::uint64_t i, Digest* digest, Checks* checks) {
    const std::size_t plan = i % kRestartPlans;
    const std::int64_t start = NowNs();
    {
      Span span("pufferfish.plan_store.save");
      if (!restart_engine_->SaveAnalyses(snapshot_path_).ok()) return false;
    }
    std::unique_ptr<pf::PrivacyEngine> fresh;
    {
      Span span("engine.create");
      fresh = MustCreate(models_[kExact], Options());
    }
    {
      Span span("pufferfish.plan_store.load");
      pf::Result<std::size_t> loaded = fresh->LoadAnalyses(snapshot_path_);
      if (!loaded.ok() || loaded.value() != kRestartPlans) return false;
    }
    pf::SessionOptions options;
    options.seed = Mix64(seed_ ^ (0x4E57ULL + i));
    auto session = fresh->CreateSession(options);
    pf::Result<pf::ReleaseResult> rel = [&] {
      Span span("engine.session.release");
      return session->Release(pf::QuerySpec::Sum(restart_eps_[plan]), record_);
    }();
    restart_.Add(static_cast<double>(NowNs() - start) / 1e3);
    if (!rel.ok()) return false;
    checks->Expect(fresh->cache_stats().misses == 0,
                   "first release after LoadAnalyses re-analyzed cold");
    CheckRestartRelease(rel.value(), plan, checks);
    if (i < kDigestCycles) {
      digest->Add(1000 + i, rel.value().value.data(), rel.value().value.size());
    }
    return true;
  }

  const std::string snapshot_path_;
  std::uint64_t seed_ = 0;
  double base_epsilon_ = 1.0;
  pf::StateSequence record_;
  Truth sum_truth_;
  std::array<pf::ModelSpec, kEngines> models_;
  std::array<double, kRestartPlans> restart_eps_{};
  std::array<double, kRestartPlans> restart_sigma_{};
  std::array<std::unique_ptr<pf::PrivacyEngine>, kEngines> engines_;
  std::unique_ptr<pf::PrivacyEngine> restart_engine_;
  std::array<LatencySamples, kEngines> engine_ms_;
  LatencySamples restart_;
  std::size_t depth_max_ = 0;
  /// Counters of torn-down engines (and, after Verify, of the last ones).
  pf::Executor::Stats executor_;
  pf::AnalysisCache::Stats cache_;
  /// (engine, epsilon, sigma) of sampled cold plans, re-derived by Verify.
  std::vector<std::tuple<std::size_t, double, double>> plans_;
  double last_eps_ = 0.0;
  std::array<double, kEngines> last_sigma_{};
};

}  // namespace

std::unique_ptr<Workload> MakeColdAnalyze(const std::string& out_dir) {
  return std::make_unique<ColdAnalyze>(out_dir);
}

}  // namespace pfbench
