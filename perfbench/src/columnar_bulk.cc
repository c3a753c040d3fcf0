// columnar-bulk: a closed loop with one client issuing 4096-row
// SubmitColumnar batches of all five built-in kinds over 32 windows of an
// electricity record (k = 51, T = 10^6 > approx_length_cutoff, so
// MQMApprox serves it; the 4 MB record is larger than a 2 MiB L2).
#include <algorithm>
#include <array>
#include <future>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "data/electricity.h"
#include "inputs.h"
#include "trace.h"

namespace pfbench {
namespace {

constexpr std::size_t kLength = 1000000;
constexpr std::size_t kStates = pf::kNumPowerLevels;
constexpr std::size_t kEngineThreads = 3;
constexpr std::size_t kRows = 4096;
constexpr std::size_t kWindows = 32;
constexpr std::size_t kBatchShapes = 8;
/// StateFrequency rows ask for one of the first kMatchStates power levels.
constexpr int kMatchStates = 4;
/// Operations per latency window: short for the p50, long enough for a
/// p90 tail.
constexpr std::size_t kP50Window = 30;
constexpr std::size_t kTailWindow = 120;
constexpr std::uint64_t kDigestBatches = 4;

struct Row {
  std::uint32_t window = 0;
  pf::QueryKind kind = pf::QueryKind::kSum;
  int state = 0;
};

pf::QuerySpec Spec(const Row& row, double epsilon) {
  switch (row.kind) {
    case pf::QueryKind::kSum: return pf::QuerySpec::Sum(epsilon);
    case pf::QueryKind::kMean: return pf::QuerySpec::Mean(epsilon);
    case pf::QueryKind::kStateFrequency:
      return pf::QuerySpec::StateFrequency(row.state, epsilon);
    case pf::QueryKind::kCountHistogram:
      return pf::QuerySpec::CountHistogram(epsilon);
    default: return pf::QuerySpec::FrequencyHistogram(epsilon);
  }
}

class ColumnarBulk : public Workload {
 public:
  void MakeInputs(std::uint64_t seed, double /*seconds*/) override {
    seed_ = seed;
    record_ = ElectricityRecord(kLength, seed);
    std::uint64_t state = Mix64(seed ^ 0xC01);
    epsilon_ = 0.8 + 0.4 * UnitDouble(&state);
    for (std::size_t w = 0; w < kWindows; ++w) {
      const auto len = static_cast<std::size_t>(
          (0.03125 + 0.09375 * UnitDouble(&state)) * kLength);
      const auto offset =
          static_cast<std::size_t>(UnitDouble(&state) * (kLength - len));
      windows_[w] = pf::DataWindow::Range(offset, len);
    }
    static constexpr pf::QueryKind kKinds[] = {
        pf::QueryKind::kSum, pf::QueryKind::kMean,
        pf::QueryKind::kStateFrequency, pf::QueryKind::kCountHistogram,
        pf::QueryKind::kFrequencyHistogram};
    for (std::size_t b = 0; b < kBatchShapes; ++b) {
      shapes_[b].clear();
      batches_[b] = pf::BatchQuerySpec();
      for (std::size_t r = 0; r < kRows; ++r) {
        Row row;
        row.window = static_cast<std::uint32_t>(UnitDouble(&state) * kWindows);
        row.kind = kKinds[static_cast<std::size_t>(UnitDouble(&state) * 5.0)];
        row.state = static_cast<int>(UnitDouble(&state) * kMatchStates);
        shapes_[b].push_back(row);
        batches_[b].Add(Spec(row, epsilon_), windows_[row.window]);
      }
    }
    // Truth per (window, kind, state), outside timing.
    for (std::size_t w = 0; w < kWindows; ++w) {
      const int* data = record_.data() + windows_[w].offset;
      const std::size_t n = windows_[w].length;
      for (const pf::QueryKind kind : kKinds) {
        for (int s = 0; s < (kind == pf::QueryKind::kStateFrequency ? kMatchStates : 1); ++s) {
          Row row{static_cast<std::uint32_t>(w), kind, s};
          truth_[Key(row)] = BuiltinTruth(Spec(row, 1.0), data, n, kStates, n);
        }
      }
    }
    ref_sigma_ = ColdSigma(Model(), Options(), epsilon_);
  }

  void Setup() override {
    engine_ = MustCreate(Model(), Options());
    for (const pf::BatchQuerySpec& batch : batches_) {
      (void)pf::CompileBatchPlan(engine_.get(), batch, record_.size());
    }
    // One batch per executor worker, all in flight at once, so every worker
    // has executed a full batch before the run (and its allocations are
    // part of every run's peak RSS, not only of runs whose batches happened
    // to land on it).
    std::vector<std::unique_ptr<pf::Session>> sessions;
    std::vector<std::future<pf::Result<pf::BatchReleaseResult>>> warm;
    for (std::size_t w = 0; w < kEngineThreads; ++w) {
      pf::SessionOptions options;
      options.seed = Mix64(seed_ ^ (0x3A73ULL + w));
      sessions.push_back(engine_->CreateSession(options));
      warm.push_back(sessions.back()->SubmitColumnar(batches_[w], record_));
    }
    for (auto& f : warm) (void)f.get();
    depth_max_ = 0;
  }

  void Teardown() override {
    engine_.reset();
  }

  Digest DigestLeg() override {
    Digest digest;
    Checks checks;
    for (std::uint64_t i = 0; i < kDigestBatches; ++i) {
      std::int64_t end = 0;
      Batch(i, &end, &digest, &checks);
    }
    return digest;
  }

  void Run(double seconds, bool trace, RunOutput* out) override {
    out->latency.SetWindows(kP50Window, kTailWindow);
    RunClosedLoop(seconds, trace, kDigestBatches,
                  [this, out](std::uint64_t i, std::int64_t* end) {
                    return Batch(i, end, &out->digest, &out->checks);
                  },
                  out);
    const Summary s = out->latency.all().Summarize(out->wall_s * 1e6);
    out->report = {
        {"rows_per_s", out->work / out->wall_s, "1/s"},
        {"batch_p50_ms", s.p50 / 1e3, "ms"},
        {"batch_p99_ms", s.tail / 1e3, "ms"},
    };
    out->counters = {
        {"engine.session.refused", static_cast<double>(out->failed), "count"},
        {"engine.executor.queue_depth_max", static_cast<double>(depth_max_),
         "count"},
    };
  }

  void Verify(RunOutput* out) override {
    // One client never overruns the executor, so no batch is refused.
    out->checks.Expect(out->failed == 0, "a batch failed or was refused");
    const pf::Executor::Stats stats = engine_->executor().stats();
    out->checks.Expect(stats.submitted == stats.admitted + stats.shed,
                       "executor counters: submitted != admitted + shed");
    const pf::AnalysisCache::Stats cache = engine_->cache_stats();
    out->counters.push_back(
        {"engine.executor.shed", static_cast<double>(stats.shed), "count"});
    out->counters.push_back({"pufferfish.analysis_cache.hits",
                             static_cast<double>(cache.hits), "count"});
    out->counters.push_back({"pufferfish.analysis_cache.misses",
                             static_cast<double>(cache.misses), "count"});
    out->counters.push_back({"pufferfish.analysis_cache.extensions",
                             static_cast<double>(cache.extensions), "count"});
  }

  ProbeTarget Target() override {
    ProbeTarget t;
    t.engine = engine_.get();
    t.record = &record_;
    t.warm_spec = pf::QuerySpec::Sum(epsilon_);
    t.batch = batches_[0];
    t.seed = seed_;
    return t;
  }

 private:
  static std::uint32_t Key(const Row& row) {
    return (row.window << 8) | (static_cast<std::uint32_t>(row.kind) << 4) |
           static_cast<std::uint32_t>(row.kind == pf::QueryKind::kStateFrequency
                                          ? row.state
                                          : 0);
  }
  pf::ModelSpec Model() const {
    return pf::ModelSpec::ChainClass({ElectricityChain()}, kLength);
  }
  static pf::EngineOptions Options() {
    pf::EngineOptions options;
    options.num_threads = kEngineThreads;
    return options;
  }

  /// Submits batch i from a fresh session and waits; checks after the
  /// timed part. (A session per batch keeps the ledger, which grows by a
  /// row per release, from growing with the run.)
  double Batch(std::uint64_t i, std::int64_t* end, Digest* digest,
               Checks* checks) {
    const std::size_t b = i % kBatchShapes;
    pf::SessionOptions options;
    options.seed = Mix64(seed_ ^ (0xB01CULL + i));
    const std::unique_ptr<pf::Session> session = engine_->CreateSession(options);
    pf::Result<pf::BatchReleaseResult> result = [&] {
      Span span("engine.session.submit_columnar");
      auto future = session->SubmitColumnar(batches_[b], record_);
      depth_max_ = std::max(depth_max_, engine_->executor().queue_depth());
      return future.get();
    }();
    *end = NowNs();
    if (!result.ok()) return -1.0;
    const pf::RecordBatch& batch = result.value().batch;
    checks->Expect(batch.num_rows() == kRows,
                   "columnar result has the wrong row count");
    if (batch.num_rows() != kRows) return -1.0;
    for (std::size_t r = 0; r < kRows; ++r) {
      const Truth& truth = truth_.at(Key(shapes_[b][r]));
      Expected want;
      want.truth = truth.values.data();
      want.dim = truth.values.size();
      want.epsilon = epsilon_;
      want.sigma = ref_sigma_;
      want.lipschitz = truth.lipschitz;
      CheckRelease(batch.row(r), batch.row_size(r), batch.epsilons()[r],
                   batch.sigmas()[r], batch.noise_scales()[r], want, checks);
    }
    if (i < kDigestBatches) digest->Add(i, batch.values(), batch.num_values());
    checks->Expect(session->num_releases() == kRows &&
                       SpendMatches(session->EpsilonSpent(), kRows, epsilon_),
                   "EpsilonSpent differs from the Theorem 4.4 composed spend");
    return static_cast<double>(kRows);
  }

  std::uint64_t seed_ = 0;
  pf::StateSequence record_;
  double epsilon_ = 1.0;
  double ref_sigma_ = 0.0;
  std::array<pf::DataWindow, kWindows> windows_;
  std::array<std::vector<Row>, kBatchShapes> shapes_;
  std::array<pf::BatchQuerySpec, kBatchShapes> batches_;
  std::map<std::uint32_t, Truth> truth_;
  std::unique_ptr<pf::PrivacyEngine> engine_;
  std::size_t depth_max_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeColumnarBulk() {
  return std::make_unique<ColumnarBulk>();
}

}  // namespace pfbench
