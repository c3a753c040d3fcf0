// stream-append: a closed loop with one client over an activity chain
// class (k = 4, MQMExact, resumable). Each epoch appends 1 to 8
// observations with AppendObservations, opens a fresh session and issues
// four suffix-window releases. The append invalidates the compiled-query
// cache, so the epoch's first release extends the cached analysis
// (AnalysisCache::GetOrExtend); the other three are warm. Every
// kCycleEpochs epochs the engine is set up afresh at the initial length,
// so the record, the engine's state and the run's memory stay bounded
// however many epochs a run completes.
#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "data/activity.h"
#include "inputs.h"
#include "trace.h"

namespace pfbench {
namespace {

constexpr std::size_t kInitialLength = 4096;
constexpr std::size_t kStates = pf::kNumActivityStates;
/// One engine thread: on a shared host, the time of work split across
/// threads (and of spawning them) follows how many vCPUs the host lends at
/// the moment, by up to 3x; one thread's time does not.
constexpr std::size_t kEngineThreads = 1;
constexpr std::size_t kReleasesPerEpoch = 4;
constexpr std::size_t kMaxDelta = 8;
/// Epochs per engine. After them, untimed by the epoch, the engine is
/// torn down and set up again at the initial length (each such set-up is
/// timed into setup_s), so the record grows by at most
/// kCycleEpochs * kMaxDelta observations.
constexpr std::size_t kCycleEpochs = 250;
/// Epochs per latency window: the p50 window is one engine cycle, short
/// (a few tens of ms), so a run holds many and the least disturbed one is
/// found even when the host is quiet only in brief stretches; the tail
/// window is long enough for a p99.
constexpr std::size_t kP50Window = kCycleEpochs;
constexpr std::size_t kTailWindow = 4 * kCycleEpochs;
constexpr std::uint64_t kDigestEpochs = 50;
constexpr std::array<std::size_t, 3> kWindows = {64, 256, 1024};

pf::QuerySpec Shape(std::size_t shape, double epsilon) {
  switch (shape) {
    case 0: return pf::QuerySpec::Sum(epsilon);
    case 1: return pf::QuerySpec::Mean(epsilon);
    case 2: return pf::QuerySpec::StateFrequency(0, epsilon);
    default: return pf::QuerySpec::FrequencyHistogram(epsilon);
  }
}

class StreamAppend : public Workload {
 public:
  void MakeInputs(std::uint64_t seed, double /*seconds*/) override {
    seed_ = seed;
    // Every observation one engine cycle can append; each cycle starts
    // again from the initial prefix.
    stream_ = SampleRecord(ActivityChain(),
                           kInitialLength + kCycleEpochs * kMaxDelta, seed);
    record_.reserve(stream_.size());
    std::uint64_t state = Mix64(seed ^ 0x57E4);
    epsilon_ = 0.8 + 0.4 * UnitDouble(&state);
    mix_seed_ = Mix64(seed ^ 0xE90C);
  }

  void Setup() override {
    engine_ = MustCreate(Model(kInitialLength), Options());
    for (std::size_t s = 0; s < 4; ++s) {
      for (std::size_t w : kWindows) (void)engine_->Compile(Shape(s, epsilon_), w);
    }
    record_.assign(stream_.begin(), stream_.begin() + kInitialLength);
  }

  void Teardown() override { engine_.reset(); }

  Digest DigestLeg() override {
    Digest digest;
    Checks checks;
    for (std::uint64_t i = 0; i < kDigestEpochs; ++i) {
      std::int64_t end = 0;
      Epoch(i, &end, &digest, &checks, nullptr);
    }
    return digest;
  }

  void Run(double seconds, bool trace, RunOutput* out) override {
    LatencySamples warm(LatencyLog::kKept);
    out->latency.SetWindows(kP50Window, kTailWindow);
    samples_.clear();
    depth_max_ = 0;
    max_length_ = 0;
    executor_ = pf::Executor::Stats();
    cache_ = pf::AnalysisCache::Stats();
    RunClosedLoop(seconds, trace, kDigestEpochs,
                  [&](std::uint64_t i, std::int64_t* end) {
                    const double work =
                        Epoch(i, end, &out->digest, &out->checks, &warm);
                    if ((i + 1) % kCycleEpochs == 0) Recycle(out);
                    return work;
                  },
                  out);
    // The last epoch's plan is re-derived too: it may be the longest
    // record the run reached in its cycle.
    samples_.push_back(last_);
    const Summary epoch = out->latency.all().Summarize(out->wall_s * 1e6);
    const Summary request = warm.Summarize(out->wall_s * 1e6);
    out->report = {
        {"epoch_p50_ms", epoch.p50 / 1e3, "ms"},
        {"epoch_p99_ms", epoch.tail / 1e3, "ms"},
        {"request_p50_us", request.p50, "us"},
        {"request_p99_us", request.tail, "us"},
        {"max_record_length", static_cast<double>(max_length_), "count"},
        {"engine_cycles", static_cast<double>(out->setup_s.size() + 1),
         "count"},
    };
    out->counters = {
        {"engine.session.refused", static_cast<double>(out->failed), "count"},
        {"engine.executor.queue_depth_max", static_cast<double>(depth_max_),
         "count"},
    };
  }

  void Verify(RunOutput* out) override {
    // Sampled extended plans must equal a cold analysis at their length.
    for (const auto& [length, sigma] : samples_) {
      out->checks.Expect(
          sigma == ColdSigma(Model(length), Options(), epsilon_),
          "extended plan at length " + std::to_string(length) +
              " differs from a cold analysis");
    }
    out->checks.Expect(!samples_.empty(), "no extended plan was sampled");
    // No epoch is ever refused here, so any failure fails the run.
    out->checks.Expect(out->failed == 0, "an epoch failed or was refused");
    Fold();
    out->checks.Expect(
        executor_.submitted == executor_.admitted + executor_.shed,
        "executor counters: submitted != admitted + shed");
    out->counters.push_back(
        {"engine.executor.shed", static_cast<double>(executor_.shed), "count"});
    out->counters.push_back({"pufferfish.analysis_cache.hits",
                             static_cast<double>(cache_.hits), "count"});
    out->counters.push_back({"pufferfish.analysis_cache.misses",
                             static_cast<double>(cache_.misses), "count"});
    out->counters.push_back({"pufferfish.analysis_cache.extensions",
                             static_cast<double>(cache_.extensions), "count"});
  }

  ProbeTarget Target() override {
    ProbeTarget t;
    t.engine = engine_.get();
    t.record = &record_;
    t.warm_spec = Shape(0, epsilon_);
    for (std::size_t s = 0; s < 4; ++s) {
      for (std::size_t w : kWindows) t.batch.Add(Shape(s, epsilon_), pf::DataWindow::Last(w));
    }
    t.seed = seed_;
    return t;
  }

 private:
  static pf::ModelSpec Model(std::size_t length) {
    return pf::ModelSpec::ChainClass({ActivityChain()}, length);
  }
  static pf::EngineOptions Options() {
    pf::EngineOptions options;
    options.num_threads = kEngineThreads;
    // Stay on the resumable exact analysis as the record grows.
    options.mechanism = pf::MechanismKind::kMqmExact;
    // Every append adds a plan at the new length; a small cache keeps
    // memory from growing with the number of epochs a run completes.
    options.cache_capacity = 16;
    return options;
  }

  /// Adds the current engine's counters to the run's totals.
  void Fold() {
    const pf::Executor::Stats e = engine_->executor().stats();
    executor_.submitted += e.submitted;
    executor_.admitted += e.admitted;
    executor_.shed += e.shed;
    const pf::AnalysisCache::Stats c = engine_->cache_stats();
    cache_.hits += c.hits;
    cache_.misses += c.misses;
    cache_.extensions += c.extensions;
  }

  /// Ends an engine cycle: the engine is torn down and set up again at
  /// the initial length, and the set-up is timed into setup_s.
  void Recycle(RunOutput* out) {
    Fold();
    Teardown();
    const std::int64_t start = NowNs();
    Setup();
    out->setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }

  /// One suffix-window release; checked outside its timed part.
  bool ReleaseOne(pf::Session* session, std::size_t shape, std::size_t window,
                  const char* span_name, std::uint64_t op, Digest* digest,
                  Checks* checks, double* sigma_seen) {
    const pf::QuerySpec spec = Shape(shape, epsilon_);
    pf::Result<pf::ReleaseResult> result = [&] {
      Span span(span_name);
      return session->Release(spec, record_, pf::DataWindow::Last(window));
    }();
    if (!result.ok()) return false;
    const pf::ReleaseResult& rel = result.value();
    const Truth truth =
        BuiltinTruth(spec, record_.data() + (record_.size() - window), window,
                     kStates, window);
    if (*sigma_seen < 0.0) *sigma_seen = rel.sigma;
    Expected want;
    want.truth = truth.values.data();
    want.dim = truth.values.size();
    want.epsilon = epsilon_;
    want.sigma = *sigma_seen;  // Pinned to a cold analysis by Verify.
    want.lipschitz = truth.lipschitz;
    CheckRelease(rel.value.data(), rel.value.size(), rel.epsilon, rel.sigma,
                 -1.0, want, checks);
    if (digest != nullptr) digest->Add(op, rel.value.data(), rel.value.size());
    return true;
  }

  /// Epoch i: append, then the releases. The timed part (the epoch
  /// latency) ends after the first release at the new length; the second
  /// (warm) release is timed into `warm`.
  double Epoch(std::uint64_t i, std::int64_t* end, Digest* digest,
               Checks* checks, LatencySamples* warm) {
    std::uint64_t mix = Mix64(mix_seed_ + i);
    const std::size_t delta = 1 + static_cast<std::size_t>(UnitDouble(&mix) * kMaxDelta);
    if (record_.size() + delta > stream_.size()) return -1.0;
    {
      Span span("engine.append");
      if (!engine_->AppendObservations(delta).ok()) return -1.0;
    }
    record_.insert(record_.end(), stream_.begin() + record_.size(),
                   stream_.begin() + record_.size() + delta);
    pf::SessionOptions options;
    options.seed = Mix64(seed_ ^ (0x5E55ULL + i));
    auto session = engine_->CreateSession(options);
    Digest* d = i < kDigestEpochs ? digest : nullptr;
    double sigma = -1.0;
    std::size_t ok = 0;
    for (std::size_t r = 0; r < kReleasesPerEpoch; ++r) {
      const auto shape = static_cast<std::size_t>(UnitDouble(&mix) * 4.0);
      const std::size_t window = kWindows[static_cast<std::size_t>(UnitDouble(&mix) * 3.0)];
      const std::int64_t start = NowNs();
      const bool released =
          ReleaseOne(session.get(), shape, window,
                     r == 0 ? "engine.session.release_first"
                            : "engine.session.release",
                     i * kReleasesPerEpoch + r, d, checks, &sigma);
      if (r == 0) *end = NowNs();
      depth_max_ = std::max(depth_max_, engine_->executor().queue_depth());
      if (!released) {
        if (warm != nullptr && r == 1) warm->AddFailure();
        return -1.0;
      }
      ++ok;
      // One warm release per epoch is sampled, to keep the benchmark's
      // own memory small.
      if (warm != nullptr && r == 1) {
        warm->Add(static_cast<double>(NowNs() - start) / 1e3);
      }
    }
    checks->Expect(session->num_releases() == ok &&
                       SpendMatches(session->EpsilonSpent(), ok, epsilon_),
                   "epoch session's EpsilonSpent differs from the Theorem "
                   "4.4 composed spend");
    // Sampled at geometrically spaced epochs (0, 1, 2, 3, 7, 15, ...),
    // which land at varied points, so record lengths, of their cycles.
    last_ = {record_.size(), sigma};
    if (i < 4 || (i & (i + 1)) == 0) samples_.push_back(last_);
    max_length_ = std::max(max_length_, record_.size());
    return static_cast<double>(ok);
  }

  std::uint64_t seed_ = 0;
  std::uint64_t mix_seed_ = 0;
  double epsilon_ = 1.0;
  /// The initial record and every observation one cycle may append.
  pf::StateSequence stream_;
  /// The record as the engine currently knows it.
  pf::StateSequence record_;
  std::unique_ptr<pf::PrivacyEngine> engine_;
  /// (record length, sigma) of sampled epochs, re-derived cold by Verify.
  std::vector<std::pair<std::size_t, double>> samples_;
  std::pair<std::size_t, double> last_;
  std::size_t depth_max_ = 0;
  std::size_t max_length_ = 0;
  /// Counters of the engines of finished cycles (and, after Verify, of
  /// the last one).
  pf::Executor::Stats executor_;
  pf::AnalysisCache::Stats cache_;
};

}  // namespace

std::unique_ptr<Workload> MakeStreamAppend() {
  return std::make_unique<StreamAppend>();
}

}  // namespace pfbench
