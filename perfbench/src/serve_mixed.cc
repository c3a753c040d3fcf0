// serve-mixed: open-loop Poisson traffic from 32 tenant sessions over
// activity-model records (k = 4, MQMExact, warm plans). The mix is async
// Submit, sync Release, windowed Submit(DataWindow::Last) and small
// SubmitColumnar batches of 1 to 64 rows. Two generator threads each own
// half the tenants and an independent Poisson stream at half the rate;
// the engine serves with two executor workers (4 threads in all).
#include <algorithm>
#include <array>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "bench.h"
#include "data/activity.h"
#include "inputs.h"
#include "trace.h"

namespace pfbench {
namespace {

constexpr std::size_t kTenants = 32;
constexpr std::size_t kGenerators = 2;
constexpr std::size_t kEngineThreads = 2;
constexpr std::size_t kLength = 4096;
constexpr std::size_t kStates = pf::kNumActivityStates;
/// The p99 latency limit of the open loop, in us.
constexpr double kLatencyLimitUs = 250.0;
/// Offered load in requests per second: about half of the highest rate
/// that meets the p99 limit on a 4-core x86-64 host (see README.md).
constexpr double kRate = 30000.0;
constexpr std::array<double, 3> kEpsilons = {0.5, 1.0, 2.0};
/// Windows: the whole record, then suffixes.
constexpr std::array<std::size_t, 4> kWindows = {0, 256, 1024, 2048};
/// Query shapes: Sum, Mean, StateFrequency(0..3), CountHistogram,
/// FrequencyHistogram.
constexpr std::size_t kShapes = 8;
constexpr std::size_t kBatchShapesPerEpsilon = 64;
/// Requests per latency window of one generator (1000 is 1/15 s of its
/// traffic): the tail window is long enough for a p99.
constexpr std::size_t kP50Window = 1000;
constexpr std::size_t kTailWindow = 1000;
/// Requests per generator whose released values form the digest.
constexpr std::size_t kDigestRequests = 1500;

pf::QuerySpec Shape(std::size_t shape, double epsilon) {
  switch (shape) {
    case 0: return pf::QuerySpec::Sum(epsilon);
    case 1: return pf::QuerySpec::Mean(epsilon);
    case 6: return pf::QuerySpec::CountHistogram(epsilon);
    case 7: return pf::QuerySpec::FrequencyHistogram(epsilon);
    default:
      return pf::QuerySpec::StateFrequency(static_cast<int>(shape - 2),
                                           epsilon);
  }
}

pf::DataWindow Window(std::size_t w) {
  return kWindows[w] == 0 ? pf::DataWindow::All()
                          : pf::DataWindow::Last(kWindows[w]);
}

enum class Op { kSubmit, kRelease, kSubmitWindow, kColumnar };

struct Request {
  std::int64_t due_ns = 0;  // Offset from the loop start.
  std::uint32_t tenant = 0;
  Op op = Op::kSubmit;
  std::uint32_t shape = 0;   // Scalar shape, or batch-shape index.
  std::uint32_t window = 0;  // Window index (kSubmitWindow).
};

struct BatchShape {
  pf::BatchQuerySpec spec;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> rows;  // (shape, window)
};

class ServeMixed : public Workload {
 public:
  void MakeInputs(std::uint64_t seed, double seconds) override {
    seed_ = seed;
    std::uint64_t state = Mix64(seed ^ 0x5E7E);
    for (std::size_t t = 0; t < kTenants; ++t) {
      records_[t] = SampleRecord(ActivityChain(), kLength, Mix64(seed + t));
      shared_records_[t] =
          std::make_shared<const pf::StateSequence>(records_[t]);
      tenant_eps_[t] = static_cast<std::uint32_t>((t + seed) % kEpsilons.size());
      // Truth of every (window, shape), computed here, outside timing.
      for (std::size_t w = 0; w < kWindows.size(); ++w) {
        const std::size_t n = kWindows[w] == 0 ? kLength : kWindows[w];
        const int* data = records_[t].data() + (kLength - n);
        for (std::size_t s = 0; s < kShapes; ++s) {
          truth_[t][w][s] = BuiltinTruth(Shape(s, 1.0), data, n, kStates, n);
        }
      }
    }
    for (std::size_t e = 0; e < kEpsilons.size(); ++e) {
      for (std::size_t b = 0; b < kBatchShapesPerEpsilon; ++b) {
        BatchShape shape;
        const std::size_t rows = 1 + b;  // Every size from 1 to 64 once.
        for (std::size_t r = 0; r < rows; ++r) {
          const auto s = static_cast<std::uint32_t>(UnitDouble(&state) * kShapes);
          const auto w = static_cast<std::uint32_t>(UnitDouble(&state) *
                                                    kWindows.size());
          shape.spec.Add(Shape(s, kEpsilons[e]), Window(w));
          shape.rows.emplace_back(s, w);
        }
        batches_[e].push_back(std::move(shape));
      }
    }
    // Long enough for the run plus the digest prefix at any rate.
    const double per_generator = kRate / kGenerators;
    const double horizon =
        std::max(seconds + 1.0, 2.0 * kDigestRequests / per_generator);
    for (std::size_t g = 0; g < kGenerators; ++g) {
      const std::vector<std::int64_t> due =
          PoissonSchedule(per_generator, horizon, Mix64(seed * 31 + g));
      std::uint64_t mix = Mix64(seed ^ (0xA11CE + g));
      schedules_[g].clear();
      for (std::int64_t d : due) {
        Request r;
        r.due_ns = d;
        r.tenant = static_cast<std::uint32_t>(
            g + kGenerators * static_cast<std::size_t>(
                                  UnitDouble(&mix) * (kTenants / kGenerators)));
        const double u = UnitDouble(&mix);
        r.op = u < 0.4   ? Op::kSubmit
               : u < 0.6 ? Op::kRelease
               : u < 0.8 ? Op::kSubmitWindow
                         : Op::kColumnar;
        r.shape = static_cast<std::uint32_t>(
            UnitDouble(&mix) *
            (r.op == Op::kColumnar ? kBatchShapesPerEpsilon : kShapes));
        r.window = 1 + static_cast<std::uint32_t>(UnitDouble(&mix) * 3.0);
        schedules_[g].push_back(r);
      }
    }
    for (std::size_t e = 0; e < kEpsilons.size(); ++e) {
      ref_sigma_[e] = ColdSigma(Model(), Options(), kEpsilons[e]);
    }
  }

  void Setup() override {
    engine_ = MustCreate(Model(), Options());
    for (std::size_t e = 0; e < kEpsilons.size(); ++e) {
      for (std::size_t s = 0; s < kShapes; ++s) {
        for (std::size_t w = 0; w < kWindows.size(); ++w) {
          (void)engine_->Compile(Shape(s, kEpsilons[e]), kWindows[w]);
        }
      }
    }
    // One task spawns the executor's workers.
    if (auto permit = engine_->executor().TryAcquire(); permit.ok()) {
      engine_->executor().Submit(std::move(permit).value(), [] { return 0; })
          .wait();
    }
    for (std::size_t t = 0; t < kTenants; ++t) {
      pf::SessionOptions options;
      options.seed = Mix64(seed_ ^ (0x7E4A47ULL + t));
      options.epsilon_budget = 1e12;
      sessions_[t] = engine_->CreateSession(options);
      ledger_[t] = {};
    }
  }

  void Teardown() override {
    for (auto& s : sessions_) s.reset();
    engine_.reset();
  }

  Digest DigestLeg() override {
    Digest digest;
    for (std::size_t g = 0; g < kGenerators; ++g) {
      Generator gen(this, g);
      for (std::size_t j = 0; j < kDigestRequests; ++j) {
        gen.Issue(j, NowNs(), TracingOn());
        gen.Drain();
      }
      digest.Merge(gen.digest);
    }
    return digest;
  }

  void Run(double seconds, bool trace, RunOutput* out) override {
    std::vector<std::unique_ptr<Generator>> gens;
    for (std::size_t g = 0; g < kGenerators; ++g) {
      gens.push_back(std::make_unique<Generator>(this, g));
    }
    const std::int64_t horizon = static_cast<std::int64_t>(seconds * 1e9);
    const std::int64_t start = NowNs() + 2000000;  // Both threads start here.
    std::vector<std::thread> threads;
    for (auto& gen : gens) {
      gen->start = start;
      gen->horizon = horizon;
      threads.emplace_back([&gen, trace] { gen->Loop(trace); });
    }
    for (std::thread& t : threads) t.join();
    out->peak_rss_mb = PeakRssMb();
    const double wall_s = static_cast<double>(NowNs() - start) / 1e9;
    std::size_t depth_max = 0;
    double rows = 0.0;
    // Each generator cuts its own requests into windows.
    out->latency.SetWindows(kP50Window, kTailWindow);
    for (auto& gen : gens) {
      out->latency.Merge(gen->latency);
      out->generator_lag.Append(gen->lag);
      out->checks.Merge(gen->checks);
      out->digest.Merge(gen->digest);
      rows += gen->rows;
      out->attempted += gen->attempted;
      out->failed += gen->failed;
      depth_max = std::max(depth_max, gen->depth_max);
    }
    out->wall_s = wall_s;
    out->work = static_cast<double>(out->attempted - out->failed);
    const Summary s = out->latency.all().Summarize(wall_s * 1e6);
    out->report = {
        {"request_p50_us", s.p50, "us"},
        {"request_p99_us", s.tail, "us"},
        {"rows_per_s", rows / wall_s, "1/s"},
        {"offered_rate", kRate, "1/s"},
        {"p99_limit_us", kLatencyLimitUs, "us"},
        {"p99_limit_met", out->latency.all().MeetsLimit(kLatencyLimitUs) ? 1.0 : 0.0,
         "bool"},
    };
    out->counters = {
        {"engine.executor.queue_depth_max", static_cast<double>(depth_max),
         "count"},
        {"engine.session.refused", static_cast<double>(out->failed), "count"},
    };
  }

  void Verify(RunOutput* out) override {
    for (std::size_t t = 0; t < kTenants; ++t) {
      const double eps = kEpsilons[tenant_eps_[t]];
      out->checks.Expect(
          sessions_[t]->num_releases() == ledger_[t],
          "tenant " + std::to_string(t) + ": ledger counts " +
              std::to_string(sessions_[t]->num_releases()) +
              " releases, the benchmark saw " + std::to_string(ledger_[t]));
      out->checks.Expect(
          SpendMatches(sessions_[t]->EpsilonSpent(), ledger_[t],
                       ledger_[t] == 0 ? 0.0 : eps),
          "tenant " + std::to_string(t) +
              ": EpsilonSpent differs from the Theorem 4.4 composed spend");
    }
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
    t.record = &records_[0];
    t.warm_spec = Shape(0, kEpsilons[tenant_eps_[0]]);
    t.batch = batches_[tenant_eps_[0]][0].spec;
    // The largest batch shape of the tenant's epsilon.
    for (const BatchShape& b : batches_[tenant_eps_[0]]) {
      if (b.spec.size() > t.batch.size()) t.batch = b.spec;
    }
    t.seed = seed_;
    return t;
  }

 private:
  pf::ModelSpec Model() const {
    return pf::ModelSpec::ChainClass({ActivityChain()}, kLength);
  }
  static pf::EngineOptions Options() {
    pf::EngineOptions options;
    options.num_threads = kEngineThreads;
    return options;
  }

  /// One generator thread: issues its schedule, observes completions.
  struct Generator {
    using Future = std::variant<std::future<pf::Result<pf::ReleaseResult>>,
                                std::future<pf::Result<pf::BatchReleaseResult>>>;
    struct Pending {
      std::size_t index;
      std::int64_t due_abs;
      std::int64_t call_start;
      std::int64_t call_end;
      bool traced;
      Future future;
    };

    Generator(ServeMixed* w, std::size_t g)
        : w(w), g(g), schedule(w->schedules_[g]) {
      latency.SetWindows(kP50Window, kTailWindow);
    }

    /// Issues request j (due at absolute time due_abs).
    void Issue(std::size_t j, std::int64_t due_abs, bool traced) {
      const Request& r = schedule[j];
      pf::Session* session = w->sessions_[r.tenant].get();
      const std::uint32_t e = w->tenant_eps_[r.tenant];
      const std::int64_t call_start = NowNs();
      ++attempted;
      switch (r.op) {
        case Op::kRelease: {
          pf::Result<pf::ReleaseResult> result =
              session->Release(Shape(r.shape, kEpsilons[e]), w->records_[r.tenant]);
          const std::int64_t done = NowNs();
          if (traced) Trace("engine.session.release", j, due_abs, call_start, done, done);
          FinishScalar(j, result, r, 0, done, traced);
          return;
        }
        case Op::kSubmit:
        case Op::kSubmitWindow: {
          const std::uint32_t win = r.op == Op::kSubmit ? 0 : r.window;
          auto future =
              win == 0 ? session->Submit(Shape(r.shape, kEpsilons[e]),
                                         w->shared_records_[r.tenant])
                       : session->Submit(Shape(r.shape, kEpsilons[e]),
                                         w->records_[r.tenant], Window(win));
          pending.push_back(
              {j, due_abs, call_start, NowNs(), traced, std::move(future)});
          return;
        }
        case Op::kColumnar: {
          const BatchShape& shape = w->batches_[e][r.shape];
          auto future =
              session->SubmitColumnar(shape.spec, w->records_[r.tenant]);
          pending.push_back(
              {j, due_abs, call_start, NowNs(), traced, std::move(future)});
          return;
        }
      }
    }

    /// Records the request's spans: root from due time to completion, the
    /// generator's lateness, the call, and the wait for the future.
    void Trace(const char* call, std::size_t j, std::int64_t due_abs,
               std::int64_t call_start, std::int64_t call_end,
               std::int64_t done) {
      const std::uint64_t request = OpId(j) + 1;
      const std::int64_t root =
          RecordSpan("bench.request", due_abs, done, request, -1);
      if (call_start > due_abs) {
        RecordSpan("bench.generator_lag", due_abs, call_start, request, root);
      }
      RecordSpan(call, call_start, call_end, request, root);
      if (done > call_end) {
        RecordSpan("engine.executor.resolve", call_end, done, request, root);
      }
    }

    /// Checks and records a finished scalar release.
    void FinishScalar(std::size_t j, pf::Result<pf::ReleaseResult>& result,
                      const Request& r, std::uint32_t win, std::int64_t done,
                      bool traced) {
      const double us = LatencyFromScheduleUs(start, schedule[j].due_ns, done);
      if (!result.ok()) {
        Failed(traced);
        return;
      }
      const pf::ReleaseResult& rel = result.value();
      const std::uint32_t e = w->tenant_eps_[r.tenant];
      const Truth& truth = w->truth_[r.tenant][win][r.shape];
      Expected want;
      want.truth = truth.values.data();
      want.dim = truth.values.size();
      want.epsilon = kEpsilons[e];
      want.sigma = w->ref_sigma_[e];
      want.lipschitz = truth.lipschitz;
      CheckRelease(rel.value.data(), rel.value.size(), rel.epsilon, rel.sigma,
                   -1.0, want, &checks);
      if (j < kDigestRequests) {
        digest.Add(OpId(j), rel.value.data(), rel.value.size());
      }
      ++w->ledger_[r.tenant];
      rows += 1.0;
      latency.Add(us, traced);
    }

    void FinishBatch(std::size_t j, pf::Result<pf::BatchReleaseResult>& result,
                     const Request& r, std::int64_t done, bool traced) {
      const double us = LatencyFromScheduleUs(start, schedule[j].due_ns, done);
      if (!result.ok()) {
        Failed(traced);
        return;
      }
      const pf::RecordBatch& batch = result.value().batch;
      const std::uint32_t e = w->tenant_eps_[r.tenant];
      const BatchShape& shape = w->batches_[e][r.shape];
      checks.Expect(batch.num_rows() == shape.rows.size(),
                    "columnar result has the wrong row count");
      if (batch.num_rows() != shape.rows.size()) return;
      for (std::size_t i = 0; i < batch.num_rows(); ++i) {
        const auto [s, win] = shape.rows[i];
        const Truth& truth = w->truth_[r.tenant][win][s];
        Expected want;
        want.truth = truth.values.data();
        want.dim = truth.values.size();
        want.epsilon = kEpsilons[e];
        want.sigma = w->ref_sigma_[e];
        want.lipschitz = truth.lipschitz;
        CheckRelease(batch.row(i), batch.row_size(i), batch.epsilons()[i],
                     batch.sigmas()[i], batch.noise_scales()[i], want, &checks);
      }
      if (j < kDigestRequests) {
        digest.Add(OpId(j), batch.values(), batch.num_values());
      }
      w->ledger_[r.tenant] += batch.num_rows();
      rows += static_cast<double>(batch.num_rows());
      latency.Add(us, traced);
    }

    std::uint64_t OpId(std::size_t j) const {
      return (static_cast<std::uint64_t>(g) << 40) | j;
    }

    void Failed(bool traced) {
      ++failed;
      latency.AddFailure(traced);
    }

    /// Completes every pending request that is ready (all when `wait`).
    void Poll(bool wait) {
      for (std::size_t i = 0; i < pending.size();) {
        Pending& p = pending[i];
        const bool ready = std::visit(
            [wait](auto& f) {
              if (wait) f.wait();
              return f.wait_for(std::chrono::seconds(0)) ==
                     std::future_status::ready;
            },
            p.future);
        if (!ready) {
          ++i;
          continue;
        }
        const std::int64_t done = NowNs();
        const Request& r = schedule[p.index];
        {
          TraceScope scope(p.traced);
          if (p.traced) {
            Trace(r.op == Op::kColumnar ? "engine.session.submit_columnar"
                                        : "engine.session.submit",
                  p.index, p.due_abs, p.call_start, p.call_end, done);
          }
        }
        if (r.op == Op::kColumnar) {
          auto result = std::get<1>(p.future).get();
          FinishBatch(p.index, result, r, done, p.traced);
        } else {
          auto result = std::get<0>(p.future).get();
          FinishScalar(p.index, result, r,
                       r.op == Op::kSubmit ? 0 : r.window, done, p.traced);
        }
        pending[i] = std::move(pending.back());
        pending.pop_back();
      }
    }
    void Drain() { Poll(/*wait=*/true); }

    void Loop(bool trace) {
      while (NowNs() < start) {
      }
      for (std::size_t j = 0; j < schedule.size(); ++j) {
        if (schedule[j].due_ns >= horizon) break;
        const std::int64_t due_abs = start + schedule[j].due_ns;
        while (NowNs() < due_abs) Poll(false);
        const std::int64_t now = NowNs();
        if (trace) lag.Add(static_cast<double>(now - due_abs) / 1e3);
        depth_max = std::max(depth_max, w->engine_->executor().queue_depth());
        const bool traced = InTracedBlock(trace, schedule[j].due_ns);
        TraceScope scope(traced);
        Issue(j, due_abs, traced);
        Poll(false);
      }
      Drain();
    }

    ServeMixed* w;
    std::size_t g;
    const std::vector<Request>& schedule;
    std::vector<Pending> pending;
    /// Loop start and measured span (ns).
    std::int64_t start = 0;
    std::int64_t horizon = 1;
    LatencyLog latency;
    LatencySamples lag{LatencyLog::kKept};
    Checks checks;
    Digest digest;
    double rows = 0.0;
    std::size_t attempted = 0, failed = 0, depth_max = 0;
  };

  std::uint64_t seed_ = 0;
  std::array<pf::StateSequence, kTenants> records_;
  std::array<std::shared_ptr<const pf::StateSequence>, kTenants> shared_records_;
  std::array<std::uint32_t, kTenants> tenant_eps_{};
  std::array<std::array<std::array<Truth, kShapes>, kWindows.size()>, kTenants>
      truth_;
  std::array<std::vector<BatchShape>, kEpsilons.size()> batches_;
  std::array<std::vector<Request>, kGenerators> schedules_;
  std::array<double, kEpsilons.size()> ref_sigma_{};
  std::unique_ptr<pf::PrivacyEngine> engine_;
  std::array<std::unique_ptr<pf::Session>, kTenants> sessions_;
  /// OK releases (rows) per tenant, as the benchmark counted them. Each
  /// tenant is served by one generator thread, so no two threads touch
  /// the same entry.
  std::array<std::size_t, kTenants> ledger_{};
};

}  // namespace

std::unique_ptr<Workload> MakeServeMixed() {
  return std::make_unique<ServeMixed>();
}

}  // namespace pfbench
