#include "layers.h"

#include <algorithm>

namespace pfbench {

const std::vector<SpanMetric>& SpanMetrics() {
  static const std::vector<SpanMetric>* metrics = new std::vector<SpanMetric>{
      {"engine.session.release_us", "engine.session.release", 1e3, "us"},
      {"engine.session.submit_call_us", "engine.session.submit", 1e3, "us"},
      {"engine.executor.handoff_us", "engine.executor.handoff", 1e3, "us"},
      {"engine.executor.resolve_us", "engine.executor.resolve", 1e3, "us"},
      {"engine.compile.warm_us", "engine.compile.warm", 1e3, "us"},
      {"engine.compile.cold_ms", "engine.compile.cold", 1e6, "ms"},
      {"engine.create_ms", "engine.create", 1e6, "ms"},
      {"engine.append_us", "engine.append", 1e3, "us"},
      {"engine.batch_plan.compile_us", "engine.batch_plan.compile", 1e3, "us"},
      {"engine.batch_plan.execute_ms", "engine.batch_plan.execute", 1e6, "ms"},
      {"engine.batch_kernels.aggregate_ns_per_obs",
       "engine.batch_kernels.aggregate", static_cast<double>(kAggregateObs),
       "ns"},
      {"engine.batch_kernels.clip_ns_per_row", "engine.batch_kernels.clip",
       static_cast<double>(kKernelRows), "ns"},
      {"engine.batch_kernels.noise_ns_per_row", "engine.batch_kernels.noise",
       static_cast<double>(kKernelRows), "ns"},
      {"pufferfish.release.noise_ns_per_draw", "pufferfish.release",
       static_cast<double>(kDrawsPerSpan), "ns"},
      {"pufferfish.composition.charge_ns", "pufferfish.composition.charge",
       static_cast<double>(kChargesPerSpan), "ns"},
      {"pufferfish.extend_ms", "pufferfish.extend", 1e6, "ms"},
      {"pufferfish.analyze.mqm_exact_ms", "pufferfish.analyze.mqm_exact", 1e6,
       "ms"},
      {"pufferfish.analyze.mqm_approx_ms", "pufferfish.analyze.mqm_approx",
       1e6, "ms"},
      {"pufferfish.analyze.mqm_general_ms", "pufferfish.analyze.mqm_general",
       1e6, "ms"},
      {"pufferfish.analyze.wasserstein_ms", "pufferfish.analyze.wasserstein",
       1e6, "ms"},
      {"pufferfish.plan_store.save_ms", "pufferfish.plan_store.save", 1e6,
       "ms"},
      {"pufferfish.plan_store.load_ms", "pufferfish.plan_store.load", 1e6,
       "ms"},
  };
  return *metrics;
}

std::vector<Metric> LayerMetricsFromSpans(
    const std::vector<SpanRecord>& spans) {
  const auto by_name = SelfTimesByName(spans);
  std::vector<Metric> out;
  for (const SpanMetric& m : SpanMetrics()) {
    auto it = by_name.find(m.span);
    if (it == by_name.end() || it->second.empty()) continue;
    std::vector<double> self(it->second.begin(), it->second.end());
    const Summary s = Summarize(&self);
    out.push_back({m.metric, s.p50 / m.ns_per_unit, m.unit});
  }
  return out;
}

double TraceOverheadPct(const LatencySamples& traced,
                        const LatencySamples& untraced) {
  const double on = traced.Summarize(0.0).p50;
  const double off = untraced.Summarize(0.0).p50;
  return off > 0.0 ? (on / off - 1.0) * 100.0 : 0.0;
}

}  // namespace pfbench
