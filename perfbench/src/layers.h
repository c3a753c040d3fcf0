// The per-layer metrics of a traced run: which span each one is the
// median self time of, and how it is scaled to its unit.
#ifndef PFBENCH_LAYERS_H_
#define PFBENCH_LAYERS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace pfbench {

/// Observations one engine.batch_kernels.aggregate span covers.
inline constexpr std::size_t kAggregateObs = std::size_t{1} << 20;
/// Rows one clip or noise kernel span covers.
inline constexpr std::size_t kKernelRows = 4096;
/// Scalar releases one pufferfish.release span covers.
inline constexpr std::size_t kDrawsPerSpan = 256;
/// Ledger charges one pufferfish.composition.charge span covers.
inline constexpr std::size_t kChargesPerSpan = 1024;

/// A per-layer metric derived from the self times of one span name.
struct SpanMetric {
  const char* metric;
  const char* span;
  /// Self-time nanoseconds per unit of the metric (1e3 for us, 1e6 for
  /// ms, 1 / work-per-span for per-item figures).
  double ns_per_unit;
  const char* unit;
};

/// Every span-derived per-layer metric.
const std::vector<SpanMetric>& SpanMetrics();

/// A named number with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Median self time of each SpanMetric's spans, in the metric's unit.
/// A metric whose span never occurred is omitted.
std::vector<Metric> LayerMetricsFromSpans(
    const std::vector<SpanRecord>& spans);

/// Tracing overhead: traced-block median over untraced-block median,
/// minus one, in percent.
double TraceOverheadPct(const LatencySamples& traced,
                        const LatencySamples& untraced);

}  // namespace pfbench

#endif  // PFBENCH_LAYERS_H_
