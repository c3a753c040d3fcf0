
#include "bench.h"
#include "inputs.h"
#include "trace.h"

namespace pfbench {
namespace {

/// Length of one trace block: traced runs alternate untraced and traced
/// blocks of this length, so both halves see the same phase of the run.
constexpr std::int64_t kTraceBlockNs = 100000000;

}  // namespace

bool InTracedBlock(bool trace, std::int64_t elapsed_ns) {
  return trace && (elapsed_ns / kTraceBlockNs) % 2 == 1;
}

void RunClosedLoop(double seconds, bool trace, std::uint64_t min_ops,
                   const ClosedLoopOp& op, RunOutput* out) {
  const std::int64_t horizon = static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t start = NowNs();
  std::int64_t previous_end = start;
  for (std::uint64_t i = 0;; ++i) {
    const std::int64_t begin = NowNs();
    if (begin - start >= horizon && i >= min_ops) break;
    if (trace) {
      out->generator_lag.Add(static_cast<double>(begin - previous_end) / 1e3);
    }
    const bool traced = InTracedBlock(trace, begin - start);
    double work = 0.0;
    std::int64_t end = 0;
    {
      TraceScope scope(traced);
      Span root("bench.operation", i + 1);
      work = op(i, &end);
    }
    previous_end = NowNs();
    if (end == 0) end = previous_end;
    ++out->attempted;
    const double us = static_cast<double>(end - begin) / 1e3;
    if (work < 0.0) {
      ++out->failed;
      out->latency.AddFailure(traced);
    } else {
      out->work += work;
      out->latency.Add(us, traced);
    }
  }
  out->wall_s = static_cast<double>(NowNs() - start) / 1e9;
  out->peak_rss_mb = PeakRssMb();
}

}  // namespace pfbench
