// Tests of pf-bench's own helpers: the percentile rule, the Poisson
// schedule, failures as latency-limit misses, span self-time arithmetic,
// and the release-noise check.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "checks.h"
#include "common/random.h"
#include "layers.h"
#include "stats.h"
#include "trace.h"

namespace pfbench {
namespace {

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  // Nearest-rank p50 of 19 samples is the 10th, leaving 9 beyond; of 20
  // it is the 10th, leaving 10.
  EXPECT_EQ(TailPercentile(10), 0.0);
  EXPECT_EQ(TailPercentile(19), 0.0);
  EXPECT_EQ(TailPercentile(20), 50.0);
  EXPECT_EQ(TailPercentile(100), 90.0);
  EXPECT_EQ(TailPercentile(999), 90.0);
  EXPECT_EQ(TailPercentile(1000), 99.0);
  EXPECT_EQ(TailPercentile(100000), 99.0);  // The ladder stops at p99.
}

TEST(PercentileRule, SummarizePicksNearestRank) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // 1..1000, unsorted.
  const Summary s = Summarize(&v);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.tail_pct, 99.0);
  EXPECT_EQ(s.tail, 990.0);  // Exactly 10 samples (991..1000) beyond.
}

TEST(PercentileRule, FewSamplesReportTheMaximum) {
  std::vector<double> v = {3.0, 1.0, 2.0};
  const Summary s = Summarize(&v);
  EXPECT_EQ(s.tail_pct, 0.0);
  EXPECT_EQ(s.tail, 3.0);
  EXPECT_EQ(s.p50, 2.0);
}

TEST(PoissonSchedule, ReproducibleFromTheSeed) {
  const auto a = PoissonSchedule(1000.0, 2.0, 7);
  const auto b = PoissonSchedule(1000.0, 2.0, 7);
  const auto c = PoissonSchedule(1000.0, 2.0, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(PoissonSchedule, HasTheOfferedRateAndIncreases) {
  const auto due = PoissonSchedule(5000.0, 4.0, 3);
  // 20000 expected arrivals; Poisson sd ~141, allow 5 sd.
  EXPECT_NEAR(static_cast<double>(due.size()), 20000.0, 710.0);
  for (std::size_t i = 1; i < due.size(); ++i) EXPECT_LT(due[i - 1], due[i]);
  EXPECT_LT(due.back(), static_cast<std::int64_t>(4e9));
  // Exponential gaps: the mean gap is 1/rate = 200 us.
  const double mean_gap = static_cast<double>(due.back()) / due.size();
  EXPECT_NEAR(mean_gap, 200000.0, 10000.0);
}

TEST(PoissonSchedule, LatencyIsTimedFromTheScheduledSend) {
  // Due at start + 1 ms, sent late at +3 ms, done at +4 ms: 3 ms latency.
  const std::int64_t start = 1000000000;
  EXPECT_DOUBLE_EQ(LatencyFromScheduleUs(start, 1000000, start + 4000000),
                   3000.0);
}

TEST(LatencySamples, FailuresMissTheLimit) {
  LatencySamples samples;
  for (int i = 0; i < 999; ++i) samples.Add(10.0);
  EXPECT_TRUE(samples.MeetsLimit(100.0));
  // Eleven failures push p99 (10 samples beyond) onto a failure.
  for (int i = 0; i < 11; ++i) samples.AddFailure();
  EXPECT_EQ(samples.failures(), 11u);
  EXPECT_FALSE(samples.MeetsLimit(100.0));
  EXPECT_FALSE(samples.MeetsLimit(std::numeric_limits<double>::max()));
  const Summary s = samples.Summarize(/*cap=*/5e6);
  EXPECT_EQ(s.tail, 5e6);  // Printed as the cap, never as a fast value.
  EXPECT_EQ(s.p50, 10.0);
}

SpanRecord Rec(std::int64_t id, std::int64_t parent, std::int64_t start,
               std::int64_t end) {
  SpanRecord r;
  r.name = "x";
  r.id = id;
  r.parent = parent;
  r.start_ns = start;
  r.end_ns = end;
  return r;
}

TEST(SpanSelfTime, SubtractsChildrenOnce) {
  const std::vector<SpanRecord> spans = {
      Rec(1, -1, 0, 100),  // Root: children cover [10,40) u [30,60) u [80,120).
      Rec(2, 1, 10, 40),
      Rec(3, 1, 30, 60),   // Overlaps its sibling: counted once.
      Rec(4, 1, 80, 120),  // Runs past the parent: clipped at 100.
      Rec(5, 2, 15, 25),   // Grandchild: only its parent subtracts it.
  };
  const std::vector<std::int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 50 - 20);
  EXPECT_EQ(self[1], 30 - 10);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 40);
  EXPECT_EQ(self[4], 10);
}

TEST(SpanSelfTime, RecordedSpansNestAndOnlyWhenOn) {
  ResetSpans();
  {
    Span ignored("off");  // Not recording: no span.
  }
  {
    TraceScope scope(true);
    Span outer("outer", 42);
    {
      Span inner("inner");
    }
    RecordSpan("measured", NowNs(), NowNs());
  }
  const std::vector<SpanRecord> spans = CollectSpans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[2].parent, spans[0].id);
  EXPECT_EQ(spans[1].request, 42u);  // Inherited from the parent.
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
  ResetSpans();
}

TEST(SpanSelfTime, LayerMetricIsTheMedianSelfTimeInItsUnit) {
  std::vector<SpanRecord> spans;
  for (int i = 0; i < 3; ++i) {
    SpanRecord r = Rec(i + 1, -1, 0, (i + 1) * 1000);  // 1, 2, 3 us.
    r.name = "engine.compile.warm";
    spans.push_back(r);
  }
  const std::vector<Metric> metrics = LayerMetricsFromSpans(spans);
  ASSERT_EQ(metrics.size(), 1u);
  EXPECT_EQ(metrics[0].name, "engine.compile.warm_us");
  EXPECT_DOUBLE_EQ(metrics[0].value, 2.0);
}

/// Feeds `n` releases of Laplace(`noise_scale`) noise to a check that
/// expects scale `claimed_scale`.
NoiseCheck Simulate(double noise_scale, double claimed_scale, int n) {
  pf::Rng rng(12345);
  NoiseCheck check;
  for (int i = 0; i < n; ++i) {
    const double truth = 100.0 + i;
    const double released =
        noise_scale > 0.0 ? truth + rng.Laplace(noise_scale) : truth;
    check.Add(released, truth, claimed_scale);
  }
  return check;
}

TEST(NoiseCheck, AcceptsCorrectlyScaledNoise) {
  EXPECT_TRUE(Simulate(2.0, 2.0, 5000).Passes());
}

TEST(NoiseCheck, RejectsZeroNoise) {
  EXPECT_FALSE(Simulate(0.0, 2.0, 5000).Passes());
}

TEST(NoiseCheck, RejectsHalfScaleNoise) {
  const NoiseCheck check = Simulate(1.0, 2.0, 5000);
  EXPECT_NEAR(check.mean_abs_z(), 0.5, 0.05);
  EXPECT_FALSE(check.Passes());
}

TEST(NoiseCheck, RejectsTooFewDrawsAndBadScales) {
  EXPECT_FALSE(Simulate(2.0, 2.0, 10).Passes());
  NoiseCheck check = Simulate(2.0, 2.0, 5000);
  check.Add(1.0, 1.0, 0.0);
  EXPECT_EQ(check.defects(), 1u);
  EXPECT_FALSE(check.Passes());
}

TEST(Checks, ReleaseWithWrongSigmaFails) {
  const double truth = 10.0;
  Expected want;
  want.truth = &truth;
  want.epsilon = 1.0;
  want.sigma = 2.0;
  want.lipschitz = 3.0;
  Checks ok;
  const double value = 12.0;
  CheckRelease(&value, 1, 1.0, 2.0, 6.0, want, &ok);
  EXPECT_EQ(ok.failed(), 0u);
  Checks bad;
  CheckRelease(&value, 1, 1.0, 1.0, 3.0, want, &bad);
  EXPECT_EQ(bad.failed(), 2u);  // Sigma and noise scale both wrong.
}

TEST(Checks, SpendIsComposedAsKTimesMaxEpsilon) {
  EXPECT_TRUE(SpendMatches(0.3, 3, 0.1));
  EXPECT_FALSE(SpendMatches(0.4, 3, 0.1));
  EXPECT_TRUE(SpendMatches(0.0, 0, 0.0));
}

TEST(Digest, IndependentOfCompletionOrder) {
  const double a = 1.5, b = -2.25;
  Digest x, y;
  x.Add(0, &a, 1);
  x.Add(1, &b, 1);
  y.Add(1, &b, 1);
  y.Add(0, &a, 1);
  EXPECT_EQ(x.value(), y.value());
  Digest z;
  z.Add(0, &b, 1);
  z.Add(1, &a, 1);
  EXPECT_NE(x.value(), z.value());
}

}  // namespace
}  // namespace pfbench

namespace pfbench {
namespace {

TEST(LatencyLog, BestWindowIgnoresADisturbedStretch) {
  LatencyLog log;
  log.SetWindows(100, 100);
  // Three windows of 100 operations; the first runs 5x slower.
  for (int i = 0; i < 300; ++i) {
    const double us = i < 100 ? 50.0 + i % 10 : 10.0 + i % 10;
    log.Add(us, false);
  }
  EXPECT_EQ(log.windows(), 3u);
  const Summary best = log.Best(1e9);
  EXPECT_EQ(best.p50, 14.0);
  EXPECT_EQ(best.tail_pct, 90.0);
  EXPECT_EQ(best.tail, 18.0);
}

TEST(LatencyLog, FailuresMissTheLimitAndPartialWindowsCountOnlyAlone) {
  LatencyLog failing;
  failing.SetWindows(20, 20);
  for (int i = 0; i < 40; ++i) failing.AddFailure(false);
  EXPECT_EQ(failing.Best(/*cap=*/7e6).p50, 7e6);  // Misses any limit.
  EXPECT_EQ(failing.all().failures(), 40u);

  LatencyLog log;
  log.SetWindows(20, 20);
  for (int i = 0; i < 5; ++i) log.Add(0.5, false);  // Partial, alone.
  EXPECT_EQ(log.windows(), 0u);
  EXPECT_EQ(log.Best(7e6).p50, 0.5);
  for (int i = 0; i < 20; ++i) log.Add(1.0, false);  // Window: 15 + 5.
  for (int i = 0; i < 20; ++i) log.AddFailure(false);
  for (int i = 0; i < 5; ++i) log.Add(0.5, false);  // Partial, dropped.
  EXPECT_EQ(log.windows(), 2u);
  EXPECT_EQ(log.Best(7e6).p50, 1.0);
  EXPECT_EQ(log.all().size(), 50u);
}

TEST(LatencyLog, MergeKeepsEachProducersWindows) {
  LatencyLog a, b;
  a.SetWindows(10, 10);
  b.SetWindows(10, 10);
  for (int i = 0; i < 10; ++i) a.Add(3.0, false);
  for (int i = 0; i < 10; ++i) b.Add(2.0, true);
  LatencyLog merged;
  merged.SetWindows(10, 10);
  merged.Merge(a);
  merged.Merge(b);
  EXPECT_EQ(merged.windows(), 2u);
  EXPECT_EQ(merged.Best(1e9).p50, 2.0);
  EXPECT_EQ(merged.traced().size(), 10u);
  EXPECT_EQ(merged.untraced().size(), 10u);
}

TEST(LatencySamples, BoundedSampleStaysUniformAndSmall) {
  LatencySamples bounded(1000);
  // 100000 values, uniform over [0, 100): the kept 1000 estimate the
  // median within a few percent.
  for (int i = 0; i < 100000; ++i) bounded.Add((i * 7919) % 100000 / 1000.0);
  EXPECT_EQ(bounded.size(), 100000u);
  EXPECT_NEAR(bounded.Summarize(0.0).p50, 50.0, 5.0);
  EXPECT_EQ(bounded.Summarize(0.0).n, 1000u);
  // Failures are counted whether or not their values are kept.
  for (int i = 0; i < 100000; ++i) bounded.AddFailure();
  EXPECT_EQ(bounded.failures(), 100000u);
  EXPECT_FALSE(bounded.MeetsLimit(1e9));
}

}  // namespace
}  // namespace pfbench
