// pf-bench: one end-to-end benchmark of the serving, columnar,
// continual-release and cold-analysis paths of the library.
//
//   pf_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out <dir>]
//
// Workloads: serve-mixed, columnar-bulk, stream-append, cold-analyze.
// The untraced run (--trace 0) prints the end-to-end metrics; the traced
// run (--trace 1) records spans around every public call, probes each
// layer directly, writes the spans to <out>/<workload>-<seed>.spans.csv
// and prints the per-layer metrics. Both print a human-readable report
// and, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every correctness check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "inputs.h"
#include "layers.h"
#include "trace.h"

namespace pfbench {
namespace {

/// Set-ups before the measured run. All but the last run the digest
/// prefix (alternately untraced and traced) and are torn down; the last
/// one serves the measured run.
constexpr int kSetups = 11;
/// setup_s is the lowest median over windows of this many consecutive
/// set-ups (those before the run, then those the workload repeats during
/// it): like p50_us, the least disturbed stretch of the run.
constexpr std::size_t kSetupWindow = 5;

/// Every per-layer metric a traced run must print (BENCHMARK.json).
const char* const kPerLayerNames[] = {
    "engine.session.release_us",
    "engine.session.submit_call_us",
    "engine.session.refused",
    "engine.executor.handoff_us",
    "engine.executor.resolve_us",
    "engine.executor.queue_depth_max",
    "engine.executor.shed",
    "engine.compile.warm_us",
    "engine.compile.cold_ms",
    "engine.create_ms",
    "engine.append_us",
    "engine.batch_plan.compile_us",
    "engine.batch_plan.unique_per_row",
    "engine.batch_plan.execute_ms",
    "engine.batch_kernels.aggregate_ns_per_obs",
    "engine.batch_kernels.clip_ns_per_row",
    "engine.batch_kernels.noise_ns_per_row",
    "pufferfish.release.noise_ns_per_draw",
    "pufferfish.composition.charge_ns",
    "pufferfish.analysis_cache.hits",
    "pufferfish.analysis_cache.misses",
    "pufferfish.analysis_cache.extensions",
    "pufferfish.analysis_cache.hit_ratio",
    "pufferfish.extend_ms",
    "pufferfish.analyze.mqm_exact_ms",
    "pufferfish.analyze.mqm_approx_ms",
    "pufferfish.analyze.mqm_general_ms",
    "pufferfish.analyze.wasserstein_ms",
    "pufferfish.analyze.scored_nodes",
    "pufferfish.analyze.dedup_ratio",
    "pufferfish.analyze.peak_bytes",
    "pufferfish.analyze.mallocs",
    "graphical.elimination.induced_width",
    "pufferfish.plan_store.save_ms",
    "pufferfish.plan_store.load_ms",
    "pufferfish.plan_store.snapshot_bytes",
    "bench.generator_lag_p99_us",
    "bench.trace_overhead_pct",
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_build/pfbench-out";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "pf-bench: %s\nusage: pf_bench --workload "
               "<serve-mixed|columnar-bulk|stream-append|cold-analyze> "
               "--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out") {
      a.out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (!(a.seconds > 0.0)) Usage("--seconds must be positive");
  return a;
}

std::unique_ptr<Workload> Make(const Args& a) {
  if (a.workload == "serve-mixed") return MakeServeMixed();
  if (a.workload == "columnar-bulk") return MakeColumnarBulk();
  if (a.workload == "stream-append") return MakeStreamAppend();
  if (a.workload == "cold-analyze") return MakeColdAnalyze(a.out);
  Usage(("unknown workload " + a.workload).c_str());
}

double SetupSeconds(const std::vector<double>& setup_s) {
  LatencyLog log;
  log.SetWindows(kSetupWindow, kSetupWindow);
  for (double s : setup_s) log.Add(s, false);
  return log.Best(0.0).p50;
}

void PrintMetric(const Metric& m) {
  std::printf("  %-44s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

std::string Json(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return json + "}}";
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);
  if (ec) Usage(("cannot create " + args.out).c_str());
  std::unique_ptr<Workload> workload = Make(args);
  workload->MakeInputs(args.seed, args.seconds);
  // peak_rss_mb covers the set-ups and the run, not input generation.
  const bool rss_reset = ResetPeakRss();

  // Set up kSetups times; the digest legs prove that tracing and
  // repetition do not change what the program releases.
  std::vector<double> setup_s;
  std::vector<std::uint64_t> digests;
  for (int r = 0; r < kSetups; ++r) {
    const std::int64_t t0 = NowNs();
    workload->Setup();
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (r == kSetups - 1) break;
    {
      TraceScope scope(r % 2 == 1);
      digests.push_back(workload->DigestLeg().value());
    }
    workload->Teardown();
  }
  ResetSpans();

  RunOutput out;
  workload->Run(args.seconds, args.trace, &out);
  const double peak_rss_mb = out.peak_rss_mb;
  setup_s.insert(setup_s.end(), out.setup_s.begin(), out.setup_s.end());
  workload->Verify(&out);
  const bool error_free = out.failed == 0;
  bool digests_equal = true;
  for (std::uint64_t d : digests) {
    digests_equal = digests_equal && d == digests.front();
  }
  // The run's own prefix digest must match too, when nothing failed (a
  // refused request releases nothing, so its digest legitimately differs).
  if (error_free) digests_equal = digests_equal && out.digest.value() == digests.front();
  out.checks.Expect(digests_equal,
                    "digest of released values differs between the "
                    "untraced, traced and repeated runs");

  std::vector<Metric> metrics;
  if (!args.trace) {
    // The tail is printed in the report below but not gated: on a shared
    // host its run-to-run spread exceeds any bound worth having.
    metrics = {
        {"setup_s", SetupSeconds(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"p50_us", out.latency.Best(out.wall_s * 1e6).p50, "us"},
    };
  } else {
    // The traffic's spans are set aside first, so a buffer the traffic
    // filled cannot crowd out the probes' spans.
    std::vector<SpanRecord> spans = CollectSpans();
    const std::size_t dropped = DroppedSpans();
    ResetSpans();
    std::vector<Metric> facts = ProbeLayers(workload->Target(), args.out);
    const std::vector<SpanRecord> probe_spans = CollectSpans();
    spans.insert(spans.end(), probe_spans.begin(), probe_spans.end());
    const std::string path = args.out + "/" + args.workload + "-" +
                             std::to_string(args.seed) + ".spans.csv";
    if (!WriteSpansCsv(path, spans)) Usage(("cannot write " + path).c_str());
    metrics = LayerMetricsFromSpans(spans);
    metrics.insert(metrics.end(), out.counters.begin(), out.counters.end());
    metrics.insert(metrics.end(), facts.begin(), facts.end());
    std::map<std::string, double> by_name;
    for (const Metric& m : metrics) by_name[m.name] = m.value;
    const double lookups = by_name["pufferfish.analysis_cache.hits"] +
                           by_name["pufferfish.analysis_cache.misses"] +
                           by_name["pufferfish.analysis_cache.extensions"];
    metrics.push_back({"pufferfish.analysis_cache.hit_ratio",
                       lookups > 0.0
                           ? by_name["pufferfish.analysis_cache.hits"] / lookups
                           : 0.0,
                       "ratio"});
    metrics.push_back({"bench.generator_lag_p99_us",
                       out.generator_lag.Percentile(99.0), "us"});
    metrics.push_back({"bench.trace_overhead_pct",
                       TraceOverheadPct(out.latency.traced(), out.latency.untraced()), "%"});
    // Keep the declared order and insist every metric is present.
    std::map<std::string, Metric> found;
    for (const Metric& m : metrics) found[m.name] = m;
    metrics.clear();
    for (const char* name : kPerLayerNames) {
      auto it = found.find(name);
      out.checks.Expect(it != found.end(),
                        std::string("per-layer metric missing: ") + name);
      if (it != found.end()) metrics.push_back(it->second);
    }
    std::printf("spans: %zu recorded (%zu dropped), written to %s\n",
                spans.size(), dropped + DroppedSpans(), path.c_str());
    std::printf("self time by span (total ms, count):\n");
    for (const auto& [name, self] : SelfTimesByName(spans)) {
      double total = 0.0;
      for (std::int64_t ns : self) total += static_cast<double>(ns);
      std::printf("  %-44s %12.3f %8zu\n", name.c_str(), total / 1e6,
                  self.size());
    }
  }
  workload->Teardown();

  for (const Metric& m : metrics) {
    out.checks.Expect(std::isfinite(m.value), "metric " + m.name + " is not finite");
  }
  std::printf("pf-bench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("workload figures:\n");
  PrintMetric({"setup_s (best " + std::to_string(kSetupWindow) +
                   "-set-up window of " + std::to_string(setup_s.size()) + ")",
               SetupSeconds(setup_s), "s"});
  PrintMetric({rss_reset ? "peak_rss_mb (set-ups and run)"
                         : "peak_rss_mb (whole process)",
               peak_rss_mb, "MB"});
  PrintMetric({"error_rate",
               out.attempted == 0 ? 0.0
                                  : static_cast<double>(out.failed) /
                                        static_cast<double>(out.attempted),
               "ratio"});
  for (const Metric& m : out.report) PrintMetric(m);
  const Summary s = out.latency.all().Summarize(out.wall_s * 1e6);
  std::printf("  operations: %zu attempted, %zu failed, %.6g work/s; whole-run "
              "p50 %.6g us, p%g %.6g us (from %zu samples)\n",
              out.attempted, out.failed, out.work / out.wall_s, s.p50,
              s.tail_pct, s.tail, s.n);
  const Summary best = out.latency.Best(out.wall_s * 1e6);
  std::printf("  best %zu-operation window p50 %.6g us (of %zu windows); "
              "best %zu-operation window p%g %.6g us\n",
              out.latency.p50_ops(), best.p50, out.latency.windows(),
              out.latency.tail_ops(), best.tail_pct, best.tail);
  std::printf("metrics:\n");
  for (const Metric& m : metrics) PrintMetric(m);
  std::printf("correctness: %s (%zu checks, %zu failed; noise: %s)\n",
              out.checks.ok() ? "ok" : "FAILED", out.checks.evaluated(),
              out.checks.failed(), out.checks.noise.Describe().c_str());
  for (const std::string& m : out.checks.messages()) {
    std::printf("  failed: %s\n", m.c_str());
  }
  std::printf("digest: %016llx\n",
              static_cast<unsigned long long>(out.digest.value()));
  const bool correct = out.checks.ok();
  std::printf("%s\n", Json(correct, out.attempted, out.failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pfbench

int main(int argc, char** argv) { return pfbench::Main(argc, argv); }
