// The workload interface of pf-bench and the pieces every workload shares:
// the closed-loop runner, run outputs and the layer-probe target.
#ifndef PFBENCH_BENCH_H_
#define PFBENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "engine/engine.h"
#include "layers.h"
#include "stats.h"

namespace pfbench {

/// What a workload's measured loop produced.
struct RunOutput {
  /// The workload's primary operation latency in us (failures +inf); the
  /// workload sets its window sizes (see LatencyLog::Best).
  LatencyLog latency;
  /// Traced runs only. Open loop: how late each send left (us); closed
  /// loop: the gap between one operation's end and the next one's start.
  LatencySamples generator_lag{LatencyLog::kKept};
  /// Work items completed (released rows, or plans for cold-analyze).
  double work = 0.0;
  double wall_s = 0.0;
  /// Peak RSS of the process when the measured loop ended, before any
  /// summary was computed (MB).
  double peak_rss_mb = 0.0;
  /// Set-ups the workload repeated during the measured loop (s), spread
  /// over the run so setup_s does not hang on one moment of the host.
  std::vector<double> setup_s;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Digest digest;
  Checks checks;
  /// The workload's named end-to-end figures for the human report.
  std::vector<Metric> report;
  /// Counters of the layers this workload's traffic exercised.
  std::vector<Metric> counters;
};

/// One operation of a closed loop: returns the work units it completed, or
/// a negative number when it failed or was refused. An operation that
/// checks its outputs stores the end of its timed part in `*timed_end_ns`
/// before checking (untouched, the whole call is timed).
using ClosedLoopOp =
    std::function<double(std::uint64_t op, std::int64_t* timed_end_ns)>;

/// \brief Runs `op` back to back for `seconds` (at least `min_ops` times).
/// In a traced run, tracing alternates on and off in fixed time blocks so
/// the run measures its own tracing overhead.
void RunClosedLoop(double seconds, bool trace, std::uint64_t min_ops,
                   const ClosedLoopOp& op, RunOutput* out);

/// True for the traced blocks of a traced run (`elapsed_ns` since start).
bool InTracedBlock(bool trace, std::int64_t elapsed_ns);

/// What the layer probes of a traced run act on: the workload's own
/// engine, record and request shapes.
struct ProbeTarget {
  pf::PrivacyEngine* engine = nullptr;
  const pf::StateSequence* record = nullptr;
  /// A spec the workload served (its plan is warm).
  pf::QuerySpec warm_spec;
  /// A batch shaped like the workload's columnar requests.
  pf::BatchQuerySpec batch;
  std::uint64_t seed = 0;
};

/// One workload of the benchmark.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs for a run of `seconds` (untimed; called once).
  virtual void MakeInputs(std::uint64_t seed, double seconds) = 0;
  /// Creates and warms the engines (timed as setup).
  virtual void Setup() = 0;
  /// Destroys what Setup built.
  virtual void Teardown() = 0;
  /// Runs the digest prefix of the operation sequence, untimed, on the
  /// engines Setup built, and returns its digest.
  virtual Digest DigestLeg() = 0;
  /// The measured loop; its digest covers the same prefix.
  virtual void Run(double seconds, bool trace, RunOutput* out) = 0;
  /// Post-run checks on ledgers, executors and plans (untimed).
  virtual void Verify(RunOutput* out) = 0;
  virtual ProbeTarget Target() = 0;
};

std::unique_ptr<Workload> MakeServeMixed();
std::unique_ptr<Workload> MakeColumnarBulk();
std::unique_ptr<Workload> MakeStreamAppend();
/// cold-analyze writes its restart snapshots under `out_dir`.
std::unique_ptr<Workload> MakeColdAnalyze(const std::string& out_dir);

/// \brief Calls each layer of the library directly on the target's inputs
/// (and on the cold-analysis models), recording spans named after the
/// layers, and returns the figures that are not span self times
/// (counts, sizes, ratios).
std::vector<Metric> ProbeLayers(const ProbeTarget& target,
                                const std::string& out_dir);

}  // namespace pfbench

#endif  // PFBENCH_BENCH_H_
