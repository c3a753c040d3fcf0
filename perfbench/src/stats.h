// Measurement helpers of pf-bench: the percentile rule, the open-loop
// Poisson schedule, latency samples that count failures as misses, and
// the release-noise check.
#ifndef PFBENCH_STATS_H_
#define PFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pfbench {

/// Nanoseconds on the monotonic clock.
std::int64_t NowNs();

/// \brief A latency distribution summarized by the benchmark's rule: the
/// median and the highest of p50, p90 and p99 that has at least 10
/// samples beyond it (nearest-rank). The ladder stops at p99: deeper
/// percentiles of a 10-second run on a shared host measure the host's
/// rare stalls, not the program.
struct Summary {
  double p50 = 0.0;
  double tail = 0.0;
  /// Which percentile `tail` is (0 when fewer than 11 samples exist and
  /// `tail` is the maximum instead).
  double tail_pct = 0.0;
  std::size_t n = 0;
};

/// Nearest-rank index of percentile `pct` in a sorted sample of `n`.
std::size_t RankIndex(double pct, std::size_t n);

/// The highest ladder percentile with >= 10 samples strictly beyond its
/// rank in a sample of `n`; 0 when there is none (n < 11).
double TailPercentile(std::size_t n);

/// Summarizes `values` (sorted in place). Infinite entries are failed
/// operations: they sort last, so they land in the tail first.
Summary Summarize(std::vector<double>* values);

/// \brief Latencies of one kind of operation, where a failed or refused
/// operation counts as missing any latency limit (recorded as +infinity).
/// A bounded instance keeps at most `capacity` values: past that, the kept
/// values are a uniform sample of every value added (reservoir sampling
/// from a fixed seed), and its percentiles are estimates from that sample.
/// Its storage is touched when it is made, so its memory is the same
/// however many operations a run completes.
class LatencySamples {
 public:
  LatencySamples() = default;
  explicit LatencySamples(std::size_t capacity);
  void Add(double value);
  void AddFailure();
  /// Concatenates the values `other` kept (and its counts).
  void Append(const LatencySamples& other);
  /// Values added, kept or not.
  std::size_t size() const { return added_; }
  std::size_t failures() const { return failures_; }
  /// Summary with infinite percentiles replaced by `cap` (a finite "worse
  /// than anything measured" value, e.g. the run's wall time), so the
  /// result is printable.
  Summary Summarize(double cap) const;
  /// Nearest-rank percentile `pct` (0 when empty).
  double Percentile(double pct) const;
  /// True iff the summary's tail is at most `limit` (a failure in the tail
  /// never meets it).
  bool MeetsLimit(double limit) const;

 private:
  std::vector<double> values_;
  std::size_t capacity_ = 0;  // 0: keep every value.
  std::size_t added_ = 0;
  std::size_t failures_ = 0;
  std::uint64_t state_ = 0x5A3B1E;
};

/// \brief Latencies of a run's primary operation, cut as they arrive into
/// windows of a fixed number of consecutive operations (of which only the
/// least disturbed is kept), and kept whole-run as a bounded sample per
/// trace block for the report and the tracing overhead. Its memory does
/// not grow with the operations a run completes, so the benchmark's own
/// share of the peak RSS stays put.
class LatencyLog {
 public:
  /// Values kept for the whole-run figures, per trace-block kind (and by
  /// every other bounded sample of a run).
  static constexpr std::size_t kKept = 1 << 13;

  /// Windows of `p50_ops` operations for the p50 and `tail_ops` for the
  /// tail (long enough for the tail percentile the workload reports). Set
  /// before the first Add.
  void SetWindows(std::size_t p50_ops, std::size_t tail_ops);
  std::size_t p50_ops() const { return p50_.ops; }
  std::size_t tail_ops() const { return tail_.ops; }

  /// The next operation took `us` (AddFailure: failed or refused).
  void Add(double us, bool in_traced_block);
  void AddFailure(bool in_traced_block);
  /// Adds the windows of `other` (another producer of the same run,
  /// windowed alike) and merges the whole-run samples.
  void Merge(const LatencyLog& other);

  /// Complete p50 windows so far.
  std::size_t windows() const { return p50_.closed; }

  /// \brief The run's reported latency: that of its least disturbed
  /// stretch — the lowest p50 over the p50 windows and the lowest tail over
  /// the tail windows (a fixed window size fixes its tail percentile). A
  /// last, partial window counts only when no window is complete.
  /// Infinite latencies print as `cap`. A host that stalls or slows the
  /// process for part of the run moves neither, while a slower program is
  /// slower in every window.
  Summary Best(double cap) const;

  /// Every operation; those of the traced or untraced blocks.
  LatencySamples all() const;
  const LatencySamples& traced() const { return traced_; }
  const LatencySamples& untraced() const { return untraced_; }

 private:
  struct Windowed {
    std::size_t ops = 1;
    std::vector<double> open;  // The window being filled.
    std::size_t closed = 0;    // Windows completed.
    Summary best;              // Lowest p50 and tail of those (raw).
    void Add(double us);
    void Close(const Summary& window);
    Summary Best() const;
  };
  Windowed p50_;
  Windowed tail_;
  LatencySamples traced_{kKept};
  LatencySamples untraced_{kKept};
};

/// \brief Open-loop arrivals: Poisson at `rate_per_s`, offsets in ns from
/// the loop start, reproducible from `seed` (its own SplitMix64 + inverse
/// CDF, independent of the standard library's distributions).
std::vector<std::int64_t> PoissonSchedule(double rate_per_s, double seconds,
                                          std::uint64_t seed);

/// Latency of an open-loop request in us, timed from when it was due
/// (loop start + scheduled offset), not from when it was actually sent.
inline double LatencyFromScheduleUs(std::int64_t loop_start_ns,
                                    std::int64_t scheduled_offset_ns,
                                    std::int64_t done_ns) {
  return static_cast<double>(done_ns - (loop_start_ns + scheduled_offset_ns)) /
         1e3;
}

/// SplitMix64 step (seed derivation for every generated input).
std::uint64_t Mix64(std::uint64_t x);

/// Uniform double in [0, 1) from a SplitMix64 state.
double UnitDouble(std::uint64_t* state);

/// \brief The release-noise check: normalised noise z = (released - truth)
/// / noise scale must look like Laplace(1), whose mean |z| is 1 with
/// standard deviation 1. Passes when mean |z| is within 5 standard errors
/// of 1 over at least kMinDraws draws; zero or under-scaled noise fails.
class NoiseCheck {
 public:
  static constexpr std::size_t kMinDraws = 30;

  /// One released coordinate. A non-positive or non-finite scale, or a
  /// non-finite released value, is recorded as a defect.
  void Add(double released, double truth, double scale);
  void Merge(const NoiseCheck& other);

  std::size_t defects() const { return defects_; }
  double mean_abs_z() const;
  bool Passes() const;
  std::string Describe() const;

 private:
  std::size_t n_ = 0;
  std::size_t defects_ = 0;
  double sum_abs_z_ = 0.0;
};

}  // namespace pfbench

#endif  // PFBENCH_STATS_H_
