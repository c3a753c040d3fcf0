// The correctness gate of pf-bench: every check a run makes on the
// program's outputs, plus the digest of released values that proves a
// traced run released exactly what an untraced one did.
#ifndef PFBENCH_CHECKS_H_
#define PFBENCH_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace pfbench {

/// Accumulates check outcomes; the run fails when any check failed.
class Checks {
 public:
  /// Records a failure described by `what` unless `ok`. The literal form
  /// keeps passing checks on the hot path free of string construction.
  void Expect(bool ok, const char* what);
  void Expect(bool ok, const std::string& what) { Expect(ok, what.c_str()); }
  void Merge(const Checks& other);

  bool ok() const { return failed_ == 0 && noise.Passes(); }
  std::size_t evaluated() const { return evaluated_; }
  std::size_t failed() const { return failed_; }
  /// The first failures, for the report.
  const std::vector<std::string>& messages() const { return messages_; }

  /// Normalised-noise statistics of every checked release.
  NoiseCheck noise;

 private:
  std::size_t evaluated_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// What a benchmark knows about one released coordinate block before the
/// program answers: the truth it computed itself and the noise it expects.
struct Expected {
  const double* truth = nullptr;
  std::size_t dim = 1;
  double epsilon = 0.0;
  /// Sigma of a cold analysis on an uncached engine at (epsilon, length).
  double sigma = 0.0;
  /// The query's Lipschitz constant as the benchmark derives it.
  double lipschitz = 0.0;
};

/// \brief Checks one OK release: `dim` finite values, the requested
/// epsilon, sigma bit-equal to the cold reference, and (when
/// `reported_scale` is non-negative) the program's own noise scale equal
/// to lipschitz * sigma; feeds (value - truth) / (lipschitz * sigma) to the
/// noise check.
void CheckRelease(const double* values, std::size_t dim, double epsilon,
                  double sigma, double reported_scale, const Expected& want,
                  Checks* checks);

/// Theorem 4.4 composed spend of `releases` releases whose largest level
/// is `max_epsilon`.
double ComposedSpend(std::size_t releases, double max_epsilon);

/// True when `spent` equals the composed spend to within float dust.
bool SpendMatches(double spent, std::size_t releases, double max_epsilon);

/// \brief Order-independent digest of released values: each operation
/// contributes a hash of (operation index, value bits), summed, so the
/// digest does not depend on the order in which concurrent operations
/// complete — only on what was released for which operation.
class Digest {
 public:
  void Add(std::uint64_t op, const double* values, std::size_t n);
  void Merge(const Digest& other) { sum_ += other.sum_; }
  std::uint64_t value() const { return sum_; }

 private:
  std::uint64_t sum_ = 0;
};

}  // namespace pfbench

#endif  // PFBENCH_CHECKS_H_
