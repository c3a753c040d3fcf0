#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace pfbench {
namespace {

constexpr std::size_t kMaxMessages = 8;

bool NearlyEqual(double a, double b) {
  return std::fabs(a - b) <= 1e-12 * std::max(std::fabs(a), std::fabs(b));
}

}  // namespace

void Checks::Expect(bool ok, const char* what) {
  ++evaluated_;
  if (ok) return;
  ++failed_;
  if (messages_.size() < kMaxMessages) messages_.push_back(what);
}

void Checks::Merge(const Checks& other) {
  evaluated_ += other.evaluated_;
  failed_ += other.failed_;
  for (const std::string& m : other.messages_) {
    if (messages_.size() < kMaxMessages) messages_.push_back(m);
  }
  noise.Merge(other.noise);
}

void CheckRelease(const double* values, std::size_t dim, double epsilon,
                  double sigma, double reported_scale, const Expected& want,
                  Checks* checks) {
  bool finite = true;
  for (std::size_t i = 0; i < dim; ++i) finite = finite && std::isfinite(values[i]);
  checks->Expect(finite, "release has a non-finite value");
  checks->Expect(dim == want.dim, "release has the wrong dimension");
  checks->Expect(epsilon == want.epsilon,
                 "release epsilon differs from the requested epsilon");
  checks->Expect(sigma == want.sigma,
                 "release sigma differs from a cold analysis on an uncached "
                 "engine");
  const double scale = want.lipschitz * want.sigma;
  if (reported_scale >= 0.0) {
    checks->Expect(NearlyEqual(reported_scale, scale),
                   "release noise scale differs from lipschitz * sigma");
  }
  if (!finite || dim != want.dim) return;
  for (std::size_t i = 0; i < dim; ++i) {
    checks->noise.Add(values[i], want.truth[i], scale);
  }
}

double ComposedSpend(std::size_t releases, double max_epsilon) {
  return static_cast<double>(releases) * max_epsilon;
}

bool SpendMatches(double spent, std::size_t releases, double max_epsilon) {
  const double want = ComposedSpend(releases, max_epsilon);
  return spent == want || NearlyEqual(spent, want);
}

void Digest::Add(std::uint64_t op, const double* values, std::size_t n) {
  std::uint64_t h = Mix64(op ^ 0xD16E57ULL);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &values[i], sizeof(bits));
    h = Mix64(h ^ bits);
  }
  sum_ += h;
}

}  // namespace pfbench
