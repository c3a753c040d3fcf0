#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>

namespace pfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t RankIndex(double pct, std::size_t n) {
  if (n == 0) return 0;
  // The slack absorbs decimal rounding (99.9% of 10000 is 9990.000000000002).
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  const std::size_t r = rank < 1.0 ? 1 : static_cast<std::size_t>(rank);
  return std::min(r, n) - 1;
}

double TailPercentile(std::size_t n) {
  static constexpr double kLadder[] = {99.0, 90.0, 50.0};
  for (double pct : kLadder) {
    if (n >= 1 && n - 1 - RankIndex(pct, n) >= 10) return pct;
  }
  return 0.0;
}

Summary Summarize(std::vector<double>* values) {
  Summary s;
  s.n = values->size();
  if (s.n == 0) return s;
  std::sort(values->begin(), values->end());
  s.p50 = (*values)[RankIndex(50.0, s.n)];
  s.tail_pct = TailPercentile(s.n);
  s.tail = s.tail_pct > 0.0 ? (*values)[RankIndex(s.tail_pct, s.n)]
                            : values->back();
  return s;
}

namespace {

Summary Capped(Summary s, double cap) {
  if (std::isinf(s.p50)) s.p50 = cap;
  if (std::isinf(s.tail)) s.tail = cap;
  return s;
}

}  // namespace

LatencySamples::LatencySamples(std::size_t capacity) : capacity_(capacity) {
  // Touch the storage now: clear() keeps the capacity, and its pages.
  values_.assign(capacity, 0.0);
  values_.clear();
}

void LatencySamples::Add(double value) {
  ++added_;
  if (capacity_ == 0 || values_.size() < capacity_) {
    values_.push_back(value);
    return;
  }
  // Algorithm R: the new value replaces a kept one with probability
  // capacity / added, which keeps the sample uniform over every value.
  const auto slot = static_cast<std::size_t>(UnitDouble(&state_) *
                                             static_cast<double>(added_));
  if (slot < capacity_) values_[slot] = value;
}

void LatencySamples::AddFailure() {
  Add(std::numeric_limits<double>::infinity());
  ++failures_;
}

void LatencySamples::Append(const LatencySamples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  capacity_ = (capacity_ == 0 || other.capacity_ == 0)
                  ? 0
                  : capacity_ + other.capacity_;
  added_ += other.added_;
  failures_ += other.failures_;
}

Summary LatencySamples::Summarize(double cap) const {
  std::vector<double> sorted = values_;
  return Capped(pfbench::Summarize(&sorted), cap);
}

double LatencySamples::Percentile(double pct) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  return sorted[RankIndex(pct, sorted.size())];
}

bool LatencySamples::MeetsLimit(double limit) const {
  std::vector<double> sorted = values_;
  const Summary s = pfbench::Summarize(&sorted);
  return s.n > 0 && s.tail <= limit;
}

void LatencyLog::SetWindows(std::size_t p50_ops, std::size_t tail_ops) {
  p50_ = Windowed();
  tail_ = Windowed();
  p50_.ops = std::max<std::size_t>(1, p50_ops);
  tail_.ops = std::max<std::size_t>(1, tail_ops);
  p50_.open.reserve(p50_.ops);
  tail_.open.reserve(tail_.ops);
}

void LatencyLog::Windowed::Add(double us) {
  open.push_back(us);
  if (open.size() < ops) return;
  Close(Summarize(&open));
  open.clear();
}

void LatencyLog::Windowed::Close(const Summary& window) {
  if (closed++ == 0) {
    best = window;
    return;
  }
  best.p50 = std::min(best.p50, window.p50);
  best.tail = std::min(best.tail, window.tail);
}

Summary LatencyLog::Windowed::Best() const {
  if (closed > 0 || open.empty()) return best;
  std::vector<double> partial = open;
  return Summarize(&partial);
}

void LatencyLog::Add(double us, bool in_traced_block) {
  p50_.Add(us);
  tail_.Add(us);
  (in_traced_block ? traced_ : untraced_).Add(us);
}

void LatencyLog::AddFailure(bool in_traced_block) {
  const double inf = std::numeric_limits<double>::infinity();
  p50_.Add(inf);
  tail_.Add(inf);
  (in_traced_block ? traced_ : untraced_).AddFailure();
}

void LatencyLog::Merge(const LatencyLog& other) {
  for (auto [mine, theirs] : {std::make_pair(&p50_, &other.p50_),
                              std::make_pair(&tail_, &other.tail_)}) {
    if (theirs->closed > 0) {
      const std::size_t closed = mine->closed;
      mine->Close(theirs->best);
      mine->closed = closed + theirs->closed;
    }
    // A partial window only matters while no window is complete.
    if (mine->closed == 0) {
      mine->open.insert(mine->open.end(), theirs->open.begin(),
                        theirs->open.end());
    } else {
      mine->open.clear();
    }
  }
  traced_.Append(other.traced_);
  untraced_.Append(other.untraced_);
}

LatencySamples LatencyLog::all() const {
  LatencySamples out = traced_;
  out.Append(untraced_);
  return out;
}

Summary LatencyLog::Best(double cap) const {
  Summary best = tail_.Best();
  best.p50 = p50_.Best().p50;
  return Capped(best, cap);
}

std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double UnitDouble(std::uint64_t* state) {
  *state += 0x9E3779B97F4A7C15ULL;
  return static_cast<double>(Mix64(*state) >> 11) * 0x1.0p-53;
}

std::vector<std::int64_t> PoissonSchedule(double rate_per_s, double seconds,
                                          std::uint64_t seed) {
  std::vector<std::int64_t> offsets;
  if (!(rate_per_s > 0.0) || !(seconds > 0.0)) return offsets;
  offsets.reserve(static_cast<std::size_t>(rate_per_s * seconds * 1.1) + 16);
  std::uint64_t state = Mix64(seed);
  const double horizon_ns = seconds * 1e9;
  double t = 0.0;
  while (true) {
    // Exponential inter-arrival by inverse CDF; 1 - u is in (0, 1].
    t += -std::log(1.0 - UnitDouble(&state)) / rate_per_s * 1e9;
    if (t >= horizon_ns) break;
    offsets.push_back(static_cast<std::int64_t>(t));
  }
  return offsets;
}

void NoiseCheck::Add(double released, double truth, double scale) {
  if (!std::isfinite(released) || !std::isfinite(scale) || !(scale > 0.0)) {
    ++defects_;
    return;
  }
  sum_abs_z_ += std::fabs((released - truth) / scale);
  ++n_;
}

void NoiseCheck::Merge(const NoiseCheck& other) {
  n_ += other.n_;
  defects_ += other.defects_;
  sum_abs_z_ += other.sum_abs_z_;
}

double NoiseCheck::mean_abs_z() const {
  return n_ == 0 ? 0.0 : sum_abs_z_ / static_cast<double>(n_);
}

bool NoiseCheck::Passes() const {
  if (defects_ > 0 || n_ < kMinDraws) return false;
  const double standard_error = 1.0 / std::sqrt(static_cast<double>(n_));
  return std::fabs(mean_abs_z() - 1.0) <= 5.0 * standard_error;
}

std::string NoiseCheck::Describe() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "mean |z| = %.4f over %zu draws (5 SE = %.4f), %zu defects",
                mean_abs_z(), n_,
                n_ == 0 ? 0.0 : 5.0 / std::sqrt(static_cast<double>(n_)),
                defects_);
  return buf;
}

}  // namespace pfbench
