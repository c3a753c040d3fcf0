#include "graphical/markov_chain.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/eigen.h"

namespace pf {

Result<MarkovChain> MarkovChain::Make(Vector initial, Matrix transition,
                                      double tol) {
  if (initial.empty()) return Status::InvalidArgument("empty initial distribution");
  if (transition.rows() != transition.cols() ||
      transition.rows() != initial.size()) {
    return Status::InvalidArgument("transition matrix / initial size mismatch");
  }
  if (!IsProbabilityVector(initial, tol)) {
    return Status::InvalidArgument("initial distribution is not a probability vector");
  }
  if (!transition.IsRowStochastic(tol)) {
    return Status::InvalidArgument("transition matrix is not row-stochastic");
  }
  return MarkovChain(std::move(initial), std::move(transition));
}

Vector MarkovChain::MarginalAt(std::size_t t) const {
  Vector m = initial_;
  // For long horizons use cached powers; otherwise iterate.
  if (t > 64) {
    return TransitionPower(t).ApplyLeft(initial_);
  }
  for (std::size_t s = 0; s < t; ++s) m = transition_.ApplyLeft(m);
  return m;
}

const Matrix& MarkovChain::TransitionPower(std::size_t n) const {
  if (powers_.empty()) {
    powers_.push_back(Matrix::Identity(num_states()));  // P^0.
  }
  while (powers_.size() <= n) {
    powers_.push_back(powers_.back() * transition_);
  }
  return powers_[n];
}

Result<Vector> MarkovChain::StationaryDistribution() const {
  const std::size_t k = num_states();
  // Solve pi (P - I) = 0 with normalization: build A = (P - I)^T and replace
  // the last row with the all-ones constraint.
  Matrix a = (transition_ - Matrix::Identity(k)).Transpose();
  Vector b(k, 0.0);
  for (std::size_t c = 0; c < k; ++c) a(k - 1, c) = 1.0;
  b[k - 1] = 1.0;
  Result<Vector> pi = a.Solve(b);
  if (!pi.ok()) {
    return Status::NumericalError(
        "no unique stationary distribution (chain may be reducible)");
  }
  for (double& v : pi.value()) {
    if (v < 0.0 && v > -1e-10) v = 0.0;
    if (v < 0.0) {
      return Status::NumericalError("negative stationary probability");
    }
  }
  return pi;
}

Result<double> MarkovChain::MinStationaryProbability() const {
  PF_ASSIGN_OR_RETURN(Vector pi, StationaryDistribution());
  return *std::min_element(pi.begin(), pi.end());
}

Result<MarkovChain> MarkovChain::TimeReversal() const {
  PF_ASSIGN_OR_RETURN(Vector pi, StationaryDistribution());
  const std::size_t k = num_states();
  Matrix rev(k, k, 0.0);
  for (std::size_t x = 0; x < k; ++x) {
    if (pi[x] <= 0.0) {
      return Status::FailedPrecondition(
          "time reversal undefined: stationary mass zero at some state");
    }
    for (std::size_t y = 0; y < k; ++y) {
      rev(x, y) = transition_(y, x) * pi[y] / pi[x];
    }
  }
  return MarkovChain::Make(pi, std::move(rev));
}

Result<bool> MarkovChain::IsReversible(double tol) const {
  PF_ASSIGN_OR_RETURN(Vector pi, StationaryDistribution());
  const std::size_t k = num_states();
  for (std::size_t x = 0; x < k; ++x) {
    for (std::size_t y = x + 1; y < k; ++y) {
      if (std::fabs(pi[x] * transition_(x, y) - pi[y] * transition_(y, x)) > tol) {
        return false;
      }
    }
  }
  return true;
}

bool MarkovChain::IsIrreducible() const {
  const std::size_t k = num_states();
  // Strong connectivity: BFS forward and BFS on the reversed graph from 0.
  auto reachable = [&](bool reverse) {
    std::vector<bool> seen(k, false);
    std::queue<std::size_t> q;
    seen[0] = true;
    q.push(0);
    while (!q.empty()) {
      const std::size_t v = q.front();
      q.pop();
      for (std::size_t w = 0; w < k; ++w) {
        const double p = reverse ? transition_(w, v) : transition_(v, w);
        if (p > 0.0 && !seen[w]) {
          seen[w] = true;
          q.push(w);
        }
      }
    }
    return std::all_of(seen.begin(), seen.end(), [](bool b) { return b; });
  };
  return reachable(false) && reachable(true);
}

bool MarkovChain::IsAperiodic() const {
  // An irreducible chain is aperiodic iff its boolean transition matrix is
  // primitive: some power has all entries positive. The Wielandt bound says
  // checking power (k-1)^2 + 1 suffices.
  const std::size_t k = num_states();
  std::vector<std::vector<bool>> reach(k, std::vector<bool>(k));
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < k; ++j) reach[i][j] = transition_(i, j) > 0.0;
  const std::size_t limit = (k - 1) * (k - 1) + 1;
  std::vector<std::vector<bool>> cur = reach;
  for (std::size_t step = 1; step <= limit; ++step) {
    bool all = true;
    for (std::size_t i = 0; i < k && all; ++i)
      for (std::size_t j = 0; j < k && all; ++j) all = cur[i][j];
    if (all) return true;
    // cur = cur * reach (boolean product).
    std::vector<std::vector<bool>> next(k, std::vector<bool>(k, false));
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t l = 0; l < k; ++l)
        if (cur[i][l])
          for (std::size_t j = 0; j < k; ++j)
            if (reach[l][j]) next[i][j] = true;
    cur = std::move(next);
  }
  return false;
}

Result<double> MarkovChain::Eigengap() const {
  PF_ASSIGN_OR_RETURN(Vector pi, StationaryDistribution());
  for (double v : pi) {
    if (v <= 0.0) {
      return Status::FailedPrecondition("eigengap requires pi > 0 everywhere");
    }
  }
  PF_ASSIGN_OR_RETURN(bool reversible, IsReversible());
  const std::size_t k = num_states();
  Matrix target(k, k, 0.0);
  double multiplier;
  if (reversible) {
    target = transition_;
    multiplier = 2.0;
  } else {
    PF_ASSIGN_OR_RETURN(MarkovChain rev, TimeReversal());
    target = transition_ * rev.transition();
    multiplier = 1.0;
  }
  // `target` is self-adjoint in L2(pi): symmetrize S = D^{1/2} T D^{-1/2}.
  Matrix s(k, k, 0.0);
  for (std::size_t x = 0; x < k; ++x) {
    for (std::size_t y = 0; y < k; ++y) {
      s(x, y) = std::sqrt(pi[x]) * target(x, y) / std::sqrt(pi[y]);
    }
  }
  // Descending order: eig[0] is the Perron eigenvalue. Rounding may put
  // another |lambda| a hair above 1; its gap floors at 0, which the
  // mechanisms refuse.
  PF_ASSIGN_OR_RETURN(Vector eig, SymmetricEigenvalues(s, 1e-6));
  double gap = 1.0;
  for (std::size_t j = 1; j < eig.size(); ++j) {
    gap = std::min(gap, std::max(0.0, 1.0 - std::fabs(eig[j])));
  }
  return multiplier * gap;
}

StateSequence MarkovChain::Sample(std::size_t length, Rng* rng) const {
  StateSequence seq;
  seq.reserve(length);
  if (length == 0) return seq;
  std::size_t state = rng->Categorical(initial_);
  seq.push_back(static_cast<int>(state));
  for (std::size_t t = 1; t < length; ++t) {
    state = rng->Categorical(transition_.Row(state));
    seq.push_back(static_cast<int>(state));
  }
  return seq;
}

Result<MarkovChain> MarkovChain::Estimate(const std::vector<StateSequence>& data,
                                          std::size_t k, double smoothing) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  Matrix counts(k, k, smoothing);
  for (const auto& seq : data) {
    for (std::size_t t = 0; t + 1 < seq.size(); ++t) {
      const int from = seq[t], to = seq[t + 1];
      if (from < 0 || to < 0 || static_cast<std::size_t>(from) >= k ||
          static_cast<std::size_t>(to) >= k) {
        return Status::OutOfRange("state outside [0, k) in Estimate");
      }
      counts(static_cast<std::size_t>(from), static_cast<std::size_t>(to)) += 1.0;
    }
  }
  Matrix p(k, k, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < k; ++j) row_sum += counts(i, j);
    if (row_sum <= 0.0) {
      for (std::size_t j = 0; j < k; ++j) p(i, j) = 1.0 / static_cast<double>(k);
    } else {
      for (std::size_t j = 0; j < k; ++j) p(i, j) = counts(i, j) / row_sum;
    }
  }
  // Initial distribution: stationary distribution of the estimated matrix
  // (Section 5.3's choice); fall back to the empirical start distribution.
  Vector start(k, 0.0);
  double starts = 0.0;
  for (const auto& seq : data) {
    if (!seq.empty()) {
      start[static_cast<std::size_t>(seq[0])] += 1.0;
      starts += 1.0;
    }
  }
  if (starts > 0.0) {
    for (double& v : start) v /= starts;
  } else {
    start.assign(k, 1.0 / static_cast<double>(k));
  }
  PF_ASSIGN_OR_RETURN(MarkovChain tmp, MarkovChain::Make(start, p));
  Result<Vector> pi = tmp.StationaryDistribution();
  if (pi.ok() && IsProbabilityVector(pi.value(), 1e-6)) {
    return MarkovChain::Make(pi.value(), tmp.transition());
  }
  return tmp;
}

}  // namespace pf
