// Discrete-time homogeneous Markov chains over a finite state space: the
// correlation model of the paper's case study (Section 4.4). Provides the
// chain-theoretic quantities the mechanisms need: marginals, matrix powers,
// stationary distribution, time reversal (Definition 4.7), multiplicative
// reversibilization P P*, eigengap g (Eq. (7) and Eq. (14)), and pi_min.
#ifndef PUFFERFISH_GRAPHICAL_MARKOV_CHAIN_H_
#define PUFFERFISH_GRAPHICAL_MARKOV_CHAIN_H_

#include <cstddef>
#include <vector>

#include "common/histogram.h"
#include "common/matrix.h"
#include "common/random.h"
#include "common/status.h"

namespace pf {

/// \brief A finite-state Markov chain theta = (q, P): initial distribution q
/// and row-stochastic transition matrix P.
class MarkovChain {
 public:
  /// Validates and constructs. Fails with InvalidArgument if q is not a
  /// probability vector, P is not row-stochastic, or dimensions mismatch.
  static Result<MarkovChain> Make(Vector initial, Matrix transition,
                                  double tol = 1e-8);

  /// Number of states k.
  std::size_t num_states() const { return initial_.size(); }
  const Vector& initial() const { return initial_; }
  const Matrix& transition() const { return transition_; }

  /// Marginal distribution of X_t (t is 0-based: X_0 ~ q).
  Vector MarginalAt(std::size_t t) const;

  /// Transition matrix raised to the n-th power (cached incrementally so
  /// repeated calls with increasing n cost one multiply each).
  const Matrix& TransitionPower(std::size_t n) const;

  /// \brief Stationary distribution pi with pi P = pi, by solving the linear
  /// system (P^T - I) pi = 0, sum pi = 1. Fails if the chain has no unique
  /// stationary distribution (reducible chains).
  Result<Vector> StationaryDistribution() const;

  /// Minimum stationary probability pi_min = min_x pi(x) (Eq. (6) for a
  /// singleton class).
  Result<double> MinStationaryProbability() const;

  /// \brief Time-reversal chain (Definition 4.7):
  /// P*(x, y) = P(y, x) pi(y) / pi(x), with the same stationary distribution.
  Result<MarkovChain> TimeReversal() const;

  /// True iff the chain satisfies detailed balance pi(x)P(x,y) = pi(y)P(y,x).
  Result<bool> IsReversible(double tol = 1e-8) const;

  /// True iff the transition graph is strongly connected.
  bool IsIrreducible() const;

  /// True iff the chain is aperiodic (gcd of cycle lengths is 1). Only
  /// meaningful for irreducible chains; checked via primitivity of the
  /// boolean transition matrix.
  bool IsAperiodic() const;

  /// \brief Eigengap g of the chain per the paper's Eq. (14):
  ///  - reversible:      2 * min_{j >= 2} (1 - |lambda_j(P)|)
  ///  - non-reversible:  min_{j >= 2} (1 - |lambda_j(P P*)|),
  /// with 1 = lambda_1 >= lambda_2 >= ... the spectrum in descending order.
  ///
  /// Only the Perron eigenvalue lambda_1 is excluded. Every other one
  /// counts, however close to 1, so a chain that barely mixes gets a gap
  /// near 0; a computed |lambda_j| >= 1 gives gap 0. One state: the min is 1.
  ///
  /// Both P (when reversible) and P P* are self-adjoint w.r.t. pi, so the
  /// spectrum is computed by symmetrizing with D^{1/2} (.) D^{-1/2},
  /// D = diag(pi), and running the Jacobi eigensolver.
  Result<double> Eigengap() const;

  /// Samples a trajectory X_0, ..., X_{T-1}.
  StateSequence Sample(std::size_t length, Rng* rng) const;

  /// \brief Maximum-likelihood estimate of a chain from observed sequences:
  /// empirical transition counts (with optional add-`smoothing` Laplace
  /// smoothing) and, as the initial distribution, the stationary distribution
  /// of the estimated matrix (the paper's Section 5.3 setup). States with no
  /// outgoing observations get uniform rows.
  static Result<MarkovChain> Estimate(const std::vector<StateSequence>& data,
                                      std::size_t k, double smoothing = 0.0);

 private:
  MarkovChain(Vector initial, Matrix transition)
      : initial_(std::move(initial)), transition_(std::move(transition)) {}

  Vector initial_;
  Matrix transition_;
  // Cache of transition powers: powers_[n] = P^n, grown on demand.
  mutable std::vector<Matrix> powers_;
};

}  // namespace pf

#endif  // PUFFERFISH_GRAPHICAL_MARKOV_CHAIN_H_
