#include "pufferfish/mqm_approx.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace pf {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

Status CheckSummary(const ChainClassSummary& summary) {
  if (!(summary.pi_min > 0.0) || summary.pi_min > 1.0) {
    return Status::InvalidArgument("pi_min must lie in (0, 1]");
  }
  if (!(summary.eigengap > 0.0)) {
    return Status::FailedPrecondition(
        "eigengap must be positive (irreducible aperiodic chains)");
  }
  return Status::OK();
}

// log((1 + Delta_t)/(1 - Delta_t)) with Delta_t = exp(-g t / 2) / pi_min;
// +infinity when Delta_t >= 1 (bound inapplicable at this distance).
double SideBound(const ChainClassSummary& summary, int t) {
  const double delta = std::exp(-summary.eigengap * static_cast<double>(t) / 2.0) /
                       summary.pi_min;
  if (delta >= 1.0) return kInf;
  return std::log((1.0 + delta) / (1.0 - delta));
}
}  // namespace

Result<double> ChainQuiltInfluenceBound(const ChainClassSummary& summary,
                                        const MarkovQuilt& quilt) {
  PF_RETURN_NOT_OK(CheckSummary(summary));
  if (quilt.IsTrivial()) return 0.0;
  const auto [a, b] = ChainQuiltOffsets(quilt);
  double bound = 0.0;
  // Per Lemmas 4.8 / C.1: the "past" side X_{i-a} contributes the squared
  // (doubled-log) factor, the "future" side X_{i+b} the single factor.
  if (a > 0) bound += 2.0 * SideBound(summary, a);
  if (b > 0) bound += SideBound(summary, b);
  return bound;
}

Result<std::size_t> LemmaFourNineAStar(const ChainClassSummary& summary,
                                       double epsilon) {
  PF_RETURN_NOT_OK(CheckSummary(summary));
  PF_RETURN_NOT_OK(ValidatePrivacyParams({epsilon}));
  const double ratio =
      (std::exp(epsilon / 6.0) + 1.0) / (std::exp(epsilon / 6.0) - 1.0);
  const double inner = std::log(ratio / summary.pi_min) / summary.eigengap;
  return static_cast<std::size_t>(2.0 * std::ceil(inner));
}

namespace {
// sigma_i for node `node`: min score over the capped Lemma 4.6 family.
// The bound depends only on the endpoint distances (a, b), so the family is
// scanned arithmetically with the per-distance side bounds precomputed —
// no quilt structs are materialized until the winner is known.
Result<QuiltScore> ScoreNodeApprox(const ChainClassSummary& summary,
                                   std::size_t length, int node, double epsilon,
                                   std::size_t max_nearby) {
  const int n = static_cast<int>(length);
  const int i = node;
  const int max_card = static_cast<int>(max_nearby);
  // side[t] = log((1 + Delta_t)/(1 - Delta_t)); the past side contributes
  // twice this value, the future side once (Lemmas 4.8 / C.1).
  std::vector<double> side(static_cast<std::size_t>(max_card) + 2, kInf);
  for (int t = 1; t <= max_card + 1; ++t) {
    side[static_cast<std::size_t>(t)] = SideBound(summary, t);
  }
  double best_score = static_cast<double>(length) / epsilon;  // Trivial quilt.
  double best_influence = 0.0;
  int best_a = 0, best_b = 0;  // 0/0 encodes the trivial quilt.
  // Two-sided quilts {X_{i-a}, X_{i+b}}: card = a + b - 1.
  for (int a = 1; a <= i && a <= max_card; ++a) {
    const double left = 2.0 * side[static_cast<std::size_t>(a)];
    if (std::isinf(left)) continue;
    for (int b = 1; i + b < n && a + b - 1 <= max_card; ++b) {
      const double card = static_cast<double>(a + b - 1);
      if (card / epsilon >= best_score) break;  // Score only grows with b.
      const double e = left + side[static_cast<std::size_t>(b)];
      if (e >= epsilon) continue;
      const double score =
          QuiltScoreFromInfluence(static_cast<std::size_t>(card), epsilon, e);
      if (score < best_score) {
        best_score = score;
        best_influence = e;
        best_a = a;
        best_b = b;
      }
    }
  }
  // Left-only quilts {X_{i-a}}: card = (n-1) - (i-a).
  for (int a = 1; a <= i; ++a) {
    const int card = n - 1 - (i - a);
    if (card > max_card || a > max_card) continue;
    const double e = 2.0 * side[static_cast<std::size_t>(a)];
    if (e >= epsilon) continue;
    const double score =
        QuiltScoreFromInfluence(static_cast<std::size_t>(card), epsilon, e);
    if (score < best_score) {
      best_score = score;
      best_influence = e;
      best_a = a;
      best_b = 0;
    }
  }
  // Right-only quilts {X_{i+b}}: card = i + b.
  for (int b = 1; i + b < n; ++b) {
    const int card = i + b;
    if (card > max_card || b > max_card) break;
    const double e = side[static_cast<std::size_t>(b)];
    if (e >= epsilon) continue;
    const double score =
        QuiltScoreFromInfluence(static_cast<std::size_t>(card), epsilon, e);
    if (score < best_score) {
      best_score = score;
      best_influence = e;
      best_a = 0;
      best_b = b;
    }
  }
  QuiltScore best;
  best.score = best_score;
  best.influence = best_influence;
  if (best_a == 0 && best_b == 0) {
    best.quilt = TrivialQuilt(node, length);
  } else {
    PF_ASSIGN_OR_RETURN(best.quilt, ChainQuilt(length, node, best_a, best_b));
  }
  return best;
}
}  // namespace

Result<ChainMqmResult> MqmApproxAnalyze(const ChainClassSummary& summary,
                                        std::size_t length,
                                        const ChainMqmOptions& options) {
  PF_RETURN_NOT_OK(CheckSummary(summary));
  PF_RETURN_NOT_OK(ValidatePrivacyParams({options.epsilon}));
  if (length == 0) return Status::InvalidArgument("length must be positive");
  PF_RETURN_NOT_OK(ValidateChainLength(length));
  PF_ASSIGN_OR_RETURN(std::size_t a_star,
                      LemmaFourNineAStar(summary, options.epsilon));
  std::size_t max_nearby = options.max_nearby;
  if (max_nearby == 0) max_nearby = 4 * a_star;  // Lemma 4.9 auto width.

  ChainMqmResult result;
  if (options.allow_stationary_shortcut && length >= 3) {
    // Lemma 4.9 / Lemma C.4: the influence bound is independent of the node
    // index, so whenever the middle node's optimum is an interior two-sided
    // quilt (or the trivial quilt, whose score is node-independent), every
    // other node admits a quilt with no larger score and the middle node
    // attains sigma_max. Only a one-sided optimum at the middle forces the
    // full per-node scan (only possible for very short chains).
    const int mid = static_cast<int>(length / 2);
    PF_ASSIGN_OR_RETURN(
        QuiltScore mid_best,
        ScoreNodeApprox(summary, length, mid, options.epsilon, max_nearby));
    const bool interior_two_sided =
        mid_best.quilt.quilt.size() == 2 &&
        mid_best.quilt.quilt.front() >= 0 &&
        mid_best.quilt.quilt.back() < static_cast<int>(length);
    if (interior_two_sided || mid_best.quilt.IsTrivial()) {
      result.sigma_max = mid_best.score;
      result.worst_node = mid;
      result.active_quilt = mid_best.quilt;
      result.influence = mid_best.influence;
      result.used_stationary_shortcut = true;
      return result;
    }
  }
  result.sigma_max = -kInf;
  for (std::size_t i = 0; i < length; ++i) {
    PF_ASSIGN_OR_RETURN(QuiltScore ns,
                        ScoreNodeApprox(summary, length, static_cast<int>(i),
                                        options.epsilon, max_nearby));
    if (ns.score > result.sigma_max) {
      result.sigma_max = ns.score;
      result.worst_node = static_cast<int>(i);
      result.active_quilt = ns.quilt;
      result.influence = ns.influence;
    }
  }
  return result;
}

Result<ChainMqmResult> MqmApproxAnalyze(const std::vector<MarkovChain>& thetas,
                                        std::size_t length,
                                        const ChainMqmOptions& options) {
  PF_ASSIGN_OR_RETURN(ChainClassSummary summary, SummarizeChainClass(thetas));
  return MqmApproxAnalyze(summary, length, options);
}

}  // namespace pf
