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
  const double growth = std::exp(epsilon / 6.0);
  // Once exp overflows (epsilon above about 4260) the ratio has long since
  // rounded to its limit 1: growth +- 1 == growth from growth > 2^53 on.
  const double ratio =
      std::isinf(growth) ? 1.0 : (growth + 1.0) / (growth - 1.0);
  const double a_star =
      2.0 * std::ceil(std::log(ratio / summary.pi_min) / summary.eigengap);
  // A tiny epsilon (growth rounds to 1, so ratio = +inf) or a vanishing gap
  // overflows a*; saturate before the cast.
  if (!(a_star < static_cast<double>(kMaxAStar))) return kMaxAStar;
  return static_cast<std::size_t>(a_star);
}

namespace {
// Tables over the endpoint distance t = 0..width, built once per analysis:
// side[t] = log((1 + Delta_t)/(1 - Delta_t)) (t >= 1), which the past side
// contributes twice and the future side once (Lemmas 4.8 / C.1), and
// prefix_min[t] = min(side[1..t]) (+inf at t = 0). prefix_min is
// non-increasing even where rounding makes side[] not so.
struct SideTables {
  std::vector<double> side;
  std::vector<double> prefix_min;
};

SideTables BuildSideTables(const ChainClassSummary& summary, int width) {
  const std::size_t size = static_cast<std::size_t>(width) + 1;
  SideTables t{std::vector<double>(size, kInf), std::vector<double>(size, kInf)};
  for (std::size_t d = 1; d < size; ++d) {
    t.side[d] = SideBound(summary, static_cast<int>(d));
    t.prefix_min[d] = std::min(t.prefix_min[d - 1], t.side[d]);
  }
  return t;
}

// sigma_i for node `node`: min score over the Lemma 4.6 family capped at
// `width` nearby nodes. The bound depends only on the endpoint distances
// (a, b), so the family is scanned arithmetically over the side tables —
// no quilt structs are materialized until the winner is known. The trivial
// quilt is the incumbent and a quilt wins only with a strictly smaller
// score, in family order. Every skip below only passes over quilts that
// cannot win, so the result equals that of the plain scan.
Result<QuiltScore> ScoreNodeApprox(const SideTables& t, std::size_t length,
                                   int node, double epsilon, int width) {
  const int n = static_cast<int>(length);
  const int i = node;
  const double* side = t.side.data();
  const double* prefix_min = t.prefix_min.data();
  double best_score = static_cast<double>(length) / epsilon;  // Trivial quilt.
  double best_influence = 0.0;
  int best_a = 0, best_b = 0;  // 0/0 encodes the trivial quilt.
  auto offer = [&](int card, double e, int a, int b) {
    const double score =
        QuiltScoreFromInfluence(static_cast<std::size_t>(card), epsilon, e);
    if (score < best_score) {
      best_score = score;
      best_influence = e;
      best_a = a;
      best_b = b;
    }
  };
  // Two-sided quilts {X_{i-a}, X_{i+b}}: card = a + b - 1 <= width.
  for (int a = 1; a <= std::min(i, width); ++a) {
    const double left = 2.0 * side[a];
    // side >= 0, so e = left + side[b] >= left >= epsilon for every b.
    if (!(left < epsilon)) continue;
    const int b_end = std::min(n - 1 - i, width + 1 - a);
    // Every b before the first with left + prefix_min[b] < epsilon has
    // e >= epsilon (rounded addition is monotone), so the scan starts there.
    const int b_begin = static_cast<int>(
        std::partition_point(prefix_min + 1, prefix_min + b_end + 1,
                             [&](double m) { return left + m >= epsilon; }) -
        prefix_min);
    for (int b = b_begin; b <= b_end; ++b) {
      const int card = a + b - 1;
      // e >= left, so this b and every later one (larger card) score at
      // least card / (epsilon - left).
      if (static_cast<double>(card) / (epsilon - left) >= best_score) break;
      const double e = left + side[b];
      if (e >= epsilon) continue;
      offer(card, e, a, b);
    }
  }
  // Left-only quilts {X_{i-a}}: card = (n-1) - (i-a), growing with a and >= a.
  for (int a = 1; a <= i; ++a) {
    const int card = n - 1 - (i - a);
    if (card > width) break;
    const double e = 2.0 * side[a];
    if (e >= epsilon) continue;
    offer(card, e, a, 0);
  }
  // Right-only quilts {X_{i+b}}: card = i + b, growing with b and >= b.
  for (int b = 1; i + b < n; ++b) {
    const int card = i + b;
    if (card > width) break;
    const double e = side[b];
    if (e >= epsilon) continue;
    offer(card, e, 0, b);
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
  std::size_t max_nearby = options.max_nearby;
  if (max_nearby == 0) {  // Lemma 4.9 auto width.
    PF_ASSIGN_OR_RETURN(std::size_t a_star,
                        LemmaFourNineAStar(summary, options.epsilon));
    max_nearby = 4 * a_star;
  }
  // Every card in the three families is at most T-1, so a wider cap admits
  // nothing more; capping keeps the width an int and bounds the tables.
  const int width = static_cast<int>(std::min(max_nearby, length - 1));
  const SideTables tables = BuildSideTables(summary, width);

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
        ScoreNodeApprox(tables, length, mid, options.epsilon, width));
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
  // Node i's family depends on i only through its boundary class
  // (min(i, width), min(T-1-i, width)), and the bound not at all, so the
  // nodes width..T-1-width all score as node `width` does (MQMExact's
  // dedup classes). Scoring one node per class, in node order with the
  // strict >, keeps the first node attaining sigma_max.
  const std::size_t w = static_cast<std::size_t>(width);
  result.sigma_max = -kInf;
  for (std::size_t i = 0; i < length; ++i) {
    PF_ASSIGN_OR_RETURN(QuiltScore ns,
                        ScoreNodeApprox(tables, length, static_cast<int>(i),
                                        options.epsilon, width));
    if (ns.score > result.sigma_max) {
      result.sigma_max = ns.score;
      result.worst_node = static_cast<int>(i);
      result.active_quilt = ns.quilt;
      result.influence = ns.influence;
    }
    if (i == w && length - w > w + 1) i = length - w - 1;  // Next: T-width.
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
