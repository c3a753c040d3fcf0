// MQMApprox (Algorithm 4): the Markov Quilt Mechanism with max-influence
// replaced by the closed-form *upper bound* of Lemma 4.8 (general chains)
// and Lemma C.1 (reversible chains), driven only by the class parameters
// pi_min_Theta and eigengap g_Theta:
//
//   Delta_t = exp(-g t / 2) / pi_min
//   e({X_{i-a}, X_{i+b}} | X_i) <= log((1+Delta_b)/(1-Delta_b))
//                                + 2 log((1+Delta_a)/(1-Delta_a))
//
// (one-sided quilts keep only the matching term). Because an upper bound on
// the score is used, the mechanism remains epsilon-Pufferfish private; the
// price is extra noise relative to MQMExact. The bound is independent of
// the node index, so Lemma 4.9 applies: for chains of length
// T >= 8 a*, only the middle node with quilt width <= 4 a* need be scored.
//
// Cost, with w = min(width, T-1): O(w) to tabulate the side bounds once per
// analysis, then per scored node O(w) past distances a, each with one
// binary search for its first feasible future distance b and the b's that
// survive the score bound. The Lemma 4.9 shortcut scores one node; without
// it, one node per boundary class (min(i, w), min(T-1-i, w)), at most
// 2w + 1 nodes. Nothing depends on T beyond the cap on w.
#ifndef PUFFERFISH_PUFFERFISH_MQM_APPROX_H_
#define PUFFERFISH_PUFFERFISH_MQM_APPROX_H_

#include <cstddef>

#include "common/status.h"
#include "graphical/markov_quilt.h"
#include "pufferfish/framework.h"
#include "pufferfish/mqm_exact.h"

namespace pf {

/// \brief Lemma 4.8 / C.1 upper bound on the max-influence of a chain quilt
/// under a class with the given (pi_min, g) summary. Returns +infinity when
/// the quilt endpoints are too close for the bound to apply
/// (Delta_t >= 1, i.e. t < 2 log(1/pi_min)/g).
Result<double> ChainQuiltInfluenceBound(const ChainClassSummary& summary,
                                        const MarkovQuilt& quilt);

/// \brief Saturation value of LemmaFourNineAStar (2^60, so 8 a* still fits
/// in size_t). Any width of at least T-1 already admits the whole family.
inline constexpr std::size_t kMaxAStar = std::size_t{1} << 60;

/// \brief Lemma 4.9's critical width
///   a* = 2 * ceil( log( (e^{eps/6}+1)/(e^{eps/6}-1) * 1/pi_min ) / g ).
/// For T >= 8 a*, the optimal quilt for the middle node has width <= 4 a*
/// and the middle node attains sigma_max. Saturates at kMaxAStar where the
/// formula overflows: an epsilon so small that e^{eps/6} rounds to 1, or a
/// vanishing gap. Where e^{eps/6} overflows, the ratio takes its limit 1.
Result<std::size_t> LemmaFourNineAStar(const ChainClassSummary& summary,
                                       double epsilon);

/// \brief Algorithm 4 (MQMApprox). `options.max_nearby == 0` selects the
/// Lemma 4.9 automatic width (4 a*); any width is capped at T-1, which
/// admits every quilt. The influence bound is node-index independent, so
/// when the middle node's optimum is two-sided or trivial only the middle
/// node is scored (Lemma 4.9); otherwise one node per boundary class is.
Result<ChainMqmResult> MqmApproxAnalyze(const ChainClassSummary& summary,
                                        std::size_t length,
                                        const ChainMqmOptions& options);

/// Convenience overload computing the summary from an explicit chain class.
Result<ChainMqmResult> MqmApproxAnalyze(const std::vector<MarkovChain>& thetas,
                                        std::size_t length,
                                        const ChainMqmOptions& options);

}  // namespace pf

#endif  // PUFFERFISH_PUFFERFISH_MQM_APPROX_H_
