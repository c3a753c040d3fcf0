// MQMExact (Algorithm 3): the Markov Quilt Mechanism specialized to
// discrete-time homogeneous Markov chains, computing *exact* max-influence
// via the decomposition of Eq. (5):
//
//   e_theta({X_{i-a}, X_{i+b}} | X_i) = max_{x,x'} (
//       log P(X_i=x')/P(X_i=x)
//     + max_y log P^b(x, y) / P^b(x', y)
//     + max_z log P^a(z, x) / P^a(z, x') )
//
// with the quilt family of Lemma 4.6 (only {X_{i-a}, X_{i+b}}, {X_{i-a}},
// {X_{i+b}} and the trivial quilt need be searched). Includes:
//  - the Appendix C.4 optimization for classes Theta = Delta_k x P (all
//    initial distributions): max over q reduces to a max over matrix rows;
//  - the stationary-initial shortcut of Section 4.4.1: when q is the
//    stationary distribution, max-influence is i-independent and only the
//    middle node need be searched (Lemma C.4's argument).
#ifndef PUFFERFISH_PUFFERFISH_MQM_EXACT_H_
#define PUFFERFISH_PUFFERFISH_MQM_EXACT_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/memory_stats.h"
#include "common/random.h"
#include "common/status.h"
#include "graphical/markov_chain.h"
#include "graphical/markov_quilt.h"
#include "pufferfish/markov_quilt_mechanism.h"

namespace pf {

/// Options for the chain-specialized quilt searches. Fixed per analysis:
/// a resumable ChainMqmAnalysis carries its options across ExtendTo calls
/// (the growing length is the only thing that changes), and the cache
/// layer keys analysis chains by (options, model, epsilon) minus length.
struct ChainMqmOptions {
  /// Privacy parameter epsilon.
  double epsilon = 1.0;
  /// Cap ell on card(X_N) of searched quilts. Quilts with larger nearby
  /// sets are skipped (except the trivial quilt, always included).
  std::size_t max_nearby = 64;
  /// Permit the stationary-initial shortcut (used only when the initial
  /// distribution matches the stationary distribution within tolerance).
  bool allow_stationary_shortcut = true;
  /// \brief Score one representative node per dedup class instead of every
  /// node. Nodes are keyed by (their marginal vector — or P^i in
  /// free-initial mode — and the boundary-clipped distances min(i, ell),
  /// min(T-1-i, ell)); nodes with equal keys provably share sigma_i, the
  /// active-quilt offsets, and the influence, so the O(T) node scan
  /// collapses to O(marginal mixing time + ell) scored nodes. Class
  /// membership is verified by exact value comparison (never by hash
  /// alone), so results are bit-identical to the exhaustive scan. Off =
  /// the exhaustive reference scan, kept for verification and benchmarks.
  bool dedup_nodes = true;
  /// Worker threads for the per-class sigma_i scan and the matrix-power /
  /// maximization-table precomputation; 0 = hardware concurrency (the
  /// library-wide convention, see common/parallel.h). Results are
  /// bit-identical for every value: tables are built up front, classes
  /// score independently, and the sigma_max reduction is sequential.
  std::size_t num_threads = 0;
};

/// Outcome of a chain quilt search.
struct ChainMqmResult {
  /// sigma_max: the Laplace scale multiplier (per unit Lipschitz constant).
  double sigma_max = 0.0;
  /// Node (0-based) attaining sigma_max. Under the stationary shortcut this
  /// is the middle node, which provably attains the maximum.
  int worst_node = 0;
  /// The active quilt at the worst node.
  MarkovQuilt active_quilt;
  /// Max-influence of the active quilt.
  double influence = 0.0;
  /// True if the stationary shortcut was used.
  bool used_stationary_shortcut = false;

  // ---- Analysis-cost diagnostics (summed / maxed over Theta) ----
  /// Chain nodes the analysis covered (T per theta in the class).
  std::size_t total_nodes = 0;
  /// sigma_i evaluations actually performed: one per dedup class (plus the
  /// single middle node under the stationary shortcut).
  std::size_t scored_nodes = 0;
  /// Memory accounting of the analysis pass (merged over Theta:
  /// peak/retained maxed, mallocs summed).
  ///
  /// `peak_bytes`: peak bytes resident in the streamed power ladder, the
  /// per-distance maximization tables, and the dedup class store. In
  /// free-initial mode this is O(k^2 * max(256, max_nearby)) — the class
  /// store caps at max(256, 4 * max_nearby) entries — and in particular
  /// length-independent, where the pre-optimization path materialized
  /// O(T * k^2). (The scan's per-node class-index array, 4 bytes per
  /// node, is not counted here.)
  ///
  /// `arena_retained_bytes`: the subset retained across ExtendTo calls by
  /// the resumable analysis (evaluator tables, stream cursor, class-store
  /// values) — the reuse pool behind the zero-allocation append path.
  ///
  /// `mallocs`: tracked heap-acquisition events during the pass (class
  /// creations, table builds, cursor-buffer growths, node-index growth).
  /// Exactly 0 on a steady-state ExtendTo append — the hot loop reuses
  /// retained buffers only; a positive count on cold/fallback passes is an
  /// event count, not a precise malloc tally.
  MemoryStats memory;
  /// Work saved by the dedup scan: total_nodes / scored_nodes (1.0 when
  /// every node was scored).
  double dedup_ratio() const {
    return scored_nodes == 0
               ? 1.0
               : static_cast<double>(total_nodes) / static_cast<double>(scored_nodes);
  }
};

/// \brief A resumable MQMExact analysis for growing chains (the streaming /
/// continual-release workload).
///
/// The sigma analysis is data-independent, and when a chain grows from T to
/// T' = T + delta almost every per-node score is provably unchanged: only
/// the O(max_nearby) right-boundary nodes whose clipped distance
/// min(T-1-i, ell) changed need re-keying, plus the delta appended nodes.
/// ChainMqmAnalysis therefore retains the analysis state between lengths —
/// the power/table evaluator (extend-only), the dedup class store with its
/// boundary-clipped distance keys, the streaming value cursor, and (under
/// the stationary shortcut) the middle-node cursor — and ExtendTo(T')
/// reuses every interior class verbatim.
///
/// Guarantees:
///  - ExtendTo(T') is BIT-identical to a cold analysis at T' — sigma_max,
///    worst node, active quilt, influence, shortcut flag, and the dedup
///    diagnostics (scored_nodes, memory.peak_bytes) — for every chain
///    variant (stationary / non-stationary / free-initial), shortcut
///    setting, and thread count. Chained extensions (T -> T+1 -> ... ->
///    T+delta) equal the one-shot analysis at T+delta.
///  - ExtendTo only grows: new_length < length() is InvalidArgument (build
///    a fresh analysis to shrink); new_length == length() is a no-op.
///  - Cost on the dedup scan: O(max_nearby) rescored classes + O(delta)
///    streamed nodes + a reduce over the stored per-class scores — no
///    per-node sigma_i work on the interior. Paths that keep no per-node
///    state (the exhaustive reference scan, or a dedup scan whose class
///    store overflowed) transparently fall back to a cold re-analysis,
///    which is always correct, just not incremental.
///  - Cost under the stationary shortcut: O(1) once the middle node's
///    marginal has cycled and its clip distances min(mid, ell),
///    min(T'-1-mid, ell) are saturated. The middle node's family score is
///    memoized by (exact marginal, clip distances), so an append re-applies
///    only the length-dependent trivial quilt and re-materializes the
///    active quilt; a key change (short chains, or a marginal that has not
///    cycled yet) rescores the O(max_nearby^2)-quilt family once.
///  - Lengths above kMaxChainLength (INT_MAX; chain nodes are int) are
///    InvalidArgument from Analyze, AnalyzeFreeInitial and ExtendTo; a
///    refused ExtendTo leaves the analysis unchanged.
///
/// Not thread-safe: callers serialize ExtendTo (the AnalysisCache does).
class ChainMqmAnalysis {
 public:
  /// Algorithm 3 over an explicit class of chains, resumably.
  static Result<ChainMqmAnalysis> Analyze(std::vector<MarkovChain> thetas,
                                          std::size_t length,
                                          const ChainMqmOptions& options);
  /// Algorithm 3 with the Appendix C.4 free-initial class, resumably.
  static Result<ChainMqmAnalysis> AnalyzeFreeInitial(
      std::vector<Matrix> transitions, std::size_t length,
      const ChainMqmOptions& options);

  ChainMqmAnalysis(ChainMqmAnalysis&&) noexcept;
  ChainMqmAnalysis& operator=(ChainMqmAnalysis&&) noexcept;
  ~ChainMqmAnalysis();

  /// Chain length the analysis currently covers.
  std::size_t length() const;
  /// The analysis result at length() — identical to what MqmExactAnalyze
  /// (or the free-initial variant) returns for the same model and length.
  const ChainMqmResult& result() const;
  /// Re-analyzes at new_length >= length(), incrementally where possible.
  Status ExtendTo(std::size_t new_length);

 private:
  struct Impl;
  explicit ChainMqmAnalysis(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// \brief Exact max-influence e_{theta}(X_Q | X_i) of a chain quilt
/// (Eq. (5)); exposed for tests and the worked examples. The quilt must be
/// a chain quilt for a chain of length `length`.
Result<double> ChainQuiltInfluenceExact(const MarkovChain& theta,
                                        std::size_t length,
                                        const MarkovQuilt& quilt);

/// \brief Algorithm 3 (MQMExact) over an explicit class of chains. All
/// chains share the state space; `length` is T. Runs per-theta and takes
/// the worst sigma over Theta.
Result<ChainMqmResult> MqmExactAnalyze(const std::vector<MarkovChain>& thetas,
                                       std::size_t length,
                                       const ChainMqmOptions& options);

/// \brief Algorithm 3 with the Appendix C.4 class Theta = Delta_k x P:
/// every transition matrix in `transitions` paired with *every* initial
/// distribution. The max over initial distributions is computed in closed
/// form (max over rows of matrix powers) rather than by gridding the
/// simplex.
Result<ChainMqmResult> MqmExactAnalyzeFreeInitial(
    const std::vector<Matrix>& transitions, std::size_t length,
    const ChainMqmOptions& options);

}  // namespace pf

#endif  // PUFFERFISH_PUFFERFISH_MQM_EXACT_H_
