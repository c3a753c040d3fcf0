// Structured exact inference by variable elimination. Where the
// enumeration reference path walks the full joint-assignment space
// (exponential in NODE COUNT), elimination sums variables out one at a
// time along a min-fill ordering, so its cost is exponential only in the
// INDUCED WIDTH of that ordering (an upper bound on treewidth) — constant
// for chains, trees, and stars, min(rows, cols) for grids. This is what
// lets Algorithm 2 run on networks of hundreds of nodes instead of ~20.
//
// The tree-decomposition view (WCOJ / junction-tree literature): each
// elimination step materializes one bag of the decomposition; the `limit`
// guard bounds the largest bag's table, not the joint space. As in WCOJ
// evaluation, the decomposition is chosen once per query SHAPE and then
// evaluated per instance: a structural plan (order, bags, table layouts)
// is built from the query's structure and replayed on its values.
#ifndef PUFFERFISH_GRAPHICAL_ELIMINATION_H_
#define PUFFERFISH_GRAPHICAL_ELIMINATION_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graphical/factor.h"

namespace pf {

/// How conditional distributions are computed from a factor system.
enum class InferenceBackend {
  /// Pick automatically: variable elimination (the scalable default).
  kAuto,
  /// Sum variables out along a min-fill order; cost exponential in the
  /// induced width, `limit` guards the largest intermediate table.
  kVariableElimination,
  /// Walk the full joint-assignment space; cost exponential in node
  /// count, `limit` guards the assignment-space size. Kept as the
  /// reference ground truth for the elimination path.
  kEnumeration,
};

/// Human-readable backend name ("elimination", "enumeration").
const char* InferenceBackendName(InferenceBackend backend);

/// Cost diagnostics of one (or the max over several) elimination runs.
struct EliminationStats {
  /// Largest clique minus one over the run: max over eliminated variables
  /// of the number of other variables in the combined factor. An induced
  /// width of w means the biggest table had <= arity^(w+1) cells.
  std::size_t induced_width = 0;
  /// Peak bytes of simultaneously live factor tables, counting each step's
  /// full clique table (product before summing out) as live during the
  /// step — the cost model of the plan, whether or not a kernel fills that
  /// table in memory.
  std::size_t peak_factor_bytes = 0;

  /// Folds another run into this one (both fields max — the quantities
  /// bound worst-case cost, so the max over runs is the honest summary).
  void MergeMax(const EliminationStats& other);
};

/// \brief Min-fill elimination order over an undirected interaction graph:
/// repeatedly removes the eliminable vertex whose neighborhood needs the
/// fewest fill-in edges (ties to the smallest vertex id — fully
/// deterministic), marrying its remaining neighbors. Vertices with
/// `eliminable[v] == false` (query targets) are never removed but keep
/// participating as neighbors. Returns the order; `induced_width` (if
/// non-null) receives the max remaining-neighbor count at removal time.
/// The same routine orders every elimination plan; this entry point runs
/// it on scratch of its own.
std::vector<int> MinFillOrder(const std::vector<std::vector<int>>& adjacency,
                              const std::vector<bool>& eliminable,
                              std::size_t* induced_width);

/// \brief Min-fill induced width of eliminating the WHOLE graph — the
/// treewidth upper bound the engine's mechanism-selection policy compares
/// against its cutoff before routing a network model to Algorithm 2.
std::size_t MinFillWidth(const std::vector<std::vector<int>>& adjacency);

/// \brief Conditional joint of `targets` given `evidence` under the
/// (normalized or unnormalized) distribution prod_f factors[f], as a flat
/// mass vector over the mixed-radix product of target arities (first
/// target most significant — the BayesianNetwork::ConditionalJoint
/// convention; targets may repeat and may appear in the evidence).
///
/// `arities[v]` is the domain size of variable id v; every factor scope
/// must index into it. Fails FailedPrecondition when the evidence has
/// probability zero and InvalidArgument when the guarded cost measure of
/// the chosen backend exceeds `limit`.
Result<Vector> FactorConditionalJoint(
    const std::vector<Factor>& factors, const std::vector<int>& arities,
    const std::vector<int>& targets,
    const std::vector<std::pair<int, int>>& evidence, std::size_t limit,
    InferenceBackend backend = InferenceBackend::kAuto,
    EliminationStats* stats = nullptr);

/// \brief FactorConditionalJoint writing into a caller-retained vector
/// (capacity reused). Results are identical to FactorConditionalJoint.
///
/// The elimination backend keeps one PLAN per thread: the evidence
/// reductions, min-fill order, per-step clique layouts, output layout,
/// limit-guard outcome and EliminationStats of a query structure. The
/// structure is the factors' scopes and arities, `arities`, `targets`,
/// the evidence VARIABLES (in order) and `limit`. A call whose structure
/// equals the stored plan's exactly — compared field by field with ==,
/// never by hash — replays the plan on its factor values and evidence
/// values; any other call rebuilds the plan first. Replays still run every
/// value-dependent check: evidence value ranges, conflicting duplicate
/// evidence and zero-probability evidence (FailedPrecondition), and a
/// deadline checkpoint before every elimination step. Plan storage and
/// intermediate tables are retained per thread, so a warm thread answers
/// queries — repeated, or alternating between structures — with ZERO heap
/// allocations.
Status FactorConditionalJointInto(
    const std::vector<Factor>& factors, const std::vector<int>& arities,
    const std::vector<int>& targets,
    const std::vector<std::pair<int, int>>& evidence, std::size_t limit,
    InferenceBackend backend, EliminationStats* stats, Vector* out);

/// Bytes retained by the CALLING thread's elimination workspace arena (the
/// reuse pool behind the zero-allocation steady state). Diagnostic.
std::size_t EliminationScratchRetainedBytes();

}  // namespace pf

#endif  // PUFFERFISH_GRAPHICAL_ELIMINATION_H_
