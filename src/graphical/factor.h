// Discrete factors (nonnegative multi-dimensional tables) — the working
// representation of structured inference. A factor holds a value for every
// joint assignment of its scope variables in mixed-radix order (first scope
// variable most significant, matching the CPT and ConditionalJoint
// conventions throughout the library). Variable-elimination inference
// (graphical/elimination.h) performs the three operations defined here —
// product, marginalization, and evidence reduction — over planned table
// layouts; the Factor versions below are their reference definitions.
//
// Layout notes: values are a flat contiguous buffer, and the elimination
// driver always places the variable about to be summed out LAST in the
// clique scope, so marginalization reduces contiguous blocks.
#ifndef PUFFERFISH_GRAPHICAL_FACTOR_H_
#define PUFFERFISH_GRAPHICAL_FACTOR_H_

#include <cstddef>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"

namespace pf {

/// \brief A nonnegative table over a set of discrete variables.
///
/// `scope` lists distinct variable ids; `arity[i]` is the domain size of
/// `scope[i]`; `values` has one entry per joint assignment of the scope in
/// mixed-radix order with `scope[0]` most significant. A factor with an
/// empty scope is a scalar (one value).
struct Factor {
  std::vector<int> scope;
  std::vector<int> arity;
  Vector values;

  std::size_t size() const { return values.size(); }
  /// Bytes held by the value table (the unit of EliminationStats).
  std::size_t bytes() const { return values.size() * sizeof(double); }
  bool Contains(int var) const;
};

/// \brief The factor of one CPT row-block: scope = parents (in their stored
/// order, most significant first) followed by the child, values = the CPT
/// flattened row-major. This is exactly P(child | parents) laid out so the
/// factor product of all CPT factors is the joint.
Factor CptFactor(const std::vector<int>& parents,
                 const std::vector<int>& parent_arities, int child,
                 int child_arity, const Matrix& cpt);

/// \brief Conditions a factor on `var = value`: the variable is dropped
/// from the scope and only the matching slice of the table is kept. Factors
/// not containing `var` are returned unchanged.
Factor Reduce(const Factor& f, int var, int value);

/// \brief Product of `factors` laid out over an explicit result scope
/// (which must cover every input scope; `result_arity` parallel to it).
/// Each output cell is the product of the matching input cells; inputs are
/// multiplied in list order, so the result is deterministic for a given
/// factor list. Output cells are walked in row-major order with
/// incrementally maintained input indices (no per-cell index recompute).
Factor MultiplyAll(const std::vector<const Factor*>& factors,
                   std::vector<int> result_scope,
                   std::vector<int> result_arity);

/// \brief Sums out the LAST scope variable: values are contiguous
/// arity-sized blocks, so this is a row-sum over the table viewed as a
/// (size/arity) x arity matrix. Ascending-index summation (the same order
/// the naive matrix kernel uses).
Factor MarginalizeLast(const Factor& f);

}  // namespace pf

#endif  // PUFFERFISH_GRAPHICAL_FACTOR_H_
