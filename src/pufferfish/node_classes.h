// Per-node-class deduplication for Algorithm 2 on general Bayesian
// networks — the PR-3 convention (key cheaply, verify exactly, never trust
// a hash alone) applied to arbitrary topologies.
//
// The invariant that makes general-network dedup sound: sigma_i is a pure
// function of the network AS SEEN FROM node i — the isomorphism class of
// the network rooted at i, with CPTs attached. We therefore compute each
// node's score on its CANONICAL FORM: the factor system relabeled by a
// deterministic BFS-refinement order rooted at the target (which becomes
// variable 0), with factor scopes normalized to ascending canonical ids.
// Two nodes with byte-identical canonical forms pose byte-identical
// scoring problems, so they share sigma_i, the active-quilt shape, and the
// influence BIT-identically — the dedup path just caches the function.
//
// Key = 64-bit fingerprint of the form (local-topology signature + CPT
// content + the target-rooted distance layering); membership is verified
// by exact comparison of the full canonical form (SameProblem), so a hash
// collision can only cost a wasted compare, never a wrong score. Nodes in
// symmetric positions (leaves of a star, same-depth nodes of a uniform
// tree, quadrant images of a grid) collapse into one class; nodes that
// merely look alike locally but differ anywhere in their rooted view do
// not — exactness over hit rate.
#ifndef PUFFERFISH_PUFFERFISH_NODE_CLASSES_H_
#define PUFFERFISH_PUFFERFISH_NODE_CLASSES_H_

#include <cstdint>
#include <vector>

#include "graphical/bayesian_network.h"
#include "graphical/factor.h"
#include "graphical/moral_graph.h"

namespace pf {

/// \brief One protected node's scoring problem, canonically relabeled so
/// the target is variable 0 and everything else follows the rooted
/// canonical order. Self-contained: quilt generation runs on `adjacency`,
/// influence inference on `factors`/`arities`.
struct NodeCanonicalForm {
  /// order[new_id] = original node id (the inverse relabeling, used to map
  /// the chosen active quilt back to the caller's node ids).
  std::vector<int> order;
  /// Per-variable arity, canonical ids.
  std::vector<int> arities;
  /// Moral adjacency (undirected, sorted), canonical ids.
  std::vector<std::vector<int>> adjacency;
  /// Per theta: the network's CPT factors with scopes renumbered and
  /// normalized to ascending canonical ids (table permuted to match — pure
  /// data movement, no arithmetic), the list sorted by scope. Empty until
  /// NodeCanonicalizer::Materialize fills it in.
  std::vector<std::vector<Factor>> factors;
  /// Cheap class key: fingerprint of everything above except `order`
  /// (the factors hashed whether or not they are materialized).
  std::uint64_t key = 0;

  /// Exact class-membership check of two materialized forms: byte equality
  /// of arities, adjacency, and every factor (scope, arity, and value
  /// BITS) — the relabelings (`order`) may differ, that is the point.
  bool SameProblem(const NodeCanonicalForm& other) const;
};

/// \brief Canonicalizes the nodes of one network class. The
/// root-independent work — the initial color ranks and every theta's CPT
/// factors — is done once at construction and shared by every target.
/// `thetas` and `graph` (their union moral graph) must outlive the object;
/// the const methods may run concurrently.
class NodeCanonicalizer {
 public:
  NodeCanonicalizer(const std::vector<BayesianNetwork>& thetas,
                    const MoralGraph& graph);

  /// The canonical order rooted at `target`: nodes sorted by (BFS distance
  /// from target, refined color, original id). The color is an iterated
  /// Weisfeiler-Leman refinement seeded with label-independent node
  /// attributes (arity, degree, CPT bytes per theta), so structurally
  /// interchangeable nodes tie — and ties between genuinely automorphic
  /// nodes are harmless, any resolution yields the same canonical bytes.
  /// Nodes in other components sort after the target's component
  /// (distance treated as num_nodes).
  std::vector<int> Order(int target) const;

  /// The canonical form of `target`'s scoring problem WITHOUT its factor
  /// tables (`factors` stays empty; everything else, the key included, is
  /// filled). That is all grouping nodes into classes needs (SameProblem
  /// below); Materialize adds the tables for the classes that get scored.
  NodeCanonicalForm Canonicalize(int target) const;

  /// Fills in the factor tables of a form from Canonicalize (no-op when
  /// they are present).
  void Materialize(NodeCanonicalForm* form) const;

  /// NodeCanonicalForm::SameProblem for a `form` whose tables may not be
  /// materialized, against a materialized `full` form of this class: the
  /// tables are compared cell by cell (bitwise) without being built.
  bool SameProblem(const NodeCanonicalForm& form,
                   const NodeCanonicalForm& full) const;

 private:
  const MoralGraph& graph_;
  std::vector<int> arities_;
  std::size_t initial_classes_ = 0;
  std::vector<std::uint64_t> initial_ranks_;
  std::vector<std::vector<Factor>> theta_factors_;
};

/// \brief NodeCanonicalizer(thetas, graph).Order(target).
std::vector<int> CanonicalNodeOrder(const std::vector<BayesianNetwork>& thetas,
                                    const MoralGraph& graph, int target);

/// \brief The materialized NodeCanonicalizer(thetas, graph) form of
/// `target`. `graph` must be the (union) moral graph of `thetas`.
NodeCanonicalForm CanonicalizeNode(const std::vector<BayesianNetwork>& thetas,
                                   const MoralGraph& graph, int target);

/// \brief The union moral graph of a network class: an edge wherever ANY
/// theta's moralization has one. Quilts generated from separators of the
/// union graph separate in every theta, which is what Definition 4.2
/// requires of the whole class (structurally identical thetas — the common
/// case — make this the ordinary moral graph).
MoralGraph UnionMoralGraph(const std::vector<BayesianNetwork>& thetas);

}  // namespace pf

#endif  // PUFFERFISH_PUFFERFISH_NODE_CLASSES_H_
