// Markov quilts (Definition 4.2): a set X_Q whose removal splits the network
// into "nearby" nodes X_N (containing the protected X_i) and "remote" nodes
// X_R, with X_R independent of X_i given X_Q. Includes the chain quilt
// family of Lemma 4.6 and a separator-based generator for general networks.
#ifndef PUFFERFISH_GRAPHICAL_MARKOV_QUILT_H_
#define PUFFERFISH_GRAPHICAL_MARKOV_QUILT_H_

#include <cstddef>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graphical/bayesian_network.h"
#include "graphical/moral_graph.h"

namespace pf {

/// \brief One Markov quilt for a protected node.
///
/// Only the quilt node set and card(X_N) are always populated; the explicit
/// nearby/remote node lists are filled by the general-network constructors
/// but deliberately left empty by the chain constructors, where X_N is the
/// contiguous block between the quilt endpoints and chains can have millions
/// of nodes.
struct MarkovQuilt {
  /// The protected node X_i.
  int target = 0;
  /// Quilt nodes X_Q, sorted ascending (empty: the trivial quilt).
  std::vector<int> quilt;
  /// card(X_N) — the factor multiplying the Laplace scale in the score.
  std::size_t nearby_count = 0;
  /// Explicit nearby nodes X_N (general-network path only).
  std::vector<int> nearby;
  /// Explicit remote nodes X_R (general-network path only).
  std::vector<int> remote;

  std::size_t NearbyCount() const { return nearby_count; }
  bool IsTrivial() const { return quilt.empty(); }

  /// Debug rendering like "quilt{X3,X13} near=9" for logs and tests.
  std::string ToString() const;
};

/// \brief Longest chain the chain-quilt code can index: nodes are `int`
/// (MarkovQuilt::target, MarkovQuilt::quilt), so T may not exceed INT_MAX.
inline constexpr std::size_t kMaxChainLength =
    static_cast<std::size_t>(std::numeric_limits<int>::max());

/// \brief InvalidArgument when `length` exceeds kMaxChainLength. The
/// MQMExact and MQMApprox entry points and the engine's model validation
/// check this before any node arithmetic.
Status ValidateChainLength(std::size_t length);

/// \brief Endpoint distances (a, b) of a chain quilt relative to its
/// target: a for the past-side node X_{i-a}, b for the future-side node
/// X_{i+b}; 0 for an absent side (and (0, 0) for the trivial quilt).
/// Shared by the exact and approximate chain influence computations.
std::pair<int, int> ChainQuiltOffsets(const MarkovQuilt& quilt);

/// \brief The trivial quilt (X_Q empty, X_N = everything, X_R empty), which
/// Algorithm 2 requires every candidate set to contain: it always has
/// max-influence 0 and yields the group-DP fallback noise.
MarkovQuilt TrivialQuilt(int target, std::size_t num_nodes);

/// \brief Chain quilt per Lemma 4.6 for a chain of `length` nodes indexed
/// 0..length-1: {X_{i-a}, X_{i+b}} when a, b >= 1 (card(X_N) = a + b - 1),
/// {X_{i-a}} when b == 0 (X_N extends to the right boundary,
/// card = length-1-(i-a)), or {X_{i+b}} when a == 0 (card = i + b).
/// Fails if indices leave the chain.
Result<MarkovQuilt> ChainQuilt(std::size_t length, int target, int a, int b);

/// \brief Lemma 4.6 / Algorithm 3 search family S_{Q,i}: all quilts
/// {X_{i-a}, X_{i+b}}, {X_{i-a}}, {X_{i+b}} whose nearby set has at most
/// `max_nearby` nodes, plus the trivial quilt (always included regardless
/// of its size, as Theorem 4.3 requires).
std::vector<MarkovQuilt> ChainQuiltFamily(std::size_t length, int target,
                                          std::size_t max_nearby);

/// \brief Builds the quilt induced by candidate separator `quilt` in a
/// general Bayesian network: X_R = nodes separated from `target` by `quilt`
/// in the moral graph, X_N = the rest. Moral-graph separation certifies the
/// Definition 4.2 independence requirement. Fills the explicit node lists.
MarkovQuilt QuiltFromSeparator(const MoralGraph& graph, int target,
                               std::vector<int> quilt);

/// \brief Enumerates all quilts induced by separators of size at most
/// `max_quilt_size` (brute force over subsets; exponential — intended for
/// the small networks where Algorithm 2 runs), plus the trivial quilt.
/// Separators yielding an empty remote set are skipped (dominated by the
/// trivial quilt, whose max-influence is 0). On disconnected graphs the
/// empty separator already splits off the other components, so the
/// empty-quilt candidate with X_R = those components is included too.
///
/// The result is deduplicated and deterministically ordered — sorted by
/// (quilt size, quilt node ids, nearby count) — so repeated calls and
/// structurally identical graphs built in any insertion order produce
/// byte-identical lists.
std::vector<MarkovQuilt> EnumerateQuilts(const MoralGraph& graph, int target,
                                         std::size_t max_quilt_size);

/// Knobs for the separator-driven quilt search on large networks.
struct SeparatorSearchOptions {
  /// Largest BFS radius around the target whose sphere is tried as a cut.
  std::size_t max_radius = 6;
  /// Spheres with more nodes than this are skipped (they would make the
  /// max-influence inference exponential in the sphere size).
  std::size_t max_quilt_size = 8;
};

/// \brief Scalable quilt candidates for general networks: for each radius
/// r <= max_radius, the BFS sphere S_r around the target (every node at
/// distance exactly r) is a vertex cut separating the ball B_{r-1} from
/// the rest, and its pruned variant (sphere nodes that actually border a
/// strictly farther node) trades a smaller separator for a larger nearby
/// set. Both are emitted, plus the other-components cut on disconnected
/// graphs and always the trivial quilt (Theorem 4.3). Candidate count is
/// O(max_radius) instead of the exhaustive search's O(n^max_quilt_size);
/// ordering and dedup follow the EnumerateQuilts convention.
std::vector<MarkovQuilt> SeparatorQuilts(
    const MoralGraph& graph, int target,
    const SeparatorSearchOptions& options = {});

}  // namespace pf

#endif  // PUFFERFISH_GRAPHICAL_MARKOV_QUILT_H_
