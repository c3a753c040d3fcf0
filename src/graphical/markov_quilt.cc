#include "graphical/markov_quilt.h"

#include <algorithm>

namespace pf {

std::string MarkovQuilt::ToString() const {
  std::string s = "quilt{";
  for (std::size_t i = 0; i < quilt.size(); ++i) {
    if (i > 0) s += ",";
    s += "X" + std::to_string(quilt[i]);
  }
  s += "} near=" + std::to_string(nearby_count);
  return s;
}

Status ValidateChainLength(std::size_t length) {
  if (length > kMaxChainLength) {
    return Status::InvalidArgument(
        "chain length " + std::to_string(length) + " exceeds the limit of " +
        std::to_string(kMaxChainLength) + " nodes");
  }
  return Status::OK();
}

std::pair<int, int> ChainQuiltOffsets(const MarkovQuilt& quilt) {
  int a = 0, b = 0;
  for (int q : quilt.quilt) {
    if (q < quilt.target) a = quilt.target - q;
    if (q > quilt.target) b = q - quilt.target;
  }
  return {a, b};
}

MarkovQuilt TrivialQuilt(int target, std::size_t num_nodes) {
  MarkovQuilt q;
  q.target = target;
  q.nearby_count = num_nodes;
  return q;
}

Result<MarkovQuilt> ChainQuilt(std::size_t length, int target, int a, int b) {
  const int n = static_cast<int>(length);
  if (target < 0 || target >= n) {
    return Status::InvalidArgument("target outside chain");
  }
  if (a < 0 || b < 0 || (a == 0 && b == 0)) {
    return Status::InvalidArgument("need a >= 1 or b >= 1 (use TrivialQuilt)");
  }
  const int left = target - a;   // Index of X_{i-a} if a > 0.
  const int right = target + b;  // Index of X_{i+b} if b > 0.
  if (a > 0 && left < 0) return Status::OutOfRange("left quilt endpoint < 0");
  if (b > 0 && right >= n) return Status::OutOfRange("right quilt endpoint >= T");
  MarkovQuilt q;
  q.target = target;
  if (a > 0) q.quilt.push_back(left);
  if (b > 0) q.quilt.push_back(right);
  const int near_lo = (a > 0) ? left + 1 : 0;
  const int near_hi = (b > 0) ? right - 1 : n - 1;
  q.nearby_count = static_cast<std::size_t>(near_hi - near_lo + 1);
  return q;
}

std::vector<MarkovQuilt> ChainQuiltFamily(std::size_t length, int target,
                                          std::size_t max_nearby) {
  std::vector<MarkovQuilt> out;
  const int n = static_cast<int>(length);
  const int i = target;
  // Two-sided quilts {X_{i-a}, X_{i+b}}: nearby count a + b - 1.
  for (int a = 1; a <= i; ++a) {
    if (static_cast<std::size_t>(a) > max_nearby) break;
    for (int b = 1; i + b < n; ++b) {
      if (static_cast<std::size_t>(a + b - 1) > max_nearby) break;
      Result<MarkovQuilt> q = ChainQuilt(length, target, a, b);
      if (q.ok()) out.push_back(std::move(q).value());
    }
  }
  // Left-only quilts {X_{i-a}}: nearby count (n-1) - (i-a).
  for (int a = 1; a <= i; ++a) {
    const std::size_t near_count = static_cast<std::size_t>(n - 1 - (i - a));
    if (near_count > max_nearby) continue;
    Result<MarkovQuilt> q = ChainQuilt(length, target, a, 0);
    if (q.ok()) out.push_back(std::move(q).value());
  }
  // Right-only quilts {X_{i+b}}: nearby count i + b.
  for (int b = 1; i + b < n; ++b) {
    const std::size_t near_count = static_cast<std::size_t>(i + b);
    if (near_count > max_nearby) break;
    Result<MarkovQuilt> q = ChainQuilt(length, target, 0, b);
    if (q.ok()) out.push_back(std::move(q).value());
  }
  out.push_back(TrivialQuilt(target, length));
  return out;
}

MarkovQuilt QuiltFromSeparator(const MoralGraph& graph, int target,
                               std::vector<int> quilt) {
  MarkovQuilt q;
  q.target = target;
  std::sort(quilt.begin(), quilt.end());
  q.quilt = quilt;
  const std::vector<int> reach = graph.ReachableAvoiding(target, quilt);
  std::vector<bool> in_quilt(graph.num_nodes(), false);
  for (int v : quilt) in_quilt[static_cast<std::size_t>(v)] = true;
  std::vector<bool> near(graph.num_nodes(), false);
  for (int v : reach) near[static_cast<std::size_t>(v)] = true;
  for (std::size_t v = 0; v < graph.num_nodes(); ++v) {
    if (in_quilt[v]) continue;
    if (near[v]) {
      q.nearby.push_back(static_cast<int>(v));
    } else {
      q.remote.push_back(static_cast<int>(v));
    }
  }
  q.nearby_count = q.nearby.size();
  return q;
}

namespace {
// Recursively extends `current` with indices from `candidates[start...]`.
void EnumerateSubsets(const MoralGraph& graph, int target,
                      const std::vector<int>& candidates, std::size_t start,
                      std::vector<int>* current, std::size_t max_size,
                      std::vector<MarkovQuilt>* out) {
  if (!current->empty()) {
    MarkovQuilt q = QuiltFromSeparator(graph, target, *current);
    if (!q.remote.empty()) out->push_back(std::move(q));
  }
  if (current->size() == max_size) return;
  for (std::size_t i = start; i < candidates.size(); ++i) {
    current->push_back(candidates[i]);
    EnumerateSubsets(graph, target, candidates, i + 1, current, max_size, out);
    current->pop_back();
  }
}

// The canonical ordering every quilt generator pins: (size, node ids,
// nearby count). Full-field comparison so dedup with std::unique is exact.
bool QuiltLess(const MarkovQuilt& a, const MarkovQuilt& b) {
  if (a.quilt.size() != b.quilt.size()) return a.quilt.size() < b.quilt.size();
  if (a.quilt != b.quilt) return a.quilt < b.quilt;
  if (a.nearby_count != b.nearby_count) return a.nearby_count < b.nearby_count;
  if (a.nearby != b.nearby) return a.nearby < b.nearby;
  return a.remote < b.remote;
}

bool QuiltEqual(const MarkovQuilt& a, const MarkovQuilt& b) {
  return a.target == b.target && a.quilt == b.quilt &&
         a.nearby_count == b.nearby_count && a.nearby == b.nearby &&
         a.remote == b.remote;
}

// Sorts by the canonical order and drops exact duplicates.
void CanonicalizeQuiltList(std::vector<MarkovQuilt>* quilts) {
  std::sort(quilts->begin(), quilts->end(), QuiltLess);
  quilts->erase(std::unique(quilts->begin(), quilts->end(), QuiltEqual),
                quilts->end());
}

// On disconnected graphs the empty separator already splits off every
// other component: X_Q = {} has max-influence 0 by definition and
// card(X_N) = |component(target)| < n, strictly better than the trivial
// quilt. Returns true (and appends) when the graph is disconnected.
bool AppendComponentQuilt(const MoralGraph& graph, int target,
                          std::vector<MarkovQuilt>* out) {
  MarkovQuilt q = QuiltFromSeparator(graph, target, {});
  if (q.remote.empty()) return false;
  out->push_back(std::move(q));
  return true;
}
}  // namespace

std::vector<MarkovQuilt> EnumerateQuilts(const MoralGraph& graph, int target,
                                         std::size_t max_quilt_size) {
  std::vector<int> candidates;
  for (std::size_t v = 0; v < graph.num_nodes(); ++v) {
    if (static_cast<int>(v) != target) candidates.push_back(static_cast<int>(v));
  }
  std::vector<MarkovQuilt> out;
  std::vector<int> current;
  EnumerateSubsets(graph, target, candidates, 0, &current, max_quilt_size, &out);
  AppendComponentQuilt(graph, target, &out);
  out.push_back(TrivialQuilt(target, graph.num_nodes()));
  CanonicalizeQuiltList(&out);
  return out;
}

std::vector<MarkovQuilt> SeparatorQuilts(const MoralGraph& graph, int target,
                                         const SeparatorSearchOptions& options) {
  std::vector<MarkovQuilt> out;
  AppendComponentQuilt(graph, target, &out);
  const std::vector<int> dist = graph.Distances(target);
  for (std::size_t r = 1; r <= options.max_radius; ++r) {
    std::vector<int> sphere, pruned;
    for (std::size_t v = 0; v < dist.size(); ++v) {
      if (dist[v] != static_cast<int>(r)) continue;
      sphere.push_back(static_cast<int>(v));
      for (int w : graph.neighbors(static_cast<int>(v))) {
        if (dist[static_cast<std::size_t>(w)] > static_cast<int>(r)) {
          pruned.push_back(static_cast<int>(v));
          break;
        }
      }
    }
    // No sphere node borders anything farther: the component ends here and
    // larger radii cannot produce new cuts.
    if (pruned.empty()) break;
    for (const std::vector<int>* cut : {&sphere, &pruned}) {
      if (cut->size() > options.max_quilt_size) continue;
      MarkovQuilt q = QuiltFromSeparator(graph, target, *cut);
      if (!q.remote.empty()) out.push_back(std::move(q));
    }
  }
  out.push_back(TrivialQuilt(target, graph.num_nodes()));
  CanonicalizeQuiltList(&out);
  return out;
}

}  // namespace pf
