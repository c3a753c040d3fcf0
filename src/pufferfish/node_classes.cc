#include "pufferfish/node_classes.h"

#include <algorithm>
#include <set>

#include "common/fingerprint.h"

namespace pf {

namespace {

// Label-independent node attributes that seed the refinement: arity,
// moral degree, and the raw CPT content under every theta. Root-independent
// by construction, so corresponding nodes of isomorphic rooted views start
// with equal colors.
std::vector<std::uint64_t> InitialColors(
    const std::vector<BayesianNetwork>& thetas, const MoralGraph& graph) {
  const std::size_t n = graph.num_nodes();
  std::vector<std::uint64_t> colors(n);
  for (std::size_t v = 0; v < n; ++v) {
    Fingerprint fp;
    fp.Add(thetas.front().node(v).arity);
    fp.Add(graph.neighbors(static_cast<int>(v)).size());
    for (const BayesianNetwork& bn : thetas) {
      const BayesianNetwork::Node& node = bn.node(v);
      fp.Add(node.parents.size());
      fp.Add(node.cpt);
    }
    colors[v] = fp.hash();
  }
  return colors;
}

// Dense ranks of a color vector (sorted-unique position), written into
// `ranks` with `sorted` as scratch. Iso-invariant: equal colors share a
// rank, and ranks only depend on the color multiset. Returns the number of
// distinct colors.
std::vector<int> Inverse(const std::vector<int>& order) {
  std::vector<int> inv(order.size(), 0);
  for (std::size_t v = 0; v < order.size(); ++v) {
    inv[static_cast<std::size_t>(order[v])] = static_cast<int>(v);
  }
  return inv;
}

std::size_t DenseRanksInto(const std::vector<std::uint64_t>& colors,
                           std::vector<std::uint64_t>* sorted,
                           std::vector<std::uint64_t>* ranks) {
  sorted->assign(colors.begin(), colors.end());
  std::sort(sorted->begin(), sorted->end());
  sorted->erase(std::unique(sorted->begin(), sorted->end()), sorted->end());
  ranks->resize(colors.size());
  for (std::size_t v = 0; v < colors.size(); ++v) {
    (*ranks)[v] = static_cast<std::uint64_t>(
        std::lower_bound(sorted->begin(), sorted->end(), colors[v]) -
        sorted->begin());
  }
  return sorted->size();
}

// Word-at-a-time hasher for the class key. The key only routes nodes to
// buckets inside one analysis (membership is decided by SameProblem, and
// the key is never stored), so it needs no stable byte-wise definition.
class KeyHasher {
 public:
  void Add(std::uint64_t v) {
    hash_ = (hash_ ^ v) * 0x9E3779B97F4A7C15u;
    hash_ ^= hash_ >> 29;
  }
  void Add(int v) {
    Add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }
  void Add(double v) { Add(DoubleBits(v)); }
  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325u;
};

// One theta's CPT factors relabeled for one target, without copying a
// table. Entry k — in ascending order of canonical scope — is source
// factor source[k] with its scope renumbered to canonical ids and sorted
// ascending (so factors that merely list the same variables in a different
// stored-parent order compare equal); its scope and arity sit at
// [begin[k], begin[k + 1]) and its cells at [cell_begin[k],
// cell_begin[k + 1]) of `cell`, each the index of the source cell it
// copies (pure data movement, no arithmetic).
struct RelabeledFactors {
  std::vector<std::size_t> source, begin, cell_begin, cell;
  std::vector<int> scope, arity;
  // Build scratch: per source factor, its sorted canonical scope and the
  // permutation (perm[i] = old position of the new i-th variable).
  std::vector<int> sorted;
  std::vector<std::size_t> sorted_begin, perm, stride;
  std::vector<int> digits;

  void Build(const std::vector<Factor>& factors, const std::vector<int>& inv);
};

void RelabeledFactors::Build(
    const std::vector<Factor>& factors, const std::vector<int>& inv) {
  sorted.clear();
  perm.clear();
  sorted_begin.assign(1, 0);
  for (const Factor& f : factors) {
    const std::size_t first = perm.size();
    for (std::size_t d = 0; d < f.scope.size(); ++d) perm.push_back(d);
    const auto canonical = [&](std::size_t d) {
      return inv[static_cast<std::size_t>(f.scope[d])];
    };
    std::sort(perm.begin() + static_cast<std::ptrdiff_t>(first), perm.end(),
              [&](std::size_t a, std::size_t b) {
                return canonical(a) < canonical(b);
              });
    for (std::size_t i = first; i < perm.size(); ++i) {
      sorted.push_back(canonical(perm[i]));
    }
    sorted_begin.push_back(sorted.size());
  }
  // CPT scopes are distinct as sets (equal sets would imply a parent
  // cycle), so ordering by canonical scope is strict and canonical.
  source.resize(factors.size());
  for (std::size_t i = 0; i < source.size(); ++i) source[i] = i;
  const auto scope_of = [this](std::size_t f, std::size_t end) {
    return sorted.begin() + static_cast<std::ptrdiff_t>(sorted_begin[f + end]);
  };
  std::sort(source.begin(), source.end(), [&](std::size_t a, std::size_t b) {
    return std::lexicographical_compare(scope_of(a, 0), scope_of(a, 1),
                                        scope_of(b, 0), scope_of(b, 1));
  });
  scope.clear();
  arity.clear();
  cell.clear();
  begin.assign(1, 0);
  cell_begin.assign(1, 0);
  for (const std::size_t f : source) {
    const Factor& src = factors[f];
    const std::size_t first = sorted_begin[f];
    const std::size_t dims = sorted_begin[f + 1] - first;
    bool identity = true;
    for (std::size_t d = 0; d < dims; ++d) {
      scope.push_back(sorted[first + d]);
      arity.push_back(src.arity[perm[first + d]]);
      identity &= perm[first + d] == d;
    }
    begin.push_back(scope.size());
    if (identity) {
      for (std::size_t c = 0; c < src.size(); ++c) cell.push_back(c);
    } else {
      // Stride of each OLD position, then walk the new table in row-major
      // order reading through the permutation.
      stride.assign(dims, 1);
      for (std::size_t d = dims; d-- > 1;) {
        stride[d - 1] = stride[d] * static_cast<std::size_t>(src.arity[d]);
      }
      const int* new_arity = arity.data() + (arity.size() - dims);
      digits.assign(dims, 0);
      for (std::size_t c = 0; c < src.size(); ++c) {
        std::size_t at = 0;
        for (std::size_t d = 0; d < dims; ++d) {
          at += stride[perm[first + d]] * static_cast<std::size_t>(digits[d]);
        }
        cell.push_back(at);
        for (std::size_t d = dims; d-- > 0;) {
          if (++digits[d] < new_arity[d]) break;
          digits[d] = 0;
        }
      }
    }
    cell_begin.push_back(cell.size());
  }
}

// The calling thread's relabeling scratch; its buffers keep their capacity
// from one target to the next.
RelabeledFactors& ThreadRelabeled() {
  static thread_local RelabeledFactors relabeled;
  return relabeled;
}

}  // namespace

NodeCanonicalizer::NodeCanonicalizer(const std::vector<BayesianNetwork>& thetas,
                                     const MoralGraph& graph)
    : graph_(graph), arities_(thetas.front().Arities()) {
  std::vector<std::uint64_t> sorted;
  initial_classes_ =
      DenseRanksInto(InitialColors(thetas, graph), &sorted, &initial_ranks_);
  theta_factors_.reserve(thetas.size());
  for (const BayesianNetwork& bn : thetas) theta_factors_.push_back(bn.Factors());
}

std::vector<int> NodeCanonicalizer::Order(int target) const {
  const std::size_t n = graph_.num_nodes();
  std::vector<int> dist = graph_.Distances(target);
  for (int& d : dist) {
    if (d < 0) d = static_cast<int>(n);  // Other components sort last.
  }
  // Weisfeiler-Leman refinement of (distance, attributes): iterate until
  // the partition stops splitting (refinement is monotone, so an unchanged
  // class count means a stable partition), capped at n rounds. The round
  // buffers are reused across rounds.
  std::size_t num_classes = initial_classes_;
  std::vector<std::uint64_t> colors = initial_ranks_;
  std::vector<std::uint64_t> next(n), ranks, sorted, around;
  for (std::size_t round = 0; round < n; ++round) {
    for (std::size_t v = 0; v < n; ++v) {
      Fingerprint fp;
      fp.Add(static_cast<std::uint64_t>(static_cast<std::int64_t>(dist[v])));
      fp.Add(colors[v]);
      around.clear();
      for (int w : graph_.neighbors(static_cast<int>(v))) {
        around.push_back(colors[static_cast<std::size_t>(w)]);
      }
      std::sort(around.begin(), around.end());
      fp.Add(around.size());
      for (std::uint64_t c : around) fp.Add(c);
      next[v] = fp.hash();
    }
    const std::size_t refined = DenseRanksInto(next, &sorted, &ranks);
    if (refined == num_classes) break;
    num_classes = refined;
    colors.swap(ranks);
  }
  std::vector<int> order(n);
  for (std::size_t v = 0; v < n; ++v) order[v] = static_cast<int>(v);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const std::size_t ua = static_cast<std::size_t>(a);
    const std::size_t ub = static_cast<std::size_t>(b);
    if (dist[ua] != dist[ub]) return dist[ua] < dist[ub];
    if (colors[ua] != colors[ub]) return colors[ua] < colors[ub];
    return a < b;  // Ties here are (believed) automorphic; any order works.
  });
  return order;
}

NodeCanonicalForm NodeCanonicalizer::Canonicalize(int target) const {
  NodeCanonicalForm form;
  form.order = Order(target);
  const std::size_t n = form.order.size();
  const std::vector<int> inv = Inverse(form.order);
  form.arities.resize(n);
  form.adjacency.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t old_v = static_cast<std::size_t>(form.order[v]);
    form.arities[v] = arities_[old_v];
    for (int w : graph_.neighbors(static_cast<int>(old_v))) {
      form.adjacency[v].push_back(inv[static_cast<std::size_t>(w)]);
    }
    std::sort(form.adjacency[v].begin(), form.adjacency[v].end());
  }
  KeyHasher key;
  key.Add(n);
  for (int a : form.arities) key.Add(a);
  for (const std::vector<int>& adj : form.adjacency) {
    key.Add(adj.size());
    for (int w : adj) key.Add(w);
  }
  key.Add(theta_factors_.size());
  RelabeledFactors& relabeled = ThreadRelabeled();
  for (const std::vector<Factor>& factors : theta_factors_) {
    relabeled.Build(factors, inv);
    key.Add(factors.size());
    for (std::size_t k = 0; k < relabeled.source.size(); ++k) {
      const Vector& values = factors[relabeled.source[k]].values;
      key.Add(relabeled.begin[k + 1] - relabeled.begin[k]);
      for (std::size_t d = relabeled.begin[k]; d < relabeled.begin[k + 1]; ++d) {
        key.Add(relabeled.scope[d]);
        key.Add(relabeled.arity[d]);
      }
      for (std::size_t c = relabeled.cell_begin[k];
           c < relabeled.cell_begin[k + 1]; ++c) {
        key.Add(values[relabeled.cell[c]]);
      }
    }
  }
  form.key = key.hash();
  return form;
}

void NodeCanonicalizer::Materialize(NodeCanonicalForm* form) const {
  if (!form->factors.empty()) return;
  const std::vector<int> inv = Inverse(form->order);
  RelabeledFactors& relabeled = ThreadRelabeled();
  form->factors.reserve(theta_factors_.size());
  for (const std::vector<Factor>& factors : theta_factors_) {
    relabeled.Build(factors, inv);
    std::vector<Factor> out(factors.size());
    for (std::size_t k = 0; k < out.size(); ++k) {
      const Vector& values = factors[relabeled.source[k]].values;
      out[k].scope.assign(relabeled.scope.begin() + relabeled.begin[k],
                          relabeled.scope.begin() + relabeled.begin[k + 1]);
      out[k].arity.assign(relabeled.arity.begin() + relabeled.begin[k],
                          relabeled.arity.begin() + relabeled.begin[k + 1]);
      const std::size_t first = relabeled.cell_begin[k];
      const std::size_t last = relabeled.cell_begin[k + 1];
      out[k].values.resize(last - first);
      for (std::size_t c = first; c < last; ++c) {
        out[k].values[c - first] = values[relabeled.cell[c]];
      }
    }
    form->factors.push_back(std::move(out));
  }
}

bool NodeCanonicalizer::SameProblem(const NodeCanonicalForm& form,
                                    const NodeCanonicalForm& full) const {
  if (!form.factors.empty()) return form.SameProblem(full);
  if (form.arities != full.arities || form.adjacency != full.adjacency ||
      full.factors.size() != theta_factors_.size()) {
    return false;
  }
  const std::vector<int> inv = Inverse(form.order);
  RelabeledFactors& relabeled = ThreadRelabeled();
  for (std::size_t t = 0; t < theta_factors_.size(); ++t) {
    const std::vector<Factor>& factors = theta_factors_[t];
    const std::vector<Factor>& other = full.factors[t];
    if (other.size() != factors.size()) return false;
    relabeled.Build(factors, inv);
    for (std::size_t k = 0; k < other.size(); ++k) {
      const Vector& values = factors[relabeled.source[k]].values;
      const auto s0 = relabeled.scope.begin() + relabeled.begin[k];
      const auto s1 = relabeled.scope.begin() + relabeled.begin[k + 1];
      const auto a0 = relabeled.arity.begin() + relabeled.begin[k];
      const auto a1 = relabeled.arity.begin() + relabeled.begin[k + 1];
      if (!std::equal(s0, s1, other[k].scope.begin(), other[k].scope.end()) ||
          !std::equal(a0, a1, other[k].arity.begin(), other[k].arity.end()) ||
          relabeled.cell_begin[k + 1] - relabeled.cell_begin[k] !=
              other[k].values.size()) {
        return false;
      }
      // Bitwise, as in NodeCanonicalForm::SameProblem.
      for (std::size_t c = 0; c < other[k].values.size(); ++c) {
        const double v = values[relabeled.cell[relabeled.cell_begin[k] + c]];
        if (DoubleBits(v) != DoubleBits(other[k].values[c])) return false;
      }
    }
  }
  return true;
}

std::vector<int> CanonicalNodeOrder(const std::vector<BayesianNetwork>& thetas,
                                    const MoralGraph& graph, int target) {
  return NodeCanonicalizer(thetas, graph).Order(target);
}

NodeCanonicalForm CanonicalizeNode(const std::vector<BayesianNetwork>& thetas,
                                   const MoralGraph& graph, int target) {
  const NodeCanonicalizer canonicalizer(thetas, graph);
  NodeCanonicalForm form = canonicalizer.Canonicalize(target);
  canonicalizer.Materialize(&form);
  return form;
}

bool NodeCanonicalForm::SameProblem(const NodeCanonicalForm& other) const {
  if (arities != other.arities || adjacency != other.adjacency) return false;
  if (factors.size() != other.factors.size()) return false;
  for (std::size_t t = 0; t < factors.size(); ++t) {
    if (factors[t].size() != other.factors[t].size()) return false;
    for (std::size_t i = 0; i < factors[t].size(); ++i) {
      const Factor& a = factors[t][i];
      const Factor& b = other.factors[t][i];
      if (a.scope != b.scope || a.arity != b.arity) return false;
      if (a.values.size() != b.values.size()) return false;
      // Bitwise value equality: the dedup contract is byte-identical
      // problems, so -0.0 vs 0.0 (different bits, equal under ==) must
      // NOT merge.
      for (std::size_t c = 0; c < a.values.size(); ++c) {
        if (DoubleBits(a.values[c]) != DoubleBits(b.values[c])) return false;
      }
    }
  }
  return true;
}

MoralGraph UnionMoralGraph(const std::vector<BayesianNetwork>& thetas) {
  const std::size_t n = thetas.front().num_nodes();
  std::vector<std::set<int>> adj(n);
  for (const BayesianNetwork& bn : thetas) {
    const MoralGraph g(bn);
    for (std::size_t v = 0; v < n; ++v) {
      for (int w : g.neighbors(static_cast<int>(v))) adj[v].insert(w);
    }
  }
  std::vector<std::vector<int>> lists(n);
  for (std::size_t v = 0; v < n; ++v) {
    lists[v].assign(adj[v].begin(), adj[v].end());
  }
  return MoralGraph(lists);
}

}  // namespace pf
