#include "graphical/elimination.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <string>

#include "common/arena.h"
#include "common/deadline.h"

namespace pf {

const char* InferenceBackendName(InferenceBackend backend) {
  switch (backend) {
    case InferenceBackend::kAuto: return "auto";
    case InferenceBackend::kVariableElimination: return "elimination";
    case InferenceBackend::kEnumeration: return "enumeration";
  }
  return "unknown";
}

void EliminationStats::MergeMax(const EliminationStats& other) {
  induced_width = std::max(induced_width, other.induced_width);
  peak_factor_bytes = std::max(peak_factor_bytes, other.peak_factor_bytes);
}

namespace {

// Min-fill scratch: sorted, duplicate-free neighbor lists plus the
// per-vertex state. Owned by the caller, so the public MinFillOrder and an
// elimination plan build never share (or clobber) one another's state.
struct MinFillScratch {
  std::vector<std::vector<int>> adj;
  std::vector<char> eliminable;
  std::vector<char> removed;
  std::vector<std::size_t> fill;   // Current fill-in count per vertex.
  std::vector<std::size_t> stamp;  // Step that last refreshed `fill`.
  // Min-heap of (fill, vertex) candidates; entries whose fill is stale or
  // whose vertex is removed are skipped when they surface.
  std::vector<std::pair<std::size_t, int>> heap;
  std::vector<int> order;
};

void AddSortedEdge(std::vector<int>& v, int x) {
  const auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it == v.end() || *it != x) v.insert(it, x);
}

// Fill-in edges eliminating `v` would add: non-adjacent neighbor pairs.
std::size_t FillIn(const MinFillScratch& s, std::size_t v) {
  const std::vector<int>& nv = s.adj[v];
  std::size_t fill = 0;
  for (std::size_t a = 0; a < nv.size(); ++a) {
    const std::vector<int>& na = s.adj[static_cast<std::size_t>(nv[a])];
    for (std::size_t b = a + 1; b < nv.size(); ++b) {
      if (!std::binary_search(na.begin(), na.end(), nv[b])) ++fill;
    }
  }
  return fill;
}

// Min-fill over s.adj[0, n) (consumed), writing the order into s.order.
// Each step removes the eliminable vertex whose neighborhood needs the
// fewest fill-in edges (ties to the smallest id) and marries its remaining
// neighbors. Only the removed vertex's neighbors and their neighbors can
// see their fill-in change, so only those are recounted (and re-queued).
// Returns the max remaining-neighbor count at removal time.
std::size_t RunMinFill(MinFillScratch& s, std::size_t n) {
  using Entry = std::pair<std::size_t, int>;
  const auto push = [&s](std::size_t v) {
    s.heap.emplace_back(s.fill[v], static_cast<int>(v));
    std::push_heap(s.heap.begin(), s.heap.end(), std::greater<Entry>());
  };
  s.removed.assign(n, 0);
  s.fill.assign(n, 0);
  s.stamp.assign(n, 0);
  s.heap.clear();
  s.order.clear();
  for (std::size_t v = 0; v < n; ++v) {
    if (!s.eliminable[v]) continue;
    s.fill[v] = FillIn(s, v);
    push(v);
  }
  std::size_t width = 0;
  for (std::size_t step = 1; !s.heap.empty(); ++step) {
    std::pop_heap(s.heap.begin(), s.heap.end(), std::greater<Entry>());
    const Entry top = s.heap.back();
    s.heap.pop_back();
    const int best = top.second;
    const std::size_t bv = static_cast<std::size_t>(best);
    if (s.removed[bv] || s.fill[bv] != top.first) continue;  // Stale entry.
    std::vector<int>& nb = s.adj[bv];
    width = std::max(width, nb.size());
    for (std::size_t a = 0; a < nb.size(); ++a) {
      for (std::size_t b = a + 1; b < nb.size(); ++b) {
        AddSortedEdge(s.adj[static_cast<std::size_t>(nb[a])], nb[b]);
        AddSortedEdge(s.adj[static_cast<std::size_t>(nb[b])], nb[a]);
      }
    }
    for (int a : nb) {
      std::vector<int>& va = s.adj[static_cast<std::size_t>(a)];
      const auto it = std::lower_bound(va.begin(), va.end(), best);
      if (it != va.end() && *it == best) va.erase(it);
    }
    s.removed[bv] = 1;
    s.order.push_back(best);
    const auto refresh = [&s, &push, step](std::size_t v) {
      if (!s.eliminable[v] || s.removed[v] || s.stamp[v] == step) return;
      s.stamp[v] = step;
      const std::size_t fill = FillIn(s, v);
      if (fill == s.fill[v]) return;
      s.fill[v] = fill;
      push(v);
    };
    for (int a : nb) {
      refresh(static_cast<std::size_t>(a));
      for (int w : s.adj[static_cast<std::size_t>(a)]) {
        refresh(static_cast<std::size_t>(w));
      }
    }
    nb.clear();
  }
  return width;
}

}  // namespace

std::vector<int> MinFillOrder(const std::vector<std::vector<int>>& adjacency,
                              const std::vector<bool>& eliminable,
                              std::size_t* induced_width) {
  const std::size_t n = adjacency.size();
  MinFillScratch s;
  s.adj.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    for (int w : adjacency[v]) {
      if (w == static_cast<int>(v)) continue;
      AddSortedEdge(s.adj[v], w);  // Undirected: each listing is an edge.
      AddSortedEdge(s.adj[static_cast<std::size_t>(w)], static_cast<int>(v));
    }
  }
  s.eliminable.assign(eliminable.begin(), eliminable.end());
  const std::size_t width = RunMinFill(s, n);
  if (induced_width != nullptr) *induced_width = width;
  return std::move(s.order);
}

std::size_t MinFillWidth(const std::vector<std::vector<int>>& adjacency) {
  std::size_t width = 0;
  MinFillOrder(adjacency, std::vector<bool>(adjacency.size(), true), &width);
  return width;
}

namespace {

Status ValidateQuery(const std::vector<int>& arities,
                     const std::vector<int>& targets,
                     const std::vector<std::pair<int, int>>& evidence) {
  const int n = static_cast<int>(arities.size());
  for (int t : targets) {
    if (t < 0 || t >= n) return Status::InvalidArgument("target index out of range");
  }
  for (const auto& [var, val] : evidence) {
    if (var < 0 || var >= n || val < 0 ||
        val >= arities[static_cast<std::size_t>(var)]) {
      return Status::InvalidArgument("evidence out of range");
    }
  }
  return Status::OK();
}

Result<std::size_t> CheckedCells(const int* arities, std::size_t count,
                                 std::size_t limit, const char* what) {
  std::size_t cells = 1;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t a = static_cast<std::size_t>(arities[i]);
    if (cells > limit / a) {
      return Status::InvalidArgument(
          std::string(what) + " exceeds the inference limit (" +
          std::to_string(limit) + ")");
    }
    cells *= a;
  }
  return cells;
}

// Reference backend: walks the full joint-assignment space with
// incrementally maintained per-factor indices. Exponential in the variable
// count; `limit` guards the assignment-space size.
Result<Vector> EnumerationConditionalJoint(
    const std::vector<Factor>& factors, const std::vector<int>& arities,
    const std::vector<int>& targets,
    const std::vector<std::pair<int, int>>& evidence, std::size_t limit) {
  PF_ASSIGN_OR_RETURN(const std::size_t cells,
                      CheckedCells(arities.data(), arities.size(), limit,
                                   "joint-assignment space"));
  const std::size_t n = arities.size();
  // Per-factor stride of each variable digit (0 when absent from scope).
  std::vector<std::vector<std::size_t>> stride(
      factors.size(), std::vector<std::size_t>(n, 0));
  for (std::size_t fi = 0; fi < factors.size(); ++fi) {
    const Factor& f = factors[fi];
    for (std::size_t p = 0; p < f.scope.size(); ++p) {
      std::size_t s = 1;
      for (std::size_t i = p + 1; i < f.scope.size(); ++i) {
        s *= static_cast<std::size_t>(f.arity[i]);
      }
      stride[fi][static_cast<std::size_t>(f.scope[p])] = s;
    }
  }
  std::size_t target_cells = 1;
  for (int t : targets) {
    target_cells *= static_cast<std::size_t>(arities[static_cast<std::size_t>(t)]);
  }
  Vector mass(target_cells, 0.0);
  double evidence_mass = 0.0;
  std::vector<int> digits(n, 0);
  std::vector<std::size_t> idx(factors.size(), 0);
  for (std::size_t cell = 0; cell < cells; ++cell) {
    bool matches = true;
    for (const auto& [var, val] : evidence) {
      if (digits[static_cast<std::size_t>(var)] != val) {
        matches = false;
        break;
      }
    }
    if (matches) {
      double p = 1.0;
      for (std::size_t fi = 0; fi < factors.size(); ++fi) {
        p *= factors[fi].values[idx[fi]];
      }
      if (p > 0.0) {
        evidence_mass += p;
        std::size_t ti = 0;
        for (int t : targets) {
          ti = ti * static_cast<std::size_t>(arities[static_cast<std::size_t>(t)]) +
               static_cast<std::size_t>(digits[static_cast<std::size_t>(t)]);
        }
        mass[ti] += p;
      }
    }
    for (std::size_t d = n; d-- > 0;) {
      ++digits[d];
      for (std::size_t fi = 0; fi < factors.size(); ++fi) idx[fi] += stride[fi][d];
      if (digits[d] < arities[d]) break;
      digits[d] = 0;
      for (std::size_t fi = 0; fi < factors.size(); ++fi) {
        idx[fi] -= stride[fi][d] * static_cast<std::size_t>(arities[d]);
      }
    }
  }
  if (!(evidence_mass > 0.0)) {
    return Status::FailedPrecondition("evidence has probability zero");
  }
  for (double& v : mass) v /= evidence_mass;
  return mass;
}

// ----------------------------------------------------------------------
// Variable elimination runs in two parts over a per-thread workspace.
//
// The PLAN holds everything that depends only on the query's structure —
// factor scopes and arities, variable arities, targets, evidence variables
// and `limit`: the evidence-reduction layout, the free targets, the
// min-fill order, each step's input slots, clique scope, table shape and
// per-input strides, the final product's layout and the output layout, the
// limit-guard outcome and the EliminationStats. The REPLAY slices the
// evidence values out of the caller's tables and runs the kernels in the
// plan's factor order. A query whose structure equals the stored plan's
// (== on every field, never a hash) replays it; any other query rebuilds
// it first. Plan arrays are flat vectors that keep their capacity and
// tables live in a bump arena (reset per query, blocks retained), so a
// warm thread answers queries — repeated or alternating between
// structures — with zero heap allocations. The plan must depend on
// nothing but the structure: then a replayed query computes exactly what a
// freshly planned one would, cell for cell.
// ----------------------------------------------------------------------

constexpr std::size_t kNoCell = std::numeric_limits<std::size_t>::max();

// Evidence reduction of one input slot: keep the slice selected by the
// evidence value from an axis of `arity` slices of `block` cells, `outer`
// times.
struct ReductionOp {
  std::size_t slot;
  std::size_t evidence;  // The evidence pair supplying the value.
  std::size_t block, arity, outer;
};

// One elimination step: multiply the input slots over the clique scope
// (the other variables, then the eliminated one last) and sum the
// eliminated variable out into `out_slot`.
struct PlanStep {
  std::size_t inputs_begin = 0, inputs_end = 0;  // Into step_inputs.
  std::size_t scope_begin = 0;  // Into step_scope / step_arity.
  // Into step_strides: per input, the stride of each clique digit in its
  // table (0 where the input lacks the variable).
  std::size_t strides_begin = 0;
  std::size_t dims = 0;         // Clique dims, eliminated variable included.
  std::size_t cells = 0;        // Clique table cells.
  std::size_t var_arity = 0;
  std::size_t out_slot = 0;
};

// A target coordinate pinned by evidence: output cells whose digit there
// differs from the evidence value are zero.
struct PinnedTarget {
  std::size_t stride, arity, evidence;
};

struct EliminationPlan {
  // The structure the plan was built for.
  bool valid = false;
  std::vector<std::size_t> key_dims;  // Per factor: scope size.
  std::vector<int> key_scope, key_arity;  // Flat factor scopes / arities.
  std::vector<int> key_arities, key_targets, key_evidence;
  std::size_t key_limit = 0;

  // Slots: the reduced input factors [0, #factors), then one per step.
  std::vector<std::size_t> slot_begin;  // #slots + 1 offsets into slot_scope.
  std::vector<int> slot_scope, slot_arity;
  std::vector<std::size_t> slot_cells;
  // Per evidence pair: the first pair naming the same variable (a
  // different value there makes the evidence contradictory).
  std::vector<std::size_t> evidence_first;
  std::vector<ReductionOp> reductions;
  bool has_order = false;  // Whether any variable is to be eliminated.
  std::vector<PlanStep> steps;
  std::vector<std::size_t> step_inputs;
  std::vector<int> step_scope, step_arity;
  std::vector<std::size_t> step_strides;
  std::vector<std::size_t> final_slots, final_strides;
  std::vector<int> free_targets, free_arity;
  std::size_t joint_cells = 0;
  // Per output cell: its free-target joint cell, or kNoCell where
  // duplicate targets disagree.
  std::vector<std::size_t> out_map;
  std::vector<PinnedTarget> pinned_targets;
  // The run's stats — up to the failing step when `guard` is not OK.
  EliminationStats stats;
  Status guard;
};

struct EliminationWorkspace {
  Arena arena{1u << 16};
  EliminationPlan plan;
  // Plan-build scratch.
  MinFillScratch minfill;
  std::vector<std::vector<std::size_t>> holders;  // Per variable: its slots.
  std::vector<char> live;  // Per slot: not yet absorbed by a step.
  std::vector<int> pin;  // Per variable: first evidence pair naming it.
  std::vector<char> is_free;
  std::vector<int> digits, assigned;
  // Replay scratch.
  std::vector<const double*> slot_values;
  std::vector<const double*> inputs;
  std::vector<std::size_t> input_index, clique_digits;
};

EliminationWorkspace& TlsWorkspace() {
  static thread_local EliminationWorkspace ws;
  return ws;
}

bool PlanMatches(const EliminationPlan& plan,
                 const std::vector<Factor>& factors,
                 const std::vector<int>& arities,
                 const std::vector<int>& targets,
                 const std::vector<std::pair<int, int>>& evidence,
                 std::size_t limit) {
  if (!plan.valid || plan.key_limit != limit ||
      plan.key_dims.size() != factors.size() ||
      plan.key_evidence.size() != evidence.size() ||
      plan.key_arities != arities || plan.key_targets != targets) {
    return false;
  }
  for (std::size_t e = 0; e < evidence.size(); ++e) {
    if (plan.key_evidence[e] != evidence[e].first) return false;
  }
  std::ptrdiff_t offset = 0;
  for (std::size_t f = 0; f < factors.size(); ++f) {
    const Factor& factor = factors[f];
    if (plan.key_dims[f] != factor.scope.size() ||
        !std::equal(factor.scope.begin(), factor.scope.end(),
                    plan.key_scope.begin() + offset) ||
        !std::equal(factor.arity.begin(), factor.arity.end(),
                    plan.key_arity.begin() + offset)) {
      return false;
    }
    offset += static_cast<std::ptrdiff_t>(factor.scope.size());
  }
  return true;
}

// Appends `slot`'s stride for each of the `dims` clique variables (0 where
// the slot lacks one) to `strides_out`.
void AppendStrides(const EliminationPlan& plan, std::size_t slot,
                   const int* clique, std::size_t dims,
                   std::vector<std::size_t>* strides_out) {
  const std::size_t first = plan.slot_begin[slot];
  const std::size_t last = plan.slot_begin[slot + 1];
  for (std::size_t d = 0; d < dims; ++d) {
    std::size_t stride = 0;
    for (std::size_t p = first; p < last; ++p) {
      if (plan.slot_scope[p] != clique[d]) continue;
      stride = 1;
      for (std::size_t q = p + 1; q < last; ++q) {
        stride *= static_cast<std::size_t>(plan.slot_arity[q]);
      }
      break;
    }
    strides_out->push_back(stride);
  }
}

// Builds ws.plan for the query's structure. Evidence VALUES are never read
// here: everything recorded is a function of the structure alone.
void BuildPlan(EliminationWorkspace& ws, const std::vector<Factor>& factors,
               const std::vector<int>& arities,
               const std::vector<int>& targets,
               const std::vector<std::pair<int, int>>& evidence,
               std::size_t limit) {
  EliminationPlan& plan = ws.plan;
  const std::size_t n = arities.size();
  plan.key_dims.clear();
  plan.key_scope.clear();
  plan.key_arity.clear();
  for (const Factor& f : factors) {
    plan.key_dims.push_back(f.scope.size());
    plan.key_scope.insert(plan.key_scope.end(), f.scope.begin(), f.scope.end());
    plan.key_arity.insert(plan.key_arity.end(), f.arity.begin(), f.arity.end());
  }
  plan.key_arities = arities;
  plan.key_targets = targets;
  plan.key_evidence.clear();
  for (const auto& pair : evidence) plan.key_evidence.push_back(pair.first);
  plan.key_limit = limit;
  plan.valid = true;
  plan.stats = EliminationStats();
  plan.guard = Status::OK();

  // The first pair naming a variable pins it (later pairs must agree).
  ws.pin.assign(n, -1);
  plan.evidence_first.clear();
  for (std::size_t e = 0; e < evidence.size(); ++e) {
    int& pin = ws.pin[static_cast<std::size_t>(evidence[e].first)];
    if (pin < 0) pin = static_cast<int>(e);
    plan.evidence_first.push_back(static_cast<std::size_t>(pin));
  }
  // Reduce the evidence out of every input factor up front.
  plan.slot_begin.assign(1, 0);
  plan.slot_scope.clear();
  plan.slot_arity.clear();
  plan.slot_cells.clear();
  plan.reductions.clear();
  for (std::size_t f = 0; f < factors.size(); ++f) {
    const std::size_t begin = plan.slot_scope.size();
    plan.slot_scope.insert(plan.slot_scope.end(), factors[f].scope.begin(),
                           factors[f].scope.end());
    plan.slot_arity.insert(plan.slot_arity.end(), factors[f].arity.begin(),
                           factors[f].arity.end());
    std::size_t cells = 1;
    for (int a : factors[f].arity) cells *= static_cast<std::size_t>(a);
    for (std::size_t e = 0; e < evidence.size(); ++e) {
      const auto first =
          plan.slot_scope.begin() + static_cast<std::ptrdiff_t>(begin);
      const auto it = std::find(first, plan.slot_scope.end(), evidence[e].first);
      if (it == plan.slot_scope.end()) continue;
      const std::size_t pos = static_cast<std::size_t>(it - plan.slot_scope.begin());
      std::size_t block = 1;
      for (std::size_t i = pos + 1; i < plan.slot_arity.size(); ++i) {
        block *= static_cast<std::size_t>(plan.slot_arity[i]);
      }
      const std::size_t va = static_cast<std::size_t>(plan.slot_arity[pos]);
      const std::size_t outer = cells / (block * va);
      plan.reductions.push_back({f, e, block, va, outer});
      cells = outer * block;
      plan.slot_scope.erase(it);
      plan.slot_arity.erase(plan.slot_arity.begin() +
                            static_cast<std::ptrdiff_t>(pos));
    }
    plan.slot_cells.push_back(cells);
    plan.slot_begin.push_back(plan.slot_scope.size());
  }
  // Free targets: distinct target variables that the evidence did not pin,
  // in first-occurrence order (the output expansion restores duplicates
  // and pinned coordinates).
  plan.free_targets.clear();
  plan.free_arity.clear();
  ws.is_free.assign(n, 0);
  for (int t : targets) {
    const std::size_t tv = static_cast<std::size_t>(t);
    if (ws.pin[tv] >= 0 || ws.is_free[tv]) continue;
    ws.is_free[tv] = 1;
    plan.free_targets.push_back(t);
    plan.free_arity.push_back(arities[tv]);
  }
  // Min-fill order over the interaction graph of the reduced scopes.
  MinFillScratch& mf = ws.minfill;
  if (mf.adj.size() < n) mf.adj.resize(n);
  for (std::size_t v = 0; v < n; ++v) mf.adj[v].clear();
  for (std::size_t f = 0; f < factors.size(); ++f) {
    for (std::size_t a = plan.slot_begin[f]; a < plan.slot_begin[f + 1]; ++a) {
      for (std::size_t b = a + 1; b < plan.slot_begin[f + 1]; ++b) {
        const int va = plan.slot_scope[a];
        const int vb = plan.slot_scope[b];
        AddSortedEdge(mf.adj[static_cast<std::size_t>(va)], vb);
        AddSortedEdge(mf.adj[static_cast<std::size_t>(vb)], va);
      }
    }
  }
  mf.eliminable.assign(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    mf.eliminable[v] = ws.pin[v] < 0 && !ws.is_free[v];
  }
  RunMinFill(mf, n);
  plan.has_order = !mf.order.empty();
  // The steps: each eliminated variable merges the working factors that
  // contain it into one new slot. The working set is every live slot in
  // ascending id order — the input factors in order, then each merged slot
  // appended after the factors it absorbed. holders[v] lists the slots
  // whose scope holds v, ascending (absorbed ones are skipped).
  plan.steps.clear();
  plan.step_inputs.clear();
  plan.step_scope.clear();
  plan.step_arity.clear();
  plan.step_strides.clear();
  if (ws.holders.size() < n) ws.holders.resize(n);
  for (std::size_t v = 0; v < n; ++v) ws.holders[v].clear();
  ws.live.assign(factors.size(), 1);
  std::size_t live_bytes = 0;
  for (std::size_t f = 0; f < factors.size(); ++f) {
    for (std::size_t p = plan.slot_begin[f]; p < plan.slot_begin[f + 1]; ++p) {
      ws.holders[static_cast<std::size_t>(plan.slot_scope[p])].push_back(f);
    }
    live_bytes += plan.slot_cells[f] * sizeof(double);
  }
  plan.stats.peak_factor_bytes = live_bytes;
  for (const int var : mf.order) {
    PlanStep step;
    step.inputs_begin = plan.step_inputs.size();
    step.scope_begin = plan.step_scope.size();
    int var_arity = 0;
    for (const std::size_t s : ws.holders[static_cast<std::size_t>(var)]) {
      if (!ws.live[s]) continue;
      plan.step_inputs.push_back(s);
      for (std::size_t p = plan.slot_begin[s]; p < plan.slot_begin[s + 1]; ++p) {
        const int v = plan.slot_scope[p];
        if (v == var) {
          var_arity = plan.slot_arity[p];
          continue;
        }
        const auto first = plan.step_scope.begin() +
                           static_cast<std::ptrdiff_t>(step.scope_begin);
        if (std::find(first, plan.step_scope.end(), v) == plan.step_scope.end()) {
          plan.step_scope.push_back(v);
          plan.step_arity.push_back(plan.slot_arity[p]);
        }
      }
    }
    step.inputs_end = plan.step_inputs.size();
    if (step.inputs_begin == step.inputs_end) continue;  // Reduced away.
    const std::size_t combined = plan.step_scope.size() - step.scope_begin;
    plan.step_scope.push_back(var);
    plan.step_arity.push_back(var_arity);
    const Result<std::size_t> cells = CheckedCells(
        plan.step_arity.data() + step.scope_begin, combined + 1, limit,
        "elimination clique table (induced width too large)");
    if (!cells.ok()) {
      plan.guard = cells.status();
      return;
    }
    step.dims = combined + 1;
    step.cells = cells.value();
    step.var_arity = static_cast<std::size_t>(var_arity);
    step.out_slot = plan.slot_cells.size();
    plan.stats.induced_width = std::max(plan.stats.induced_width, combined);
    plan.stats.peak_factor_bytes =
        std::max(plan.stats.peak_factor_bytes,
                 live_bytes + step.cells * sizeof(double));
    step.strides_begin = plan.step_strides.size();
    for (std::size_t i = step.inputs_begin; i < step.inputs_end; ++i) {
      AppendStrides(plan, plan.step_inputs[i],
                    plan.step_scope.data() + step.scope_begin, step.dims,
                    &plan.step_strides);
    }
    const auto scope_first =
        plan.step_scope.begin() + static_cast<std::ptrdiff_t>(step.scope_begin);
    const auto arity_first =
        plan.step_arity.begin() + static_cast<std::ptrdiff_t>(step.scope_begin);
    plan.slot_scope.insert(plan.slot_scope.end(), scope_first,
                           scope_first + static_cast<std::ptrdiff_t>(combined));
    plan.slot_arity.insert(plan.slot_arity.end(), arity_first,
                           arity_first + static_cast<std::ptrdiff_t>(combined));
    plan.slot_cells.push_back(step.cells / step.var_arity);
    plan.slot_begin.push_back(plan.slot_scope.size());
    plan.steps.push_back(step);
    for (std::size_t i = step.inputs_begin; i < step.inputs_end; ++i) {
      const std::size_t s = plan.step_inputs[i];
      ws.live[s] = 0;
      live_bytes -= plan.slot_cells[s] * sizeof(double);
    }
    ws.live.push_back(1);
    for (std::size_t d = 0; d < combined; ++d) {
      ws.holders[static_cast<std::size_t>(plan.step_scope[step.scope_begin + d])]
          .push_back(step.out_slot);
    }
    live_bytes += plan.slot_cells[step.out_slot] * sizeof(double);
    plan.stats.peak_factor_bytes =
        std::max(plan.stats.peak_factor_bytes, live_bytes);
  }
  // Every remaining scope variable is a free target; their product is the
  // unnormalized conditional joint.
  plan.final_slots.clear();
  for (std::size_t s = 0; s < ws.live.size(); ++s) {
    if (!ws.live[s]) continue;
    for (std::size_t p = plan.slot_begin[s]; p < plan.slot_begin[s + 1]; ++p) {
      if (!ws.is_free[static_cast<std::size_t>(plan.slot_scope[p])]) {
        plan.guard =
            Status::Internal("variable survived elimination unexpectedly");
        return;
      }
    }
    plan.final_slots.push_back(s);
  }
  plan.final_strides.clear();
  for (const std::size_t s : plan.final_slots) {
    AppendStrides(plan, s, plan.free_targets.data(), plan.free_targets.size(),
                  &plan.final_strides);
  }
  const Result<std::size_t> joint_cells =
      CheckedCells(plan.free_arity.data(), plan.free_arity.size(), limit,
                   "target joint table");
  if (!joint_cells.ok()) {
    plan.guard = joint_cells.status();
    return;
  }
  plan.joint_cells = joint_cells.value();
  // Output layout over the caller's full target tuple: duplicates must
  // agree, everything else reads from the free-target joint; pinned
  // coordinates are checked against the evidence value at replay.
  std::size_t out_cells = 1;
  for (int t : targets) {
    out_cells *= static_cast<std::size_t>(arities[static_cast<std::size_t>(t)]);
  }
  plan.out_map.resize(out_cells);
  ws.digits.assign(targets.size(), 0);
  ws.assigned.assign(n, -1);
  for (std::size_t cell = 0; cell < out_cells; ++cell) {
    bool consistent = true;
    for (std::size_t d = 0; d < targets.size() && consistent; ++d) {
      const std::size_t tv = static_cast<std::size_t>(targets[d]);
      if (ws.assigned[tv] >= 0 && ws.assigned[tv] != ws.digits[d]) {
        consistent = false;
      }
      ws.assigned[tv] = ws.digits[d];
    }
    std::size_t ji = 0;
    for (std::size_t p = 0; p < plan.free_targets.size() && consistent; ++p) {
      ji = ji * static_cast<std::size_t>(plan.free_arity[p]) +
           static_cast<std::size_t>(
               ws.assigned[static_cast<std::size_t>(plan.free_targets[p])]);
    }
    plan.out_map[cell] = consistent ? ji : kNoCell;
    for (std::size_t d = 0; d < targets.size(); ++d) {
      ws.assigned[static_cast<std::size_t>(targets[d])] = -1;
    }
    for (std::size_t d = targets.size(); d-- > 0;) {
      if (++ws.digits[d] < arities[static_cast<std::size_t>(targets[d])]) break;
      ws.digits[d] = 0;
    }
  }
  plan.pinned_targets.clear();
  std::size_t stride = 1;
  for (std::size_t d = targets.size(); d-- > 0;) {
    const std::size_t tv = static_cast<std::size_t>(targets[d]);
    const std::size_t arity = static_cast<std::size_t>(arities[tv]);
    if (ws.pin[tv] >= 0) {
      plan.pinned_targets.push_back(
          {stride, arity, static_cast<std::size_t>(ws.pin[tv])});
    }
    stride *= arity;
  }
}

// The product of `num_inputs` tables over a clique of `dims` digits,
// walked in row-major order; stride[v * dims + d] is input v's stride for
// digit d (0 where it lacks that variable). Each clique cell is 1.0 times
// the inputs' cells in input order. With kSumLast the last digit is summed
// out, each output cell adding its clique cells in ascending order from
// 0.0. These are the operations, and so the bits, of MultiplyAll followed
// by MarginalizeLast, in one pass and without the clique table (for two
// pairwise inputs, also those of the matrix product MultiplyBlocked).
template <bool kSumLast>
void ProductKernel(EliminationWorkspace& ws, const std::size_t* slots,
                   std::size_t num_inputs, const std::size_t* stride,
                   const int* arity, std::size_t dims, std::size_t out_cells,
                   double* out) {
  const std::size_t outer = kSumLast ? dims - 1 : dims;
  const std::size_t inner =
      kSumLast ? static_cast<std::size_t>(arity[outer]) : 1;
  ws.inputs.clear();
  for (std::size_t v = 0; v < num_inputs; ++v) {
    ws.inputs.push_back(ws.slot_values[slots[v]]);
  }
  ws.input_index.assign(num_inputs, 0);
  ws.clique_digits.assign(outer, 0);
  const double* const* in = ws.inputs.data();
  std::size_t* idx = ws.input_index.data();
  std::size_t* digits = ws.clique_digits.data();
  for (std::size_t cell = 0; cell < out_cells; ++cell) {
    double sum = 0.0;
    for (std::size_t j = 0; j < inner; ++j) {
      double p = 1.0;
      for (std::size_t v = 0; v < num_inputs; ++v) {
        p *= in[v][kSumLast ? idx[v] + j * stride[v * dims + outer] : idx[v]];
      }
      if constexpr (kSumLast) {
        sum += p;
      } else {
        sum = p;
      }
    }
    out[cell] = sum;
    for (std::size_t d = outer; d-- > 0;) {
      for (std::size_t v = 0; v < num_inputs; ++v) idx[v] += stride[v * dims + d];
      if (++digits[d] < static_cast<std::size_t>(arity[d])) break;
      digits[d] = 0;
      for (std::size_t v = 0; v < num_inputs; ++v) {
        idx[v] -= stride[v * dims + d] * static_cast<std::size_t>(arity[d]);
      }
    }
  }
}

// Runs ws.plan on the query's values.
Status ReplayPlan(EliminationWorkspace& ws, const std::vector<Factor>& factors,
                  const std::vector<std::pair<int, int>>& evidence,
                  EliminationStats* stats, Vector* result) {
  const EliminationPlan& plan = ws.plan;
  // Conflicting duplicate pairs pin one variable to two values: no
  // assignment matches, which is exactly the zero-probability-evidence
  // condition the enumeration reference reports (first-wins reduction
  // would silently answer as if only the first pair existed).
  for (std::size_t e = 0; e < evidence.size(); ++e) {
    if (evidence[e].second != evidence[plan.evidence_first[e]].second) {
      return Status::FailedPrecondition("evidence has probability zero");
    }
  }
  // Each step is up to O(k^width) — the dominant cost on high-width
  // networks — so the cancellation checkpoint sits before every step,
  // bounding a deadline overrun to one elimination step.
  if (plan.has_order) PF_RETURN_NOT_OK(CheckDeadline("variable elimination"));
  if (!plan.guard.ok()) {
    if (stats != nullptr) stats->MergeMax(plan.stats);
    return plan.guard;
  }
  ws.arena.Reset();
  ws.slot_values.resize(plan.slot_cells.size());
  for (std::size_t f = 0; f < factors.size(); ++f) {
    ws.slot_values[f] = factors[f].values.data();  // Borrowed until reduced.
  }
  for (const ReductionOp& op : plan.reductions) {
    const std::size_t value =
        static_cast<std::size_t>(evidence[op.evidence].second);
    const double* src = ws.slot_values[op.slot];
    double* dst = ws.arena.AllocDoubles(op.outer * op.block);
    for (std::size_t o = 0; o < op.outer; ++o) {
      std::memcpy(dst + o * op.block, src + (o * op.arity + value) * op.block,
                  op.block * sizeof(double));
    }
    ws.slot_values[op.slot] = dst;
  }
  for (std::size_t s = 0; s < plan.steps.size(); ++s) {
    if (s > 0) PF_RETURN_NOT_OK(CheckDeadline("variable elimination"));
    const PlanStep& step = plan.steps[s];
    const std::size_t out_cells = step.cells / step.var_arity;
    double* dst = ws.arena.AllocDoubles(out_cells);
    ws.slot_values[step.out_slot] = dst;
    ProductKernel<true>(ws, plan.step_inputs.data() + step.inputs_begin,
                        step.inputs_end - step.inputs_begin,
                        plan.step_strides.data() + step.strides_begin,
                        plan.step_arity.data() + step.scope_begin, step.dims,
                        out_cells, dst);
  }
  if (stats != nullptr) stats->MergeMax(plan.stats);
  double* joint = ws.arena.AllocDoubles(plan.joint_cells);
  ProductKernel<false>(ws, plan.final_slots.data(), plan.final_slots.size(),
                       plan.final_strides.data(), plan.free_arity.data(),
                       plan.free_targets.size(), plan.joint_cells, joint);
  double total = 0.0;
  for (std::size_t i = 0; i < plan.joint_cells; ++i) total += joint[i];
  if (!(total > 0.0)) {
    return Status::FailedPrecondition("evidence has probability zero");
  }
  result->resize(plan.out_map.size());
  Vector& out = *result;
  for (std::size_t cell = 0; cell < plan.out_map.size(); ++cell) {
    std::size_t ji = plan.out_map[cell];
    for (const PinnedTarget& t : plan.pinned_targets) {
      const std::size_t digit = (cell / t.stride) % t.arity;
      if (digit != static_cast<std::size_t>(evidence[t.evidence].second)) {
        ji = kNoCell;
      }
    }
    out[cell] = ji == kNoCell ? 0.0 : joint[ji] / total;
  }
  return Status::OK();
}

Status EliminationConditionalJointInto(
    const std::vector<Factor>& factors, const std::vector<int>& arities,
    const std::vector<int>& targets,
    const std::vector<std::pair<int, int>>& evidence, std::size_t limit,
    EliminationStats* stats, Vector* result) {
  EliminationWorkspace& ws = TlsWorkspace();
  if (!PlanMatches(ws.plan, factors, arities, targets, evidence, limit)) {
    BuildPlan(ws, factors, arities, targets, evidence, limit);
  }
  return ReplayPlan(ws, factors, evidence, stats, result);
}

}  // namespace

Result<Vector> FactorConditionalJoint(
    const std::vector<Factor>& factors, const std::vector<int>& arities,
    const std::vector<int>& targets,
    const std::vector<std::pair<int, int>>& evidence, std::size_t limit,
    InferenceBackend backend, EliminationStats* stats) {
  Vector out;
  PF_RETURN_NOT_OK(FactorConditionalJointInto(factors, arities, targets,
                                              evidence, limit, backend, stats,
                                              &out));
  return out;
}

Status FactorConditionalJointInto(
    const std::vector<Factor>& factors, const std::vector<int>& arities,
    const std::vector<int>& targets,
    const std::vector<std::pair<int, int>>& evidence, std::size_t limit,
    InferenceBackend backend, EliminationStats* stats, Vector* out) {
  PF_RETURN_NOT_OK(ValidateQuery(arities, targets, evidence));
  if (backend == InferenceBackend::kEnumeration) {
    PF_ASSIGN_OR_RETURN(Vector mass,
                        EnumerationConditionalJoint(factors, arities, targets,
                                                    evidence, limit));
    *out = std::move(mass);
    return Status::OK();
  }
  return EliminationConditionalJointInto(factors, arities, targets, evidence,
                                         limit, stats, out);
}

std::size_t EliminationScratchRetainedBytes() {
  return TlsWorkspace().arena.retained_bytes();
}

}  // namespace pf
