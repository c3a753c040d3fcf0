#include "pufferfish/analysis_cache.h"

#include "common/failpoint.h"
#include "common/fingerprint.h"
#include "pufferfish/framework.h"

namespace pf {

namespace {
void BumpPlanHitCounter(const MechanismPlan& plan) {
  // Relaxed: the counter is a monotone diagnostic, not a synchronization
  // point; callers only ever read a snapshot.
  if (plan.cache_hits != nullptr) {
    plan.cache_hits->fetch_add(1, std::memory_order_relaxed);
  }
}

// The FIFO bound every store shares: drops the oldest entries until at
// most `max_entries` remain (0 = unbounded). An evicted entry only
// forfeits future reuse; in-flight users hold its shared_ptr.
template <typename Map, typename Order>
void EvictOldest(std::size_t max_entries, Map* map, Order* order) {
  if (max_entries == 0) return;
  while (map->size() > max_entries && !order->empty()) {
    map->erase(order->front());
    order->pop_front();
  }
}
}  // namespace

std::shared_ptr<const MechanismPlan> AnalysisCache::TryGetPlan(
    const Key& key) {
  std::shared_ptr<const MechanismPlan> found;
  {
    MutexLock lock(mutex_);
    auto it = plans_.find(key);
    // Key equality already implies bit-identical epsilon (epsilon_bits is
    // a key field).
    if (it != plans_.end()) found = it->second;
  }
  if (found != nullptr) {
    // Counters are bumped after the lock is released so the critical
    // section stays a pure lookup (no contention on the shared counter
    // under the lock). The shared_ptr copy keeps the plan alive past any
    // concurrent eviction.
    hits_.fetch_add(1, std::memory_order_relaxed);
    BumpPlanHitCounter(*found);
  }
  return found;
}

bool AnalysisCache::Contains(const Mechanism& mechanism,
                             double epsilon) const {
  const Key key{mechanism.Fingerprint(), DoubleBits(epsilon),
                mechanism.kind()};
  MutexLock lock(mutex_);
  return plans_.find(key) != plans_.end();
}

Result<std::shared_ptr<const MechanismPlan>> AnalysisCache::GetOrAnalyze(
    const Mechanism& mechanism, double epsilon) {
  const Key key{mechanism.Fingerprint(), DoubleBits(epsilon),
                mechanism.kind()};
  if (auto found = TryGetPlan(key)) return found;
  PF_FAILPOINT("analysis_cache.analyze");
  // Analyze outside the lock: analyses of different keys overlap, and a
  // duplicated analysis of the same key is merely wasted work, not an error.
  Result<MechanismPlan> plan = AnalyzeMiss(mechanism, key.fingerprint, epsilon);
  if (!plan.ok()) return plan.status().WithContext("cold analysis");
  return StorePlan(key,
                   std::make_shared<const MechanismPlan>(std::move(plan).value()));
}

Result<MechanismPlan> AnalysisCache::AnalyzeMiss(const Mechanism& mechanism,
                                                 std::uint64_t fingerprint,
                                                 double epsilon) {
  const Key key{fingerprint, 0, mechanism.kind()};
  std::shared_ptr<const EpsilonFreeAnalysis> table;
  {
    MutexLock lock(tables_mutex_);
    auto it = tables_.find(key);
    if (it != tables_.end()) table = it->second;
  }
  if (table == nullptr) {
    // Every Analyze refuses such an epsilon first; refuse it before
    // paying for a build. The build runs outside the lock, like plans; a
    // failed or cancelled one stores nothing, so the next miss starts over.
    PF_RETURN_NOT_OK(ValidatePrivacyParams({epsilon}));
    PF_ASSIGN_OR_RETURN(table, mechanism.AnalyzeEpsilonFree());
    if (table == nullptr) return mechanism.Analyze(epsilon);
    MutexLock lock(tables_mutex_);
    auto [it, inserted] = tables_.emplace(key, table);
    table = it->second;  // The incumbent wins a duplicate-build race.
    if (inserted) {
      tables_order_.push_back(key);
      EvictOldest(max_entries_, &tables_, &tables_order_);
    }
  }
  return table->PlanAt(epsilon);
}

std::shared_ptr<const MechanismPlan> AnalysisCache::StorePlan(
    const Key& key, std::shared_ptr<const MechanismPlan> plan) {
  std::shared_ptr<const MechanismPlan> winner;
  bool raced = false;
  {
    MutexLock lock(mutex_);
    auto [it, inserted] = plans_.emplace(key, std::move(plan));
    winner = it->second;
    raced = !inserted;
    if (inserted) {
      insertion_order_.push_back(key);
      EvictOldest(max_entries_, &plans_, &insertion_order_);
    }
  }
  if (raced) {
    // Another thread won the duplicate-key race; serve its plan and count
    // this call as a hit (no new analysis was stored).
    hits_.fetch_add(1, std::memory_order_relaxed);
    BumpPlanHitCounter(*winner);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  return winner;
}

Result<std::shared_ptr<const MechanismPlan>> AnalysisCache::GetOrExtend(
    const Mechanism& mechanism, double epsilon) {
  const std::uint64_t prefix = mechanism.PrefixFingerprint();
  const std::size_t target_length = mechanism.ExtendableLength();
  if (prefix == 0 || target_length == 0) {
    return GetOrAnalyze(mechanism, epsilon);
  }
  // Exact-key fast path first: a plan for this very length is already the
  // cheapest answer.
  const Key key{mechanism.Fingerprint(), DoubleBits(epsilon),
                mechanism.kind()};
  if (auto found = TryGetPlan(key)) return found;
  // Exact miss: find (or create) the chain entry for the length-free model
  // at this epsilon. The map lock only covers the lookup; the per-entry
  // lock serializes extensions of one chain without blocking others.
  const Key chain_key{prefix, DoubleBits(epsilon), mechanism.kind()};
  std::shared_ptr<ChainEntry> entry;
  {
    MutexLock lock(chains_mutex_);
    auto it = chains_.find(chain_key);
    if (it != chains_.end()) {
      entry = it->second;
    } else {
      entry = std::make_shared<ChainEntry>();
      chains_.emplace(chain_key, entry);
      chains_order_.push_back(chain_key);
      EvictOldest(max_entries_, &chains_, &chains_order_);
    }
  }
  MutexLock entry_lock(entry->mutex);
  const bool can_extend = entry->analysis != nullptr &&
                          entry->analysis->length() <= target_length;
  if (!can_extend) {
    // No retained analysis (or it is already past the target — records
    // only grow, so a longer entry means a different serving timeline):
    // seed the chain cold so future appends extend from here.
    PF_FAILPOINT("analysis_cache.analyze");
    Result<std::unique_ptr<ResumableAnalysis>> fresh =
        mechanism.AnalyzeResumable(epsilon);
    if (!fresh.ok()) return fresh.status().WithContext("cold resumable analysis");
    entry->analysis = std::move(fresh).value();
  }
  const bool extended = entry->analysis->length() < target_length;
  Status injected = Status::OK();
#ifdef PF_FAILPOINTS
  injected = FailpointRegistry::Instance().Evaluate("analysis_cache.extend");
#endif
  Result<MechanismPlan> plan =
      injected.ok() ? entry->analysis->ExtendTo(target_length)
                    : Result<MechanismPlan>(injected);
  if (!plan.ok()) {
    // A failed (or deadline-cancelled) extension may leave the retained
    // scan state mid-stride; discard it so the NEXT caller re-seeds the
    // chain cold instead of extending from a half-advanced analysis.
    entry->analysis.reset();
    return plan.status().WithContext("chain extension");
  }
  if (extended) extensions_.fetch_add(1, std::memory_order_relaxed);
  return StorePlan(
      key, std::make_shared<const MechanismPlan>(std::move(plan).value()));
}

std::vector<CachedPlan> AnalysisCache::ExportPlans() const {
  std::vector<CachedPlan> out;
  MutexLock lock(mutex_);
  out.reserve(plans_.size());
  // Walk the FIFO queue, not the map: insertion order round-trips through
  // a snapshot, so a restored cache evicts in the same order the original
  // would have.
  for (const Key& key : insertion_order_) {
    auto it = plans_.find(key);
    if (it == plans_.end()) continue;  // Evicted after enqueue; stale entry.
    CachedPlan entry;
    entry.fingerprint = key.fingerprint;
    entry.epsilon_bits = key.epsilon_bits;
    entry.kind = key.kind;
    entry.plan = it->second;
    out.push_back(std::move(entry));
  }
  return out;
}

std::size_t AnalysisCache::ImportPlans(const std::vector<CachedPlan>& entries) {
  std::size_t inserted = 0;
  MutexLock lock(mutex_);
  for (const CachedPlan& entry : entries) {
    if (entry.plan == nullptr) continue;
    const Key key{entry.fingerprint, entry.epsilon_bits, entry.kind};
    auto [it, fresh] = plans_.emplace(key, entry.plan);
    (void)it;
    if (!fresh) continue;
    insertion_order_.push_back(key);
    EvictOldest(max_entries_, &plans_, &insertion_order_);
    ++inserted;
  }
  return inserted;
}

AnalysisCache::Stats AnalysisCache::stats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.extensions = extensions_.load(std::memory_order_relaxed);
  return stats;
}

std::size_t AnalysisCache::size() const {
  MutexLock lock(mutex_);
  return plans_.size();
}

std::size_t AnalysisCache::epsilon_free_size() const {
  MutexLock lock(tables_mutex_);
  return tables_.size();
}

void AnalysisCache::Clear() {
  {
    MutexLock lock(chains_mutex_);
    chains_.clear();
    chains_order_.clear();
  }
  {
    MutexLock lock(tables_mutex_);
    tables_.clear();
    tables_order_.clear();
  }
  MutexLock lock(mutex_);
  plans_.clear();
  insertion_order_.clear();
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  extensions_.store(0, std::memory_order_relaxed);
}

}  // namespace pf
