#include "engine/session.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/failpoint.h"
#include "common/random.h"
#include "engine/batch_kernels.h"

namespace pf {

namespace {

/// The quilt identity a release is accounted under. Chain mechanisms use
/// their active quilt (the Theorem 4.4 object; the stationary search makes
/// it represent every node). General-network plans fold *all* per-node
/// active quilts into one signature-carrying quilt — Definition 4.5's
/// precondition covers every S_{Q,i}, so a mismatch at any node must
/// refuse composition, not just one at the worst node. The remaining
/// mechanisms get a kind-tagged placeholder so releases of the same
/// (mechanism, model) ledger together but never alias a real quilt.
MarkovQuilt PlanActiveQuilt(const MechanismPlan& plan) {
  switch (plan.kind) {
    case MechanismKind::kMqmExact:
    case MechanismKind::kMqmApprox:
      return plan.chain.active_quilt;
    case MechanismKind::kMqmGeneral: {
      MarkovQuilt all;
      all.target = -1 - static_cast<int>(plan.kind);
      for (const QuiltScore& per_node : plan.mqm.active) {
        all.quilt.push_back(per_node.quilt.target);
        all.quilt.insert(all.quilt.end(), per_node.quilt.quilt.begin(),
                         per_node.quilt.quilt.end());
        all.quilt.push_back(
            -2 - static_cast<int>(per_node.quilt.nearby_count));  // Separator.
      }
      return all;
    }
    default:
      break;
  }
  MarkovQuilt tag;
  tag.target = -1 - static_cast<int>(plan.kind);
  return tag;
}

std::future<Result<ReleaseResult>> ReadyError(Status status) {
  std::promise<Result<ReleaseResult>> promise;
  promise.set_value(Result<ReleaseResult>(std::move(status)));
  return promise.get_future();
}

std::future<Result<BatchReleaseResult>> ReadyBatchError(Status status) {
  std::promise<Result<BatchReleaseResult>> promise;
  promise.set_value(Result<BatchReleaseResult>(std::move(status)));
  return promise.get_future();
}

/// Structural equality of what the ledger hashes (QuiltSignature encodes
/// exactly target, quilt, and nearby_count): true iff two plans' releases
/// would ledger under the same active quilt.
bool SameQuiltIdentity(const MarkovQuilt& a, const MarkovQuilt& b) {
  return a.target == b.target && a.nearby_count == b.nearby_count &&
         a.quilt == b.quilt;
}

StateSequence SliceWindow(const StateSequence& data, std::size_t offset,
                          std::size_t length) {
  const auto begin = data.begin() + static_cast<std::ptrdiff_t>(offset);
  return StateSequence(begin, begin + static_cast<std::ptrdiff_t>(length));
}

}  // namespace

Session::Session(PrivacyEngine* engine, const SessionOptions& options)
    : engine_(engine),
      options_(options),
      seed_(options.seed.has_value() ? *options.seed
                                     : engine->NextSessionSeed()),
      in_flight_(std::make_shared<std::atomic<std::size_t>>(0)) {}

Status Session::AdmitInFlight() {
  const std::size_t cap = options_.max_in_flight;
  if (cap == 0) {
    in_flight_->fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  std::size_t current = in_flight_->load(std::memory_order_relaxed);
  while (true) {
    if (current >= cap) {
      return Status::Unavailable(
          "session in-flight cap reached (" + std::to_string(current) +
          " >= " + std::to_string(cap) +
          "); retry after outstanding releases complete");
    }
    // CAS keeps the cap exact under concurrent Submit calls: a plain
    // fetch_add could admit cap+1 tasks between the load and the bump.
    if (in_flight_->compare_exchange_weak(current, current + 1,
                                          std::memory_order_relaxed)) {
      return Status::OK();
    }
  }
}

Result<std::uint64_t> Session::ChargeLocked(const MechanismPlan& plan) {
  // A plan that can never release (GK16 outside its spectral condition, a
  // non-finite noise scale) must be refused *before* charging: the failed
  // release would produce nothing, so it must not burn budget.
  if (!plan.applicable) {
    return Status::FailedPrecondition(
        std::string(MechanismKindName(plan.kind)) +
        " is inapplicable for this model class (no finite noise scale); "
        "nothing was charged");
  }
  if (!std::isfinite(plan.sigma) || plan.sigma < 0.0) {
    return Status::FailedPrecondition(
        "plan has no finite noise scale; nothing was charged");
  }
  // Price the release before committing it: K+1 releases compose to
  // (K+1) * max epsilon (Theorem 4.4). Admission uses the shared
  // deterministic tie rule (ComposedBudgetAdmits): floating-point dust at
  // exact-fit boundaries like B = 0.3, eps = 0.1 is forgiven, genuine
  // overruns never are, so a budget of B admits exactly floor(B / eps)
  // equal-epsilon releases on every platform.
  const double max_epsilon = std::max(accountant_.MaxEpsilon(), plan.epsilon);
  const double budget = options_.epsilon_budget;
  if (!ComposedBudgetAdmits(accountant_.num_releases() + 1, max_epsilon,
                            budget)) {
    const double prospective =
        static_cast<double>(accountant_.num_releases() + 1) * max_epsilon;
    return Status::ResourceExhausted(
        "privacy budget exhausted: this release would compose to epsilon " +
        std::to_string(prospective) + " > budget " + std::to_string(budget));
  }
  // Records only if the active quilt matches every earlier release
  // (Theorem 4.4's precondition); a mismatch refuses with
  // FailedPrecondition and charges nothing.
  PF_RETURN_NOT_OK(
      accountant_.RecordReleaseStrict(plan.epsilon, PlanActiveQuilt(plan)));
  return next_ticket_++;
}

Result<ReleaseResult> Session::Execute(const PrivacyEngine::CompiledQuery& q,
                                       const StateSequence& data,
                                       std::uint64_t seed,
                                       std::uint64_t ticket) {
  // Fires after the charge (the body runs post-ticketing): the torture
  // tests pin that an execute-side failure surfaces as a typed Status on
  // the future, never a crash, and that the ledger stays consistent.
  PF_FAILPOINT("session.execute");
  Vector truth = q.query.fn(data);
  if (q.query.dim != 0 && truth.size() != q.query.dim) {
    // Unlike the statically-detectable refusals in ChargeLocked, this can
    // only surface after the budget was charged (the body runs on the
    // pool, after ticketing). The charge stands: overcharging a
    // contract-violating query is privacy-safe; refunding would require
    // sessions to outlive their futures.
    return Status::Internal("query '" + q.query.name + "' returned dimension " +
                            std::to_string(truth.size()) + ", declared " +
                            std::to_string(q.query.dim) +
                            " (epsilon was charged)");
  }
  PF_RETURN_NOT_OK(CheckReleasable(*q.plan, q.query.lipschitz));
  // Noise in place from the ticket's stream, the kernel the columnar path
  // runs per row. The charge is structurally upstream: Execute only runs
  // with a `ticket` already issued by ChargeLocked (its only callers,
  // Release and the SubmitCompiled task body, both charge before invoking
  // it), so no in-function charge can or should dominate this release.
  // pf:allow(budget-flow): ticket proves the charge happened upstream
  AddTicketLaplaceNoise(truth.data(), truth.size(),
                        q.query.lipschitz * q.plan->sigma,
                        TicketNoiseSeed(seed, ticket));
  ReleaseResult result;
  result.value = std::move(truth);
  result.epsilon = q.plan->epsilon;
  result.sigma = q.plan->sigma;
  result.mechanism = q.plan->kind;
  result.ticket = ticket;
  return result;
}

Result<Session::Prepared> Session::Prepare(const QuerySpec& spec,
                                           const StateSequence& data,
                                           const DataWindow& window,
                                           const RequestOptions& request) {
  // Compile() re-checks the deadline, but refusing here keeps the
  // guarantee local: an expired ticket never reaches the charge path.
  if (request.deadline.expired()) {
    return Status::DeadlineExceeded(
        "request deadline already expired; nothing was charged");
  }
  Prepared prepared;
  if (window.full_record()) {
    // Only the 1/T kinds can be refused; the rest skip the model lock.
    if (QueryKindNeedsLength(spec.kind)) {
      PF_RETURN_NOT_OK(
          CheckFullRecordFits(spec, data.size(), engine_->record_length()));
    }
    PF_ASSIGN_OR_RETURN(prepared.compiled, engine_->Compile(spec, 0, request));
  } else {
    PF_ASSIGN_OR_RETURN(const auto span, ResolveDataWindow(window, data.size()));
    PF_ASSIGN_OR_RETURN(prepared.compiled,
                        engine_->Compile(spec, span.second, request));
    prepared.slice = SliceWindow(data, span.first, span.second);
  }
  return prepared;
}

Result<ReleaseResult> Session::Release(const QuerySpec& spec,
                                       const StateSequence& data,
                                       const DataWindow& window,
                                       const RequestOptions& request) {
  PF_ASSIGN_OR_RETURN(Prepared prepared,
                      Prepare(spec, data, window, request));
  std::uint64_t ticket = 0;
  {
    MutexLock lock(mutex_);
    PF_ASSIGN_OR_RETURN(ticket, ChargeLocked(*prepared.compiled.plan));
  }
  return Execute(prepared.compiled,
                 prepared.slice.has_value() ? *prepared.slice : data, seed_,
                 ticket);
}

std::future<Result<ReleaseResult>> Session::Submit(
    const QuerySpec& spec, const StateSequence& data, const DataWindow& window,
    const RequestOptions& request) {
  Result<Prepared> prepared = Prepare(spec, data, window, request);
  if (!prepared.ok()) return ReadyError(prepared.status());
  Prepared& p = prepared.value();
  auto shared = p.slice.has_value()
                    ? std::make_shared<const StateSequence>(std::move(*p.slice))
                    : std::make_shared<const StateSequence>(data);
  return SubmitCompiled(std::move(p.compiled), std::move(shared));
}

std::future<Result<ReleaseResult>> Session::Submit(
    const QuerySpec& spec, std::shared_ptr<const StateSequence> data,
    const DataWindow& window, const RequestOptions& request) {
  if (data == nullptr) {
    return ReadyError(
        Status::InvalidArgument("null database; nothing was charged"));
  }
  Result<Prepared> prepared = Prepare(spec, *data, window, request);
  if (!prepared.ok()) return ReadyError(prepared.status());
  Prepared& p = prepared.value();
  if (p.slice.has_value()) {
    data = std::make_shared<const StateSequence>(std::move(*p.slice));
  }
  return SubmitCompiled(std::move(p.compiled), std::move(data));
}

std::future<Result<ReleaseResult>> Session::SubmitCompiled(
    PrivacyEngine::CompiledQuery q, std::shared_ptr<const StateSequence> data) {
  // Admission strictly precedes accounting. The executor slot and the
  // in-flight slot are both claimed before ChargeLocked, so a request shed
  // here resolves to Unavailable with the ledger untouched; once the
  // charge lands, hand-off cannot fail (Submit with a valid permit always
  // enqueues), so a charged ticket always produces a release or a typed
  // execute error — never a silently dropped debit.
  Result<Executor::Permit> permit = engine_->executor().TryAcquire();
  if (!permit.ok()) return ReadyError(permit.status());
  Status admitted = AdmitInFlight();
  if (!admitted.ok()) return ReadyError(std::move(admitted));
  auto in_flight = in_flight_;
#ifdef PF_FAILPOINTS
  // Models a refusal between admission and the charge (e.g. a ledger
  // backend outage): both slots must be returned and nothing charged.
  {
    Status injected = FailpointRegistry::Instance().Evaluate("session.charge");
    if (!injected.ok()) {
      in_flight->fetch_sub(1, std::memory_order_relaxed);
      return ReadyError(std::move(injected));  // Permit released by ~Permit.
    }
  }
#endif
  std::uint64_t ticket = 0;
  {
    MutexLock lock(mutex_);
    Result<std::uint64_t> charged = ChargeLocked(*q.plan);
    if (!charged.ok()) {
      in_flight->fetch_sub(1, std::memory_order_relaxed);
      return ReadyError(charged.status());  // Permit released by ~Permit.
    }
    ticket = charged.value();
  }
  return engine_->executor().Submit(
      std::move(permit).value(),
      [q = std::move(q), data = std::move(data), seed = seed_, ticket,
       in_flight = std::move(in_flight)] {
        Result<ReleaseResult> result = Execute(q, *data, seed, ticket);
        in_flight->fetch_sub(1, std::memory_order_relaxed);
        return result;
      });
}

std::vector<std::future<Result<ReleaseResult>>> Session::SubmitBatch(
    const std::vector<QuerySpec>& specs, const StateSequence& data) {
  // One wrapped copy shared by every task instead of one copy per query,
  // and one compile per unique spec shape instead of one cache probe per
  // row: a 1k-row batch of one shape builds its cache key once.
  auto shared = std::make_shared<const StateSequence>(data);
  std::unordered_map<std::string, Result<PrivacyEngine::CompiledQuery>>
      compiled_by_key;
  std::vector<std::future<Result<ReleaseResult>>> futures;
  futures.reserve(specs.size());
  const std::size_t model_length = engine_->record_length();
  for (const QuerySpec& spec : specs) {
    // Every row is a full-record release, refused as Release would be.
    Status fits = CheckFullRecordFits(spec, data.size(), model_length);
    if (!fits.ok()) {
      futures.push_back(ReadyError(std::move(fits)));
      continue;
    }
    std::string key = spec.CacheKey();
    auto it = compiled_by_key.find(key);
    if (it == compiled_by_key.end()) {
      it = compiled_by_key.emplace(std::move(key), engine_->Compile(spec))
               .first;
    }
    if (!it->second.ok()) {
      futures.push_back(ReadyError(it->second.status()));
      continue;
    }
    futures.push_back(SubmitCompiled(it->second.value(), shared));
  }
  return futures;
}

Result<std::uint64_t> Session::ChargeBatchLocked(
    const CompiledBatchPlan& plan) {
  const std::size_t rows = plan.num_rows();
  // Every unique plan must be releasable before anything is recorded
  // (mirrors ChargeLocked): a batch containing one inapplicable row would
  // otherwise burn budget on releases that can never be produced.
  for (const PrivacyEngine::CompiledQuery& q : plan.compiled) {
    const MechanismPlan& mp = *q.plan;
    if (!mp.applicable) {
      return Status::FailedPrecondition(
          std::string(MechanismKindName(mp.kind)) +
          " is inapplicable for this model class (no finite noise scale); "
          "the batch was refused whole and nothing was charged");
    }
    if (!std::isfinite(mp.sigma) || mp.sigma < 0.0) {
      return Status::FailedPrecondition(
          "plan has no finite noise scale; the batch was refused whole and "
          "nothing was charged");
    }
  }
  // Theorem 4.4's precondition, checked structurally across the batch
  // before touching the ledger: every row must release under one active
  // quilt. The accountant re-checks the (single) batch quilt against the
  // ledger's recorded identity inside RecordBatchStrict.
  const MarkovQuilt quilt = PlanActiveQuilt(*plan.compiled.front().plan);
  for (std::size_t u = 1; u < plan.compiled.size(); ++u) {
    if (!SameQuiltIdentity(quilt, PlanActiveQuilt(*plan.compiled[u].plan))) {
      return Status::FailedPrecondition(
          "batch mixes active quilts (rows would compose under different "
          "Theorem 4.4 objects); the batch was refused whole and nothing "
          "was charged");
    }
  }
  // Price the WHOLE batch as one composed charge: K existing releases plus
  // `rows` new ones compose to (K + rows) * max epsilon. Admitting the
  // batch at the composed level is equivalent to admitting each row
  // sequentially (every intermediate composed level is bounded by the
  // final one), so columnar and scalar submission admit exactly the same
  // prefixes of work.
  std::vector<double> epsilons;
  epsilons.reserve(rows);
  double batch_max = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    const double eps =
        plan.compiled[plan.logical.row_to_unique[r]].plan->epsilon;
    epsilons.push_back(eps);
    batch_max = std::max(batch_max, eps);
  }
  const double max_epsilon = std::max(accountant_.MaxEpsilon(), batch_max);
  const double budget = options_.epsilon_budget;
  if (!ComposedBudgetAdmits(accountant_.num_releases() + rows, max_epsilon,
                            budget)) {
    const double prospective =
        static_cast<double>(accountant_.num_releases() + rows) * max_epsilon;
    return Status::ResourceExhausted(
        "privacy budget exhausted: this batch of " + std::to_string(rows) +
        " releases would compose to epsilon " + std::to_string(prospective) +
        " > budget " + std::to_string(budget) + "; nothing was charged");
  }
  PF_RETURN_NOT_OK(accountant_.RecordBatchStrict(epsilons, quilt));
  const std::uint64_t first = next_ticket_;
  next_ticket_ += rows;
  return first;
}

std::future<Result<BatchReleaseResult>> Session::SubmitColumnar(
    const BatchQuerySpec& batch, const StateSequence& data,
    const RequestOptions& request) {
  if (request.deadline.expired()) {
    return ReadyBatchError(Status::DeadlineExceeded(
        "request deadline already expired; nothing was charged"));
  }
  // Compile (all-or-nothing, one engine compile per unique shape) before
  // claiming any serving resources: a batch that cannot compile should not
  // occupy an executor slot.
  Result<CompiledBatchPlan> compiled =
      CompileBatchPlan(engine_, batch, data.size(), request);
  if (!compiled.ok()) return ReadyBatchError(compiled.status());
  // Admission strictly precedes accounting, in the same order as
  // SubmitCompiled: executor permit, in-flight slot, THEN the batch
  // charge. A batch shed at either gate resolves to Unavailable with the
  // ledger untouched; once the charge lands, hand-off cannot fail.
  Result<Executor::Permit> permit = engine_->executor().TryAcquire();
  if (!permit.ok()) return ReadyBatchError(permit.status());
  Status admitted = AdmitInFlight();
  if (!admitted.ok()) return ReadyBatchError(std::move(admitted));
  auto in_flight = in_flight_;
#ifdef PF_FAILPOINTS
  // Same refusal window as the scalar path: a ledger outage between
  // admission and the charge returns both slots and charges nothing.
  {
    Status injected = FailpointRegistry::Instance().Evaluate("session.charge");
    if (!injected.ok()) {
      in_flight->fetch_sub(1, std::memory_order_relaxed);
      return ReadyBatchError(std::move(injected));  // Permit self-releases.
    }
  }
#endif
  std::uint64_t first_ticket = 0;
  {
    MutexLock lock(mutex_);
    Result<std::uint64_t> charged = ChargeBatchLocked(compiled.value());
    if (!charged.ok()) {
      in_flight->fetch_sub(1, std::memory_order_relaxed);
      return ReadyBatchError(charged.status());  // Permit self-releases.
    }
    first_ticket = charged.value();
  }
  auto plan = std::make_shared<const CompiledBatchPlan>(
      std::move(compiled).value());
  auto shared = std::make_shared<const StateSequence>(data);
  return engine_->executor().Submit(
      std::move(permit).value(),
      [plan = std::move(plan), shared = std::move(shared), seed = seed_,
       first_ticket, in_flight = std::move(in_flight)] {
        Result<BatchReleaseResult> result =
            ExecuteBatchPlan(*plan, *shared, seed, first_ticket);
        in_flight->fetch_sub(1, std::memory_order_relaxed);
        return result;
      });
}

double Session::EpsilonSpent() const {
  MutexLock lock(mutex_);
  return accountant_.TotalEpsilon();
}

double Session::EpsilonRemaining() const {
  MutexLock lock(mutex_);
  return std::max(0.0, options_.epsilon_budget - accountant_.TotalEpsilon());
}

std::size_t Session::num_releases() const {
  MutexLock lock(mutex_);
  return accountant_.num_releases();
}

}  // namespace pf
