// Per-tenant serving sessions: every release is charged against an epsilon
// budget through the Theorem 4.4 CompositionAccountant (K releases compose
// to K * max_k epsilon_k when they share active quilts). A session refuses
// releases that would overrun the budget (ResourceExhausted) or mix active
// quilts (FailedPrecondition — the Theorem 4.4 precondition).
//
// Determinism: each accepted release draws its noise from the counter-based
// Philox stream keyed by (session seed, ticket) (AddTicketLaplaceNoise,
// engine/batch_kernels.h), where tickets are assigned in Submit() call
// order. Results are therefore bit-identical for any executor thread count
// and any completion order.
#ifndef PUFFERFISH_ENGINE_SESSION_H_
#define PUFFERFISH_ENGINE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/batch_plan.h"
#include "engine/privacy_engine.h"
#include "engine/query_spec.h"
#include "pufferfish/composition.h"

namespace pf {

// SessionOptions and RequestOptions live in engine/privacy_engine.h and
// DataWindow in engine/batch_plan.h (shared with the columnar frontend);
// this header includes both.

/// One released query: the noisy value plus its accounting facts.
struct ReleaseResult {
  /// The released (noisy) query value; dimension 1 for scalar kinds.
  Vector value;
  /// Epsilon charged for this release.
  double epsilon = 0.0;
  /// Noise scale multiplier the plan used.
  double sigma = 0.0;
  MechanismKind mechanism = MechanismKind::kLaplaceDp;
  /// Submission sequence number (also the noise-stream index).
  std::uint64_t ticket = 0;
};

/// \brief A privacy-budget ledger over one engine. Thread-safe; cheap to
/// create (plans are shared through the engine's caches). The engine must
/// outlive the session.
class Session {
 public:
  Session(PrivacyEngine* engine, const SessionOptions& options);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// \brief Synchronous point release: compile (cached), charge the
  /// budget, evaluate and noise the query on the calling thread.
  ///
  /// Every release entry point shares one prologue, in this order:
  ///  1. An already-expired `request.deadline` is refused with
  ///     DeadlineExceeded.
  ///  2. `window` is resolved against `data`: DataWindow::All() is the
  ///     whole record and compiles at the engine's record length (a
  ///     1/T built-in over a longer `data` is InvalidArgument, see
  ///     CheckFullRecordFits); any other window
  ///     compiles at its own length (sliding-window / suffix serving for
  ///     appended streams), and an out-of-range one is InvalidArgument.
  ///  3. The query is compiled under `request` (a deadline expiring
  ///     mid-analysis cancels it at the next checkpoint, and
  ///     `allow_cold_analysis = false` sheds uncached plans with
  ///     Unavailable).
  ///  4. The window is sliced out of `data` (O(W)); the full record is
  ///     used in place.
  /// A request refused by the prologue charges nothing.
  Result<ReleaseResult> Release(const QuerySpec& spec,
                                const StateSequence& data,
                                const DataWindow& window = DataWindow::All(),
                                const RequestOptions& request = {});

  /// \brief Asynchronous release: the prologue (see Release) and the budget
  /// charge happen now, in call order — tickets and the ledger are
  /// deterministic — and the query evaluation and noise draw run on the
  /// engine's executor. Admission happens strictly before accounting: the
  /// executor slot and the session's in-flight cap are claimed first, so a
  /// request shed with Unavailable (queue full, in-flight cap, cold-shed
  /// policy) never debits epsilon. A refused request returns an
  /// already-resolved errored future.
  ///
  /// This overload copies `data` (or the window slice) once for the task,
  /// also when the caller passes a temporary; a caller that can give the
  /// record up should wrap it in a shared_ptr and use the overload below.
  std::future<Result<ReleaseResult>> Submit(
      const QuerySpec& spec, const StateSequence& data,
      const DataWindow& window = DataWindow::All(),
      const RequestOptions& request = {});
  /// As above, sharing an already-wrapped database: the full record is not
  /// copied, a window slice is.
  std::future<Result<ReleaseResult>> Submit(
      const QuerySpec& spec, std::shared_ptr<const StateSequence> data,
      const DataWindow& window = DataWindow::All(),
      const RequestOptions& request = {});

  /// Many queries against one database (the serving batch path); the
  /// database is wrapped once and shared by every task, not copied per
  /// query. Identical (kind, parameters, epsilon) specs are compiled once
  /// per call — a 1k-row batch of one shape does one compile-cache lookup,
  /// not 1k. A 1/T built-in row over a `data` longer than the engine's
  /// record length fails its future with InvalidArgument, as Release would.
  /// One
  /// query against many databases is a loop over Submit.
  std::vector<std::future<Result<ReleaseResult>>> SubmitBatch(
      const std::vector<QuerySpec>& specs, const StateSequence& data);

  /// \brief The columnar batch path: admits, prices the WHOLE batch under
  /// one Theorem 4.4 composed charge, and returns a single future over a
  /// struct-of-arrays result batch. All-or-nothing, unlike SubmitBatch's
  /// per-row futures: a batch that fails to compile, mixes active quilts,
  /// would overrun the budget, or is shed (queue full, in-flight cap,
  /// cold-shed policy) is refused whole and debits NOTHING. Admission
  /// strictly precedes accounting, exactly like Submit. Row i releases
  /// under ticket first + i, drawing from the same per-ticket noise stream
  /// the scalar path would — released values are bit-identical to
  /// submitting the same specs scalar, in order, at any thread count and
  /// SimdLevel, while skipping the per-row dispatch/future/allocation
  /// overhead (see bench_batch_serving).
  std::future<Result<BatchReleaseResult>> SubmitColumnar(
      const BatchQuerySpec& batch, const StateSequence& data,
      const RequestOptions& request = {});

  double epsilon_budget() const { return options_.epsilon_budget; }
  /// Asynchronous releases admitted but not yet completed.
  std::size_t in_flight() const {
    return in_flight_->load(std::memory_order_relaxed);
  }
  /// Composed epsilon spent so far (K * max_k epsilon_k, Theorem 4.4).
  double EpsilonSpent() const;
  /// Budget still spendable (infinite for unmetered sessions).
  double EpsilonRemaining() const;
  std::size_t num_releases() const;

 private:
  /// Charges one release: refuses quilt mismatches (FailedPrecondition)
  /// and budget overruns (ResourceExhausted), else records it and returns
  /// the assigned ticket.
  Result<std::uint64_t> ChargeLocked(const MechanismPlan& plan)
      PF_REQUIRES(mutex_);

  /// \brief Charges a whole columnar batch atomically: every unique plan
  /// must be releasable, every row must share one active quilt (with each
  /// other and the ledger), and the composed level (K + rows) * max epsilon
  /// must fit the budget — else the whole batch is refused and nothing is
  /// recorded. Returns the first of `rows` contiguous tickets.
  Result<std::uint64_t> ChargeBatchLocked(const CompiledBatchPlan& plan)
      PF_REQUIRES(mutex_);

  /// What the shared prologue hands a scalar entry point: the compiled
  /// query and, for any window but the full record, its slice.
  struct Prepared {
    PrivacyEngine::CompiledQuery compiled;
    std::optional<StateSequence> slice;
  };

  /// The prologue shared by Release and both Submit overloads (see
  /// Release). Touches neither the ledger nor any admission slot.
  Result<Prepared> Prepare(const QuerySpec& spec, const StateSequence& data,
                           const DataWindow& window,
                           const RequestOptions& request);

  /// Claims one in-flight slot (CAS against max_in_flight); Unavailable at
  /// the cap. The slot is returned by the task body on completion, or by
  /// the submit path on any failure between admission and hand-off.
  Status AdmitInFlight();

  /// The admission + charge + hand-off tail shared by both Submit
  /// overloads and SubmitBatch, in the shed-before-charge order: executor
  /// permit, in-flight slot, budget charge, then the task keeps the permit.
  std::future<Result<ReleaseResult>> SubmitCompiled(
      PrivacyEngine::CompiledQuery q,
      std::shared_ptr<const StateSequence> data);

  /// The noise task body shared by Release and Submit.
  static Result<ReleaseResult> Execute(const PrivacyEngine::CompiledQuery& q,
                                       const StateSequence& data,
                                       std::uint64_t seed,
                                       std::uint64_t ticket);

  PrivacyEngine* const engine_;
  const SessionOptions options_;
  /// Resolved noise seed (options_.seed or engine-assigned).
  const std::uint64_t seed_;

  /// Shared with task bodies so a completion can return its slot even if
  /// it outlives the session object (futures may be drained after ~Session).
  const std::shared_ptr<std::atomic<std::size_t>> in_flight_;

  mutable Mutex mutex_;
  CompositionAccountant accountant_ PF_GUARDED_BY(mutex_);
  std::uint64_t next_ticket_ PF_GUARDED_BY(mutex_) = 0;
};

}  // namespace pf

#endif  // PUFFERFISH_ENGINE_SESSION_H_
