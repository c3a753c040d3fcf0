// Execution kernels for the serving paths. The physical batch plan
// (engine/batch_plan.h) lowers every derivable query shape onto two
// data-parallel primitives and one noise kernel:
//
//   AggregateStates   one pass over the (windowed) record computing the
//                     integer statistics every built-in query kind derives
//                     from: the state sum, the per-state count histogram,
//                     and exact-match counts for requested states
//   ClipScales        the per-row Lipschitz calibration ("clip") stage:
//                     scales[i] = lipschitz[i] * sigma[i]
//   AddTicketLaplaceNoise
//                     the noise stage: counter-based Philox4x32-10 Laplace
//                     draws keyed by the row's ticket stream key. The scalar
//                     serving path (Session) calls it too, so scalar and
//                     columnar releases share one noise stream by
//                     construction.
//
// The first two dispatch over the runtime SimdLevel seam (common/matrix.h):
// the portable kernel is the reference, the AVX2 kernel is 8-wide (int32) /
// 4-wide (double). Bit-identity across levels is structural, not hoped
// for: AggregateStates is pure integer arithmetic (sums and counts are
// associative and exact, so lane order cannot change the result), and
// ClipScales is elementwise with one rounding per element. The
// scalar-vs-columnar suite re-verifies both at every level.
//
// This file is on pf-analyzer's bit-exact-pinned list (determinism pass):
// no unordered iteration, no unseeded randomness, no FMA contraction.
#ifndef PUFFERFISH_ENGINE_BATCH_KERNELS_H_
#define PUFFERFISH_ENGINE_BATCH_KERNELS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pf {

/// What one aggregation pass must compute for a window of the record.
struct AggregateSpec {
  /// Histogram bins to count; 0 when no histogram-shaped row needs them.
  std::size_t k = 0;
  /// Compute the integer state sum (sum/mean rows).
  bool need_sum = false;
  /// Distinct exact-match targets (one per StateFrequency state). Matched
  /// literally against the data — including states outside [0, k) — so the
  /// derived frequency is bit-identical to the scalar query's match loop.
  std::vector<int> match_states;
};

/// Output of one aggregation pass. `counts` and `match_counts` are
/// caller-provided buffers of spec.k and spec.match_states.size() entries.
struct AggregateStats {
  /// sum_t data[t], exact in int64 (the scalar path's double accumulation
  /// is exact below 2^53, where the two agree bit for bit; a record whose
  /// running state sum exceeds 2^53 is out of this engine's envelope).
  std::int64_t sum = 0;
  /// Any state outside [0, k) (meaningful only when spec.k > 0). The
  /// histogram derive stage then releases the all-zero vector, matching
  /// the scalar CountHistogramQuery's ValueOr fallback bit for bit.
  bool out_of_range = false;
  std::int64_t* counts = nullptr;
  std::int64_t* match_counts = nullptr;
};

/// \brief One pass over data[0, n) computing `spec`'s statistics into
/// `stats` (whose counts/match_counts buffers must be sized per the spec).
/// Runtime-dispatched over ActiveSimdLevel(); every level is bit-identical
/// (integer arithmetic only).
void AggregateStates(const int* data, std::size_t n, const AggregateSpec& spec,
                     AggregateStats* stats);

/// \brief The clip stage: scales[i] = lipschitz[i] * sigmas[i] for i in
/// [0, n). Elementwise (one rounding per entry), so every SimdLevel is
/// bit-identical.
void ClipScales(const double* lipschitz, const double* sigmas, std::size_t n,
                double* scales);

/// A Philox4x32 counter block (four 32-bit words) and key (two words).
using PhiloxBlock = std::array<std::uint32_t, 4>;
using PhiloxKey = std::array<std::uint32_t, 2>;

/// \brief The Philox4x32-10 block function (Salmon et al., SC'11): ten
/// rounds of the Philox 4x32 bijection of `counter` under `key`, with the
/// key bumped by the Weyl constants between rounds. Output-identical to
/// Random123's philox4x32_10 (pinned by its known-answer vectors).
PhiloxBlock Philox4x32(PhiloxBlock counter, PhiloxKey key);

/// \brief The noise kernel of both serving paths: values[j] += Lap(scale)
/// for j in [0, n). The stream is keyed by `stream_key`
/// (TicketNoiseSeed(session seed, ticket) on the serving paths) and the
/// draw index is the counter: draw j takes 64-bit word j % 2 of the
/// Philox4x32-10 block at counter j / 2 (word 0 = out[1]:out[0], word 1 =
/// out[3]:out[2]), mapped through OpenUnitFromBits and LaplaceInverseCdf
/// (common/random.h).
/// Stateless — no per-stream setup — so a one-coordinate release costs one
/// block. Like the Mersenne Twister it replaced, Philox is not a CSPRNG: the
/// secrecy of the session seed is what protects the noise.
void AddTicketLaplaceNoise(double* values, std::size_t n, double scale,
                           std::uint64_t stream_key);

/// \brief The columnar noise stage: for each row r in [0, rows), adds
/// Laplace noise of scale scales[r] to values[offsets[r], offsets[r+1]) as
///
///   AddTicketLaplaceNoise(values + offsets[r], offsets[r+1] - offsets[r],
///                         scales[r], seeds[r]);
///
/// so row r is bit-identical to the scalar path's release under the same
/// stream key. Not SIMD-dispatched: every SimdLevel runs this same code.
void BatchLaplaceNoise(double* values, const std::size_t* offsets,
                       const double* scales, const std::uint64_t* seeds,
                       std::size_t rows);

}  // namespace pf

#endif  // PUFFERFISH_ENGINE_BATCH_KERNELS_H_
