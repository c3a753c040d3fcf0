#include "engine/batch_kernels.h"

#include <cassert>

#include "common/matrix.h"
#include "common/random.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PF_SIMD_X86 1
#include <immintrin.h>
#endif

namespace pf {

namespace {

void AggregatePortable(const int* data, std::size_t n,
                       const AggregateSpec& spec, AggregateStats* stats) {
  const int k = static_cast<int>(spec.k);
  std::int64_t sum = 0;
  bool oor = false;
  std::int64_t* counts = stats->counts;
  std::int64_t* matches = stats->match_counts;
  const std::size_t num_match = spec.match_states.size();
  for (std::size_t t = 0; t < n; ++t) {
    const int v = data[t];
    sum += v;
    if (k > 0) {
      if (v >= 0 && v < k) {
        ++counts[v];
      } else {
        oor = true;
      }
    }
    for (std::size_t m = 0; m < num_match; ++m) {
      matches[m] += (v == spec.match_states[m]) ? 1 : 0;
    }
  }
  stats->sum = sum;  // The sum is free alongside the pass; always report it.
  stats->out_of_range = oor;
}

#ifdef PF_SIMD_X86
// AVX2 aggregate: 8 int32 lanes per step. The state sum widens each half
// to int64 lanes (exact — no overflow below 2^63), the range check ORs a
// per-lane out-of-bounds mask into a sticky accumulator, and each match
// target keeps 8 int32 lane counters (cmpeq yields -1 per matching lane;
// subtracting accumulates +1). The histogram itself stays scalar over the
// already-loaded block — 8 dependent memory increments don't vectorize,
// and the loads are the expensive part. Everything is integer arithmetic,
// so the result is bit-identical to the portable kernel by construction.
__attribute__((target("avx2"))) void AggregateAvx2(const int* data,
                                                   std::size_t n,
                                                   const AggregateSpec& spec,
                                                   AggregateStats* stats) {
  const int k = static_cast<int>(spec.k);
  std::int64_t* counts = stats->counts;
  std::int64_t* matches = stats->match_counts;
  const std::size_t num_match = spec.match_states.size();

  __m256i sum_lo = _mm256_setzero_si256();
  __m256i sum_hi = _mm256_setzero_si256();
  __m256i oor_acc = _mm256_setzero_si256();
  const __m256i zero = _mm256_setzero_si256();
  const __m256i kvec = _mm256_set1_epi32(k);
  // Per-target 8-lane match counters (int32; safe for n < 2^31 per lane,
  // far beyond any record this engine serves).
  __m256i match_acc[8];
  const std::size_t vec_match = num_match <= 8 ? num_match : 8;
  __m256i match_target[8];
  for (std::size_t m = 0; m < vec_match; ++m) {
    match_acc[m] = _mm256_setzero_si256();
    match_target[m] = _mm256_set1_epi32(spec.match_states[m]);
  }

  std::size_t t = 0;
  for (; t + 8 <= n; t += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + t));
    // Widen to 2x4 int64 lanes and accumulate the sum exactly.
    sum_lo = _mm256_add_epi64(
        sum_lo, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v)));
    sum_hi = _mm256_add_epi64(
        sum_hi, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(v, 1)));
    if (k > 0) {
      // out-of-range lane = (v < 0) | (v >= k).
      const __m256i neg = _mm256_cmpgt_epi32(zero, v);
      const __m256i high = _mm256_cmpgt_epi32(kvec, v);  // v < k per lane
      oor_acc = _mm256_or_si256(
          oor_acc, _mm256_or_si256(neg, _mm256_andnot_si256(high, _mm256_set1_epi32(-1))));
      // Histogram over the in-register block, scalar increments.
      for (int lane = 0; lane < 8; ++lane) {
        const int s = data[t + lane];
        if (s >= 0 && s < k) ++counts[s];
      }
    }
    for (std::size_t m = 0; m < vec_match; ++m) {
      match_acc[m] = _mm256_sub_epi32(match_acc[m],
                                      _mm256_cmpeq_epi32(v, match_target[m]));
    }
    for (std::size_t m = vec_match; m < num_match; ++m) {
      const int target = spec.match_states[m];
      for (int lane = 0; lane < 8; ++lane) {
        matches[m] += (data[t + lane] == target) ? 1 : 0;
      }
    }
  }

  // Horizontal reductions (integer adds — order-free).
  alignas(32) std::int64_t lanes64[4];
  std::int64_t sum = 0;
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes64), sum_lo);
  sum += lanes64[0] + lanes64[1] + lanes64[2] + lanes64[3];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes64), sum_hi);
  sum += lanes64[0] + lanes64[1] + lanes64[2] + lanes64[3];
  bool oor = _mm256_movemask_epi8(oor_acc) != 0;
  for (std::size_t m = 0; m < vec_match; ++m) {
    alignas(32) std::int32_t lanes32[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes32), match_acc[m]);
    for (int lane = 0; lane < 8; ++lane) matches[m] += lanes32[lane];
  }

  // Scalar tail.
  for (; t < n; ++t) {
    const int v = data[t];
    sum += v;
    if (k > 0) {
      if (v >= 0 && v < k) {
        ++counts[v];
      } else {
        oor = true;
      }
    }
    for (std::size_t m = 0; m < num_match; ++m) {
      matches[m] += (v == spec.match_states[m]) ? 1 : 0;
    }
  }

  stats->sum = sum;
  stats->out_of_range = oor;
}

__attribute__((target("avx2"))) void ClipScalesAvx2(const double* lipschitz,
                                                    const double* sigmas,
                                                    std::size_t n,
                                                    double* scales) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(scales + i, _mm256_mul_pd(_mm256_loadu_pd(lipschitz + i),
                                               _mm256_loadu_pd(sigmas + i)));
  }
  for (; i < n; ++i) scales[i] = lipschitz[i] * sigmas[i];
}
#endif  // PF_SIMD_X86

}  // namespace

void AggregateStates(const int* data, std::size_t n, const AggregateSpec& spec,
                     AggregateStats* stats) {
  assert(spec.k == 0 || stats->counts != nullptr);
  assert(spec.match_states.empty() || stats->match_counts != nullptr);
  for (std::size_t i = 0; i < spec.k; ++i) stats->counts[i] = 0;
  for (std::size_t m = 0; m < spec.match_states.size(); ++m) {
    stats->match_counts[m] = 0;
  }
  stats->sum = 0;
  stats->out_of_range = false;
  if (n == 0) return;
#ifdef PF_SIMD_X86
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    AggregateAvx2(data, n, spec, stats);
    return;
  }
#endif
  AggregatePortable(data, n, spec, stats);
}

void ClipScales(const double* lipschitz, const double* sigmas, std::size_t n,
                double* scales) {
#ifdef PF_SIMD_X86
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    ClipScalesAvx2(lipschitz, sigmas, n, scales);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) scales[i] = lipschitz[i] * sigmas[i];
}

namespace {

// Philox4x32 round multipliers and Weyl key increments (Salmon et al.,
// SC'11; the Random123 reference constants).
constexpr std::uint32_t kPhiloxM0 = 0xD2511F53u;
constexpr std::uint32_t kPhiloxM1 = 0xCD9E8D57u;
constexpr std::uint32_t kPhiloxW0 = 0x9E3779B9u;
constexpr std::uint32_t kPhiloxW1 = 0xBB67AE85u;
constexpr int kPhiloxRounds = 10;

inline std::uint64_t PhiloxWord(std::uint32_t lo, std::uint32_t hi) {
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

}  // namespace

PhiloxBlock Philox4x32(PhiloxBlock ctr, PhiloxKey key) {
  for (int round = 0; round < kPhiloxRounds; ++round) {
    if (round > 0) {
      key[0] += kPhiloxW0;
      key[1] += kPhiloxW1;
    }
    const std::uint64_t p0 = static_cast<std::uint64_t>(kPhiloxM0) * ctr[0];
    const std::uint64_t p1 = static_cast<std::uint64_t>(kPhiloxM1) * ctr[2];
    ctr = {static_cast<std::uint32_t>(p1 >> 32) ^ ctr[1] ^ key[0],
           static_cast<std::uint32_t>(p1),
           static_cast<std::uint32_t>(p0 >> 32) ^ ctr[3] ^ key[1],
           static_cast<std::uint32_t>(p0)};
  }
  return ctr;
}

void AddTicketLaplaceNoise(double* values, std::size_t n, double scale,
                           std::uint64_t stream_key) {
  const PhiloxKey key = {static_cast<std::uint32_t>(stream_key),
                         static_cast<std::uint32_t>(stream_key >> 32)};
  for (std::size_t j = 0; j < n; j += 2) {
    const std::uint64_t block = j / 2;
    const PhiloxBlock out = Philox4x32(
        {static_cast<std::uint32_t>(block),
         static_cast<std::uint32_t>(block >> 32), 0u, 0u},
        key);
    values[j] += LaplaceInverseCdf(
        OpenUnitFromBits(PhiloxWord(out[0], out[1])), scale);
    if (j + 1 < n) {
      values[j + 1] += LaplaceInverseCdf(
          OpenUnitFromBits(PhiloxWord(out[2], out[3])), scale);
    }
  }
}

void BatchLaplaceNoise(double* values, const std::size_t* offsets,
                       const double* scales, const std::uint64_t* seeds,
                       std::size_t rows) {
  for (std::size_t r = 0; r < rows; ++r) {
    AddTicketLaplaceNoise(values + offsets[r], offsets[r + 1] - offsets[r],
                          scales[r], seeds[r]);
  }
}

}  // namespace pf
