#include "util/simd.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <vector>

#include "util/rng.hpp"

// ISA gating: WAKEUP_SIMD (CMake option) compiles the vector tables in;
// which one runs is still a runtime decision (cpuid on x86-64: AVX-512F/DQ,
// with BW and VBMI for the quantile's byte kernel, then AVX2; always-on
// NEON on arm64).  Without the option only the scalar table exists and
// every query resolves to it.
#if defined(WAKEUP_SIMD)
#if (defined(__x86_64__) || defined(__amd64__)) && (defined(__GNUC__) || defined(__clang__))
#define WAKEUP_SIMD_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)  // A64 only: the kernels use vaddvq_u8 (no AArch32 equivalent)
#define WAKEUP_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace wakeup::util::simd {

namespace {

// ------------------------------------------------------------- scalar --

void or_accumulate_scalar(std::uint64_t* any, std::uint64_t* multi, const std::uint64_t* row,
                          std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) {
    multi[w] |= any[w] & row[w];
    any[w] |= row[w];
  }
}

void masked_popcount_pair_scalar(const std::uint64_t* any, const std::uint64_t* multi,
                                 const std::uint64_t* mask, std::size_t words,
                                 std::uint64_t* silences, std::uint64_t* collisions) {
  std::uint64_t sil = 0;
  std::uint64_t col = 0;
  for (std::size_t w = 0; w < words; ++w) {
    sil += static_cast<std::uint64_t>(std::popcount(~any[w] & mask[w]));
    col += static_cast<std::uint64_t>(std::popcount(multi[w] & mask[w]));
  }
  *silences += sil;
  *collisions += col;
}

/// hash_combine(a, b) = mix64(a + G + (b ^ (a << 6) ^ (a >> 2))): the
/// terms in a alone are per-slot, so they are formed once per window and
/// each station bit is one xor, one add and one mix64.
void hash_below_scalar(const std::uint64_t* prefix, const std::uint64_t* bound,
                       const std::uint64_t* keys, std::size_t count, std::uint64_t* out) {
  std::uint64_t base[64];
  std::uint64_t spread[64];
  for (unsigned j = 0; j < 64; ++j) {
    base[j] = prefix[j] + util::kCombineAdd;
    spread[j] = (prefix[j] << 6) ^ (prefix[j] >> 2);
  }
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t word = 0;
    for (unsigned j = 0; j < 64; ++j) {
      const std::uint64_t h = util::mix64(base[j] + (keys[i] ^ spread[j]));
      word |= static_cast<std::uint64_t>(h < bound[j]) << j;
    }
    out[i] = word;
  }
}

/// Lane l of eight, resumed from the lanes' state layout.
util::Xoshiro256ss resume_lane(const std::uint64_t* state, std::size_t l) {
  return util::Xoshiro256ss({state[l], state[8 + l], state[16 + l], state[24 + l]});
}

void suspend_lane(const util::Xoshiro256ss& lane, std::uint64_t* state, std::size_t l) {
  for (std::size_t w = 0; w < 4; ++w) state[8 * w + l] = lane.state()[w];
}

/// Rng::uniform's multiply: the index ⌊x·n / 2⁶⁴⌋, and into *flagged
/// whether the low word is below n (a draw uniform may reject).
inline std::size_t draw_index(util::Xoshiro256ss& lane, std::uint64_t n, std::uint64_t* flagged) {
  const __uint128_t m = static_cast<__uint128_t>(lane.next()) * n;
  *flagged |= static_cast<std::uint64_t>(static_cast<std::uint64_t>(m) < n);
  return static_cast<std::size_t>(m >> 64);
}

/// Eight Xoshiro256ss lanes, two at a time so that their steps overlap and
/// each pair's states and sums stay in registers.
template <std::size_t K>
bool resampled_means_pairs(std::uint64_t* state, const double* const* values, std::size_t n,
                           std::size_t steps, double* const* means) {
  const auto size = static_cast<double>(n);
  std::uint64_t flagged = 0;
  for (std::size_t l = 0; l < 8; l += 2) {
    util::Xoshiro256ss a = resume_lane(state, l);
    util::Xoshiro256ss b = resume_lane(state, l + 1);
    for (std::size_t step = 0; step < steps; ++step) {
      std::array<double, K> sum_a{};
      std::array<double, K> sum_b{};
      for (std::size_t d = 0; d < n; ++d) {
        const std::size_t ja = draw_index(a, n, &flagged);
        const std::size_t jb = draw_index(b, n, &flagged);
        for (std::size_t k = 0; k < K; ++k) {
          sum_a[k] += values[k][ja];
          sum_b[k] += values[k][jb];
        }
      }
      for (std::size_t k = 0; k < K; ++k) {
        means[k][l * steps + step] = sum_a[k] / size;
        means[k][(l + 1) * steps + step] = sum_b[k] / size;
      }
    }
    suspend_lane(a, state, l);
    suspend_lane(b, state, l + 1);
  }
  return flagged != 0;
}

bool resampled_means_scalar(std::uint64_t* state, const double* const* values,
                            std::size_t samples, std::size_t n, std::size_t steps,
                            double* const* means) {
  return samples == 1 ? resampled_means_pairs<1>(state, values, n, steps, means)
                      : resampled_means_pairs<2>(state, values, n, steps, means);
}

/// The classes at ranks lo and hi of one resample from its per-class draw
/// counts, which it clears: the order statistic at rank k is the first
/// class whose running count exceeds k, i.e. the number of classes whose
/// running count does not.
void rank_classes(std::size_t* count, std::size_t classes, std::size_t rank_lo,
                  std::size_t rank_hi, std::size_t* lo_class, std::size_t* hi_class) {
  std::size_t seen = 0;
  std::size_t lo = 0;
  std::size_t hi = 0;
  for (std::size_t c = 0; c < classes; ++c) {
    seen += count[c];
    count[c] = 0;
    lo += static_cast<std::size_t>(seen <= rank_lo);
    hi += static_cast<std::size_t>(seen <= rank_hi);
  }
  *lo_class = lo;
  *hi_class = hi;
}

/// Two lanes at a time, each counting its draws per tie class.
bool resampled_quantile_scalar(std::uint64_t* state, const std::size_t* class_of,
                               std::size_t classes, std::size_t n, std::size_t rank_lo,
                               std::size_t rank_hi, std::size_t steps, std::size_t* lo_class,
                               std::size_t* hi_class) {
  std::vector<std::size_t> counts(2 * classes);
  std::size_t* const count_a = counts.data();
  std::size_t* const count_b = count_a + classes;
  std::uint64_t flagged = 0;
  for (std::size_t l = 0; l < 8; l += 2) {
    util::Xoshiro256ss a = resume_lane(state, l);
    util::Xoshiro256ss b = resume_lane(state, l + 1);
    for (std::size_t step = 0; step < steps; ++step) {
      for (std::size_t d = 0; d < n; ++d) {
        ++count_a[class_of[draw_index(a, n, &flagged)]];
        ++count_b[class_of[draw_index(b, n, &flagged)]];
      }
      const std::size_t ra = l * steps + step;
      const std::size_t rb = ra + steps;
      rank_classes(count_a, classes, rank_lo, rank_hi, lo_class + ra, hi_class + ra);
      rank_classes(count_b, classes, rank_lo, rank_hi, lo_class + rb, hi_class + rb);
    }
    suspend_lane(a, state, l);
    suspend_lane(b, state, l + 1);
  }
  return flagged != 0;
}

/// One lane at a time: the per-station stream, its coins in integer form.
void bursty_lanes_scalar(std::uint64_t* state, std::uint8_t live, std::uint8_t* on,
                         LaneCoin arrive, LaneCoin flip, std::size_t slots, std::uint8_t* out) {
  const auto lands = [](const LaneCoin& coin, util::Xoshiro256ss& lane) {
    return coin.draws ? lane.next() < coin.threshold : coin.always;
  };
  std::fill(out, out + slots, std::uint8_t{0});
  for (std::size_t l = 0; l < 8; ++l) {
    const auto bit = static_cast<std::uint8_t>(1u << l);
    if ((live & bit) == 0) continue;
    util::Xoshiro256ss lane = resume_lane(state, l);
    bool lane_on = (*on & bit) != 0;
    for (std::size_t t = 0; t < slots; ++t) {
      if (lane_on && lands(arrive, lane)) out[t] |= bit;
      if (lands(flip, lane)) lane_on = !lane_on;
    }
    suspend_lane(lane, state, l);
    *on = static_cast<std::uint8_t>(lane_on ? *on | bit : *on & ~bit);
  }
}

constexpr Kernels kScalar{or_accumulate_scalar,   masked_popcount_pair_scalar,
                          hash_below_scalar,      resampled_means_scalar,
                          resampled_quantile_scalar, bursty_lanes_scalar,
                          "scalar"};

// --------------------------------------------------------------- AVX2 --

#if defined(WAKEUP_SIMD_X86)

__attribute__((target("avx2"))) void or_accumulate_avx2(std::uint64_t* any,
                                                        std::uint64_t* multi,
                                                        const std::uint64_t* row,
                                                        std::size_t words) {
  std::size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(any + w));
    const __m256i m = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(multi + w));
    const __m256i r = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(multi + w),
                        _mm256_or_si256(m, _mm256_and_si256(a, r)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(any + w), _mm256_or_si256(a, r));
  }
  for (; w < words; ++w) {
    multi[w] |= any[w] & row[w];
    any[w] |= row[w];
  }
}

/// Per-byte popcount of a 256-bit lane via the nibble LUT (vpshufb), then
/// horizontal 64-bit sums with vpsadbw.
__attribute__((target("avx2"))) inline __m256i popcount_bytes_avx2(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
                                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_shuffle_epi8(lut, _mm256_and_si256(v, low_mask));
  const __m256i hi = _mm256_shuffle_epi8(
      lut, _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask));
  return _mm256_sad_epu8(_mm256_add_epi8(lo, hi), _mm256_setzero_si256());
}

__attribute__((target("avx2"))) void masked_popcount_pair_avx2(
    const std::uint64_t* any, const std::uint64_t* multi, const std::uint64_t* mask,
    std::size_t words, std::uint64_t* silences, std::uint64_t* collisions) {
  std::size_t w = 0;
  __m256i sil_acc = _mm256_setzero_si256();
  __m256i col_acc = _mm256_setzero_si256();
  for (; w + 4 <= words; w += 4) {
    const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(any + w));
    const __m256i m = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(multi + w));
    const __m256i k = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + w));
    sil_acc = _mm256_add_epi64(sil_acc, popcount_bytes_avx2(_mm256_andnot_si256(a, k)));
    col_acc = _mm256_add_epi64(col_acc, popcount_bytes_avx2(_mm256_and_si256(m, k)));
  }
  std::uint64_t sil = 0;
  std::uint64_t col = 0;
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), sil_acc);
  sil += lanes[0] + lanes[1] + lanes[2] + lanes[3];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), col_acc);
  col += lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; w < words; ++w) {
    sil += static_cast<std::uint64_t>(std::popcount(~any[w] & mask[w]));
    col += static_cast<std::uint64_t>(std::popcount(multi[w] & mask[w]));
  }
  *silences += sil;
  *collisions += col;
}

constexpr Kernels kAvx2{or_accumulate_avx2,     masked_popcount_pair_avx2,
                        hash_below_scalar,      resampled_means_scalar,
                        resampled_quantile_scalar, bursty_lanes_scalar,
                        "avx2"};

// ------------------------------------------------------------ AVX-512 --

// Lane-wise 64-bit shifts through GCC's vector extensions: GCC 12's
// _mm512_slli_epi64/_mm512_srli_epi64 expand through
// _mm512_undefined_epi32() and trip -Wuninitialized; this form compiles
// to the same vpsllq/vpsrlq.
using U64x8 = unsigned long long __attribute__((vector_size(64)));

__attribute__((target("avx512f,avx512dq"))) inline __m512i shl64(__m512i x, unsigned n) {
  return reinterpret_cast<__m512i>(reinterpret_cast<U64x8>(x) << n);
}

__attribute__((target("avx512f,avx512dq"))) inline __m512i shr64(__m512i x, unsigned n) {
  return reinterpret_cast<__m512i>(reinterpret_cast<U64x8>(x) >> n);
}

__attribute__((target("avx512f,avx512dq"))) inline __m512i rotl64(__m512i x, unsigned n) {
  const auto v = reinterpret_cast<U64x8>(x);
  return reinterpret_cast<__m512i>((v << n) | (v >> (64 - n)));  // one vprolq
}

/// The scalar twin eight lanes at a time: each 8-slot group of the window
/// keeps its per-slot terms and bounds in registers across the stations,
/// and one vpmullq pair mixes eight station bits.
__attribute__((target("avx512f,avx512dq"))) void hash_below_avx512(
    const std::uint64_t* prefix, const std::uint64_t* bound, const std::uint64_t* keys,
    std::size_t count, std::uint64_t* out) {
  __m512i base[8];
  __m512i spread[8];
  __m512i limit[8];
  for (unsigned g = 0; g < 8; ++g) {
    const __m512i a = _mm512_loadu_si512(prefix + 8 * g);
    base[g] = _mm512_add_epi64(a, _mm512_set1_epi64(static_cast<long long>(util::kCombineAdd)));
    spread[g] = _mm512_xor_si512(shl64(a, 6), shr64(a, 2));
    limit[g] = _mm512_loadu_si512(bound + 8 * g);
  }
  const __m512i mul1 = _mm512_set1_epi64(static_cast<long long>(util::kMix64Mul1));
  const __m512i mul2 = _mm512_set1_epi64(static_cast<long long>(util::kMix64Mul2));
  for (std::size_t i = 0; i < count; ++i) {
    const __m512i key = _mm512_set1_epi64(static_cast<long long>(keys[i]));
    std::uint64_t word = 0;
    for (unsigned g = 0; g < 8; ++g) {
      __m512i x = _mm512_add_epi64(base[g], _mm512_xor_si512(key, spread[g]));
      x = _mm512_xor_si512(x, shr64(x, 30));
      x = _mm512_mullo_epi64(x, mul1);
      x = _mm512_xor_si512(x, shr64(x, 27));
      x = _mm512_mullo_epi64(x, mul2);
      x = _mm512_xor_si512(x, shr64(x, 31));
      word |= static_cast<std::uint64_t>(_mm512_cmplt_epu64_mask(x, limit[g])) << (8 * g);
    }
    out[i] = word;
  }
}

/// Eight xoshiro256** states, lane l in 64-bit element l of each word's
/// register.
struct XoshiroLanes {
  __m512i s0, s1, s2, s3;
};

__attribute__((target("avx512f,avx512dq"))) inline XoshiroLanes load_lanes(
    const std::uint64_t* state) {
  return {_mm512_loadu_si512(state), _mm512_loadu_si512(state + 8),
          _mm512_loadu_si512(state + 16), _mm512_loadu_si512(state + 24)};
}

__attribute__((target("avx512f,avx512dq"))) inline void store_lanes(const XoshiroLanes& s,
                                                                    std::uint64_t* state) {
  _mm512_storeu_si512(state, s.s0);
  _mm512_storeu_si512(state + 8, s.s1);
  _mm512_storeu_si512(state + 16, s.s2);
  _mm512_storeu_si512(state + 24, s.s3);
}

/// Xoshiro256ss::next on every lane: returns the eight outputs and steps
/// the states.  The multiplies by 5 and 9 are shift-adds.
__attribute__((target("avx512f,avx512dq"))) inline __m512i next_lanes(XoshiroLanes& s) {
  const __m512i r = rotl64(_mm512_add_epi64(s.s1, shl64(s.s1, 2)), 7);  // rotl(s1 * 5, 7)
  const __m512i x = _mm512_add_epi64(r, shl64(r, 3));                    // r * 9
  const __m512i t = shl64(s.s1, 17);
  s.s2 = _mm512_xor_si512(s.s2, s.s0);
  s.s3 = _mm512_xor_si512(s.s3, s.s1);
  s.s1 = _mm512_xor_si512(s.s1, s.s2);
  s.s0 = _mm512_xor_si512(s.s0, s.s3);
  s.s2 = _mm512_xor_si512(s.s2, t);
  s.s3 = rotl64(s.s3, 45);
  return x;
}

/// next_lanes, each output x reduced (n in every lane, n < 2³²) to the
/// index ⌊x·n / 2⁶⁴⌋ and its lane set in *flagged when the low word
/// x·n mod 2⁶⁴ is below n, as draw_index does.  With x = xh·2³² + xl and A = xh·n (one vpmuludq), the
/// index is (A + ⌊xl·n / 2³²⌋) >> 32; as ⌊xl·n / 2³²⌋ < n, that is A >> 32
/// unless A's low half a is at least 2³² − n, and the low word
/// (a·2³² + xl·n) mod 2⁶⁴ can be below n only then or when a = 0.  A round
/// where some lane has such an a (≈ (n + 1)/2³² per lane) is recomputed
/// with the second product, xl·n.  The maskz forms give each intrinsic an
/// explicit source, which GCC 12's unmasked ones lack (-Wuninitialized).
__attribute__((target("avx512f,avx512dq"))) inline __m512i draw_indices(
    XoshiroLanes& s, __m512i n, __mmask8* flagged) {
  constexpr __mmask8 kAll = 0xff;
  const __m512i x = next_lanes(s);
  const __m512i high_product = _mm512_maskz_mul_epu32(kAll, shr64(x, 32), n);
  // a = 0 or a >= 2³² − n  ⟺  (a − 1) mod 2³² >= 2³² − 1 − n = ~n, in each
  // lane's low 32-bit element.
  const __m512i all_ones = _mm512_set1_epi32(-1);
  const __mmask16 rare = _mm512_mask_cmpge_epu32_mask(
      0x5555, _mm512_add_epi32(high_product, all_ones), _mm512_xor_si512(n, all_ones));
  if (__builtin_expect(rare == 0, 1)) return shr64(high_product, 32);
  const __m512i low_product = _mm512_maskz_mul_epu32(kAll, x, n);
  *flagged |= _mm512_cmplt_epu64_mask(_mm512_add_epi64(low_product, shl64(high_product, 32)), n);
  return shr64(_mm512_add_epi64(high_product, shr64(low_product, 32)), 32);
}

/// Where lane l writes its resamples: l·steps.
__attribute__((target("avx512f,avx512dq"))) inline __m512i lane_starts(std::size_t steps) {
  const auto l = static_cast<long long>(steps);
  return _mm512_set_epi64(7 * l, 6 * l, 5 * l, 4 * l, 3 * l, 2 * l, l, 0);
}

/// The scalar twin on draw_indices: each round gathers every sample's
/// eight values (vgatherqpd) and adds them into its sum register, lane l's
/// sum in element l, so each lane adds in draw order.
template <std::size_t K>
__attribute__((target("avx512f,avx512dq"))) bool resampled_means_lanes(
    std::uint64_t* state, const double* const* values, std::size_t n, std::size_t steps,
    double* const* means) {
  constexpr __mmask8 kAll = 0xff;
  XoshiroLanes s = load_lanes(state);
  const __m512i bound = _mm512_set1_epi64(static_cast<long long>(n));
  const __m512d size = _mm512_set1_pd(static_cast<double>(n));
  const __m512i starts = lane_starts(steps);
  __mmask8 flagged = 0;
  for (std::size_t step = 0; step < steps; ++step) {
    __m512d sum[K];
    for (std::size_t k = 0; k < K; ++k) sum[k] = _mm512_setzero_pd();
    for (std::size_t d = 0; d < n; ++d) {
      const __m512i j = draw_indices(s, bound, &flagged);
      for (std::size_t k = 0; k < K; ++k) {
        sum[k] = _mm512_add_pd(
            sum[k], _mm512_mask_i64gather_pd(_mm512_setzero_pd(), kAll, j, values[k], 8));
      }
    }
    const __m512i at = _mm512_add_epi64(starts, _mm512_set1_epi64(static_cast<long long>(step)));
    for (std::size_t k = 0; k < K; ++k) {
      _mm512_i64scatter_pd(means[k], at, _mm512_div_pd(sum[k], size), 8);
    }
  }
  store_lanes(s, state);
  return flagged != 0;
}

__attribute__((target("avx512f,avx512dq"))) bool resampled_means_avx512(
    std::uint64_t* state, const double* const* values, std::size_t samples, std::size_t n,
    std::size_t steps, double* const* means) {
  return samples == 1 ? resampled_means_lanes<1>(state, values, n, steps, means)
                      : resampled_means_lanes<2>(state, values, n, steps, means);
}

/// The scalar twin on draw_indices, for n <= 64 and <= 64 classes; other
/// samples run the twin.  The class table fits one register: each round,
/// vpermb looks up every lane's class byte and the byte is shifted into the
/// lane's element of the current register, eight rounds to a register, so
/// a resample fills ⌈n/8⌉ registers; the bytes of unfilled rounds stay
/// 0xff, above every class.  After each step of eight resamples, a binary
/// search finds both ranks' classes, interleaved: for each bit from 32
/// down, it counts each lane's bytes at most the candidate class (vpcmpub,
/// a masked vpaddb per register, then vpsadbw), and keeps the bit in the
/// lanes whose count is at most the rank.  That finds the number of
/// classes whose running count is at most the rank, as rank_classes does.
/// Each lane's answer is held in all eight bytes of its element, so the
/// candidate is one vpaddb away.
__attribute__((target("avx512f,avx512dq,avx512bw,avx512vbmi"))) bool resampled_quantile_avx512(
    std::uint64_t* state, const std::size_t* class_of, std::size_t classes, std::size_t n,
    std::size_t rank_lo, std::size_t rank_hi, std::size_t steps, std::size_t* lo_class,
    std::size_t* hi_class) {
  if (n > 64 || classes > 64) {
    return resampled_quantile_scalar(state, class_of, classes, n, rank_lo, rank_hi, steps,
                                     lo_class, hi_class);
  }
  constexpr __mmask64 kFirstBytes = 0x0101010101010101ULL;
  alignas(64) std::uint8_t class_bytes[64] = {};
  for (std::size_t i = 0; i < n; ++i) class_bytes[i] = static_cast<std::uint8_t>(class_of[i]);
  const __m512i table = _mm512_load_si512(class_bytes);
  XoshiroLanes s = load_lanes(state);
  const __m512i bound = _mm512_set1_epi64(static_cast<long long>(n));
  const __m512i lo_rank = _mm512_set1_epi64(static_cast<long long>(rank_lo));
  const __m512i hi_rank = _mm512_set1_epi64(static_cast<long long>(rank_hi));
  const __m512i zero = _mm512_setzero_si512();
  const __m512i one = _mm512_set1_epi8(1);
  const __m512i starts = lane_starts(steps);
  const std::size_t registers = (n + 7) / 8;
  __mmask8 flagged = 0;
  for (std::size_t step = 0; step < steps; ++step) {
    __m512i packed[8];
    for (std::size_t r = 0; r < registers; ++r) {
      __m512i bytes = _mm512_set1_epi8(-1);
      for (std::size_t d = 8 * r; d < std::min(n, 8 * r + 8); ++d) {
        bytes = _mm512_mask_permutexvar_epi8(shl64(bytes, 8), kFirstBytes,
                                             draw_indices(s, bound, &flagged), table);
      }
      packed[r] = bytes;
    }
    __m512i lo = zero;
    __m512i hi = zero;
    for (int bit = 32; bit > 0; bit >>= 1) {
      const __m512i below = _mm512_set1_epi8(static_cast<char>(bit - 1));
      const __m512i lo_candidate = _mm512_add_epi8(lo, below);
      const __m512i hi_candidate = _mm512_add_epi8(hi, below);
      __m512i lo_count = zero;
      __m512i hi_count = zero;
      for (std::size_t r = 0; r < registers; ++r) {
        lo_count = _mm512_mask_add_epi8(lo_count, _mm512_cmple_epu8_mask(packed[r], lo_candidate),
                                        lo_count, one);
        hi_count = _mm512_mask_add_epi8(hi_count, _mm512_cmple_epu8_mask(packed[r], hi_candidate),
                                        hi_count, one);
      }
      const __m512i bit_bytes = _mm512_set1_epi8(static_cast<char>(bit));
      lo = _mm512_mask_add_epi64(lo, _mm512_cmple_epu64_mask(_mm512_sad_epu8(lo_count, zero), lo_rank),
                                 lo, bit_bytes);
      hi = _mm512_mask_add_epi64(hi, _mm512_cmple_epu64_mask(_mm512_sad_epu8(hi_count, zero), hi_rank),
                                 hi, bit_bytes);
    }
    const __m512i at = _mm512_add_epi64(starts, _mm512_set1_epi64(static_cast<long long>(step)));
    const __m512i low_byte = _mm512_set1_epi64(0xff);
    _mm512_i64scatter_epi64(lo_class, at, _mm512_and_si512(lo, low_byte), 8);
    _mm512_i64scatter_epi64(hi_class, at, _mm512_and_si512(hi, low_byte), 8);
  }
  store_lanes(s, state);
  return flagged != 0;
}

/// next_lanes on the lanes in `mask`; the others keep their states, and
/// their outputs are not draws.
__attribute__((target("avx512f,avx512dq"))) inline __m512i next_lanes_masked(XoshiroLanes& s,
                                                                            __mmask8 mask) {
  XoshiroLanes stepped = s;
  const __m512i x = next_lanes(stepped);
  s.s0 = _mm512_mask_mov_epi64(s.s0, mask, stepped.s0);
  s.s1 = _mm512_mask_mov_epi64(s.s1, mask, stepped.s1);
  s.s2 = _mm512_mask_mov_epi64(s.s2, mask, stepped.s2);
  s.s3 = _mm512_mask_mov_epi64(s.s3, mask, stepped.s3);
  return x;
}

/// The scalar twin with the lanes' on/off states in one mask register:
/// each slot is one masked step for the arrival coins of the lanes that
/// are on and one for every live lane's flip coin.
__attribute__((target("avx512f,avx512dq"))) void bursty_lanes_avx512(
    std::uint64_t* state, std::uint8_t live, std::uint8_t* on, LaneCoin arrive, LaneCoin flip,
    std::size_t slots, std::uint8_t* out) {
  XoshiroLanes s = load_lanes(state);
  const __m512i arrive_below = _mm512_set1_epi64(static_cast<long long>(arrive.threshold));
  const __m512i flip_below = _mm512_set1_epi64(static_cast<long long>(flip.threshold));
  const __mmask8 flip_always = flip.always ? live : 0;
  __mmask8 lanes_on = *on & live;
  for (std::size_t t = 0; t < slots; ++t) {
    out[t] = arrive.draws ? _mm512_mask_cmplt_epu64_mask(lanes_on, next_lanes_masked(s, lanes_on),
                                                         arrive_below)
                          : (arrive.always ? lanes_on : 0);
    lanes_on ^= flip.draws
                    ? _mm512_mask_cmplt_epu64_mask(live, next_lanes_masked(s, live), flip_below)
                    : flip_always;
  }
  store_lanes(s, state);
  *on = static_cast<std::uint8_t>((*on & ~live) | lanes_on);
}

constexpr Kernels kAvx512{or_accumulate_avx2,     masked_popcount_pair_avx2,
                          hash_below_avx512,      resampled_means_avx512,
                          resampled_quantile_avx512, bursty_lanes_avx512,
                          "avx512"};

/// The rung on a host with AVX-512F/DQ but not BW and VBMI, which the
/// quantile's byte kernel needs: that entry runs its scalar twin.
constexpr Kernels kAvx512FDq{or_accumulate_avx2,     masked_popcount_pair_avx2,
                             hash_below_avx512,      resampled_means_avx512,
                             resampled_quantile_scalar, bursty_lanes_avx512,
                             "avx512"};

#endif  // WAKEUP_SIMD_X86

// --------------------------------------------------------------- NEON --

#if defined(WAKEUP_SIMD_NEON)

void or_accumulate_neon(std::uint64_t* any, std::uint64_t* multi, const std::uint64_t* row,
                        std::size_t words) {
  std::size_t w = 0;
  for (; w + 2 <= words; w += 2) {
    const uint64x2_t a = vld1q_u64(any + w);
    const uint64x2_t m = vld1q_u64(multi + w);
    const uint64x2_t r = vld1q_u64(row + w);
    vst1q_u64(multi + w, vorrq_u64(m, vandq_u64(a, r)));
    vst1q_u64(any + w, vorrq_u64(a, r));
  }
  for (; w < words; ++w) {
    multi[w] |= any[w] & row[w];
    any[w] |= row[w];
  }
}

void masked_popcount_pair_neon(const std::uint64_t* any, const std::uint64_t* multi,
                               const std::uint64_t* mask, std::size_t words,
                               std::uint64_t* silences, std::uint64_t* collisions) {
  std::uint64_t sil = 0;
  std::uint64_t col = 0;
  std::size_t w = 0;
  for (; w + 2 <= words; w += 2) {
    const uint64x2_t a = vld1q_u64(any + w);
    const uint64x2_t m = vld1q_u64(multi + w);
    const uint64x2_t k = vld1q_u64(mask + w);
    const uint8x16_t sil_bytes = vcntq_u8(
        vreinterpretq_u8_u64(vandq_u64(vreinterpretq_u64_u8(vmvnq_u8(vreinterpretq_u8_u64(a))),
                                       k)));
    const uint8x16_t col_bytes = vcntq_u8(vreinterpretq_u8_u64(vandq_u64(m, k)));
    sil += vaddvq_u8(sil_bytes);
    col += vaddvq_u8(col_bytes);
  }
  for (; w < words; ++w) {
    sil += static_cast<std::uint64_t>(std::popcount(~any[w] & mask[w]));
    col += static_cast<std::uint64_t>(std::popcount(multi[w] & mask[w]));
  }
  *silences += sil;
  *collisions += col;
}

constexpr Kernels kNeon{or_accumulate_neon,     masked_popcount_pair_neon,
                        hash_below_scalar,      resampled_means_scalar,
                        resampled_quantile_scalar, bursty_lanes_scalar,
                        "neon"};

#endif  // WAKEUP_SIMD_NEON

// ----------------------------------------------------------- dispatch --

const Kernels& best_supported() noexcept {
#if defined(WAKEUP_SIMD_X86)
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq")) {
    return __builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("avx512vbmi")
               ? kAvx512
               : kAvx512FDq;
  }
  if (__builtin_cpu_supports("avx2")) return kAvx2;
#endif
#if defined(WAKEUP_SIMD_NEON)
  return kNeon;
#endif
  return kScalar;
}

std::atomic<const Kernels*>& table() noexcept {
  static std::atomic<const Kernels*> active = [] {
    const char* env = std::getenv("WAKEUP_FORCE_SCALAR");
    const bool forced = env != nullptr && env[0] != '\0' && env[0] != '0';
    return forced ? &kScalar : &best_supported();
  }();
  return active;
}

}  // namespace

const Kernels& active() noexcept { return *table().load(std::memory_order_relaxed); }

const char* active_name() noexcept { return active().name; }

void set_force_scalar(bool force) noexcept {
  table().store(force ? &kScalar : &best_supported(), std::memory_order_relaxed);
}

std::size_t first_set_below(const std::uint64_t* words, std::size_t n_words,
                            std::size_t limit_bits) noexcept {
  const std::size_t scan = n_words < (limit_bits + 63) / 64 ? n_words : (limit_bits + 63) / 64;
  for (std::size_t w = 0; w < scan; ++w) {
    if (words[w] == 0) continue;
    const std::size_t bit = 64 * w + static_cast<std::size_t>(std::countr_zero(words[w]));
    return bit < limit_bits ? bit : kNoBit;
  }
  return kNoBit;
}

}  // namespace wakeup::util::simd
