#include "util/simd.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>

#include "util/rng.hpp"

// ISA gating: WAKEUP_SIMD (CMake option) compiles the vector tables in;
// which one runs is still a runtime decision (cpuid on x86-64: AVX-512F/DQ,
// then AVX2; always-on NEON on arm64).  Without the option only the scalar table exists and
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

/// Eight Xoshiro256ss lanes, two at a time so that their steps overlap and
/// each pair's states stay in registers; the reduction is Rng::uniform's
/// multiply.
bool draw_lanes_scalar(std::uint64_t* state, std::uint64_t bound, std::size_t rounds,
                       std::uint32_t* out) {
  const auto resume = [&](std::size_t l) {
    return util::Xoshiro256ss({state[l], state[8 + l], state[16 + l], state[24 + l]});
  };
  std::uint64_t flagged = 0;
  for (std::size_t l = 0; l < 8; l += 2) {
    util::Xoshiro256ss a = resume(l);
    util::Xoshiro256ss b = resume(l + 1);
    for (std::size_t d = 0; d < rounds; ++d) {
      const __uint128_t ma = static_cast<__uint128_t>(a.next()) * bound;
      const __uint128_t mb = static_cast<__uint128_t>(b.next()) * bound;
      out[8 * d + l] = static_cast<std::uint32_t>(ma >> 64);
      out[8 * d + l + 1] = static_cast<std::uint32_t>(mb >> 64);
      flagged |= static_cast<std::uint64_t>(static_cast<std::uint64_t>(ma) < bound) |
                 static_cast<std::uint64_t>(static_cast<std::uint64_t>(mb) < bound);
    }
    for (std::size_t w = 0; w < 4; ++w) {
      state[8 * w + l] = a.state()[w];
      state[8 * w + l + 1] = b.state()[w];
    }
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
    util::Xoshiro256ss lane({state[l], state[8 + l], state[16 + l], state[24 + l]});
    bool lane_on = (*on & bit) != 0;
    for (std::size_t t = 0; t < slots; ++t) {
      if (lane_on && lands(arrive, lane)) out[t] |= bit;
      if (lands(flip, lane)) lane_on = !lane_on;
    }
    for (std::size_t w = 0; w < 4; ++w) state[8 * w + l] = lane.state()[w];
    *on = static_cast<std::uint8_t>(lane_on ? *on | bit : *on & ~bit);
  }
}

constexpr Kernels kScalar{or_accumulate_scalar, masked_popcount_pair_scalar, hash_below_scalar,
                          draw_lanes_scalar,    bursty_lanes_scalar,         "scalar"};

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

constexpr Kernels kAvx2{or_accumulate_avx2, masked_popcount_pair_avx2, hash_below_scalar,
                        draw_lanes_scalar,  bursty_lanes_scalar,       "avx2"};

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

/// The scalar twin on next_lanes.  For bound < 2³², x·bound comes
/// from two vpmuludq products of x's 32-bit halves: with x = xh·2³² + xl,
/// the high word is (xh·bound + ⌊xl·bound / 2³²⌋) >> 32, a sum that stays
/// below 2⁶⁴, and the low word is xl·bound + (xh·bound << 32) mod 2⁶⁴.  The
/// maskz forms give each intrinsic an explicit source, which GCC 12's
/// unmasked ones lack (-Wuninitialized).
__attribute__((target("avx512f,avx512dq"))) bool draw_lanes_avx512(std::uint64_t* state,
                                                                   std::uint64_t bound,
                                                                   std::size_t rounds,
                                                                   std::uint32_t* out) {
  XoshiroLanes s = load_lanes(state);
  const __m512i n = _mm512_set1_epi64(static_cast<long long>(bound));
  constexpr __mmask8 kAll = 0xff;
  __mmask8 flagged = 0;
  for (std::size_t d = 0; d < rounds; ++d) {
    const __m512i x = next_lanes(s);
    const __m512i low_product = _mm512_maskz_mul_epu32(kAll, x, n);
    const __m512i high_product = _mm512_maskz_mul_epu32(kAll, shr64(x, 32), n);
    const __m512i j = shr64(_mm512_add_epi64(high_product, shr64(low_product, 32)), 32);
    const __m512i low = _mm512_add_epi64(low_product, shl64(high_product, 32));
    flagged |= _mm512_cmplt_epu64_mask(low, n);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8 * d),
                        _mm512_maskz_cvtepi64_epi32(kAll, j));
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

constexpr Kernels kAvx512{or_accumulate_avx2, masked_popcount_pair_avx2, hash_below_avx512,
                          draw_lanes_avx512,  bursty_lanes_avx512,       "avx512"};

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

constexpr Kernels kNeon{or_accumulate_neon, masked_popcount_pair_neon, hash_below_scalar,
                        draw_lanes_scalar,  bursty_lanes_scalar,       "neon"};

#endif  // WAKEUP_SIMD_NEON

// ----------------------------------------------------------- dispatch --

const Kernels& best_supported() noexcept {
#if defined(WAKEUP_SIMD_X86)
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq")) return kAvx512;
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
