#include "macro/packed_kernels.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

#include "common/int_gemm.hpp"

#if YOLOC_GEMM_AVX2
#include <immintrin.h>
#endif

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(__POPCNT__)
#define YOLOC_POPCNT_DISPATCH 1
#else
#define YOLOC_POPCNT_DISPATCH 0
#endif

#if defined(__GNUC__) || defined(__clang__)
#define YOLOC_ALWAYS_INLINE [[gnu::always_inline]] inline
#else
#define YOLOC_ALWAYS_INLINE inline
#endif

namespace yoloc::detail {
namespace {

/// Row j's weight planes with the fault overlays applied, per weight bit.
YOLOC_ALWAYS_INLINE RowMask faulted_plane(const PackedCountArgs& a, int j,
                                          int b) {
  RowMask wb = a.wbits[static_cast<std::size_t>(j) * a.weight_bits + b];
  if (a.faults != nullptr) {
    const FaultModel::PlaneFaults pf = a.faults->plane(j, b);
    wb.or_with(pf.force_one);
    wb.and_not(pf.force_zero);
  }
  return wb;
}

// The scalar noisy chain: one row at a time, each read through the keyed
// draws and CimArrayModel::read() itself. The reference the vector
// bodies must match, and the fallback on CPUs without AVX2.
YOLOC_ALWAYS_INLINE void noisy_rows_body(const PackedCountArgs& a,
                                         NoisyRows& nr) {
  const FaultModel* faults = a.faults;
  const bool transients = faults != nullptr && faults->has_transients();
  const auto cpc =
      static_cast<std::int64_t>(nr.array->read_chain_consts().counts_per_code);
  std::uint64_t discharge = 0;
  for (int j = 0; j < nr.m; ++j) {
    std::int64_t sums[8] = {};
    std::uint32_t r = 0;
    for (int b = 0; b < a.weight_bits; ++b) {
      const RowMask wb = faulted_plane(a, j, b);
      for (int t = 0; t < a.input_bits; ++t) {
        RowMask wbt = wb;
        if (transients) wbt.xor_with(faults->transient_flips(j, b, t));
        const RowMask xt = a.xbits[t];
        for (int grp = 0; grp < a.groups; ++grp, ++r) {
          const int exact = wbt.count_and3(xt, a.group_masks[grp]);
          const NormalPair z =
              read_normals(nr.key, static_cast<std::uint32_t>(j), r);
          const CimArrayModel::ReadOutcome out =
              nr.array->read(exact, z.cell, z.adc);
          sums[b] += static_cast<std::int64_t>(out.code) << t;
          discharge += out.discharge;
        }
      }
    }
    nr.y[j] = finish_noisy_row(sums, a, cpc, j);
  }
  nr.discharge = discharge;
}

// Noise-free fast path: with both noise sigmas at zero the ADC estimate
// is a pure table lookup on the exact count.
YOLOC_ALWAYS_INLINE void noise_free_rows_body(const PackedCountArgs& a,
                                              NoiseFreeRows& nf) {
  const FaultModel* faults = a.faults;
  const bool transients = faults != nullptr && faults->has_transients();
  std::uint64_t discharge = 0;
  for (int j = 0; j < nf.m; ++j) {
    const RowMask* wrow =
        a.wbits + static_cast<std::size_t>(j) * a.weight_bits;
    double acc = 0.0;
    for (int b = 0; b < a.weight_bits; ++b) {
      RowMask wb = wrow[b];
      AdcDrift drift;
      if (faults != nullptr) {
        const FaultModel::PlaneFaults pf = faults->plane(j, b);
        wb.or_with(pf.force_one);
        wb.and_not(pf.force_zero);
        drift = faults->adc_drift(j, b);
      }
      for (int t = 0; t < a.input_bits; ++t) {
        RowMask wbt = wb;
        if (transients) wbt.xor_with(faults->transient_flips(j, b, t));
        const RowMask xt = a.xbits[t];
        const double cycle_weight =
            nf.bit_cycle_weight[static_cast<std::size_t>(b) * a.input_bits +
                                t];
        for (int grp = 0; grp < a.groups; ++grp) {
          const int exact = wbt.count_and3(xt, a.group_masks[grp]);
          double est = nf.ideal_estimate[exact];
          if (faults != nullptr) {
            est = est * drift.gain + drift.offset_counts;
          }
          acc += est * cycle_weight;
          discharge += nf.ideal_discharge[exact];
        }
      }
    }
    nf.y[j] = static_cast<std::int32_t>(std::llround(acc));
  }
  nf.discharge = discharge;
}

void noisy_rows_plain(const PackedCountArgs& a, NoisyRows& nr) {
  noisy_rows_body(a, nr);
}

void noise_free_rows_plain(const PackedCountArgs& a, NoiseFreeRows& nf) {
  noise_free_rows_body(a, nf);
}

#if YOLOC_POPCNT_DISPATCH
[[gnu::target("popcnt")]] void noisy_rows_popcnt(const PackedCountArgs& a,
                                                  NoisyRows& nr) {
  noisy_rows_body(a, nr);
}

[[gnu::target("popcnt")]] void noise_free_rows_popcnt(const PackedCountArgs& a,
                                                      NoiseFreeRows& nf) {
  noise_free_rows_body(a, nf);
}
#endif

/// Activation columns per block of the plain exact-cost body: the block's
/// activation rows (<= 128 x 256 bytes) stay in L1/L2 while the GEMM
/// walks every output row over them.
constexpr int kExactColBlock = 256;

/// The sum over the k rows and cols <= kExactColBlock columns of
/// popcount(x[i*ldx + c] & window), where `window` is the input_bits mask
/// replicated into every byte. Eight columns share one 64-bit SWAR byte
/// popcount; the per-byte counts (<= 8 per row) are summed in 16-bit
/// lanes, even and odd bytes apart, which holds k up to 8191 rows.
std::uint64_t count_window_pulses(const std::uint8_t* x, std::size_t ldx,
                                  int k, int cols, std::uint64_t window) {
  constexpr std::uint64_t kOnes = 0x5555555555555555ull;
  constexpr std::uint64_t kPairs = 0x3333333333333333ull;
  constexpr std::uint64_t kNibbles = 0x0F0F0F0F0F0F0F0Full;
  constexpr std::uint64_t kLowBytes = 0x00FF00FF00FF00FFull;
  // The lane-to-column mapping below reads byte b of a loaded word as
  // column b, which holds on little-endian hosts; on others the scalar
  // loop at the end counts every column.
  const int words =
      std::endian::native == std::endian::little ? cols / 8 : 0;
  std::array<std::uint64_t, kExactColBlock / 8> even{};
  std::array<std::uint64_t, kExactColBlock / 8> odd{};
  for (int i = 0; i < k; ++i) {
    const std::uint8_t* row = x + static_cast<std::size_t>(i) * ldx;
    for (int wd = 0; wd < words; ++wd) {
      std::uint64_t v;
      std::memcpy(&v, row + 8 * wd, sizeof(v));
      v &= window;
      v -= (v >> 1) & kOnes;
      v = (v & kPairs) + ((v >> 2) & kPairs);
      v = (v + (v >> 4)) & kNibbles;
      even[static_cast<std::size_t>(wd)] += v & kLowBytes;
      odd[static_cast<std::size_t>(wd)] += (v >> 8) & kLowBytes;
    }
  }
  std::uint64_t total = 0;
  for (int wd = 0; wd < words; ++wd) {
    for (int lane = 0; lane < 4; ++lane) {
      total += (even[static_cast<std::size_t>(wd)] >> (16 * lane)) & 0xFFFFu;
      total += (odd[static_cast<std::size_t>(wd)] >> (16 * lane)) & 0xFFFFu;
    }
  }
  const unsigned byte_window = static_cast<unsigned>(window & 0xFFu);
  for (int c = 8 * words; c < cols; ++c) {
    for (int i = 0; i < k; ++i) {
      total += static_cast<std::uint64_t>(std::popcount(
          static_cast<unsigned>(x[static_cast<std::size_t>(i) * ldx + c]) &
          byte_window));
    }
  }
  return total;
}

std::uint64_t exact_tile_plain(const ExactTileArgs& a) {
  const std::uint64_t window = a.window * 0x0101010101010101ull;
  // The block's activations, gathered dense: k x cols, row stride cols.
  thread_local std::vector<std::uint8_t> block;
  block.resize(static_cast<std::size_t>(a.k) * kExactColBlock);
  std::uint64_t pulses = 0;
  for (int c0 = 0; c0 < a.p; c0 += kExactColBlock) {
    const int cols = std::min(kExactColBlock, a.p - c0);
    const ActView xv = a.x.from(0, c0);
    const auto ld = static_cast<std::size_t>(cols);
    for (int i = 0; i < a.k; ++i) {
      const std::uint8_t* src = xv.base + xv.row_off[i];
      std::uint8_t* dst = block.data() + static_cast<std::size_t>(i) * ld;
      for (int c = 0; c < cols; ++c) dst[c] = src[xv.col_off[c]];
    }
    pulses += count_window_pulses(block.data(), ld, a.k, cols, window);
    gemm_s8u8_accumulate(a.w, a.ldw, a.m, a.k, block.data(), ld, cols,
                         a.y + c0, a.ldy);
  }
  return pulses;
}

#if YOLOC_GEMM_AVX2
std::uint64_t exact_tile_avx2(const ExactTileArgs& a) {
  return gemm_s8u8_accumulate_avx2(a.w, a.ldw, a.m, a.k, a.x, a.p, a.y,
                                   a.ldy, a.window);
}
#endif

#if YOLOC_GEMM_AVX2
// The vector read chain, one source (noisy_chain.inc) compiled at two
// widths. Each lane type wraps the intrinsics of one width in the
// operations the chain needs; every one of them rounds exactly as its
// scalar counterpart in keyed_noise.hpp and CimArrayModel::read().

#define YOLOC_AVX2_LANE \
  [[gnu::target("avx2,popcnt"), gnu::always_inline]] static inline
#define YOLOC_AVX512_LANE \
  [[gnu::target("avx512f,avx2,popcnt"), gnu::always_inline]] static inline

/// Four 64-bit lanes per __m256d/__m256i. A lane mask is a compare
/// result, all-ones or zero per lane, which blendv reads by its sign bit.
struct Lanes4 {
  static constexpr int kWidth = 4;
  using D = __m256d;
  using I = __m256i;
  using Mask = __m256d;

  YOLOC_AVX2_LANE I splat(std::uint64_t v) {
    return _mm256_set1_epi64x(static_cast<long long>(v));
  }
  YOLOC_AVX2_LANE D set1(double v) { return _mm256_set1_pd(v); }
  YOLOC_AVX2_LANE I row_ids(int j) {
    return _mm256_set_epi64x(j + 3, j + 2, j + 1, j);
  }
  YOLOC_AVX2_LANE I add64(I a, I b) { return _mm256_add_epi64(a, b); }
  YOLOC_AVX2_LANE I mul32(I a, I b) { return _mm256_mul_epu32(a, b); }
  YOLOC_AVX2_LANE I and_(I a, I b) { return _mm256_and_si256(a, b); }
  YOLOC_AVX2_LANE I or_(I a, I b) { return _mm256_or_si256(a, b); }
  /// a ^ b ^ c
  YOLOC_AVX2_LANE I xor3(I a, I b, I c) {
    return _mm256_xor_si256(_mm256_xor_si256(a, b), c);
  }
  /// (a & b) | c
  YOLOC_AVX2_LANE I and_or(I a, I b, I c) {
    return _mm256_or_si256(_mm256_and_si256(a, b), c);
  }
  /// (a ^ b) & c
  YOLOC_AVX2_LANE I xor_and(I a, I b, I c) {
    return _mm256_and_si256(_mm256_xor_si256(a, b), c);
  }
  template <int kBits>
  YOLOC_AVX2_LANE I srl(I a) {
    return _mm256_srli_epi64(a, kBits);
  }
  template <int kBits>
  YOLOC_AVX2_LANE I sll(I a) {
    return _mm256_slli_epi64(a, kBits);
  }
  YOLOC_AVX2_LANE I sll_var(I a, __m128i count) {
    return _mm256_sll_epi64(a, count);
  }
  YOLOC_AVX2_LANE D as_double(I a) { return _mm256_castsi256_pd(a); }
  YOLOC_AVX2_LANE I as_bits(D a) { return _mm256_castpd_si256(a); }
  YOLOC_AVX2_LANE D add(D a, D b) { return _mm256_add_pd(a, b); }
  YOLOC_AVX2_LANE D sub(D a, D b) { return _mm256_sub_pd(a, b); }
  YOLOC_AVX2_LANE D mul(D a, D b) { return _mm256_mul_pd(a, b); }
  YOLOC_AVX2_LANE D div(D a, D b) { return _mm256_div_pd(a, b); }
  YOLOC_AVX2_LANE D sqrt(D a) { return _mm256_sqrt_pd(a); }
  YOLOC_AVX2_LANE D max(D a, D b) { return _mm256_max_pd(a, b); }
  YOLOC_AVX2_LANE D min(D a, D b) { return _mm256_min_pd(a, b); }
  YOLOC_AVX2_LANE D trunc(D a) {
    return _mm256_round_pd(a, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  }
  YOLOC_AVX2_LANE Mask gt(D a, D b) {
    return _mm256_cmp_pd(a, b, _CMP_GT_OQ);
  }
  YOLOC_AVX2_LANE Mask ge(D a, D b) {
    return _mm256_cmp_pd(a, b, _CMP_GE_OQ);
  }
  /// Per lane: m set ? if_set : if_clear.
  YOLOC_AVX2_LANE D select(Mask m, D if_clear, D if_set) {
    return _mm256_blendv_pd(if_clear, if_set, m);
  }
  /// 1.0 where m is set, +0.0 elsewhere.
  YOLOC_AVX2_LANE D one_where(Mask m) {
    return _mm256_and_pd(m, _mm256_set1_pd(1.0));
  }
  /// The lanes whose bit 62 is set, moved into the sign bit blendv reads.
  YOLOC_AVX2_LANE Mask bit62(I a) {
    return _mm256_castsi256_pd(_mm256_slli_epi64(a, 1));
  }
  YOLOC_AVX2_LANE D flip_sign(D x, I sign_bits) {
    return _mm256_xor_pd(x, _mm256_castsi256_pd(sign_bits));
  }
  YOLOC_AVX2_LANE D counts(const int* n) {
    return _mm256_cvtepi32_pd(_mm_setr_epi32(n[0], n[1], n[2], n[3]));
  }
  /// table[n[l]] in lane l.
  YOLOC_AVX2_LANE D lookup(const double* table, const int* n) {
    return _mm256_setr_pd(table[n[0]], table[n[1]], table[n[2]],
                          table[n[3]]);
  }
  /// To 32-byte-aligned memory.
  YOLOC_AVX2_LANE void store(void* out, I a) {
    _mm256_store_si256(static_cast<__m256i*>(out), a);
  }
};

/// Eight 64-bit lanes per __m512d/__m512i, AVX-512F only: masks are
/// k-registers, the three-input bit ops one vpternlogq each, and the
/// floating-point sign flips integer xors (vxorpd needs AVX-512DQ).
struct Lanes8 {
  static constexpr int kWidth = 8;
  using D = __m512d;
  using I = __m512i;
  using Mask = __mmask8;

  YOLOC_AVX512_LANE I splat(std::uint64_t v) {
    return _mm512_set1_epi64(static_cast<long long>(v));
  }
  YOLOC_AVX512_LANE D set1(double v) { return _mm512_set1_pd(v); }
  YOLOC_AVX512_LANE I row_ids(int j) {
    return _mm512_add_epi64(_mm512_set1_epi64(j),
                            _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0));
  }
  YOLOC_AVX512_LANE I add64(I a, I b) { return _mm512_add_epi64(a, b); }
  YOLOC_AVX512_LANE I mul32(I a, I b) { return _mm512_mul_epu32(a, b); }
  YOLOC_AVX512_LANE I and_(I a, I b) { return _mm512_and_si512(a, b); }
  YOLOC_AVX512_LANE I or_(I a, I b) { return _mm512_or_si512(a, b); }
  // vpternlogq truth tables over (a, b, c) = (0xF0, 0xCC, 0xAA).
  YOLOC_AVX512_LANE I xor3(I a, I b, I c) {
    return _mm512_ternarylogic_epi64(a, b, c, 0x96);
  }
  YOLOC_AVX512_LANE I and_or(I a, I b, I c) {
    return _mm512_ternarylogic_epi64(a, b, c, 0xEA);
  }
  YOLOC_AVX512_LANE I xor_and(I a, I b, I c) {
    return _mm512_ternarylogic_epi64(a, b, c, 0x28);
  }
  template <int kBits>
  YOLOC_AVX512_LANE I srl(I a) {
    return _mm512_srli_epi64(a, kBits);
  }
  template <int kBits>
  YOLOC_AVX512_LANE I sll(I a) {
    return _mm512_slli_epi64(a, kBits);
  }
  YOLOC_AVX512_LANE I sll_var(I a, __m128i count) {
    return _mm512_sll_epi64(a, count);
  }
  YOLOC_AVX512_LANE D as_double(I a) { return _mm512_castsi512_pd(a); }
  YOLOC_AVX512_LANE I as_bits(D a) { return _mm512_castpd_si512(a); }
  YOLOC_AVX512_LANE D add(D a, D b) { return _mm512_add_pd(a, b); }
  YOLOC_AVX512_LANE D sub(D a, D b) { return _mm512_sub_pd(a, b); }
  YOLOC_AVX512_LANE D mul(D a, D b) { return _mm512_mul_pd(a, b); }
  YOLOC_AVX512_LANE D div(D a, D b) { return _mm512_div_pd(a, b); }
  YOLOC_AVX512_LANE D sqrt(D a) { return _mm512_sqrt_pd(a); }
  YOLOC_AVX512_LANE D max(D a, D b) { return _mm512_max_pd(a, b); }
  YOLOC_AVX512_LANE D min(D a, D b) { return _mm512_min_pd(a, b); }
  YOLOC_AVX512_LANE D trunc(D a) {
    return _mm512_roundscale_pd(a, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  }
  YOLOC_AVX512_LANE Mask gt(D a, D b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_GT_OQ);
  }
  YOLOC_AVX512_LANE Mask ge(D a, D b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_GE_OQ);
  }
  YOLOC_AVX512_LANE D select(Mask m, D if_clear, D if_set) {
    return _mm512_mask_blend_pd(m, if_clear, if_set);
  }
  YOLOC_AVX512_LANE D one_where(Mask m) {
    return _mm512_maskz_mov_pd(m, _mm512_set1_pd(1.0));
  }
  YOLOC_AVX512_LANE Mask bit62(I a) {
    return _mm512_test_epi64_mask(a, _mm512_set1_epi64(1ll << 62));
  }
  YOLOC_AVX512_LANE D flip_sign(D x, I sign_bits) {
    return _mm512_castsi512_pd(
        _mm512_xor_si512(_mm512_castpd_si512(x), sign_bits));
  }
  YOLOC_AVX512_LANE D counts(const int* n) {
    return _mm512_cvtepi32_pd(_mm256_setr_epi32(n[0], n[1], n[2], n[3], n[4],
                                                n[5], n[6], n[7]));
  }
  YOLOC_AVX512_LANE D lookup(const double* table, const int* n) {
    return _mm512_setr_pd(table[n[0]], table[n[1]], table[n[2]], table[n[3]],
                          table[n[4]], table[n[5]], table[n[6]], table[n[7]]);
  }
  /// To 64-byte-aligned memory.
  YOLOC_AVX512_LANE void store(void* out, I a) { _mm512_store_si512(out, a); }
};

#undef YOLOC_AVX2_LANE
#undef YOLOC_AVX512_LANE

namespace avx2_chain {
using L = Lanes4;
#define YOLOC_CHAIN_TARGET [[gnu::target("avx2,popcnt")]]
#include "macro/noisy_chain.inc"
#undef YOLOC_CHAIN_TARGET
}  // namespace avx2_chain

// GCC 12's avx512fintrin.h seeds several intrinsics (vpmuludq, the
// immediate shifts, vsqrtpd) with a self-initialized "undefined" vector
// that -Wmaybe-uninitialized reports once they are inlined (GCC PR
// 105593); the warning is false. Clang has no such warning.
#if !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
namespace avx512_chain {
using L = Lanes8;
#define YOLOC_CHAIN_TARGET [[gnu::target("avx512f,avx2,popcnt")]]
#include "macro/noisy_chain.inc"
#undef YOLOC_CHAIN_TARGET
}  // namespace avx512_chain
#if !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif  // YOLOC_GEMM_AVX2

}  // namespace

std::int32_t finish_noisy_row(const std::int64_t* sums,
                              const PackedCountArgs& a,
                              std::int64_t counts_per_code, int j) {
  const int top = a.weight_bits - 1;
  if (a.faults == nullptr) {
    std::int64_t acc = 0;
    for (int b = 0; b < a.weight_bits; ++b) {
      const std::int64_t term = sums[b] * (std::int64_t{1} << b);
      acc += b == top ? -term : term;
    }
    return static_cast<std::int32_t>(acc * counts_per_code);
  }
  const double reads_weight =
      static_cast<double>(a.groups) * ((1 << a.input_bits) - 1);
  double acc = 0.0;
  for (int b = 0; b < a.weight_bits; ++b) {
    const AdcDrift drift = a.faults->adc_drift(j, b);
    const double estimate =
        static_cast<double>(sums[b] * counts_per_code) * drift.gain +
        drift.offset_counts * reads_weight;
    const double bit_weight = b == top ? -static_cast<double>(1 << b)
                                       : static_cast<double>(1 << b);
    acc += estimate * bit_weight;
  }
  return static_cast<std::int32_t>(std::llround(acc));
}

const PackedKernels& plain_packed_kernels() {
#if defined(__POPCNT__) || defined(__aarch64__)
  static constexpr PackedKernels kPlain{noise_free_rows_plain,
                                        noisy_rows_plain, "hw", "portable"};
#else
  static constexpr PackedKernels kPlain{
      noise_free_rows_plain, noisy_rows_plain, "portable", "portable"};
#endif
  return kPlain;
}

const PackedKernels* popcnt_packed_kernels() {
#if YOLOC_POPCNT_DISPATCH
  static constexpr PackedKernels kPopcnt{
      noise_free_rows_popcnt, noisy_rows_popcnt, "hw", "portable"};
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("popcnt") != 0;
  }();
  return supported ? &kPopcnt : nullptr;
#else
  return nullptr;
#endif
}

const PackedKernels* avx2_packed_kernels() {
#if YOLOC_GEMM_AVX2
  static const PackedKernels* const avx2 = []() -> const PackedKernels* {
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2") == 0 ||
        __builtin_cpu_supports("popcnt") == 0) {
      return nullptr;
    }
    const PackedKernels* popcnt = popcnt_packed_kernels();
    static const PackedKernels kAvx2{
        popcnt != nullptr ? popcnt->noise_free_rows
                          : plain_packed_kernels().noise_free_rows,
        avx2_chain::noisy_rows, "hw", "avx2"};
    return &kAvx2;
  }();
  return avx2;
#else
  return nullptr;
#endif
}

const PackedKernels* avx512_packed_kernels() {
#if YOLOC_GEMM_AVX2
  static const PackedKernels* const avx512 = []() -> const PackedKernels* {
    // The AVX2 table checks AVX2 and POPCNT, which the chain's target
    // also names, and lends its noise-free body.
    const PackedKernels* avx2 = avx2_packed_kernels();
    if (avx2 == nullptr || __builtin_cpu_supports("avx512f") == 0) {
      return nullptr;
    }
    static const PackedKernels kAvx512{
        avx2->noise_free_rows, avx512_chain::noisy_rows, "hw", "avx512"};
    return &kAvx512;
  }();
  return avx512;
#else
  return nullptr;
#endif
}

const PackedKernels& packed_kernels() {
  static const PackedKernels* const selected = [] {
    if (const PackedKernels* avx512 = avx512_packed_kernels()) return avx512;
    if (const PackedKernels* avx2 = avx2_packed_kernels()) return avx2;
    const PackedKernels* hw = popcnt_packed_kernels();
    return hw != nullptr ? hw : &plain_packed_kernels();
  }();
  return *selected;
}

const ExactTileKernels& plain_exact_tile_kernels() {
  static constexpr ExactTileKernels kPlain{exact_tile_plain, "portable"};
  return kPlain;
}

const ExactTileKernels* avx2_exact_tile_kernels() {
#if YOLOC_GEMM_AVX2
  static constexpr ExactTileKernels kAvx2{exact_tile_avx2, "avx2"};
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return supported ? &kAvx2 : nullptr;
#else
  return nullptr;
#endif
}

const ExactTileKernels& exact_tile_kernels() {
  static const ExactTileKernels* const selected = [] {
    const ExactTileKernels* avx2 = avx2_exact_tile_kernels();
    return avx2 != nullptr ? avx2 : &plain_exact_tile_kernels();
  }();
  return *selected;
}

}  // namespace yoloc::detail
