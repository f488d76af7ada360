#include "macro/packed_kernels.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstring>

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
// draws and CimArrayModel::read() itself. The reference the AVX2 body
// must match, and the fallback on CPUs without AVX2.
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
  std::uint64_t conversions = nf.conversions;
  double adc_energy = nf.adc_energy;
  double precharge_energy = nf.precharge_energy;
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
          ++conversions;
          adc_energy += nf.adc_energy_pj;
          precharge_energy += nf.ideal_precharge_pj[exact];
        }
      }
    }
    nf.y[j] = static_cast<std::int32_t>(std::llround(acc));
  }
  nf.conversions = conversions;
  nf.adc_energy = adc_energy;
  nf.precharge_energy = precharge_energy;
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

/// pulses[c] = sum over the k rows of popcount(x[i*ldx + c] & window),
/// for c < cols <= kExactColBlock, where `window` is the input_bits mask
/// replicated into every byte. Eight columns share one 64-bit SWAR byte
/// popcount; the per-byte counts (<= 8 per row) are summed in 16-bit
/// lanes, even and odd bytes apart, which holds k up to 8191 rows.
void count_window_pulses(const std::uint8_t* x, std::size_t ldx, int k,
                         int cols, std::uint64_t window,
                         std::uint32_t* pulses) {
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
  for (int wd = 0; wd < words; ++wd) {
    for (int lane = 0; lane < 4; ++lane) {
      pulses[8 * wd + 2 * lane] = static_cast<std::uint32_t>(
          (even[static_cast<std::size_t>(wd)] >> (16 * lane)) & 0xFFFFu);
      pulses[8 * wd + 2 * lane + 1] = static_cast<std::uint32_t>(
          (odd[static_cast<std::size_t>(wd)] >> (16 * lane)) & 0xFFFFu);
    }
  }
  const unsigned byte_window = static_cast<unsigned>(window & 0xFFu);
  for (int c = 8 * words; c < cols; ++c) {
    std::uint32_t sum = 0;
    for (int i = 0; i < k; ++i) {
      sum += static_cast<std::uint32_t>(std::popcount(
          static_cast<unsigned>(x[static_cast<std::size_t>(i) * ldx + c]) &
          byte_window));
    }
    pulses[c] = sum;
  }
}

void exact_tile_plain(const ExactTileArgs& a) {
  const std::uint64_t window = a.window * 0x0101010101010101ull;
  for (int c0 = 0; c0 < a.p; c0 += kExactColBlock) {
    const int cols = std::min(kExactColBlock, a.p - c0);
    count_window_pulses(a.x + c0, a.ldx, a.k, cols, window, a.pulses + c0);
    gemm_s8u8_accumulate(a.w, a.ldw, a.m, a.k, a.x + c0, a.ldx, cols,
                         a.y + c0, a.ldy);
  }
}

#if YOLOC_GEMM_AVX2
void exact_tile_avx2(const ExactTileArgs& a) {
  gemm_s8u8_accumulate_avx2(a.w, a.ldw, a.m, a.k, a.x, a.ldx, a.p, a.y,
                            a.ldy, a.window, a.pulses);
}
#endif

#if YOLOC_GEMM_AVX2
// The AVX2 read chain: four output rows per vector, one 64-bit lane per
// row. Each step mirrors keyed_noise.hpp's scalar functions and
// CimArrayModel::read() operation for operation (mul, add, sub, div and
// sqrt round alike in every lane and in scalar SSE2; max/min follow the
// x86 rule read() spells out), so each lane's code and discharge equal
// the scalar read's bits.
#define YOLOC_AVX2_CHAIN [[gnu::target("avx2,popcnt")]]

YOLOC_AVX2_CHAIN inline __m256i splat64(std::uint64_t v) {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

YOLOC_AVX2_CHAIN inline __m256d unit_from_mantissa4(__m256i bits) {
  return _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_and_si256(bits, splat64(keyed::kMantissa)),
      splat64(keyed::kOneBits)));
}

/// The constants of one call, broadcast once.
struct ChainConsts4 {
  __m256i round_k0[keyed::kPhiloxRounds];
  __m256i round_k1[keyed::kPhiloxRounds];
  __m256i column, call;
  __m256d sigma_v, delta_v, v_precharge, v_floor, v_lo, v_hi, lsb, levels_m1,
      bl_range;
};

/// keyed::philox4x32 + keyed::box_muller on four counters that differ
/// only in word 1 (the output row). Each 32-bit word lives in the low
/// half of a 64-bit lane; _mm256_mul_epu32 reads only that half, so the
/// high halves may hold junk until the words are assembled.
YOLOC_AVX2_CHAIN inline void keyed_normals4(const ChainConsts4& c,
                                            __m256i ctr0, __m256i rows,
                                            __m256d& z_cell, __m256d& z_adc) {
  const __m256i m0 = splat64(keyed::kPhiloxM0);
  const __m256i m1 = splat64(keyed::kPhiloxM1);
  __m256i x0 = ctr0, x1 = rows, x2 = c.column, x3 = c.call;
  for (int round = 0; round < keyed::kPhiloxRounds; ++round) {
    const __m256i p0 = _mm256_mul_epu32(x0, m0);
    const __m256i p1 = _mm256_mul_epu32(x2, m1);
    x0 = _mm256_xor_si256(_mm256_xor_si256(_mm256_srli_epi64(p1, 32), x1),
                          c.round_k0[round]);
    x1 = p1;
    x2 = _mm256_xor_si256(_mm256_xor_si256(_mm256_srli_epi64(p0, 32), x3),
                          c.round_k1[round]);
    x3 = p0;
  }
  const __m256i low32 = splat64(0xFFFFFFFFull);
  const __m256i radius_bits = _mm256_or_si256(_mm256_slli_epi64(x1, 32),
                                              _mm256_and_si256(x0, low32));
  const __m256i angle_bits = _mm256_or_si256(_mm256_slli_epi64(x3, 32),
                                             _mm256_and_si256(x2, low32));

  // keyed::log_unit(u), u = 2 - unit_from_mantissa(radius_bits >> 12).
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d u = _mm256_sub_pd(
      _mm256_set1_pd(2.0),
      unit_from_mantissa4(_mm256_srli_epi64(radius_bits, 12)));
  const __m256i ubits = _mm256_castpd_si256(u);
  // (double)(ubits >> 52), exactly: the 2^52 magic bias.
  __m256d e = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(ubits, 52),
                                          splat64(0x4330000000000000ull))),
      _mm256_set1_pd(0x1p52));
  e = _mm256_sub_pd(e, _mm256_set1_pd(1023.0));
  __m256d f = unit_from_mantissa4(ubits);
  const __m256d above =
      _mm256_cmp_pd(f, _mm256_set1_pd(keyed::kSqrt2), _CMP_GT_OQ);
  f = _mm256_blendv_pd(f, _mm256_mul_pd(f, _mm256_set1_pd(0.5)), above);
  e = _mm256_add_pd(e, _mm256_and_pd(above, one));
  const __m256d s = _mm256_div_pd(_mm256_sub_pd(f, one), _mm256_add_pd(f, one));
  const __m256d s2 = _mm256_mul_pd(s, s);
  __m256d p = _mm256_set1_pd(keyed::kLogSeries[6]);
  for (int i = 5; i >= 0; --i) {
    const double coef = keyed::kLogSeries[static_cast<std::size_t>(i)];
    p = _mm256_add_pd(_mm256_mul_pd(p, s2), _mm256_set1_pd(coef));
  }
  p = _mm256_add_pd(_mm256_mul_pd(p, s2), one);
  const __m256d log_u =
      _mm256_add_pd(_mm256_mul_pd(e, _mm256_set1_pd(keyed::kLn2)),
                    _mm256_mul_pd(_mm256_add_pd(s, s), p));
  const __m256d r =
      _mm256_sqrt_pd(_mm256_mul_pd(_mm256_set1_pd(-2.0), log_u));

  const __m256d phi = _mm256_mul_pd(
      _mm256_sub_pd(unit_from_mantissa4(angle_bits), _mm256_set1_pd(1.5)),
      _mm256_set1_pd(keyed::kHalfPi));
  const __m256d phi2 = _mm256_mul_pd(phi, phi);
  __m256d ps = _mm256_set1_pd(keyed::kSinSeries[5]);
  for (int i = 4; i >= 0; --i) {
    const double coef = keyed::kSinSeries[static_cast<std::size_t>(i)];
    ps = _mm256_add_pd(_mm256_mul_pd(ps, phi2), _mm256_set1_pd(coef));
  }
  const __m256d sin_phi =
      _mm256_add_pd(phi, _mm256_mul_pd(_mm256_mul_pd(phi, phi2), ps));
  __m256d pc = _mm256_set1_pd(keyed::kCosSeries[6]);
  for (int i = 5; i >= 0; --i) {
    const double coef = keyed::kCosSeries[static_cast<std::size_t>(i)];
    pc = _mm256_add_pd(_mm256_mul_pd(pc, phi2), _mm256_set1_pd(coef));
  }
  const __m256d cos_phi = _mm256_add_pd(one, _mm256_mul_pd(phi2, pc));

  // Quadrant bits 62 (swap) and 63: blendv reads each lane's sign bit.
  const __m256d swap = _mm256_castsi256_pd(_mm256_slli_epi64(angle_bits, 1));
  const __m256i sign = splat64(0x8000000000000000ull);
  const __m256d neg_x = _mm256_castsi256_pd(_mm256_and_si256(
      _mm256_xor_si256(angle_bits, _mm256_slli_epi64(angle_bits, 1)), sign));
  const __m256d neg_y =
      _mm256_castsi256_pd(_mm256_and_si256(angle_bits, sign));
  const __m256d x =
      _mm256_xor_pd(_mm256_blendv_pd(cos_phi, sin_phi, swap), neg_x);
  const __m256d y =
      _mm256_xor_pd(_mm256_blendv_pd(sin_phi, cos_phi, swap), neg_y);
  z_cell = _mm256_mul_pd(r, x);
  z_adc = _mm256_mul_pd(r, y);
}

/// The mantissa of x + 2^52: x rounded to an integer (ties to even), for
/// 0 <= x < 2^51 — CimArrayModel::ledger_steps, and the exact int64 of
/// an integral code.
YOLOC_AVX2_CHAIN inline __m256i round_to_int4(__m256d x) {
  return _mm256_and_si256(
      _mm256_castpd_si256(_mm256_add_pd(x, _mm256_set1_pd(0x1p52))),
      splat64(keyed::kMantissa));
}

/// CimArrayModel::read() on four lanes: `counts` holds the exact
/// counts and `sd` their cell mismatch sigmas; returns the codes and the
/// discharge ledger steps as int64.
YOLOC_AVX2_CHAIN inline void read4(const ChainConsts4& c, __m128i counts,
                                   __m256d sd, __m256d z_cell, __m256d z_adc,
                                   __m256i& code_out,
                                   __m256i& discharge_out) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d exact = _mm256_cvtepi32_pd(counts);
  const __m256d effective =
      _mm256_max_pd(_mm256_add_pd(exact, _mm256_mul_pd(sd, z_cell)), zero);
  const __m256d v = _mm256_max_pd(
      _mm256_sub_pd(c.v_precharge, _mm256_mul_pd(effective, c.delta_v)),
      c.v_floor);
  const __m256d noisy = _mm256_add_pd(v, _mm256_mul_pd(c.sigma_v, z_adc));
  const __m256d clamped = _mm256_min_pd(_mm256_max_pd(noisy, c.v_lo), c.v_hi);
  const __m256d q = _mm256_div_pd(_mm256_sub_pd(c.v_hi, clamped), c.lsb);
  const __m256d whole =
      _mm256_round_pd(q, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m256d rounded = _mm256_add_pd(
      whole, _mm256_and_pd(_mm256_cmp_pd(_mm256_sub_pd(q, whole),
                                         _mm256_set1_pd(0.5), _CMP_GE_OQ),
                           _mm256_set1_pd(1.0)));
  const __m256d code = _mm256_min_pd(_mm256_max_pd(rounded, zero), c.levels_m1);
  const __m256d dv =
      _mm256_min_pd(_mm256_mul_pd(effective, c.delta_v), c.bl_range);
  code_out = round_to_int4(code);
  discharge_out = round_to_int4(_mm256_mul_pd(dv, _mm256_set1_pd(0x1p32)));
}

/// Rows [j0, j0 + lanes) of the noisy chain, lanes <= 4 * kVecs: kVecs
/// vectors of four rows advance through every read together, so their
/// independent dependency chains (Philox rounds, the log and sin/cos
/// polynomials, the divides) overlap in the pipeline.
template <int kVecs>
YOLOC_AVX2_CHAIN void noisy_block(const PackedCountArgs& a, NoisyRows& nr,
                                  const ChainConsts4& c, std::int64_t cpc,
                                  int j0, int lanes,
                                  std::uint64_t& discharge) {
  constexpr int kLanes = 4 * kVecs;
  const FaultModel* faults = a.faults;
  const bool transients = faults != nullptr && faults->has_transients();
  __m256i rows[kVecs];
  __m256i lane_discharge[kVecs];
  for (int v = 0; v < kVecs; ++v) {
    const int j = j0 + 4 * v;
    rows[v] = _mm256_set_epi64x(j + 3, j + 2, j + 1, j);
    lane_discharge[v] = _mm256_setzero_si256();
  }
  alignas(32) std::int64_t sums[kLanes][8] = {};
  const __m256i tile_bits = splat64(nr.key.tile << keyed::kReadIndexBits);
  std::uint32_t r = 0;
  for (int b = 0; b < a.weight_bits; ++b) {
    // Lanes past m read all-zero planes; their results are dropped.
    RowMask wb[kLanes];
    for (int l = 0; l < lanes; ++l) wb[l] = faulted_plane(a, j0 + l, b);
    __m256i sum_b[kVecs];
    for (int v = 0; v < kVecs; ++v) sum_b[v] = _mm256_setzero_si256();
    for (int t = 0; t < a.input_bits; ++t) {
      RowMask wbt[kLanes];
      for (int l = 0; l < kLanes; ++l) wbt[l] = wb[l];
      if (transients) {
        for (int l = 0; l < lanes; ++l) {
          wbt[l].xor_with(faults->transient_flips(j0 + l, b, t));
        }
      }
      const RowMask xt = a.xbits[t];
      const __m128i shift = _mm_cvtsi32_si128(t);
      for (int grp = 0; grp < a.groups; ++grp, ++r) {
        const RowMask& gm = a.group_masks[grp];
        const __m256i ctr0 = _mm256_or_si256(splat64(r), tile_bits);
        for (int v = 0; v < kVecs; ++v) {
          const RowMask* w4 = wbt + 4 * v;
          const int n0 = w4[0].count_and3(xt, gm);
          const int n1 = w4[1].count_and3(xt, gm);
          const int n2 = w4[2].count_and3(xt, gm);
          const int n3 = w4[3].count_and3(xt, gm);
          __m256d z_cell, z_adc;
          keyed_normals4(c, ctr0, rows[v], z_cell, z_adc);
          __m256i code, dis;
          read4(c, _mm_setr_epi32(n0, n1, n2, n3),
                _mm256_setr_pd(nr.cell_sd[n0], nr.cell_sd[n1], nr.cell_sd[n2],
                               nr.cell_sd[n3]),
                z_cell, z_adc, code, dis);
          sum_b[v] = _mm256_add_epi64(sum_b[v], _mm256_sll_epi64(code, shift));
          lane_discharge[v] = _mm256_add_epi64(lane_discharge[v], dis);
        }
      }
    }
    for (int v = 0; v < kVecs; ++v) {
      alignas(32) std::int64_t lane_sum[4];
      _mm256_store_si256(reinterpret_cast<__m256i*>(lane_sum), sum_b[v]);
      for (int l = 0; l < 4; ++l) sums[4 * v + l][b] = lane_sum[l];
    }
  }
  for (int v = 0; v < kVecs; ++v) {
    alignas(32) std::uint64_t lane_ledger[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane_ledger),
                       lane_discharge[v]);
    for (int l = 0; l < 4 && 4 * v + l < lanes; ++l) {
      discharge += lane_ledger[l];
      nr.y[j0 + 4 * v + l] = finish_noisy_row(sums[4 * v + l], a, cpc,
                                              j0 + 4 * v + l);
    }
  }
}

YOLOC_AVX2_CHAIN void noisy_rows_avx2(const PackedCountArgs& a,
                                      NoisyRows& nr) {
  const CimArrayModel::ReadChainConsts& rc = nr.array->read_chain_consts();
  const auto cpc = static_cast<std::int64_t>(rc.counts_per_code);

  ChainConsts4 c;
  const std::array<std::uint32_t, 2> key = keyed::read_key(nr.key);
  std::uint32_t k0 = key[0];
  std::uint32_t k1 = key[1];
  for (int round = 0; round < keyed::kPhiloxRounds; ++round) {
    c.round_k0[round] = splat64(k0);
    c.round_k1[round] = splat64(k1);
    k0 += keyed::kPhiloxW0;
    k1 += keyed::kPhiloxW1;
  }
  const std::array<std::uint32_t, 4> ctr = keyed::read_counter(nr.key, 0, 0);
  c.column = splat64(ctr[2]);
  c.call = splat64(ctr[3]);
  c.sigma_v = _mm256_set1_pd(rc.noise_sigma_v);
  c.delta_v = _mm256_set1_pd(rc.delta_v);
  c.v_precharge = _mm256_set1_pd(rc.v_precharge);
  c.v_floor = _mm256_set1_pd(rc.v_floor);
  c.v_lo = _mm256_set1_pd(rc.v_lo);
  c.v_hi = _mm256_set1_pd(rc.v_hi);
  c.lsb = _mm256_set1_pd(rc.lsb);
  c.levels_m1 = _mm256_set1_pd(rc.levels - 1.0);
  c.bl_range = _mm256_set1_pd(rc.bl_range);

  // Eight rows (two vectors) per block; a tail of four rows or fewer
  // runs one vector.
  std::uint64_t discharge = 0;
  for (int j0 = 0; j0 < nr.m; j0 += 8) {
    const int lanes = std::min(8, nr.m - j0);
    if (lanes > 4) {
      noisy_block<2>(a, nr, c, cpc, j0, lanes, discharge);
    } else {
      noisy_block<1>(a, nr, c, cpc, j0, lanes, discharge);
    }
  }
  nr.discharge = discharge;
}

#undef YOLOC_AVX2_CHAIN
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
        noisy_rows_avx2, "hw", "avx2"};
    return &kAvx2;
  }();
  return avx2;
#else
  return nullptr;
#endif
}

const PackedKernels& packed_kernels() {
  static const PackedKernels* const selected = [] {
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
