#include "macro/packed_kernels.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstring>

#include "common/int_gemm.hpp"

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

YOLOC_ALWAYS_INLINE int count_row_body(const PackedCountArgs& a, int j,
                                       std::uint8_t* counts) {
  const RowMask* wrow = a.wbits + static_cast<std::size_t>(j) * a.weight_bits;
  const FaultModel* faults = a.faults;
  const bool transients = faults != nullptr && faults->has_transients();
  int r = 0;
  int nonzero = 0;
  for (int b = 0; b < a.weight_bits; ++b) {
    RowMask wb = wrow[b];
    if (faults != nullptr) {
      const FaultModel::PlaneFaults pf = faults->plane(j, b);
      wb.or_with(pf.force_one);
      wb.and_not(pf.force_zero);
    }
    for (int t = 0; t < a.input_bits; ++t) {
      RowMask wbt = wb;
      if (transients) wbt.xor_with(faults->transient_flips(j, b, t));
      const RowMask xt = a.xbits[t];
      for (int grp = 0; grp < a.groups; ++grp) {
        const int exact = wbt.count_and3(xt, a.group_masks[grp]);
        counts[r++] = static_cast<std::uint8_t>(exact);
        nonzero += exact != 0 ? 1 : 0;
      }
    }
  }
  return nonzero;
}

// Draw-free fast path: every noise term is scaled by 0.0 in the legacy
// chain, so the ADC estimate is a pure table lookup on the exact count.
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

int count_row_plain(const PackedCountArgs& a, int j, std::uint8_t* counts) {
  return count_row_body(a, j, counts);
}

void noise_free_rows_plain(const PackedCountArgs& a, NoiseFreeRows& nf) {
  noise_free_rows_body(a, nf);
}

#if YOLOC_POPCNT_DISPATCH
[[gnu::target("popcnt")]] int count_row_popcnt(const PackedCountArgs& a,
                                                int j, std::uint8_t* counts) {
  return count_row_body(a, j, counts);
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

}  // namespace

const PackedKernels& plain_packed_kernels() {
#if defined(__POPCNT__) || defined(__aarch64__)
  static constexpr PackedKernels kPlain{count_row_plain,
                                        noise_free_rows_plain, "hw"};
#else
  static constexpr PackedKernels kPlain{count_row_plain,
                                        noise_free_rows_plain, "portable"};
#endif
  return kPlain;
}

const PackedKernels* popcnt_packed_kernels() {
#if YOLOC_POPCNT_DISPATCH
  static constexpr PackedKernels kPopcnt{count_row_popcnt,
                                         noise_free_rows_popcnt, "hw"};
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("popcnt") != 0;
  }();
  return supported ? &kPopcnt : nullptr;
#else
  return nullptr;
#endif
}

const PackedKernels& packed_kernels() {
  static const PackedKernels* const selected = [] {
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
