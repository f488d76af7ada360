#include "macro/packed_kernels.hpp"

#include <cmath>
#include <cstddef>

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

}  // namespace yoloc::detail
