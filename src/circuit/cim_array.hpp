#pragma once
// Column read model: ties cell mismatch, bitline discharge and ADC
// quantization into a single "analog count readout" primitive, plus the
// per-event energy accounting the macro layer aggregates.
//
// The macro performs, per (row-group, input-bit, weight-bit-column):
//   exact_count  = number of cells with (input bit == 1 && weight bit == 1)
//   effective    = exact_count + N(0, sigma_cell * sqrt(exact_count))
//                  (sum of i.i.d. per-cell current mismatch)
//   v_bl         = bitline.voltage_for_count(effective)
//   code         = adc.quantize(v_bl)
//   estimate     = code scaled back to counts
// The estimate is exact when the row-group size matches the ADC level
// count and sigma is ~0; widening the group beyond the ADC range (the
// paper's aggressive 128-rows-per-activation mode) trades accuracy for
// fewer conversions — an ablation benchmark sweeps exactly this.

#include "circuit/adc.hpp"
#include "circuit/bitline.hpp"
#include "common/rng.hpp"

namespace yoloc {

/// Per-event digital/driver energies accompanying each analog read.
struct ArrayEnergyParams {
  double wl_pulse_pj = 0.0006;   // one wordline pulse on one row
  double shift_add_pj = 0.012;   // one digital shift-add accumulation
  double dac_driver_pj = 0.001;  // input-bit driver, per row per cycle

  bool operator==(const ArrayEnergyParams&) const = default;
};

/// Accumulated activity counters for one or more array operations.
struct ArrayReadStats {
  std::uint64_t adc_conversions = 0;
  std::uint64_t wl_pulses = 0;
  std::uint64_t shift_adds = 0;
  double adc_energy_pj = 0.0;
  double precharge_energy_pj = 0.0;
  double wl_energy_pj = 0.0;
  double shift_add_energy_pj = 0.0;

  [[nodiscard]] double total_energy_pj() const {
    return adc_energy_pj + precharge_energy_pj + wl_energy_pj +
           shift_add_energy_pj;
  }
  void accumulate(const ArrayReadStats& other);
  /// Field-wise and exact (doubles compare by value, not within a
  /// tolerance): the bit-identity contract between execution paths.
  bool operator==(const ArrayReadStats&) const = default;
};

/// Per-column ADC transfer drift (fault injection, macro/fault_model.*):
/// the drifted count estimate is estimate * gain + offset_counts,
/// applied AFTER the canonical read chain so the underlying conversion
/// (and its stats/energy accounting) is untouched. Identity by default.
struct AdcDrift {
  double gain = 1.0;
  double offset_counts = 0.0;
};

class CimArrayModel {
 public:
  /// `group_size` is the number of simultaneously activated rows; the ADC
  /// full-scale is matched to that discharge range.
  CimArrayModel(const BitlineParams& bitline, AdcParams adc,
                const ArrayEnergyParams& energy, int group_size);

  /// One column read: digitize `exact_count` ON cells out of
  /// `active_rows` pulsed rows. Returns the count estimate; accumulates
  /// conversion + precharge energy into `stats`.
  [[nodiscard]] double read_count(int exact_count, int active_rows, Rng& rng,
                                  ArrayReadStats& stats) const;

  /// read_count() with a drifted ADC transfer applied to the estimate —
  /// the fault-injection overload. Same draws, same stats; only the
  /// returned count estimate is transformed. Kept as a separate overload
  /// so the fault-off call path is literally the function above.
  [[nodiscard]] double read_count(int exact_count, int active_rows, Rng& rng,
                                  ArrayReadStats& stats,
                                  const AdcDrift& drift) const;

  /// Ideal (noise-free, but still ADC-quantized) variant.
  [[nodiscard]] double read_count_ideal(int exact_count,
                                        ArrayReadStats& stats) const;

  /// Charge the wordline-driver energy for `pulses` input pulses.
  void charge_wl_pulses(std::uint64_t pulses, ArrayReadStats& stats) const;
  /// Charge digital accumulation energy for `ops` shift-adds.
  void charge_shift_adds(std::uint64_t ops, ArrayReadStats& stats) const;

  /// Constants of the read_count() chain, hoisted for inlined fast
  /// paths (CimMacro::mvm_packed). Derived HERE, next to read_count, so
  /// a physics change to the chain cannot miss them — any drift between
  /// the two is pinned by the packed-vs-legacy bit-identity suite
  /// (`ctest -L macro`).
  struct ReadChainConsts {
    double sigma_cell = 0.0;     // bitline cell mismatch (1 sigma)
    double noise_sigma_v = 0.0;  // ADC input-referred noise
    double delta_v = 0.0;        // per-cell bitline discharge [V]
    double v_precharge = 0.0;
    double v_floor = 0.0;
    double v_lo = 0.0;  // ADC full-scale low (post group matching)
    double v_hi = 0.0;
    double lsb = 0.0;
    int levels = 0;
    double counts_per_code = 0.0;
    double adc_energy_pj = 0.0;
    double cv = 0.0;        // c_bl_ff * v_precharge (legacy product order)
    double bl_range = 0.0;  // v_precharge - v_floor
  };
  [[nodiscard]] ReadChainConsts read_chain_consts() const;

  [[nodiscard]] int group_size() const { return group_size_; }
  [[nodiscard]] double counts_per_code() const { return counts_per_code_; }
  [[nodiscard]] const Adc& adc() const { return adc_; }
  [[nodiscard]] const BitlineModel& bitline() const { return bitline_; }

 private:
  BitlineModel bitline_;
  Adc adc_;
  ArrayEnergyParams energy_;
  int group_size_;
  double counts_per_code_;
};

}  // namespace yoloc
