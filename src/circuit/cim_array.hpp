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
//   code         = adc.quantize_ideal(v_bl + N(0, adc noise_sigma_v))
//   estimate     = code scaled back to counts
// read() takes the two normals as arguments, so the caller decides where
// they come from: the macro's keyed counter-based draws
// (common/keyed_noise.hpp) or, in read_count(), an Rng stream.
// The estimate is exact when the row-group size matches the ADC level
// count and sigma is ~0; widening the group beyond the ADC range (the
// paper's aggressive 128-rows-per-activation mode) trades accuracy for
// fewer conversions — an ablation benchmark sweeps exactly this.

#include <bit>
#include <cmath>
#include <cstdint>

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

  /// The outcome of one noisy column read: the ADC code, and the
  /// bitline discharge min(effective * delta_v, v_precharge - v_floor)
  /// rounded to whole kDischargeLsbV steps, the unit of the integer
  /// energy ledger (charge_reads).
  struct ReadOutcome {
    int code = 0;
    std::uint64_t discharge = 0;
  };
  static constexpr double kDischargeLsbV = 0x1p-32;

  /// One noisy column read of `exact_count` ON cells, given its two
  /// standard normals: cell mismatch adds sigma_cell * sqrt(exact_count)
  /// * z_cell cells (floored at 0), the ADC input adds noise_sigma_v *
  /// z_adc volts. A pure function of its arguments — the canonical per-read
  /// model every read chain (CimMacro::mvm_packed's plain and AVX2 bodies,
  /// the test oracle) is pinned to, bit for bit. It therefore uses only
  /// +, -, *, / and the comparisons an AVX2 lane has (x86 max/min
  /// semantics), in this order, and no FMA.
  [[nodiscard]] ReadOutcome read(int exact_count, double z_cell,
                                 double z_adc) const {
    const ReadChainConsts& rc = chain_;
    const double exact = exact_count;
    const double cell_sd = rc.sigma_cell * std::sqrt(exact);
    const double effective = max_x86(exact + cell_sd * z_cell, 0.0);
    const double v =
        max_x86(rc.v_precharge - effective * rc.delta_v, rc.v_floor);
    const double noisy = v + rc.noise_sigma_v * z_adc;
    const double clamped = min_x86(max_x86(noisy, rc.v_lo), rc.v_hi);
    // Round half away from zero on a non-negative argument: truncate,
    // then add one when the fraction (exact for q >= 0) reaches 0.5.
    const double q = (rc.v_hi - clamped) / rc.lsb;
    const double whole = std::trunc(q);
    const double rounded = whole + (q - whole >= 0.5 ? 1.0 : 0.0);
    const double code = min_x86(max_x86(rounded, 0.0), rc.levels - 1.0);
    const double dv = min_x86(effective * rc.delta_v, rc.bl_range);
    return {static_cast<int>(code), ledger_steps(dv * 0x1p32)};
  }

  /// Charge `conversions` ADC reads whose discharges sum to `discharge`
  /// ledger steps: the integer ledger's one conversion into the stats
  /// doubles, made once per macro call so the order in which reads were
  /// summed cannot change any bit.
  void charge_reads(std::uint64_t conversions, std::uint64_t discharge,
                    ArrayReadStats& stats) const;

  /// One column read with its normals drawn from `rng` (cell mismatch
  /// only when sigma_cell > 0 and exact_count > 0): read() plus the
  /// stats. Returns the count estimate code * counts_per_code.
  [[nodiscard]] double read_count(int exact_count, int active_rows, Rng& rng,
                                  ArrayReadStats& stats) const;

  /// Ideal (noise-free, but still ADC-quantized) variant.
  [[nodiscard]] double read_count_ideal(int exact_count,
                                        ArrayReadStats& stats) const;

  /// Charge the wordline-driver energy for `pulses` input pulses.
  void charge_wl_pulses(std::uint64_t pulses, ArrayReadStats& stats) const;
  /// Charge digital accumulation energy for `ops` shift-adds.
  void charge_shift_adds(std::uint64_t ops, ArrayReadStats& stats) const;

  /// Constants of the read() chain, shared with the vectorized read
  /// chain (macro/packed_kernels.*), which mirrors read() lane by lane.
  /// Any drift between the two is pinned by the bit-identity suites
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
    double bl_range = 0.0;  // v_precharge - v_floor
  };
  [[nodiscard]] const ReadChainConsts& read_chain_consts() const {
    return chain_;
  }

  /// x86 maxsd / minsd: (a > b ? a : b) and (a < b ? a : b). Written out
  /// so the scalar read() and the AVX2 lanes agree even on signed zeros.
  static double max_x86(double a, double b) { return a > b ? a : b; }
  static double min_x86(double a, double b) { return a < b ? a : b; }

  /// Round a non-negative double below 2^51 to the nearest integer, ties
  /// to even — by adding 2^52 and reading the mantissa, the same bits an
  /// AVX2 lane gets.
  static std::uint64_t ledger_steps(double x) {
    return std::bit_cast<std::uint64_t>(x + 0x1p52) & ((1ull << 52) - 1);
  }

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
  ReadChainConsts chain_;
};

}  // namespace yoloc
