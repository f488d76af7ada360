#pragma once
// Column read model: ties cell mismatch, bitline discharge and ADC
// quantization into a single "analog count readout" primitive, plus the
// integer event ledger the macro layer aggregates.
//
// The macro performs, per (row-group, input-bit, weight-bit-column):
//   exact_count  = number of cells with (input bit == 1 && weight bit == 1)
//   effective    = exact_count + N(0, sigma_cell * sqrt(exact_count))
//                  (sum of i.i.d. per-cell current mismatch)
//   v_bl         = bitline.voltage_for_count(effective)
//   code         = adc.quantize_ideal(v_bl + N(0, adc noise_sigma_v))
//   estimate     = code scaled back to counts
// read() takes the two normals as arguments, so the caller decides where
// they come from (the macro's keyed counter-based draws,
// common/keyed_noise.hpp).
// The estimate is exact when the row-group size matches the ADC level
// count and sigma is ~0; widening the group beyond the ADC range (the
// paper's aggressive 128-rows-per-activation mode) trades accuracy for
// fewer conversions — an ablation benchmark sweeps exactly this.

#include <bit>
#include <cmath>
#include <cstdint>

#include "circuit/adc.hpp"
#include "circuit/bitline.hpp"

namespace yoloc {

/// Per-event digital/driver energies accompanying each analog read.
struct ArrayEnergyParams {
  double wl_pulse_pj = 0.0006;   // one wordline pulse on one row
  double shift_add_pj = 0.012;   // one digital shift-add accumulation
  double dac_driver_pj = 0.001;  // input-bit driver, per row per cycle

  bool operator==(const ArrayEnergyParams&) const = default;
};

/// Bitline discharge in CimArrayModel::kDischargeLsbV steps. 128 bits
/// wide: a served run's total passes 2^64 steps (~4.3e9 V) within a few
/// thousand images.
__extension__ typedef unsigned __int128 DischargeSteps;

/// What one event of each kind costs. The array model that charges a
/// stats object stamps its costs into it; all zero until then.
struct ArrayUnitCosts {
  double adc_pj = 0.0;              // one ADC conversion
  double precharge_pj_per_v = 0.0;  // one volt of discharge: C_bl * V_pre
  double wl_pulse_pj = 0.0;         // one wordline pulse, driver included
  double shift_add_pj = 0.0;        // one digital shift-add

  bool operator==(const ArrayUnitCosts&) const = default;
};

/// Activity of one or more array operations. Every event is an integer
/// count, so accumulate() is plain integer addition: totals do not
/// depend on the order in which reads, columns, tiles or batches were
/// summed. Energies are derived from the counts when read.
struct ArrayReadStats {
  std::uint64_t adc_conversions = 0;
  std::uint64_t wl_pulses = 0;
  std::uint64_t shift_adds = 0;
  DischargeSteps discharge = 0;
  ArrayUnitCosts costs;

  /// Each count times its unit cost, summed.
  [[nodiscard]] double total_energy_pj() const;
  /// Adds the counts. Stats that no array has charged (all-zero costs)
  /// take the other side's costs; two charged sides must agree.
  void accumulate(const ArrayReadStats& other);
  /// Stamp `unit` as the costs of these stats: adopted when none are set,
  /// else checked equal (ROM and SRAM stats are never merged).
  void adopt_costs(const ArrayUnitCosts& unit);
  /// Field-wise and exact: the bit-identity contract between execution
  /// paths.
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
  /// model every read chain (CimMacro::mvm_packed's plain and vector
  /// bodies, the test oracle) is pinned to, bit for bit. It therefore uses
  /// only +, -, *, / and the comparisons a vector lane has (x86 max/min
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

  /// The discharge of `cells` ON cells (fractional counts allowed) in
  /// ledger steps: min(cells * delta_v, v_precharge - v_floor) rounded
  /// like read()'s. The exact-cost path's average-activity discharge.
  [[nodiscard]] std::uint64_t discharge_steps(double cells) const {
    return ledger_steps(min_x86(cells * chain_.delta_v, chain_.bl_range) *
                        0x1p32);
  }

  /// Count `conversions` ADC reads whose discharges sum to `discharge`
  /// ledger steps, and stamp this array's unit costs into `stats`.
  void charge_reads(std::uint64_t conversions, DischargeSteps discharge,
                    ArrayReadStats& stats) const;
  /// Count `pulses` wordline pulses.
  void charge_wl_pulses(std::uint64_t pulses, ArrayReadStats& stats) const;
  /// Count `ops` digital shift-adds.
  void charge_shift_adds(std::uint64_t ops, ArrayReadStats& stats) const;

  /// Constants of the read() chain, shared with the vectorized read
  /// chain (macro/noisy_chain.inc), which mirrors read() lane by lane.
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
    double bl_range = 0.0;  // v_precharge - v_floor
  };
  [[nodiscard]] const ReadChainConsts& read_chain_consts() const {
    return chain_;
  }

  /// x86 maxsd / minsd: (a > b ? a : b) and (a < b ? a : b). Written out
  /// so the scalar read() and the vector lanes agree even on signed zeros.
  static double max_x86(double a, double b) { return a > b ? a : b; }
  static double min_x86(double a, double b) { return a < b ? a : b; }

  /// Round a non-negative double below 2^51 to the nearest integer, ties
  /// to even — by adding 2^52 and reading the mantissa, the same bits an
  /// vector lane gets.
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
  ArrayUnitCosts costs_;
  int group_size_;
  double counts_per_code_;
  ReadChainConsts chain_;
};

}  // namespace yoloc
