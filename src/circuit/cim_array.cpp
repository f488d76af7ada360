#include "circuit/cim_array.hpp"

#include <cmath>

#include "common/check.hpp"

namespace yoloc {

void ArrayReadStats::accumulate(const ArrayReadStats& other) {
  adc_conversions += other.adc_conversions;
  wl_pulses += other.wl_pulses;
  shift_adds += other.shift_adds;
  adc_energy_pj += other.adc_energy_pj;
  precharge_energy_pj += other.precharge_energy_pj;
  wl_energy_pj += other.wl_energy_pj;
  shift_add_energy_pj += other.shift_add_energy_pj;
}

namespace {

/// One ADC LSB spans an integer number of cell-discharge steps so that
/// in-range counts reconstruct exactly: ceil(group / 2^bits). Groups
/// larger than the code range saturate at the top codes (the paper's
/// aggressive many-rows-per-activation trade-off).
int lsb_count_steps(int group_size, int adc_bits) {
  const int levels = 1 << adc_bits;
  return (group_size + levels - 1) / levels;
}

}  // namespace

CimArrayModel::CimArrayModel(const BitlineParams& bitline, AdcParams adc,
                             const ArrayEnergyParams& energy, int group_size)
    : bitline_(bitline),
      adc_((adc.v_hi = bitline.v_precharge,
            // ADC full-scale = (levels-1) LSBs of lsb_count_steps cells
            // each, anchored at the precharge voltage. The low reference
            // may extend below the discharge floor (codes down there are
            // simply never produced); what matters is that one LSB spans
            // exactly lsb_count_steps cell-discharge steps.
            adc.v_lo = bitline.v_precharge -
                       ((1 << adc.bits) - 1) *
                           lsb_count_steps(group_size, adc.bits) *
                           (bitline.i_cell_ua * bitline.t_pulse_ns /
                            bitline.c_bl_ff),
            adc)),
      energy_(energy),
      group_size_(group_size) {
  YOLOC_CHECK(group_size >= 1, "cim array: group_size >= 1");
  YOLOC_CHECK(group_size <= bitline_.max_resolvable_count(),
              "cim array: group discharge exceeds bitline range; reduce "
              "group size or cell current");
  counts_per_code_ =
      static_cast<double>(lsb_count_steps(group_size, adc_.params().bits));

  const BitlineParams& bl = bitline_.params();
  const AdcParams& adc_params = adc_.params();
  chain_.sigma_cell = bl.sigma_cell;
  chain_.noise_sigma_v = adc_params.noise_sigma_v;
  chain_.delta_v = bitline_.delta_v_per_cell();
  chain_.v_precharge = bl.v_precharge;
  chain_.v_floor = bl.v_floor;
  chain_.v_lo = adc_params.v_lo;
  chain_.v_hi = adc_params.v_hi;
  chain_.lsb = adc_.lsb_voltage();
  chain_.levels = adc_.code_count();
  chain_.counts_per_code = counts_per_code_;
  chain_.adc_energy_pj = adc_params.energy_pj;
  chain_.bl_range = bl.v_precharge - bl.v_floor;
}

double CimArrayModel::read_count(int exact_count, int active_rows, Rng& rng,
                                 ArrayReadStats& stats) const {
  YOLOC_CHECK(exact_count >= 0 && exact_count <= active_rows,
              "cim array: count exceeds active rows");
  YOLOC_CHECK(active_rows <= group_size_, "cim array: group overflow");
  const double z_cell =
      chain_.sigma_cell > 0.0 && exact_count > 0 ? rng.normal() : 0.0;
  const ReadOutcome r = read(exact_count, z_cell, rng.normal());
  charge_reads(1, r.discharge, stats);
  return r.code * counts_per_code_;
}

void CimArrayModel::charge_reads(std::uint64_t conversions,
                                 std::uint64_t discharge,
                                 ArrayReadStats& stats) const {
  const BitlineParams& bl = bitline_.params();
  stats.adc_conversions += conversions;
  stats.adc_energy_pj +=
      static_cast<double>(conversions) * adc_.params().energy_pj;
  // fF * V * V = fJ; convert to pJ (BitlineModel::precharge_energy_pj).
  stats.precharge_energy_pj += bl.c_bl_ff * bl.v_precharge *
                               (static_cast<double>(discharge) *
                                kDischargeLsbV) *
                               1e-3;
}

double CimArrayModel::read_count_ideal(int exact_count,
                                       ArrayReadStats& stats) const {
  const double v = bitline_.voltage_for_count(exact_count);
  const int code = adc_.quantize_ideal(v);
  stats.adc_conversions += 1;
  stats.adc_energy_pj += adc_.params().energy_pj;
  stats.precharge_energy_pj += bitline_.precharge_energy_pj(exact_count);
  return code * counts_per_code_;
}

void CimArrayModel::charge_wl_pulses(std::uint64_t pulses,
                                     ArrayReadStats& stats) const {
  stats.wl_pulses += pulses;
  stats.wl_energy_pj +=
      static_cast<double>(pulses) * (energy_.wl_pulse_pj + energy_.dac_driver_pj);
}

void CimArrayModel::charge_shift_adds(std::uint64_t ops,
                                      ArrayReadStats& stats) const {
  stats.shift_adds += ops;
  stats.shift_add_energy_pj += static_cast<double>(ops) * energy_.shift_add_pj;
}

}  // namespace yoloc
