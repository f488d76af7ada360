#include "circuit/cim_array.hpp"

#include <cmath>

#include "common/check.hpp"

namespace yoloc {

double ArrayReadStats::total_energy_pj() const {
  return static_cast<double>(adc_conversions) * costs.adc_pj +
         costs.precharge_pj_per_v *
             (static_cast<double>(discharge) * CimArrayModel::kDischargeLsbV) +
         static_cast<double>(wl_pulses) * costs.wl_pulse_pj +
         static_cast<double>(shift_adds) * costs.shift_add_pj;
}

void ArrayReadStats::accumulate(const ArrayReadStats& other) {
  adopt_costs(other.costs);
  adc_conversions += other.adc_conversions;
  wl_pulses += other.wl_pulses;
  shift_adds += other.shift_adds;
  discharge += other.discharge;
}

void ArrayReadStats::adopt_costs(const ArrayUnitCosts& unit) {
  if (costs == ArrayUnitCosts{}) {
    costs = unit;
  } else {
    YOLOC_CHECK(unit == ArrayUnitCosts{} || unit == costs,
                "array stats: merging stats charged at different unit costs");
  }
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
      costs_{.adc_pj = adc.energy_pj,
             // E = C_bl * V_pre * dV: fF * V per volt of discharge is
             // fJ, and 1e-3 converts to pJ (BitlineModel::
             // precharge_energy_pj).
             .precharge_pj_per_v =
                 bitline.c_bl_ff * bitline.v_precharge * 1e-3,
             .wl_pulse_pj = energy.wl_pulse_pj + energy.dac_driver_pj,
             .shift_add_pj = energy.shift_add_pj},
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
  chain_.bl_range = bl.v_precharge - bl.v_floor;
}

void CimArrayModel::charge_reads(std::uint64_t conversions,
                                 DischargeSteps discharge,
                                 ArrayReadStats& stats) const {
  stats.adopt_costs(costs_);
  stats.adc_conversions += conversions;
  stats.discharge += discharge;
}

void CimArrayModel::charge_wl_pulses(std::uint64_t pulses,
                                     ArrayReadStats& stats) const {
  stats.adopt_costs(costs_);
  stats.wl_pulses += pulses;
}

void CimArrayModel::charge_shift_adds(std::uint64_t ops,
                                      ArrayReadStats& stats) const {
  stats.adopt_costs(costs_);
  stats.shift_adds += ops;
}

}  // namespace yoloc
