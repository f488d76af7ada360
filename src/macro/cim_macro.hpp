#pragma once
// Functional + cost model of one CiM macro executing integer MVMs.
//
// Computing discipline (paper Fig. 5):
//   * A weight matrix chunk W (m outputs x k rows, int8) is bit-sliced:
//     weight bit b of output j lives in column j*8+b of the subarray.
//   * The activation vector x (k entries, uint8) is applied bit-serially:
//     input cycle t pulses the wordlines of rows whose activation bit t
//     is 1.
//   * Rows are activated `rows_per_activation` at a time; each active
//     group, input cycle and weight-bit column produces one ADC read of
//     the ON-cell count (cells where weight bit AND input bit are 1).
//   * The digital backend reconstructs y = W x via shift-and-add with
//     two's-complement weighting (bit 7 contributes with factor -128).
//
// The same engine drives both macro kinds; the MacroConfig supplies the
// analog parameters (ROM: low mismatch; SRAM: higher mismatch, heavier
// wordlines) and the cost constants.
//
// Two deploy-time paths, both over a PackedRomWeights tile and both run
// by MacroMvmEngine:
//   * mvm_packed: the analog read chain, one input column per call. Each
//     read takes its two standard normals from keyed counter-based draws
//     (common/keyed_noise.hpp), keyed by (seed, call, tile, column, row,
//     read), and runs CimArrayModel::read(). Codes are summed per row as
//     integers and the call's bitline discharge is summed in integer
//     ledger steps, so the read order — eight rows per AVX-512 vector,
//     four per AVX2 vector, or one at a time — changes no bit. When the
//     config is noise-free (sigma_cell == 0 AND adc.noise_sigma_v == 0)
//     it reads the ADC transfer and the discharge from precomputed
//     count -> estimate and count -> steps tables instead.
//   * mvm_packed_exact_cost_tile: exact integer MACs over every column of
//     a tile, reading the activations through an ActView (a conv's
//     padded input map plus its implicit-im2col offsets), and counting
//     the modeled events of all its columns at once.
// Both charge MacroRunStats, whose every event is an integer count:
// conversions, pulses, shift-adds, discharge steps, ADC slots, ops and
// MACs. Energy and latency are derived from the counts and the unit
// costs the charging macro stamps into the stats, so no total depends on
// the order in which reads, columns, tiles or batches were summed.
// The test oracle (tests/reference_macro_engine.hpp) restates both as
// plain per-call loops over the raw int8 weights.

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/act_view.hpp"
#include "common/keyed_noise.hpp"
#include "macro/fault_model.hpp"
#include "macro/macro_config.hpp"
#include "macro/packed_weights.hpp"

namespace yoloc {

/// Activity + energy + latency of one or more macro operations: integer
/// event counts (see ArrayReadStats), plus the unit time of one ADC slot
/// that the charging macro stamps in.
struct MacroRunStats {
  ArrayReadStats array;
  std::uint64_t macro_ops = 0;   // MVM tiles executed
  std::uint64_t macs = 0;        // exact integer MACs represented
  std::uint64_t adc_slots = 0;   // serialized conversion slots
  double slot_ns = 0.0;          // one slot's time; 0 until charged
  /// adc_slots * slot_ns. Derived: add_slots() and accumulate() assign
  /// it, nothing adds to it.
  double latency_ns = 0.0;

  [[nodiscard]] double energy_pj() const { return array.total_energy_pj(); }
  /// Count `slots` more ADC slots of `unit_ns` each (adopted or checked
  /// like ArrayReadStats::adopt_costs).
  void add_slots(std::uint64_t slots, double unit_ns);
  /// Integer addition of every count: associative and order-free.
  void accumulate(const MacroRunStats& other);
  /// Exact field-wise equality (see ArrayReadStats::operator==).
  bool operator==(const MacroRunStats&) const = default;
};

class CimMacro {
 public:
  explicit CimMacro(MacroConfig config);

  /// Analog MVM over one packed tile: y (m partial sums) ~= W[:, tile] *
  /// x, where `x` holds the tile's k_size activation entries. `key`
  /// names the call's noise (key.tile must be tile_index, below 2^16);
  /// the read chain is described above. `packed` must have been built
  /// against this macro's geometry, with bit-planes.
  void mvm_packed(const PackedRomWeights& packed, int tile_index,
                  const std::uint8_t* x, std::int32_t* y,
                  const ReadNoiseKey& key, MacroRunStats& stats) const;

  /// Exact-cost fast path over one packed tile and all p input columns
  /// at once. `w` is the FULL (m x k) weight matrix the packing was
  /// built from and `x` the FULL k x p activation view (both read in
  /// place at the tile's rows: a conv's view gathers its patches from
  /// the padded input map, so no patch matrix is built), and `y` an
  /// (m x p) row-major accumulator: y[j*p + c] += W[j, tile] * x[tile,
  /// c]. The stats advance by p columns' counts, each column read at the
  /// average activity (a quarter of each row group discharging), so they
  /// equal p single-column calls' sums. Draws no noise. The MACs and the
  /// wordline pulse count come from one kernel picked per process: an
  /// AVX2 vpmaddwd GEMM that counts the pulses while it gathers and
  /// interleaves the activations, or, on CPUs without AVX2, a dense
  /// gather, a SWAR pulse scan and the plain int8 GEMM
  /// (macro/packed_kernels.hpp). Both give the same y and pulses, so the
  /// choice changes no output or stat.
  void mvm_packed_exact_cost_tile(const PackedRomWeights& packed,
                                  int tile_index, const std::int8_t* w,
                                  const ActView& x, int p, std::int32_t* y,
                                  MacroRunStats& stats) const;

  [[nodiscard]] const MacroConfig& config() const { return config_; }
  [[nodiscard]] const CimArrayModel& array_model() const { return array_; }

  /// True when the analog chain has no noise (sigma_cell == 0 and ADC
  /// noise_sigma_v == 0): mvm_packed then reads a transfer table.
  [[nodiscard]] bool noise_free() const { return noise_free_; }

  /// The macro's fault model, or nullptr when config().faults.any() is
  /// false (the common case — no model is constructed at all). The
  /// pointer is stable for the macro's lifetime; copies of the macro
  /// share one model, so toggling set_active() reaches every copy.
  [[nodiscard]] FaultModel* fault_model() const { return faults_.get(); }

  /// Latency of a single full bit-serial pass (Table I "inference time"):
  /// input_bits serial cycles at the macro clock.
  [[nodiscard]] double single_pass_latency_ns() const;

 private:
  /// Count `columns` columns of an m x k tile: their ADC conversions
  /// (with `discharge` ledger steps between them), `pulses` wordline
  /// pulses, one shift-add per conversion, the ADC slots, ops and MACs.
  void charge_columns(int m, int k, std::uint64_t columns,
                      std::uint64_t pulses, DischargeSteps discharge,
                      MacroRunStats& stats) const;
  /// ADC conversions of one column of an m x k tile: one per (output,
  /// weight bit, input bit, row group).
  [[nodiscard]] std::uint64_t conversions_per_column(int m, int k) const;

  void check_packed_tile(const PackedRomWeights& packed,
                         int tile_index) const;

  MacroConfig config_;
  CimArrayModel array_;
  /// Constructed only when config_.faults.any(); shared so macro copies
  /// see one active flag. mvm_packed hoists ONE null/active check per
  /// call.
  std::shared_ptr<FaultModel> faults_;

  // sigma_cell * sqrt(count) per ON-cell count (<= 128 rows).
  std::array<double, 129> cell_sd_{};
  bool noise_free_ = false;
  // Noise-free transfer tables indexed by exact count (<= 128 rows):
  // code * counts_per_code and the read's discharge in ledger steps.
  std::array<double, 129> ideal_estimate_{};
  std::array<std::uint64_t, 129> ideal_discharge_{};
  // The exact-cost path's discharge per conversion: a quarter of the
  // row group (random-data assumption), in ledger steps.
  std::uint64_t quarter_group_discharge_ = 0;
};

}  // namespace yoloc
