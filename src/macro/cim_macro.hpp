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
//     integers and the call's bitline discharge is kept in an integer
//     ledger, converted into the stats doubles once per call, so the
//     read order — four rows per AVX2 vector, or one at a time — changes
//     no bit. When the config is noise-free (sigma_cell == 0 AND
//     adc.noise_sigma_v == 0) it reads the ADC transfer from a
//     precomputed count -> estimate table instead.
//   * mvm_packed_exact_cost_tile: exact integer MACs over every column of
//     a tile, paying the modeled energy and latency.
// The test oracle (tests/reference_macro_engine.hpp) restates both as
// plain per-call loops over the raw int8 weights.

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/keyed_noise.hpp"
#include "macro/fault_model.hpp"
#include "macro/macro_config.hpp"
#include "macro/packed_weights.hpp"

namespace yoloc {

/// Activity + energy + latency of one or more macro operations.
struct MacroRunStats {
  ArrayReadStats array;
  std::uint64_t macro_ops = 0;   // MVM tiles executed
  std::uint64_t macs = 0;        // exact integer MACs represented
  double latency_ns = 0.0;       // serialized conversion slots
  [[nodiscard]] double energy_pj() const { return array.total_energy_pj(); }
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
  /// built from, `x` the FULL (k x p) row-major activation matrix (both
  /// read in place at the tile's rows), and `y` an (m x p) row-major
  /// accumulator: y[j*p + c] += W[j, tile] * x[tile, c]. Every
  /// MacroRunStats field advances per column, in column order, as p
  /// single-column calls would advance it. Draws no noise. The MACs
  /// and each column's wordline pulse count come from one kernel picked
  /// per process: an AVX2 vpmaddwd GEMM that counts the pulses while it
  /// interleaves the activations, or, on CPUs without AVX2, the plain
  /// int8 GEMM after a SWAR pulse scan (macro/packed_kernels.hpp). Both
  /// give the same y and pulses, so the choice changes no output or
  /// stat.
  void mvm_packed_exact_cost_tile(const PackedRomWeights& packed,
                                  int tile_index, const std::int8_t* w,
                                  const std::uint8_t* x, int p,
                                  std::int32_t* y,
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
  /// The per-call costs every path pays: wordline pulses, shift-adds,
  /// ADC slot latency, ops and MACs.
  void charge_op_costs(int m, int k, std::uint64_t pulses,
                       MacroRunStats& stats) const;

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
  // code * counts_per_code and the matching precharge energy.
  std::array<double, 129> ideal_estimate_{};
  std::array<double, 129> ideal_precharge_pj_{};
};

}  // namespace yoloc
