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
// Two functional paths exist per mode:
//   * mvm / mvm_exact_cost: the per-call reference that derives weight
//     bit-planes from the raw int8 buffer on every call. The circuit
//     benches and macro_spec call it directly on single tiles, and it is
//     the specification the packed path is tested against (the tests'
//     per-call tiler, tests/reference_macro_engine.hpp, drives it).
//   * mvm_packed / mvm_packed_exact_cost_tile: the deploy-time path over
//     a PackedRomWeights tile (one column per analog call; every column
//     of the tile per exact-cost call) — the only path MacroMvmEngine
//     runs. Bit-identical to the per-call path — same outputs, same
//     stats, and (in analog mode) the same RNG draw order (j, b, t, grp)
//     — just without re-deriving what ROM weights cannot change. When
//     the config is noise-free (sigma_cell == 0 AND adc.noise_sigma_v ==
//     0) the packed analog path additionally skips the zero-scaled noise
//     draws and reads the ADC transfer from a precomputed count ->
//     estimate table; outputs and stats stay bit-identical (every skipped
//     draw was multiplied by 0), but the session RNG is no longer
//     advanced by such calls.

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

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

  /// Analog-modeled MVM: y (int32, m entries) ~= W (m x k, int8) * x
  /// (k entries, uint8). k must fit the subarray rows. Accumulates
  /// activity into stats. Noise/quantization follow the circuit model.
  void mvm(const std::int8_t* w, int m, int k, const std::uint8_t* x,
           std::int32_t* y, Rng& rng, MacroRunStats& stats) const;

  /// Bit-exact variant that still pays the modeled energy/latency —
  /// used to isolate cost modeling from accuracy modeling.
  void mvm_exact_cost(const std::int8_t* w, int m, int k,
                      const std::uint8_t* x, std::int32_t* y,
                      MacroRunStats& stats) const;

  /// Analog fast path over one packed tile: bit-identical to mvm() on
  /// the same tile (same y, same stats, same RNG draw order). `x` holds
  /// the tile's k_size activation entries; `y` receives m partial sums.
  /// `packed` must have been built against this macro's geometry.
  /// `read_counts` / `read_normals` are caller-owned per-row buffers of
  /// the noisy read chain (one output row's exact counts and noise
  /// draws); they grow on first use to weight_bits * input_bits * groups
  /// and 2x that entries, and are reused afterwards.
  void mvm_packed(const PackedRomWeights& packed, int tile_index,
                  const std::uint8_t* x, std::int32_t* y, Rng& rng,
                  MacroRunStats& stats, std::vector<std::uint8_t>& read_counts,
                  std::vector<double>& read_normals) const;

  /// Exact-cost fast path over one packed tile and all p input columns
  /// at once. `w` is the FULL (m x k) weight matrix the packing was
  /// built from, `x` the FULL (k x p) row-major activation matrix (both
  /// read in place at the tile's rows), and `y` an (m x p) row-major
  /// accumulator: y[j*p + c] += W[j, tile] * x[tile, c]. Bit-identical
  /// to p mvm_exact_cost() calls on the tile's chunk, one per column in
  /// column order, with their partial sums added into y: same outputs,
  /// and every MacroRunStats field advanced per column in that order. No
  /// RNG is consumed (the legacy exact path draws none either). The MACs
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

  /// True when the analog chain draws no noise (sigma_cell == 0 and ADC
  /// noise_sigma_v == 0): the packed path then runs draw-free.
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
  /// Shared bookkeeping for both mvm variants (scans x for pulses).
  void charge_op_costs(int m, int k, const std::uint8_t* x,
                       MacroRunStats& stats) const;
  /// Same bookkeeping with the wordline pulse count already known (the
  /// packed path derives it from the activation bit-plane popcounts
  /// instead of a second scan of x).
  void charge_op_costs(int m, int k, std::uint64_t pulses,
                       MacroRunStats& stats) const;

  void check_packed_tile(const PackedRomWeights& packed,
                         int tile_index) const;

  MacroConfig config_;
  CimArrayModel array_;
  /// Constructed only when config_.faults.any(); shared so macro copies
  /// see one active flag. Both mvm paths hoist ONE null/active check per
  /// call — the fault-off instruction stream is otherwise unchanged.
  std::shared_ptr<FaultModel> faults_;

  // Analog read chain constants, derived by CimArrayModel (next to the
  // canonical read_count they mirror) and cached here for the inlined
  // packed read path; sqrt of the integer ON-cell count is
  // pre-tabulated (<= 128 rows).
  CimArrayModel::ReadChainConsts read_;
  std::array<double, 129> sqrt_count_{};
  bool noise_free_ = false;
  // Noise-free transfer tables indexed by exact count (<= 128 rows):
  // code * counts_per_code and the matching precharge energy.
  std::array<double, 129> ideal_estimate_{};
  std::array<double, 129> ideal_precharge_pj_{};
};

}  // namespace yoloc
