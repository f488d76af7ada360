#pragma once
// Internal to macro/: the popcount-heavy loops of CimMacro::mvm_packed,
// and the MAC loop of CimMacro::mvm_packed_exact_cost_tile (below).
//
// Every ADC read of the bit-serial macro digitizes an ON-cell count,
// popcount(weight plane & input plane & group mask) — two 64-bit
// popcounts per read. The portable x86-64 baseline has no POPCNT
// instruction, so std::popcount there is an out-of-line libgcc call.
// Each loop below is therefore written once, as an always-inline body,
// and compiled twice: as a plain function (the build's baseline ISA) and
// inside a [[gnu::target("popcnt")]] wrapper. packed_kernels() picks one
// per process from the CPU's feature bits. Integer popcount is exact and
// no floating-point operation changes, so both variants are
// bit-identical: same counts, outputs, MacroRunStats and RNG draw order.
//
// The separate POPCNT variant exists only on x86-64 GCC/Clang builds
// whose baseline lacks the instruction. Where the baseline already has
// it (__POPCNT__, e.g. -DYOLOC_NATIVE=ON on a POPCNT host) or on other
// ISAs and compilers, only the plain body is built.
//
// Exposed (rather than kept file-local) so tests can run both variants
// side by side — on a POPCNT host nothing else runs the plain body — and
// so benches and the HTTP /plan endpoint can report which one runs.

#include <cstddef>
#include <cstdint>

#include "macro/fault_model.hpp"
#include "macro/packed_weights.hpp"

namespace yoloc::detail {

/// The count inputs of one mvm_packed call on one packed tile.
struct PackedCountArgs {
  const RowMask* wbits = nullptr;        // tile.wbits: m * weight_bits planes
  const RowMask* xbits = nullptr;        // input_bits activation planes
  const RowMask* group_masks = nullptr;  // `groups` boundary masks
  int weight_bits = 0;
  int input_bits = 0;
  int groups = 0;
  const FaultModel* faults = nullptr;    // nullptr when fault-off
};

/// The noise-free row loop's tables, output and energy accumulators.
/// The accumulators are in/out: they continue from the caller's running
/// stats, so the add sequence (and its rounding) matches the legacy
/// per-read updates.
struct NoiseFreeRows {
  int m = 0;
  const double* bit_cycle_weight = nullptr;    // [b * input_bits + t]
  const double* ideal_estimate = nullptr;      // count -> estimate
  const double* ideal_precharge_pj = nullptr;  // count -> precharge pJ
  double adc_energy_pj = 0.0;                  // per conversion
  std::int32_t* y = nullptr;                   // m outputs
  std::uint64_t conversions = 0;
  double adc_energy = 0.0;
  double precharge_energy = 0.0;
};

struct PackedKernels {
  /// Noisy pass 1 for output row j: writes the weight_bits * input_bits
  /// * groups exact ON-cell counts in (b, t, grp) order, fault overlays
  /// applied, and returns how many of them are non-zero.
  int (*count_row)(const PackedCountArgs& args, int j, std::uint8_t* counts);
  /// The noise-free path over all m rows: table-lookup ADC estimates,
  /// shift-add into y, energy accumulation.
  void (*noise_free_rows)(const PackedCountArgs& args, NoiseFreeRows& rows);
  /// "hw" when the variant's popcount is an instruction, else "portable".
  const char* popcount;
};

/// The plain body, compiled for the build's baseline ISA.
const PackedKernels& plain_packed_kernels();
/// The POPCNT variant, or nullptr when this build has none (see above)
/// or the CPU lacks the instruction.
const PackedKernels* popcnt_packed_kernels();
/// The variant mvm_packed runs: POPCNT when available, else the plain
/// body. Chosen once per process.
const PackedKernels& packed_kernels();

// The exact-cost tile's MAC loop and pulse count
// (CimMacro::mvm_packed_exact_cost_tile), picked the same way: the AVX2
// vpmaddwd GEMM of common/int_gemm.hpp, which counts each column's
// wordline pulses in the pass that interleaves its activations, when the
// CPU has AVX2; otherwise the plain gemm_s8u8_accumulate after a SWAR
// pulse scan of x. Both give the same y and the same pulse counts.
// Unlike the popcount pair, the AVX2 body is built on every x86-64
// GCC/Clang build, -march=native included, so both always exist there.

/// The operands of one exact-cost tile call: y[j*ldy + c] += sum over
/// i < k of w[j*ldw + i] * x[i*ldx + c] for j < m, c < p, and pulses[c] =
/// sum over i < k of popcount(x[i*ldx + c] & window) for c < p.
struct ExactTileArgs {
  const std::int8_t* w = nullptr;
  std::size_t ldw = 0;
  int m = 0;
  int k = 0;  // <= 8191
  const std::uint8_t* x = nullptr;
  std::size_t ldx = 0;
  int p = 0;
  std::int32_t* y = nullptr;
  std::size_t ldy = 0;
  std::uint8_t window = 0;  // the input_bits mask
  std::uint32_t* pulses = nullptr;
};

struct ExactTileKernels {
  void (*gemm_pulses)(const ExactTileArgs& args);
  /// "avx2" for the vpmaddwd body, "portable" for the plain one.
  const char* gemm;
};

/// The plain body: SWAR pulse scan + gemm_s8u8_accumulate.
const ExactTileKernels& plain_exact_tile_kernels();
/// The AVX2 variant, or nullptr when this build has none or the CPU lacks
/// AVX2.
const ExactTileKernels* avx2_exact_tile_kernels();
/// The variant the exact-cost tile runs: AVX2 when available, else the
/// plain body. Chosen once per process.
const ExactTileKernels& exact_tile_kernels();

}  // namespace yoloc::detail
