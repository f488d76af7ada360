#pragma once
// Internal to macro/: the read loops of CimMacro::mvm_packed, and the MAC
// loop of CimMacro::mvm_packed_exact_cost_tile (below).
//
// Every ADC read of the bit-serial macro digitizes an ON-cell count,
// popcount(weight plane & input plane & group mask) — two 64-bit
// popcounts per read. The portable x86-64 baseline has no POPCNT
// instruction, so std::popcount there is an out-of-line libgcc call.
// Each loop below is therefore written once, as an always-inline body,
// and compiled twice: as a plain function (the build's baseline ISA) and
// inside a [[gnu::target("popcnt")]] wrapper.
//
// The noisy read chain also has vector bodies on every x86-64 GCC/Clang
// build, one source (noisy_chain.inc) compiled twice: for AVX2 (four
// output rows per __m256d) and for AVX-512F (eight rows per __m512d).
// Each draws every read's keyed normals (common/keyed_noise.hpp) and runs
// CimArrayModel::read() lane by lane with the same operations in the
// same order and no FMA. Codes are summed as integers per row and the
// bitline discharge goes into an integer ledger, so no sum depends on
// the order in which lanes or rows were visited.
//
// packed_kernels() picks one table per process from the CPU's feature
// bits: AVX-512F, else AVX2, else POPCNT, else plain. Integer popcount
// is exact and the vector lanes mirror the scalar read, so every table
// is bit-identical: same counts, outputs and MacroRunStats.
//
// The separate POPCNT variant exists only on x86-64 GCC/Clang builds
// whose baseline lacks the instruction. Where the baseline already has
// it (__POPCNT__, e.g. -DYOLOC_NATIVE=ON on a POPCNT host) or on other
// ISAs and compilers, only the plain body is built.
//
// Exposed (rather than kept file-local) so tests can run every variant
// side by side — on a vector host nothing else runs the plain bodies —
// and so benches and the HTTP /plan endpoint can report which one runs.

#include <cstddef>
#include <cstdint>

#include "circuit/cim_array.hpp"
#include "common/act_view.hpp"
#include "common/keyed_noise.hpp"
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

/// The noise-free row loop's tables and outputs.
struct NoiseFreeRows {
  int m = 0;
  const double* bit_cycle_weight = nullptr;        // [b * input_bits + t]
  const double* ideal_estimate = nullptr;          // count -> estimate
  const std::uint64_t* ideal_discharge = nullptr;  // count -> ledger steps
  std::int32_t* y = nullptr;                       // m outputs
  /// Out: the discharge ledger steps of every read, summed.
  std::uint64_t discharge = 0;
};

/// The noisy read chain of one mvm_packed call: every read (j, b, t, grp)
/// of every output row j < m, read index r = (b * input_bits + t) *
/// groups + grp, normals read_normals(key, j, r), outcome
/// array->read(count, z.cell, z.adc).
struct NoisyRows {
  int m = 0;
  const CimArrayModel* array = nullptr;
  /// sigma_cell * sqrt(c) for c = 0..128, as read() forms it.
  const double* cell_sd = nullptr;
  ReadNoiseKey key;
  std::int32_t* y = nullptr;  // m outputs (see finish_noisy_row)
  /// Out: the discharge ledger steps of every read, summed.
  std::uint64_t discharge = 0;
};

/// Row j's output from its per-weight-bit code sums, sums[b] = sum over
/// (t, grp) of code << t: y = counts_per_code * sum over b of bit weight
/// * sums[b], in integers. Under faults each weight bit's summed estimate
/// takes the column's ADC drift, which is affine, so it applies to the
/// sum: (counts_per_code * sums[b]) * gain + offset * groups *
/// (2^input_bits - 1), then the bits are shift-added in double and
/// rounded half away from zero. Shared by every noisy body; the test
/// oracle restates it.
std::int32_t finish_noisy_row(const std::int64_t* sums,
                              const PackedCountArgs& args,
                              std::int64_t counts_per_code, int j);

struct PackedKernels {
  /// The noise-free path over all m rows: table-lookup ADC estimates,
  /// shift-add into y, discharge ledger.
  void (*noise_free_rows)(const PackedCountArgs& args, NoiseFreeRows& rows);
  /// The noisy path over all m rows (NoisyRows).
  void (*noisy_rows)(const PackedCountArgs& args, NoisyRows& rows);
  /// "hw" when the variant's popcount is an instruction, else "portable".
  const char* popcount;
  /// "avx512" for the 8-row vector read chain, "avx2" for the 4-row one,
  /// else "portable".
  const char* chain;
};

/// The plain bodies, compiled for the build's baseline ISA.
const PackedKernels& plain_packed_kernels();
/// The POPCNT variant, or nullptr when this build has none (see above)
/// or the CPU lacks the instruction.
const PackedKernels* popcnt_packed_kernels();
/// The AVX2 read chain (with the POPCNT noise-free body), or nullptr
/// when this build has none or the CPU lacks AVX2.
const PackedKernels* avx2_packed_kernels();
/// The AVX-512F read chain (with the POPCNT noise-free body), or nullptr
/// when this build has none or the CPU lacks AVX-512F.
const PackedKernels* avx512_packed_kernels();
/// The variant mvm_packed runs: AVX-512F, else AVX2, else POPCNT, else
/// the plain bodies. Chosen once per process.
const PackedKernels& packed_kernels();

// The exact-cost tile's MAC loop and pulse count
// (CimMacro::mvm_packed_exact_cost_tile), picked the same way: the AVX2
// vpmaddwd GEMM of common/int_gemm.hpp, which gathers each strip of
// activations through the view and counts its wordline pulses in the
// pass that interleaves them, when the CPU has AVX2; otherwise the plain
// body, which gathers 256-column blocks of the view into a dense
// per-thread buffer and runs a SWAR pulse scan and the plain
// gemm_s8u8_accumulate over it. Both give the same y and the same pulse
// total. Unlike the popcount pair, the AVX2 body is built on every
// x86-64 GCC/Clang build, -march=native included, so both always exist
// there.

/// The operands of one exact-cost tile call: y[j*ldy + c] += sum over
/// i < k of w[j*ldw + i] * x.at(i, c) for j < m, c < p. The call returns
/// the tile's wordline pulses, the sum over i < k and c < p of
/// popcount(x.at(i, c) & window).
struct ExactTileArgs {
  const std::int8_t* w = nullptr;
  std::size_t ldw = 0;
  int m = 0;
  int k = 0;  // <= 8191
  ActView x;
  int p = 0;
  std::int32_t* y = nullptr;
  std::size_t ldy = 0;
  std::uint8_t window = 0;  // the input_bits mask
};

struct ExactTileKernels {
  std::uint64_t (*gemm_pulses)(const ExactTileArgs& args);
  /// "avx2" for the vpmaddwd body, "portable" for the plain one.
  const char* gemm;
};

/// The plain body: a dense gather, then SWAR pulse scan +
/// gemm_s8u8_accumulate.
const ExactTileKernels& plain_exact_tile_kernels();
/// The AVX2 variant, or nullptr when this build has none or the CPU lacks
/// AVX2.
const ExactTileKernels* avx2_exact_tile_kernels();
/// The variant the exact-cost tile runs: AVX2 when available, else the
/// plain body. Chosen once per process.
const ExactTileKernels& exact_tile_kernels();

}  // namespace yoloc::detail
