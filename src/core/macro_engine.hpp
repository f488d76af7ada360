#pragma once
// MvmEngine backed by the CiM macro model: every integer MVM issued by a
// quantized layer is tiled over macro subarrays and executed through the
// analog bitline/ADC path (or the exact-cost path), accumulating
// energy/latency statistics along the way.
//
// This is the piece that closes the loop between the NN substrate and the
// circuit substrate: running a quantized network with this engine yields
// simultaneously (a) task accuracy under analog non-idealities and
// (b) measured compute energy per inference.
//
// The engine owns the frozen ROM packing of every weight matrix it
// serves: pack() expands a layer's weights into their macro-native
// bit-plane layout once (a DeploymentPlan packs every quantized layer at
// construction — the software analogue of committing the ROM mask at
// tape-out), and mvm_batch only looks that packing up. After packing the
// engine is immutable and reentrant: the noise RNG stream, the run
// statistics and the scratch buffers travel in the caller's MvmSession,
// so any number of requests can execute through one engine concurrently,
// each with its own session. A session is REQUIRED (stats and scratch
// always, rng in analog mode): quantized layers reach the engine through
// an ExecutionContext's MvmBinding (src/runtime/), which wires a session
// per request.
//
// Analog mode drives CimMacro::mvm_packed per (k-tile, column);
// exact-cost mode makes one CimMacro::mvm_packed_exact_cost_tile call per
// k-tile, which reads the k x p activations and accumulates the m x p
// outputs in place (an int8 GEMM over all columns, on AVX2 vpmaddwd where
// the CPU has it and on the plain body otherwise). Both are bit-identical
// to tiling the same MVM over per-call CimMacro::mvm / mvm_exact_cost —
// outputs, every MacroRunStats sum and the RNG draw order; the tests and
// the macro bench keep that per-call tiler as an oracle
// (tests/reference_macro_engine.hpp).

#include "macro/cim_macro.hpp"
#include "macro/packed_weights.hpp"
#include "nn/quantize.hpp"

namespace yoloc {

class MacroMvmEngine final : public MvmEngine {
 public:
  enum class Mode {
    kAnalog,     // bitline + ADC + mismatch noise (accuracy + cost)
    kExactCost,  // bit-exact math, modeled cost (cost-only studies)
  };

  /// `macro` must outlive the engine.
  MacroMvmEngine(const CimMacro& macro, Mode mode);

  /// Packs the (m x k) weight buffer `w` for this engine's macro geometry
  /// and mode (exact-cost keeps only the tile boundaries). Must be called
  /// for every weight buffer before mvm_batch sees it, and never while
  /// mvm_batch runs; `w` must stay alive and unchanged for the engine's
  /// lifetime.
  const PackedRomWeights& pack(const std::int8_t* w, int m, int k);

  /// Requires session.stats and session.scratch; kAnalog additionally
  /// requires session.rng. `w` must have been packed (pack()).
  void mvm_batch(const std::int8_t* w, int m, int k, const std::uint8_t* x,
                 int p, std::int32_t* y, MvmSession& session) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const CimMacro& macro() const { return *macro_; }
  [[nodiscard]] Mode mode() const { return mode_; }
  /// Every packing built by pack() (entry count, resident bytes, cost).
  [[nodiscard]] const PackedWeightsCache& packed() const { return packed_; }

 private:
  const CimMacro* macro_;
  Mode mode_;
  PackedWeightsCache packed_;
};

}  // namespace yoloc
