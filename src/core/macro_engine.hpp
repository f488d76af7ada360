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
// The engine itself is immutable and reentrant: it holds only the macro
// model, the mode, and (optionally) a pointer to a PackedWeightsCache.
// The noise RNG stream and the run statistics travel in the caller's
// MvmSession, so any number of requests can execute through one engine
// concurrently, each with its own session. Because a session is REQUIRED
// (stats always, rng in analog mode), this engine cannot be direct-bound
// to quantized layers the way the sessionless ExactMvmEngine can — drive
// it through an ExecutionContext / MvmBinding (src/runtime/), which wires
// a session per request.
//
// Fast path: when a cache is attached, mvm_batch resolves (or builds,
// once) the PackedRomWeights for the layer's weight buffer. Analog mode
// drives CimMacro::mvm_packed per (k-tile, column); exact-cost mode makes
// one CimMacro::mvm_packed_exact_cost_tile call per k-tile, which reads
// the k x p activations and accumulates the m x p outputs in place (an
// int8 GEMM over all columns, on AVX2 vpmaddwd where the CPU has it and
// on the plain body otherwise). Both are bit-identical to the legacy
// per-call path — outputs, every MacroRunStats sum and the RNG draw
// order — so deployments can switch packing on without changing a
// single output. Without a cache the engine behaves exactly as before
// the packing existed (the pre-packing baseline the macro bench and the
// parity tests compare against).

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

  /// `packed_cache`, when non-null, must outlive the engine and be
  /// dedicated to this macro's geometry (a DeploymentPlan owns one per
  /// engine). Null disables the packed fast path.
  MacroMvmEngine(const CimMacro& macro, Mode mode,
                 const PackedWeightsCache* packed_cache = nullptr);

  // Note: the base class's sessionless mvm_batch convenience is
  // deliberately NOT re-exposed — this engine requires a session, so the
  // hidden overload turns a guaranteed runtime throw into a compile error.

  /// Requires session.stats; kAnalog additionally requires session.rng.
  void mvm_batch(const std::int8_t* w, int m, int k, const std::uint8_t* x,
                 int p, std::int32_t* y, MvmSession& session) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const CimMacro& macro() const { return *macro_; }
  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] const PackedWeightsCache* packed_cache() const {
    return packed_cache_;
  }

 private:
  const CimMacro* macro_;
  Mode mode_;
  const PackedWeightsCache* packed_cache_;
};

}  // namespace yoloc
