#pragma once
// Serve-time half of the runtime: all mutable per-request state.
//
// An ExecutionContext is cheap to construct and holds exactly what one
// in-flight request needs while executing a shared DeploymentPlan:
//   * the keyed noise state (seed + MVM call count) of the ROM and SRAM
//     engines,
//   * per-request MacroRunStats for both macros,
//   * scratch buffers (im2col matrix, quantized activations, int32
//     accumulator, macro tiling chunks) reused across layers and calls so
//     the hot loop stops allocating.
//
// Determinism: two contexts with the same seed produce bit-identical
// outputs for the same inputs against the same plan, regardless of which
// thread runs them or what else runs concurrently — the property the
// runtime concurrency tests pin down.

#include <cstdint>

#include "macro/cim_macro.hpp"
#include "nn/quantize.hpp"

namespace yoloc {

class DeploymentPlan;

class ExecutionContext {
 public:
  explicit ExecutionContext(const DeploymentPlan& plan,
                            std::uint64_t noise_seed = 2024);

  // Holds scratch + noise state; handed out by pointer into MvmSessions
  // while executing, so keep it pinned.
  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// Quantized inference through the plan's macro engines. Stats
  /// accumulate across calls until reset_stats().
  Tensor infer(const Tensor& images);

  /// Restart the noise from `noise_seed`: new seeds, call counts back to
  /// zero (stats are untouched).
  void reseed(std::uint64_t noise_seed);

  /// Activity of the ROM / SRAM macros since the last reset.
  [[nodiscard]] const MacroRunStats& rom_stats() const { return rom_stats_; }
  [[nodiscard]] const MacroRunStats& sram_stats() const {
    return sram_stats_;
  }
  void reset_stats();

  /// Total modeled macro energy [pJ] since the last reset.
  [[nodiscard]] double total_energy_pj() const;

  [[nodiscard]] const DeploymentPlan& plan() const { return *plan_; }

  /// Install (or clear, with nullptr) a per-layer trace sink: while set,
  /// every quant layer executed through this context reports its
  /// im2col/MVM phase timings to the sink. Observer-only — never affects
  /// outputs, stats or noise streams.
  void set_layer_trace(LayerTraceSink* trace) { trace_ = trace; }
  [[nodiscard]] LayerTraceSink* layer_trace() const { return trace_; }

 private:
  friend class DeploymentPlan;  // wires noise/stats/scratch into the binding

  const DeploymentPlan* plan_;
  AnalogNoise rom_noise_;
  AnalogNoise sram_noise_;
  MacroRunStats rom_stats_;
  MacroRunStats sram_stats_;
  MvmScratch scratch_;
  LayerTraceSink* trace_ = nullptr;
};

}  // namespace yoloc
