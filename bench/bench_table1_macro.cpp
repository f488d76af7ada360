// Table I: ROM-CiM macro specification summary, regenerated from the
// macro model (density & throughput analytic; MAC energy efficiency
// measured through the functional analog path). The SRAM-CiM baseline
// macro is summarized alongside for the density/efficiency comparison.
//
// Paper values (28nm): 1.2 Mb, 0.24 mm^2, 5 Mb/mm^2 (25.6x), 0.014 um^2
// cell, 8b x 8b, 8.9 ns, 256 ops, 28.8 GOPS, 119.4 GOPS/mm^2,
// 11.5 TOPS/W, 0 standby.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "common/units.hpp"
#include "core/macro_engine.hpp"
#include "macro/macro_spec.hpp"

namespace {

using namespace yoloc;

void print_tables() {
  Rng rng(2022);
  const CimMacro rom(default_rom_macro());
  const CimMacro sram(default_sram_macro());

  std::printf("=== Table I: ROM-CiM macro specification summary ===\n");
  macro_spec_table(summarize_macro(rom, rng, /*samples=*/64)).print();

  std::printf("\n=== SRAM-CiM baseline macro (ISSCC'21-class) ===\n");
  // Reference density: the same 6T SRAM-CiM counterpart as the ROM row,
  // so the ratio column reads as "vs 6T SRAM-CiM".
  macro_spec_table(summarize_macro(sram, rng, /*samples=*/64)).print();

  const double rom_density = default_rom_macro().density_mb_per_mm2();
  const double sram_density = default_sram_macro().density_mb_per_mm2();
  std::printf("\nMacro density ratio ROM-CiM : SRAM-CiM = %.1fx "
              "(paper: ~19x macro, 25.6x vs 6T counterpart)\n\n",
              rom_density / sram_density);
}

/// Microbenchmark: one full-width analog MVM through the ROM macro.
void BM_RomMacroMvm(benchmark::State& state) {
  const CimMacro macro(default_rom_macro());
  Rng rng(1);
  const int k = macro.config().geometry.rows;
  const int m = macro.config().geometry.weights_per_row();
  std::vector<std::int8_t> w(static_cast<std::size_t>(m) * k);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(k));
  std::vector<std::int32_t> y(static_cast<std::size_t>(m));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  MacroRunStats stats;
  MvmScratch scratch;
  AnalogNoise noise{1, 0};
  MvmSession session{&noise, &stats, &scratch};
  MacroMvmEngine engine(macro, MacroMvmEngine::Mode::kAnalog);
  engine.pack(w.data(), m, k);
  for (auto _ : state) {
    engine.mvm_batch(w.data(), m, k, x.data(), 1, y.data(), session);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["modeled_TOPS/W"] =
      tops_per_watt(2.0 * static_cast<double>(stats.macs), stats.energy_pj());
  state.counters["sim_MACs/s"] = benchmark::Counter(
      static_cast<double>(m) * k * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RomMacroMvm);

/// Microbenchmark: the exact-cost path (accuracy studies disabled).
void BM_RomMacroMvmExactCost(benchmark::State& state) {
  const CimMacro macro(default_rom_macro());
  const int k = macro.config().geometry.rows;
  const int m = macro.config().geometry.weights_per_row();
  std::vector<std::int8_t> w(static_cast<std::size_t>(m) * k, 3);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(k), 7);
  std::vector<std::int32_t> y(static_cast<std::size_t>(m));
  MacroRunStats stats;
  MvmScratch scratch;
  MvmSession session{nullptr, &stats, &scratch};
  MacroMvmEngine engine(macro, MacroMvmEngine::Mode::kExactCost);
  engine.pack(w.data(), m, k);
  for (auto _ : state) {
    engine.mvm_batch(w.data(), m, k, x.data(), 1, y.data(), session);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_RomMacroMvmExactCost);

}  // namespace

int main(int argc, char** argv) {
  print_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
