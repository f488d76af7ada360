// Macro-level ablations for the design choices DESIGN.md calls out:
//  * ADC resolution vs MVM fidelity and energy (the paper fixes 5 bits;
//    this sweep shows why: below 5 bits quantization error explodes,
//    above it energy is wasted).
//  * Rows-per-activation vs fidelity/energy (the paper's "trade-off
//    between the number of ADCs and simultaneously activated rows").
//  * Cell-mismatch sigma (ROM's 1T cells vs SRAM's 6T compute cells).

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <vector>

#include "common/table.hpp"
#include "common/units.hpp"
#include "core/macro_engine.hpp"
#include "macro/cim_macro.hpp"

namespace {

using namespace yoloc;

struct FidelityResult {
  double rel_error = 0.0;      // mean relative |err| on random MVMs
  double energy_per_op = 0.0;  // pJ per op (MAC = 2 ops)
  double tops_per_w = 0.0;
};

FidelityResult measure(const MacroConfig& cfg, int trials = 48) {
  const CimMacro macro(cfg);
  Rng rng(99);
  const int k = cfg.geometry.rows;
  const int m = 8;
  std::vector<std::int8_t> w(static_cast<std::size_t>(m) * k);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(k));
  std::vector<std::int32_t> y(static_cast<std::size_t>(m));
  MacroRunStats stats;
  MvmScratch scratch;
  AnalogNoise noise{rng(), 0};
  MvmSession session{&noise, &stats, &scratch};
  double err_acc = 0.0;
  int err_count = 0;
  for (int t = 0; t < trials; ++t) {
    for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    // A fresh engine per trial: an engine's packing is frozen.
    MacroMvmEngine engine(macro, MacroMvmEngine::Mode::kAnalog);
    engine.pack(w.data(), m, k);
    engine.mvm_batch(w.data(), m, k, DenseActView(x.data(), k, 1), 1,
                     y.data(), session);
    for (int j = 0; j < m; ++j) {
      std::int64_t ref = 0;
      for (int i = 0; i < k; ++i) {
        ref += static_cast<std::int64_t>(w[static_cast<std::size_t>(j) * k + i]) *
               x[static_cast<std::size_t>(i)];
      }
      const double denom = std::max<double>(std::llabs(ref), 10000.0);
      err_acc += std::fabs(static_cast<double>(y[static_cast<std::size_t>(j)]) -
                           static_cast<double>(ref)) /
                 denom;
      ++err_count;
    }
  }
  FidelityResult res;
  res.rel_error = err_acc / err_count;
  const double ops = 2.0 * static_cast<double>(stats.macs);
  res.energy_per_op = stats.energy_pj() / ops;
  res.tops_per_w = tops_per_watt(ops, stats.energy_pj());
  return res;
}

void run_adc_bits_sweep() {
  std::printf("=== Ablation: ADC resolution (rows/activation = 32) ===\n");
  TextTable t({"ADC bits", "Rel. MVM error [%]", "Energy [pJ/op]",
               "TOPS/W"});
  for (int bits : {3, 4, 5, 6, 7}) {
    MacroConfig cfg = default_rom_macro();
    cfg.geometry.adc_bits = bits;
    cfg.adc.bits = bits;
    // SAR ADC energy roughly doubles per extra bit.
    cfg.adc.energy_pj = 0.070 * std::pow(2.0, bits - 5);
    const FidelityResult r = measure(cfg);
    t.add_row({std::to_string(bits), format_fixed(100.0 * r.rel_error, 3),
               format_fixed(r.energy_per_op, 4),
               format_fixed(r.tops_per_w, 1)});
  }
  t.print();
  std::printf("\n");
}

void run_rows_sweep() {
  std::printf(
      "=== Ablation: rows per activation (5-bit ADC) — the paper's "
      "ADC-sharing trade-off ===\n");
  TextTable t({"Rows/activation", "Rel. MVM error [%]", "Energy [pJ/op]",
               "TOPS/W"});
  for (int rows : {16, 32, 64, 128}) {
    MacroConfig cfg = default_rom_macro();
    cfg.geometry.rows_per_activation = rows;
    // Keep the full-group discharge within the bitline range.
    cfg.bitline.i_cell_ua = 2.0 * 32.0 / rows;
    const FidelityResult r = measure(cfg);
    t.add_row({std::to_string(rows), format_fixed(100.0 * r.rel_error, 3),
               format_fixed(r.energy_per_op, 4),
               format_fixed(r.tops_per_w, 1)});
  }
  t.print();
  std::printf("\n");
}

void run_sigma_sweep() {
  std::printf("=== Ablation: cell-current mismatch sigma ===\n");
  TextTable t({"sigma_cell [%]", "Rel. MVM error [%]"});
  for (double sigma : {0.0, 0.02, 0.05, 0.10, 0.20}) {
    MacroConfig cfg = default_rom_macro();
    cfg.bitline.sigma_cell = sigma;
    const FidelityResult r = measure(cfg);
    t.add_row({format_fixed(100.0 * sigma, 0),
               format_fixed(100.0 * r.rel_error, 3)});
  }
  t.print();
  std::printf("(ROM 1T cells ~2%%; 6T SRAM compute cells ~5%%)\n\n");
}

void BM_MacroFidelityMeasurement(benchmark::State& state) {
  const MacroConfig cfg = default_rom_macro();
  for (auto _ : state) {
    const FidelityResult r = measure(cfg, /*trials=*/4);
    benchmark::DoNotOptimize(r.rel_error);
  }
}
BENCHMARK(BM_MacroFidelityMeasurement)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  run_adc_bits_sweep();
  run_rows_sweep();
  run_sigma_sweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
