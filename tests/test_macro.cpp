// Macro-level tests: functional MVM fidelity against exact integer math,
// cost accounting, and the Table I specification summary.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/macro_engine.hpp"
#include "macro/cim_macro.hpp"
#include "macro/macro_spec.hpp"

namespace yoloc {
namespace {

MacroConfig quiet_rom() {
  MacroConfig cfg = default_rom_macro();
  cfg.bitline.sigma_cell = 0.0;
  cfg.adc.noise_sigma_v = 0.0;
  return cfg;
}

std::vector<std::int32_t> exact_mvm(const std::vector<std::int8_t>& w, int m,
                                    int k,
                                    const std::vector<std::uint8_t>& x) {
  std::vector<std::int32_t> y(static_cast<std::size_t>(m), 0);
  for (int j = 0; j < m; ++j) {
    std::int64_t acc = 0;
    for (int i = 0; i < k; ++i) {
      acc += static_cast<std::int64_t>(w[static_cast<std::size_t>(j) * k + i]) *
             x[static_cast<std::size_t>(i)];
    }
    y[static_cast<std::size_t>(j)] = static_cast<std::int32_t>(acc);
  }
  return y;
}

/// One single-column MVM through a MacroMvmEngine, as a deployed layer
/// runs it; accumulates into `stats`.
std::vector<std::int32_t> run_mvm(const CimMacro& macro,
                                  MacroMvmEngine::Mode mode,
                                  const std::vector<std::int8_t>& w, int m,
                                  int k, const std::vector<std::uint8_t>& x,
                                  MacroRunStats& stats) {
  MacroMvmEngine engine(macro, mode);
  engine.pack(w.data(), m, k);
  AnalogNoise noise{7, 0};
  MvmScratch scratch;
  MvmSession session{&noise, &stats, &scratch};
  std::vector<std::int32_t> y(static_cast<std::size_t>(m));
  engine.mvm_batch(w.data(), m, k, x.data(), 1, y.data(), session);
  return y;
}

constexpr auto kAnalog = MacroMvmEngine::Mode::kAnalog;

TEST(CimMacro, NoiseFreeMvmIsNearExact) {
  const CimMacro macro(quiet_rom());
  Rng rng(1);
  const int m = 4;
  const int k = 128;
  std::vector<std::int8_t> w(static_cast<std::size_t>(m) * k);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(k));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));

  MacroRunStats stats;
  const auto y = run_mvm(macro, kAnalog, w, m, k, x, stats);
  const auto ref = exact_mvm(w, m, k, x);

  // rows_per_activation=32 with a 5-bit ADC leaves ~1 count of rounding
  // per read; relative error stays below ~2%.
  for (int j = 0; j < m; ++j) {
    const double denom = std::max(1000.0, std::fabs(double(ref[j])));
    EXPECT_LT(std::fabs(double(y[j]) - ref[j]) / denom, 0.02) << "output " << j;
  }
}

TEST(CimMacro, SmallValuesExactlyReconstructed) {
  // Counts within one ADC step: zero quantization error expected.
  MacroConfig cfg = quiet_rom();
  const CimMacro macro(cfg);
  Rng rng(2);
  const int k = 16;
  std::vector<std::int8_t> w(static_cast<std::size_t>(2) * k);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(k));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-3, 3));
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
  MacroRunStats stats;
  const auto y = run_mvm(macro, kAnalog, w, 2, k, x, stats);
  const auto ref = exact_mvm(w, 2, k, x);
  EXPECT_EQ(y[0], ref[0]);
  EXPECT_EQ(y[1], ref[1]);
}

TEST(CimMacro, AggressiveGroupingDegradesAccuracy) {
  MacroConfig precise = quiet_rom();
  MacroConfig aggressive = quiet_rom();
  aggressive.geometry.rows_per_activation = 128;
  // Reduce per-cell discharge so 128 cells fit the bitline range.
  aggressive.bitline.i_cell_ua = 0.5;

  const CimMacro macro_p(precise);
  const CimMacro macro_a(aggressive);
  Rng rng(3);
  const int m = 4;
  const int k = 128;
  std::vector<std::int8_t> w(static_cast<std::size_t>(m) * k);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(k));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));

  MacroRunStats sp;
  MacroRunStats sa;
  const auto yp = run_mvm(macro_p, kAnalog, w, m, k, x, sp);
  const auto ya = run_mvm(macro_a, kAnalog, w, m, k, x, sa);
  const auto ref = exact_mvm(w, m, k, x);

  double err_p = 0.0;
  double err_a = 0.0;
  for (int j = 0; j < m; ++j) {
    err_p += std::fabs(double(yp[j]) - ref[j]);
    err_a += std::fabs(double(ya[j]) - ref[j]);
  }
  EXPECT_LT(err_p, err_a);
  // Fewer groups -> fewer conversions (energy win of the trade-off).
  EXPECT_LT(sa.array.adc_conversions, sp.array.adc_conversions);
}

TEST(CimMacro, StatsCountConversions) {
  const CimMacro macro(quiet_rom());
  const int m = 2;
  const int k = 64;  // 2 groups of 32
  std::vector<std::int8_t> w(static_cast<std::size_t>(m) * k, 1);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(k), 1);
  MacroRunStats stats;
  (void)run_mvm(macro, kAnalog, w, m, k, x, stats);
  // conversions = m * weight_bits * input_bits * groups = 2*8*8*2.
  EXPECT_EQ(stats.array.adc_conversions, 256u);
  EXPECT_EQ(stats.macro_ops, 1u);
  EXPECT_EQ(stats.macs, static_cast<std::uint64_t>(m) * k);
  EXPECT_GT(stats.latency_ns, 0.0);
  EXPECT_GT(stats.energy_pj(), 0.0);
}

TEST(CimMacro, ExactCostPathMatchesIntegerMath) {
  const CimMacro macro(quiet_rom());
  Rng rng(5);
  const int m = 3;
  const int k = 100;
  std::vector<std::int8_t> w(static_cast<std::size_t>(m) * k);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(k));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  MacroRunStats stats;
  EXPECT_EQ(run_mvm(macro, MacroMvmEngine::Mode::kExactCost, w, m, k, x,
                    stats),
            exact_mvm(w, m, k, x));
  EXPECT_GT(stats.energy_pj(), 0.0);
}

TEST(CimMacro, RejectsANoiseKeyForAnotherTile) {
  // A read's noise is keyed by its tile: a key naming another tile would
  // silently reuse that tile's draws.
  const CimMacro macro(default_rom_macro());
  std::vector<std::int8_t> w(2 * 200, 1);
  const PackedRomWeights packed(w.data(), 2, 200, macro.config().geometry);
  ASSERT_EQ(packed.tile_count(), 2);
  std::vector<std::uint8_t> x(128, 1);
  std::vector<std::int32_t> y(2);
  MacroRunStats stats;
  ReadNoiseKey key{.seed = 1, .call = 0, .tile = 0, .column = 0};
  EXPECT_THROW(macro.mvm_packed(packed, 1, x.data(), y.data(), key, stats),
               std::runtime_error);
  key.tile = 1;
  EXPECT_NO_THROW(
      macro.mvm_packed(packed, 1, x.data(), y.data(), key, stats));
}

TEST(CimMacro, RejectsEmptyOrOversizedActivationGroups) {
  // rows_per_activation = 0 used to die on a division by zero (SIGFPE)
  // before the divisibility check could throw.
  MacroConfig cfg = quiet_rom();
  cfg.geometry.rows_per_activation = 0;
  EXPECT_THROW(CimMacro{cfg}, std::runtime_error);

  cfg = quiet_rom();
  cfg.geometry.rows_per_activation = cfg.geometry.rows + 1;
  EXPECT_THROW(CimMacro{cfg}, std::runtime_error);
}

TEST(CimMacro, RejectsOperandWidthsBeyondRowMaskPlanes) {
  // The bit-serial paths index fixed RowMask xbits[8] / wbits[8] arrays;
  // wider operands must be rejected at construction, not corrupt the
  // stack at run time. (MacroConfig::validate alone allows up to 16.)
  MacroConfig cfg = quiet_rom();
  cfg.geometry.input_bits = 9;
  EXPECT_THROW(CimMacro{cfg}, std::runtime_error);

  cfg = quiet_rom();
  cfg.geometry.weight_bits = 9;
  cfg.geometry.cols = 9 * 32;  // keep cols divisible by weight_bits
  EXPECT_THROW(CimMacro{cfg}, std::runtime_error);

  cfg = quiet_rom();
  cfg.geometry.input_bits = 0;
  EXPECT_THROW(CimMacro{cfg}, std::runtime_error);

  cfg = quiet_rom();
  cfg.geometry.weight_bits = 0;
  EXPECT_THROW(CimMacro{cfg}, std::runtime_error);

  // The boundary value stays accepted.
  cfg = quiet_rom();
  cfg.geometry.input_bits = 8;
  cfg.geometry.weight_bits = 8;
  EXPECT_NO_THROW(CimMacro{cfg});
}

TEST(MacroConfig, RomDensityMatchesTableI) {
  const MacroConfig rom = default_rom_macro();
  // Table I: ~1.2 Mb, ~0.24 mm^2, ~5 Mb/mm^2.
  EXPECT_NEAR(rom.geometry.capacity_bits() / 1e6, 1.18, 0.1);
  EXPECT_NEAR(rom.area_mm2(), 0.24, 0.05);
  EXPECT_NEAR(rom.density_mb_per_mm2(), 5.0, 1.0);
}

TEST(MacroConfig, SramMuchLessDense) {
  const MacroConfig rom = default_rom_macro();
  const MacroConfig sram = default_sram_macro();
  const double ratio = rom.density_mb_per_mm2() / sram.density_mb_per_mm2();
  // Paper: ~19x macro-level density advantage.
  EXPECT_GT(ratio, 10.0);
  EXPECT_LT(ratio, 40.0);
  // Cell-level: 18.5x.
  EXPECT_NEAR(sram.area.cell_area_um2 / rom.area.cell_area_um2, 18.5, 0.1);
}

TEST(MacroConfig, AreaBreakdownSumsToOne) {
  for (const MacroConfig& cfg :
       {default_rom_macro(), default_sram_macro()}) {
    const auto b = cfg.area_breakdown();
    EXPECT_NEAR(b.array + b.adc + b.periphery + b.overhead, 1.0, 1e-9);
  }
}

TEST(MacroConfig, OnlySramWritable) {
  EXPECT_FALSE(default_rom_macro().writable());
  EXPECT_TRUE(default_sram_macro().writable());
  EXPECT_EQ(default_rom_macro().standby_power_uw, 0.0);
  EXPECT_GT(default_sram_macro().standby_power_uw, 0.0);
}

TEST(MacroSpec, TableIValues) {
  const CimMacro macro(default_rom_macro());
  Rng rng(7);
  const MacroSpecSummary s = summarize_macro(macro, rng, /*samples=*/16);
  EXPECT_NEAR(s.inference_time_ns, 8.9, 0.05);     // 8 x 1.1125 ns
  EXPECT_EQ(s.operation_number, 256);              // 2 x 128 rows
  EXPECT_NEAR(s.throughput_gops, 28.8, 0.3);
  EXPECT_NEAR(s.cell_area_um2, 0.014, 1e-6);
  EXPECT_NEAR(s.density_mb_per_mm2, 5.0, 1.0);
  // Measured efficiency should land in Table I's neighbourhood.
  EXPECT_GT(s.mac_eff_tops_per_w, 8.0);
  EXPECT_LT(s.mac_eff_tops_per_w, 16.0);
  EXPECT_GT(s.area_eff_gops_per_mm2, 80.0);
  EXPECT_LT(s.area_eff_gops_per_mm2, 160.0);
}

TEST(MacroSpec, TablePrintsAllRows) {
  const CimMacro macro(default_rom_macro());
  Rng rng(8);
  const MacroSpecSummary s = summarize_macro(macro, rng, /*samples=*/4);
  const TextTable t = macro_spec_table(s);
  EXPECT_EQ(t.row_count(), 12u);
  EXPECT_NE(t.to_string().find("TOPS/W"), std::string::npos);
}

TEST(MacroSpec, SramLessEfficientThanRom) {
  Rng rng(9);
  const CimMacro rom(default_rom_macro());
  const CimMacro sram(default_sram_macro());
  const auto srom = summarize_macro(rom, rng, 8);
  const auto ssram = summarize_macro(sram, rng, 8);
  EXPECT_GT(srom.mac_eff_tops_per_w, ssram.mac_eff_tops_per_w);
}

}  // namespace
}  // namespace yoloc
