// Packed-weights coverage: the deploy-time bit-plane packing
// (macro/packed_weights.*) and MacroMvmEngine, which runs only the packed
// CimMacro MVM, must be BIT-IDENTICAL to the per-call reference tiler
// (tests/reference_macro_engine.hpp, a plain scalar loop over the keyed
// draws) — same outputs, every run stat, same noise call count — across
// analog (noisy and noise-free), exact-cost, odd reduction sizes,
// multi-tile shapes and random geometries with faults on and off, and —
// for the tile-wide exact-cost call — p = 1 to p > 1024 columns, all-zero
// weight rows and a pulse window narrower than the activations. The
// engine's frozen packing table must refuse an unpacked buffer and a
// packed buffer whose contents changed. The kernels behind the packed
// path are also run variant by variant (plain body, hardware POPCNT, the
// AVX2 read chain), so the ones a host never selects stay covered.
// `ctest -L macro` selects this suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/macro_engine.hpp"
#include "macro/packed_kernels.hpp"
#include "reference_macro_engine.hpp"

namespace yoloc {
namespace {

MacroConfig noise_free_rom() {
  MacroConfig cfg = default_rom_macro();
  cfg.bitline.sigma_cell = 0.0;
  cfg.adc.noise_sigma_v = 0.0;
  return cfg;
}

std::vector<std::int8_t> random_weights(int m, int k, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int8_t> w(static_cast<std::size_t>(m) * k);
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  return w;
}

std::vector<std::uint8_t> random_acts(int k, int p, std::uint64_t seed) {
  Rng rng(seed ^ 0x1234);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(k) * p);
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return x;
}

/// Drives the engine and the reference tiler over the (m x k) weights `w`
/// with identically seeded sessions and checks outputs, stats and the
/// sessions' noise call counts match exactly.
void expect_paths_identical(const MacroConfig& cfg,
                            MacroMvmEngine::Mode mode,
                            const std::vector<std::int8_t>& w, int m, int k,
                            int p, std::uint64_t seed) {
  const CimMacro macro(cfg);
  const ReferenceMacroEngine legacy(macro, mode);
  MacroMvmEngine packed(macro, mode);
  (void)packed.pack(w.data(), m, k);
  const auto x = random_acts(k, p, seed);

  std::vector<std::int32_t> y_legacy(static_cast<std::size_t>(m) * p);
  std::vector<std::int32_t> y_packed(static_cast<std::size_t>(m) * p);
  AnalogNoise noise_legacy{seed, 0};
  AnalogNoise noise_packed{seed, 0};
  MacroRunStats stats_legacy, stats_packed;
  MvmScratch scratch_legacy, scratch_packed;
  MvmSession legacy_session{&noise_legacy, &stats_legacy, &scratch_legacy};
  MvmSession packed_session{&noise_packed, &stats_packed, &scratch_packed};

  // Two back-to-back calls so the second draws under the next call
  // number and starts from non-zero stats (the accumulation-order
  // contract).
  for (int call = 0; call < 2; ++call) {
    legacy.mvm_batch(w.data(), m, k, x.data(), p, y_legacy.data(),
                     legacy_session);
    packed.mvm_batch(w.data(), m, k, x.data(), p, y_packed.data(),
                     packed_session);
    EXPECT_EQ(y_legacy, y_packed) << "call " << call;
    // Energy/latency sums must match to the last bit (same values, same
    // accumulation order).
    EXPECT_EQ(stats_legacy, stats_packed) << "call " << call;
  }

  // Each analog call numbers its draws; exact-cost calls draw nothing.
  const std::uint64_t calls = mode == MacroMvmEngine::Mode::kAnalog ? 2 : 0;
  EXPECT_EQ(noise_legacy.calls, calls);
  EXPECT_EQ(noise_packed.calls, calls);
}

/// Same, over random weights.
void expect_paths_identical(const MacroConfig& cfg,
                            MacroMvmEngine::Mode mode, int m, int k, int p,
                            std::uint64_t seed) {
  expect_paths_identical(cfg, mode, random_weights(m, k, seed), m, k, p,
                         seed);
}

TEST(PackedRomWeights, MasksMatchNaiveDerivation) {
  const MacroGeometry g = default_rom_macro().geometry;
  const int m = 3;
  const int k = 100;  // odd: not a multiple of rows_per_activation (32)
  const auto w = random_weights(m, k, 42);
  const PackedRomWeights packed(w.data(), m, k, g);

  ASSERT_EQ(packed.tile_count(), 1);
  const auto& tile = packed.tile(0);
  EXPECT_EQ(tile.k0, 0);
  EXPECT_EQ(tile.k_size, k);
  EXPECT_EQ(tile.groups, 4);  // ceil(100 / 32)

  // Group masks partition [0, k) along rows_per_activation boundaries.
  int covered = 0;
  for (int grp = 0; grp < tile.groups; ++grp) {
    covered += tile.group_masks[static_cast<std::size_t>(grp)].count();
  }
  EXPECT_EQ(covered, k);
  EXPECT_EQ(tile.group_masks[3].count(), 4);  // 100 - 3*32

  // Every weight bit is where the naive derivation puts it.
  for (int j = 0; j < m; ++j) {
    for (int b = 0; b < g.weight_bits; ++b) {
      const RowMask& plane =
          tile.wbits[static_cast<std::size_t>(j) * g.weight_bits + b];
      for (int i = 0; i < k; ++i) {
        const unsigned wv = static_cast<std::uint8_t>(
            w[static_cast<std::size_t>(j) * k + i]);
        const bool expected = ((wv >> b) & 1u) != 0;
        const bool actual =
            ((plane.lane[i >> 6] >> (i & 63)) & 1ull) != 0;
        EXPECT_EQ(actual, expected) << "j=" << j << " b=" << b << " i=" << i;
      }
    }
  }

  // Shift-add table: MSB plane carries the negative two's-complement
  // factor, scaled by 2^t per input cycle.
  const double* bcw = packed.bit_cycle_weight();
  EXPECT_EQ(bcw[0], 1.0);                                 // b=0, t=0
  EXPECT_EQ(bcw[1], 2.0);                                 // b=0, t=1
  EXPECT_EQ(bcw[7 * g.input_bits + 0], -128.0);           // b=7, t=0
  EXPECT_EQ(bcw[7 * g.input_bits + 7], -128.0 * 128.0);   // b=7, t=7
  EXPECT_GT(packed.packed_bytes(), 0u);
  EXPECT_GE(packed.pack_ms(), 0.0);
}

TEST(PackedRomWeights, TilesMirrorEngineRowTiling) {
  const MacroGeometry g = default_rom_macro().geometry;
  const int m = 2;
  const int k = 300;  // 128 + 128 + 44
  const auto w = random_weights(m, k, 43);
  const PackedRomWeights packed(w.data(), m, k, g);
  ASSERT_EQ(packed.tile_count(), 3);
  EXPECT_EQ(packed.tile(0).k_size, 128);
  EXPECT_EQ(packed.tile(1).k0, 128);
  EXPECT_EQ(packed.tile(2).k0, 256);
  EXPECT_EQ(packed.tile(2).k_size, 44);
  EXPECT_EQ(packed.tile(2).groups, 2);  // 32 + 12
}

TEST(PackedRomWeights, RejectsUnsupportedGeometry) {
  MacroGeometry g = default_rom_macro().geometry;
  const auto w = random_weights(1, 8, 44);
  g.weight_bits = 9;
  EXPECT_THROW(PackedRomWeights(w.data(), 1, 8, g), std::runtime_error);
  g = default_rom_macro().geometry;
  g.input_bits = 9;
  EXPECT_THROW(PackedRomWeights(w.data(), 1, 8, g), std::runtime_error);
  g = default_rom_macro().geometry;
  g.rows = 129;
  EXPECT_THROW(PackedRomWeights(w.data(), 1, 8, g), std::runtime_error);
  // Activation groups must hold between 1 and `rows` rows (0 used to
  // divide by zero while sizing the groups).
  g = default_rom_macro().geometry;
  g.rows_per_activation = 0;
  EXPECT_THROW(PackedRomWeights(w.data(), 1, 8, g), std::runtime_error);
  g = default_rom_macro().geometry;
  g.rows_per_activation = g.rows + 1;
  EXPECT_THROW(PackedRomWeights(w.data(), 1, 8, g), std::runtime_error);
}

TEST(PackedRomWeights, BoundariesOnlyPackingForExactCost) {
  const MacroGeometry g = default_rom_macro().geometry;
  const int m = 4;
  const int k = 150;
  const auto w = random_weights(m, k, 46);
  const PackedRomWeights planes(w.data(), m, k, g, /*pack_planes=*/true);
  const PackedRomWeights bounds(w.data(), m, k, g, /*pack_planes=*/false);
  EXPECT_TRUE(planes.has_planes());
  EXPECT_FALSE(bounds.has_planes());
  ASSERT_EQ(bounds.tile_count(), planes.tile_count());
  for (int t = 0; t < bounds.tile_count(); ++t) {
    EXPECT_TRUE(bounds.tile(t).wbits.empty());
    EXPECT_EQ(bounds.tile(t).k0, planes.tile(t).k0);
    EXPECT_EQ(bounds.tile(t).groups, planes.tile(t).groups);
    EXPECT_FALSE(bounds.tile(t).group_masks.empty());
  }
  EXPECT_LT(bounds.packed_bytes(), planes.packed_bytes());

  // The analog path refuses a boundaries-only packing.
  const CimMacro macro(default_rom_macro());
  std::vector<std::uint8_t> x(128, 1);
  std::vector<std::int32_t> y(static_cast<std::size_t>(m));
  MacroRunStats stats;
  EXPECT_THROW(
      macro.mvm_packed(bounds, 0, x.data(), y.data(), ReadNoiseKey{}, stats),
      std::runtime_error);
}

TEST(PackedWeightsCache, ReturnsSameInstance) {
  const MacroGeometry g = default_rom_macro().geometry;
  PackedWeightsCache cache;
  const auto w = random_weights(4, 64, 45);
  const PackedRomWeights& first = cache.add(w.data(), 4, 64, g, true);
  const PackedRomWeights& second = cache.add(w.data(), 4, 64, g, true);
  EXPECT_EQ(&first, &second);  // packed once, shared afterwards
  EXPECT_EQ(&cache.find(w.data(), 4, 64), &first);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.packed_bytes(), first.packed_bytes());

  // A different shape is a different entry.
  (void)cache.add(w.data(), 2, 64, g, true);
  EXPECT_EQ(cache.entries(), 2u);
}

TEST(PackedWeightsCache, FindOnUnpackedBufferThrows) {
  const MacroGeometry g = default_rom_macro().geometry;
  PackedWeightsCache cache;
  const auto w = random_weights(4, 64, 47);
  const auto other = random_weights(4, 64, 48);
  try {
    (void)cache.find(w.data(), 4, 64);
    ADD_FAILURE() << "find on an empty table must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("4 x 64"), std::string::npos)
        << e.what();
  }
  (void)cache.add(w.data(), 4, 64, g, true);
  EXPECT_THROW((void)cache.find(other.data(), 4, 64), std::runtime_error);
  EXPECT_THROW((void)cache.find(w.data(), 4, 32), std::runtime_error);
  EXPECT_NO_THROW((void)cache.find(w.data(), 4, 64));
}

TEST(PackedMvm, RefusesUnpackedWeightsAndMissingScratch) {
  const CimMacro macro(default_rom_macro());
  MacroMvmEngine engine(macro, MacroMvmEngine::Mode::kExactCost);
  const auto w = random_weights(4, 64, 49);
  const auto x = random_acts(64, 2, 49);
  std::vector<std::int32_t> y(8);
  MacroRunStats stats;
  MvmScratch scratch;
  MvmSession session{nullptr, &stats, &scratch};
  EXPECT_THROW(
      engine.mvm_batch(w.data(), 4, 64, x.data(), 2, y.data(), session),
      std::runtime_error);
  (void)engine.pack(w.data(), 4, 64);
  MvmSession no_scratch{nullptr, &stats, nullptr};
  EXPECT_THROW(
      engine.mvm_batch(w.data(), 4, 64, x.data(), 2, y.data(), no_scratch),
      std::runtime_error);
  EXPECT_NO_THROW(
      engine.mvm_batch(w.data(), 4, 64, x.data(), 2, y.data(), session));
}

TEST(PackedMvm, ChangedPackedBufferTripsContentCheck) {
  // The sampled bytes are the buffer's first, middle and last: changing
  // any one of them after packing must fail the next MVM loudly instead
  // of computing with stale bit-planes.
  const int m = 4;
  const int k = 64;
  const CimMacro macro(default_rom_macro());
  const auto x = random_acts(k, 2, 50);
  for (const auto mode :
       {MacroMvmEngine::Mode::kAnalog, MacroMvmEngine::Mode::kExactCost}) {
    for (const std::size_t at :
         {std::size_t{0}, std::size_t{m * k / 2}, std::size_t{m * k - 1}}) {
      SCOPED_TRACE(::testing::Message() << "byte " << at);
      auto w = random_weights(m, k, 50);
      MacroMvmEngine engine(macro, mode);
      (void)engine.pack(w.data(), m, k);
      std::vector<std::int32_t> y(static_cast<std::size_t>(m) * 2);
      AnalogNoise noise{50, 0};
      MacroRunStats stats;
      MvmScratch scratch;
      MvmSession session{&noise, &stats, &scratch};
      engine.mvm_batch(w.data(), m, k, x.data(), 2, y.data(), session);
      w[at] = static_cast<std::int8_t>(w[at] ^ 0x5A);
      EXPECT_THROW(
          engine.mvm_batch(w.data(), m, k, x.data(), 2, y.data(), session),
          std::runtime_error);
    }
  }
}

TEST(PackedMvm, EnginePacksPerMode) {
  // Analog engines pack the weight bit-planes; exact-cost engines keep
  // only the tile boundaries (their MAC reads the raw int8 rows).
  const CimMacro macro(default_rom_macro());
  const auto w = random_weights(4, 150, 51);
  MacroMvmEngine analog(macro, MacroMvmEngine::Mode::kAnalog);
  MacroMvmEngine exact(macro, MacroMvmEngine::Mode::kExactCost);
  EXPECT_TRUE(analog.pack(w.data(), 4, 150).has_planes());
  EXPECT_FALSE(exact.pack(w.data(), 4, 150).has_planes());
  EXPECT_EQ(analog.packed().entries(), 1u);
  EXPECT_EQ(exact.packed().entries(), 1u);
  EXPECT_LT(exact.packed().packed_bytes(), analog.packed().packed_bytes());
}

TEST(PackedMvm, AnalogBitIdenticalUnderDefaultNoise) {
  expect_paths_identical(default_rom_macro(), MacroMvmEngine::Mode::kAnalog,
                         /*m=*/24, /*k=*/128, /*p=*/5, /*seed=*/101);
}

TEST(PackedMvm, AnalogBitIdenticalOnSramMacro) {
  expect_paths_identical(default_sram_macro(), MacroMvmEngine::Mode::kAnalog,
                         /*m=*/16, /*k=*/128, /*p=*/3, /*seed=*/102);
}

TEST(PackedMvm, AnalogBitIdenticalOddReduction) {
  // k = 100: last activation group has only 4 rows.
  expect_paths_identical(default_rom_macro(), MacroMvmEngine::Mode::kAnalog,
                         /*m=*/8, /*k=*/100, /*p=*/4, /*seed=*/103);
}

TEST(PackedMvm, AnalogBitIdenticalMultiTile) {
  // k = 300 spans three subarray row tiles (128 + 128 + 44).
  expect_paths_identical(default_rom_macro(), MacroMvmEngine::Mode::kAnalog,
                         /*m=*/6, /*k=*/300, /*p=*/3, /*seed=*/104);
}

TEST(PackedMvm, AnalogBitIdenticalNoiseFree) {
  // sigma_cell = 0 and ADC noise = 0: the packed path switches to the
  // draw-free table transfer; outputs and stats must still match the
  // legacy path exactly.
  expect_paths_identical(noise_free_rom(), MacroMvmEngine::Mode::kAnalog,
                         /*m=*/24, /*k=*/128, /*p=*/5, /*seed=*/105);
  expect_paths_identical(noise_free_rom(), MacroMvmEngine::Mode::kAnalog,
                         /*m=*/8, /*k=*/100, /*p=*/2, /*seed=*/106);
}

TEST(PackedMvm, AnalogBitIdenticalNarrowOperands) {
  MacroConfig cfg = default_rom_macro();
  cfg.geometry.weight_bits = 4;
  cfg.geometry.input_bits = 4;
  expect_paths_identical(cfg, MacroMvmEngine::Mode::kAnalog,
                         /*m=*/8, /*k=*/128, /*p=*/4, /*seed=*/107);
}

TEST(PackedMvm, AnalogBitIdenticalCellNoiseOnly) {
  // sigma_cell > 0 with a noiseless ADC: the ADC normal is still drawn
  // and scaled by 0.0.
  MacroConfig cfg = default_rom_macro();
  cfg.adc.noise_sigma_v = 0.0;
  ASSERT_GT(cfg.bitline.sigma_cell, 0.0);
  expect_paths_identical(cfg, MacroMvmEngine::Mode::kAnalog,
                         /*m=*/12, /*k=*/100, /*p=*/3, /*seed=*/111);
}

TEST(PackedMvm, AnalogBitIdenticalAdcNoiseOnly) {
  // sigma_cell == 0 with ADC noise: the cell normal is scaled by 0.0.
  MacroConfig cfg = default_rom_macro();
  cfg.bitline.sigma_cell = 0.0;
  ASSERT_GT(cfg.adc.noise_sigma_v, 0.0);
  expect_paths_identical(cfg, MacroMvmEngine::Mode::kAnalog,
                         /*m=*/12, /*k=*/100, /*p=*/3, /*seed=*/112);
}

TEST(PackedMvm, AnalogBitIdenticalManyGroupsPerRow) {
  // rows_per_activation 1 and 4: 128 and 32 groups per tile, so one
  // output row makes thousands of reads (read indices up to 8191).
  for (const int rpa : {1, 4}) {
    MacroConfig cfg = default_rom_macro();
    cfg.geometry.rows_per_activation = rpa;
    SCOPED_TRACE(rpa);
    expect_paths_identical(cfg, MacroMvmEngine::Mode::kAnalog,
                           /*m=*/4, /*k=*/130, /*p=*/2,
                           /*seed=*/113 + static_cast<std::uint64_t>(rpa));
  }
}

TEST(PackedMvm, ExactCostBitIdentical) {
  expect_paths_identical(default_rom_macro(),
                         MacroMvmEngine::Mode::kExactCost,
                         /*m=*/24, /*k=*/128, /*p=*/5, /*seed=*/108);
  expect_paths_identical(default_rom_macro(),
                         MacroMvmEngine::Mode::kExactCost,
                         /*m=*/6, /*k=*/300, /*p=*/3, /*seed=*/109);
}

TEST(PackedMvm, ExactCostBitIdenticalNarrowWeightBits) {
  // weight_bits = 4 with full-range int8 weights: the exact path must
  // still reconstruct the full int8 product (all 8 planes are packed),
  // exactly like the legacy integer MAC.
  MacroConfig cfg = default_rom_macro();
  cfg.geometry.weight_bits = 4;
  expect_paths_identical(cfg, MacroMvmEngine::Mode::kExactCost,
                         /*m=*/8, /*k=*/128, /*p=*/4, /*seed=*/110);
}

TEST(PackedMvm, ExactCostTileWideColumnCounts) {
  // The exact-cost fast path makes one call per k-tile over all p
  // columns, walking them in 256-column blocks and 8-column pulse words.
  // p = 1 fills no whole word; p = 1100 crosses four block boundaries
  // and ends mid-word; k = 300 spans three tiles (128 + 128 + 44), on
  // both macro kinds.
  for (const MacroConfig& cfg : {default_rom_macro(), default_sram_macro()}) {
    SCOPED_TRACE(static_cast<int>(cfg.kind));
    for (const int p : {1, 1100}) {
      SCOPED_TRACE(p);
      expect_paths_identical(cfg, MacroMvmEngine::Mode::kExactCost,
                             /*m=*/6, /*k=*/300, p,
                             /*seed=*/120 + static_cast<std::uint64_t>(p));
      expect_paths_identical(cfg, MacroMvmEngine::Mode::kExactCost,
                             /*m=*/5, /*k=*/128, p,
                             /*seed=*/130 + static_cast<std::uint64_t>(p));
    }
  }
}

TEST(PackedMvm, ExactCostAllZeroWeightRows) {
  // Zero weights are skipped by the GEMM body; all-zero output rows
  // (two adjacent ones and the trailing one) must still come out 0 and
  // be costed like any other row.
  const int m = 5;
  const int k = 300;
  auto w = random_weights(m, k, 140);
  for (const int zero_row : {2, 3, 4}) {
    std::fill(w.begin() + static_cast<std::ptrdiff_t>(zero_row) * k,
              w.begin() + static_cast<std::ptrdiff_t>(zero_row + 1) * k,
              std::int8_t{0});
  }
  for (const MacroConfig& cfg : {default_rom_macro(), default_sram_macro()}) {
    SCOPED_TRACE(static_cast<int>(cfg.kind));
    expect_paths_identical(cfg, MacroMvmEngine::Mode::kExactCost, w, m, k,
                           /*p=*/1100, /*seed=*/141);
  }
}

TEST(PackedMvm, ExactCostPulseWindowNarrowerThanActivations) {
  // 8-bit activations on a 4-bit input geometry: only the low input_bits
  // of each byte pulse a wordline, so the SWAR pulse count must mask the
  // window exactly as the legacy per-bit scan does.
  for (MacroConfig cfg : {default_rom_macro(), default_sram_macro()}) {
    cfg.geometry.input_bits = 4;
    SCOPED_TRACE(static_cast<int>(cfg.kind));
    expect_paths_identical(cfg, MacroMvmEngine::Mode::kExactCost,
                           /*m=*/6, /*k=*/300, /*p=*/1100, /*seed=*/150);
  }
}

// Random 128-row mask with set bits only in rows [0, bits).
RowMask random_mask(Rng& rng, int bits) {
  RowMask mask;
  mask.lane[0] = rng();
  mask.lane[1] = rng();
  if (bits <= 64) {
    mask.lane[1] = 0;
    if (bits < 64) mask.lane[0] &= (1ull << bits) - 1;
  } else if (bits < 128) {
    mask.lane[1] &= (1ull << (bits - 64)) - 1;
  }
  return mask;
}

// The noise-free read loop for output row j as a per-call macro runs it:
// range-clamped counts with the fault overlays applied, then the table
// lookup, shift-add and energy chain (continued in `nf`'s accumulators).
// Every kernel variant must reproduce it exactly.
std::int32_t reference_noise_free_row(const detail::PackedCountArgs& a, int j,
                                      int k, int rows_per_activation,
                                      detail::NoiseFreeRows& nf) {
  const FaultModel* faults = a.faults;
  double acc = 0.0;
  for (int b = 0; b < a.weight_bits; ++b) {
    RowMask wb = a.wbits[static_cast<std::size_t>(j) * a.weight_bits + b];
    AdcDrift drift;
    if (faults != nullptr) {
      const FaultModel::PlaneFaults pf = faults->plane(j, b);
      wb.or_with(pf.force_one);
      wb.and_not(pf.force_zero);
      drift = faults->adc_drift(j, b);
    }
    for (int t = 0; t < a.input_bits; ++t) {
      RowMask wbt = wb;
      if (faults != nullptr && faults->has_transients()) {
        wbt.xor_with(faults->transient_flips(j, b, t));
      }
      for (int grp = 0; grp < a.groups; ++grp) {
        const int lo = grp * rows_per_activation;
        const int hi = std::min(k, lo + rows_per_activation);
        const int exact = wbt.count_and(a.xbits[t], lo, hi);
        double est = nf.ideal_estimate[exact];
        if (faults != nullptr) est = est * drift.gain + drift.offset_counts;
        acc += est * nf.bit_cycle_weight[b * a.input_bits + t];
        ++nf.conversions;
        nf.adc_energy += nf.adc_energy_pj;
        nf.precharge_energy += nf.ideal_precharge_pj[exact];
      }
    }
  }
  return static_cast<std::int32_t>(std::llround(acc));
}

/// Every kernel table this build and CPU can run, with a label.
std::vector<std::pair<const detail::PackedKernels*, const char*>>
kernel_variants() {
  std::vector<std::pair<const detail::PackedKernels*, const char*>> v{
      {&detail::plain_packed_kernels(), "plain"}};
  if (const auto* hw = detail::popcnt_packed_kernels()) {
    v.push_back({hw, "popcnt"});
  }
  if (const auto* avx2 = detail::avx2_packed_kernels()) {
    v.push_back({avx2, "avx2"});
  }
  return v;
}

/// One random kernel input: planes, activations, group masks and an
/// optional fault model.
struct KernelCase {
  std::vector<RowMask> wbits;
  std::vector<RowMask> xbits;
  std::vector<RowMask> group_masks;
  std::unique_ptr<FaultModel> faults;
  detail::PackedCountArgs args;
};

KernelCase random_kernel_case(Rng& rng, int m, int k, int rpa,
                              int weight_bits, int input_bits, bool faulted) {
  KernelCase c;
  // Weight planes get random bits above k too (stuck-at-1 overlays can
  // set them); the group masks must keep them out of every count.
  c.wbits.resize(static_cast<std::size_t>(m) * weight_bits);
  for (auto& mask : c.wbits) mask = random_mask(rng, 128);
  c.xbits.resize(static_cast<std::size_t>(input_bits));
  for (auto& mask : c.xbits) mask = random_mask(rng, k);
  const int groups = (k + rpa - 1) / rpa;
  c.group_masks.resize(static_cast<std::size_t>(groups));
  for (int i = 0; i < k; ++i) {
    c.group_masks[static_cast<std::size_t>(i / rpa)].set(i);
  }
  if (faulted) {
    FaultModelConfig fc;
    fc.seed = 17;
    fc.stuck_at_zero_rate = 0.05;
    fc.stuck_at_one_rate = 0.05;
    fc.transient_flip_rate = 0.02;
    fc.adc_offset_max = 1.5;
    fc.adc_gain_max = 0.05;
    c.faults = std::make_unique<FaultModel>(fc, /*salt=*/0, /*rows=*/128);
  }
  c.args = {c.wbits.data(), c.xbits.data(), c.group_masks.data(), weight_bits,
            input_bits,     groups,         c.faults.get()};
  return c;
}

TEST(PackedKernels, VariantsMatchLegacyNoiseFreeRows) {
  const auto variants = kernel_variants();
  std::printf("[ kernels  ] mvm_packed runs the %s popcount / %s read-chain "
              "variant; %zu variant(s) built and supported here\n",
              detail::packed_kernels().popcount, detail::packed_kernels().chain,
              variants.size());

  const int m = 5;
  const int k = 123;  // not a multiple of 64: the upper lane is partial
  for (const int rpa : {1, 7, 32, 128}) {
    for (const bool faulted : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "rows_per_activation=" << rpa << " faulted=" << faulted);
      Rng rng(900 + static_cast<std::uint64_t>(rpa) * 2 + (faulted ? 1 : 0));
      const KernelCase c = random_kernel_case(rng, m, k, rpa, 8, 8, faulted);

      std::vector<double> bcw(64);
      for (auto& v : bcw) v = rng.uniform(-128.0, 128.0);
      std::vector<double> estimate(129);
      std::vector<double> precharge(129);
      for (auto& v : estimate) v = rng.uniform(0.0, 40.0);
      for (auto& v : precharge) v = rng.uniform(0.0, 0.1);
      const detail::NoiseFreeRows tables{.m = m,
                                         .bit_cycle_weight = bcw.data(),
                                         .ideal_estimate = estimate.data(),
                                         .ideal_precharge_pj =
                                             precharge.data(),
                                         .adc_energy_pj = 0.3,
                                         .conversions = 7,
                                         .adc_energy = 0.5,
                                         .precharge_energy = 0.25};

      detail::NoiseFreeRows expected = tables;
      std::vector<std::int32_t> y_ref(static_cast<std::size_t>(m));
      for (int j = 0; j < m; ++j) {
        y_ref[static_cast<std::size_t>(j)] =
            reference_noise_free_row(c.args, j, k, rpa, expected);
      }
      for (const auto& [v, label] : variants) {
        SCOPED_TRACE(label);
        std::vector<std::int32_t> y(static_cast<std::size_t>(m));
        detail::NoiseFreeRows rows = tables;
        rows.y = y.data();
        v->noise_free_rows(c.args, rows);
        EXPECT_EQ(y, y_ref);
        EXPECT_EQ(rows.conversions, expected.conversions);
        EXPECT_EQ(rows.adc_energy, expected.adc_energy);
        EXPECT_EQ(rows.precharge_energy, expected.precharge_energy);
      }
    }
  }
}

TEST(PackedKernels, NoisyVariantsMatchScalarKeyedReads) {
  // Every noisy body against reads made one at a time: range-clamped
  // counts, read_normals(key, j, r) and CimArrayModel::read(), codes
  // summed per weight bit, the row finished as the engine finishes it.
  // m runs 1..9 so the AVX2 body sees full, partial and single-lane row
  // blocks.
  const auto variants = kernel_variants();
  for (const MacroConfig& cfg : {default_rom_macro(), default_sram_macro()}) {
    const CimMacro macro(cfg);
    const CimArrayModel& array = macro.array_model();
    std::array<double, 129> cell_sd{};
    for (int c = 0; c <= 128; ++c) {
      cell_sd[static_cast<std::size_t>(c)] =
          array.read_chain_consts().sigma_cell *
          std::sqrt(static_cast<double>(c));
    }
    const auto cpc = static_cast<std::int64_t>(array.counts_per_code());
    for (int trial = 0; trial < 12; ++trial) {
      Rng rng(700 + static_cast<std::uint64_t>(trial) +
              (cfg.kind == MacroKind::kRom ? 0 : 100));
      const int m = 1 + trial % 9;
      const int k = rng.uniform_int(1, 128);
      const int rpa = std::vector<int>{1, 5, 16, 32}[trial % 4];
      const int weight_bits = rng.uniform_int(1, 8);
      const int input_bits = rng.uniform_int(1, 8);
      const bool faulted = trial % 3 == 0;
      SCOPED_TRACE(::testing::Message()
                   << "trial " << trial << " m=" << m << " k=" << k
                   << " rpa=" << rpa << " bits=" << weight_bits << "x"
                   << input_bits << " faulted=" << faulted);
      const KernelCase c = random_kernel_case(rng, m, k, rpa, weight_bits,
                                              input_bits, faulted);
      const ReadNoiseKey key{.seed = rng(),
                             .call = rng(),
                             .tile = static_cast<std::uint32_t>(trial),
                             .column = static_cast<std::uint32_t>(rng())};

      std::vector<std::int32_t> y_ref(static_cast<std::size_t>(m));
      std::uint64_t discharge_ref = 0;
      for (int j = 0; j < m; ++j) {
        std::int64_t sums[8] = {};
        std::uint32_t r = 0;
        for (int b = 0; b < weight_bits; ++b) {
          RowMask wb = c.wbits[static_cast<std::size_t>(j) * weight_bits + b];
          if (faulted) {
            const FaultModel::PlaneFaults pf = c.faults->plane(j, b);
            wb.or_with(pf.force_one);
            wb.and_not(pf.force_zero);
          }
          for (int t = 0; t < input_bits; ++t) {
            RowMask wbt = wb;
            if (faulted) wbt.xor_with(c.faults->transient_flips(j, b, t));
            for (int grp = 0; grp < c.args.groups; ++grp, ++r) {
              const int lo = grp * rpa;
              const int exact =
                  wbt.count_and(c.xbits[static_cast<std::size_t>(t)], lo,
                                std::min(k, lo + rpa));
              const NormalPair z =
                  read_normals(key, static_cast<std::uint32_t>(j), r);
              const CimArrayModel::ReadOutcome out =
                  array.read(exact, z.cell, z.adc);
              sums[b] += static_cast<std::int64_t>(out.code) << t;
              discharge_ref += out.discharge;
            }
          }
        }
        y_ref[static_cast<std::size_t>(j)] =
            detail::finish_noisy_row(sums, c.args, cpc, j);
      }
      for (const auto& [v, label] : variants) {
        SCOPED_TRACE(label);
        std::vector<std::int32_t> y(static_cast<std::size_t>(m), -1);
        detail::NoisyRows rows{.m = m,
                               .array = &array,
                               .cell_sd = cell_sd.data(),
                               .key = key,
                               .y = y.data()};
        v->noisy_rows(c.args, rows);
        EXPECT_EQ(y, y_ref);
        EXPECT_EQ(rows.discharge, discharge_ref);
      }
    }
  }
}

TEST(PackedMvm, KeyedChainMatchesOracleOverRandomGeometries) {
  // The engine (the read-chain variant this CPU selects) against the
  // scalar oracle over random subarray heights, activation groups,
  // operand widths and shapes, faults on and off.
  Rng rng(2026);
  for (int trial = 0; trial < 24; ++trial) {
    MacroConfig cfg =
        trial % 2 == 0 ? default_rom_macro() : default_sram_macro();
    MacroGeometry& g = cfg.geometry;
    g.rows = std::vector<int>{16, 32, 64, 128}[static_cast<std::size_t>(
        rng.uniform_int(0, 3))];
    g.rows_per_activation = std::min(
        g.rows, std::vector<int>{1, 2, 4, 8, 16, 32}[static_cast<std::size_t>(
                    rng.uniform_int(0, 5))]);
    g.weight_bits = rng.uniform_int(1, 8);
    g.input_bits = rng.uniform_int(1, 8);
    g.cols = g.weight_bits * 32;
    const bool faulted = trial % 3 == 1;
    if (faulted) {
      cfg.faults.seed = static_cast<std::uint64_t>(trial);
      cfg.faults.stuck_at_zero_rate = 0.02;
      cfg.faults.stuck_at_one_rate = 0.02;
      cfg.faults.transient_flip_rate = 0.01;
      cfg.faults.adc_offset_max = 1.0;
      cfg.faults.adc_gain_max = 0.05;
    }
    const int m = rng.uniform_int(1, 13);
    const int k = rng.uniform_int(1, 3 * g.rows);
    const int p = rng.uniform_int(1, 3);
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << " rows=" << g.rows
                 << " rpa=" << g.rows_per_activation << " bits="
                 << g.weight_bits << "x" << g.input_bits << " m=" << m
                 << " k=" << k << " p=" << p << " faulted=" << faulted);
    expect_paths_identical(cfg, MacroMvmEngine::Mode::kAnalog, m, k, p,
                           3000 + static_cast<std::uint64_t>(trial));
  }
}

}  // namespace
}  // namespace yoloc
