// Kernel-level throughput of the CiM macro MVM: packed (MacroMvmEngine
// over its deploy-time weight bit-plane packing) vs legacy (the test-side
// per-call tiler of tests/reference_macro_engine.hpp, which re-derives
// the weight masks on every column and runs each read as a plain scalar
// loop over the keyed draws — the pre-packing baseline) across
// {rows, input_bits, weight_bits} geometries, in analog mode with the
// default ROM noise, in noise-free analog mode (sigma_cell = 0,
// adc noise = 0 — the configuration every fidelity test runs), and in
// exact-cost mode (at p = 16 and p = 1024 columns), all at m = 128 output
// rows; plus one exact-cost cell shaped like the served ReBranch model
// (m = 8, k = 72, p = 8192). One JSON line per (geometry, variant, m, p,
// path), same trajectory-file conventions as bench_serving_throughput:
//
//   {"bench":"macro_mvm","path":"packed","variant":"analog",...,
//    "ns_per_mac":..,"columns_per_s":..,"pack_ms":..,
//    "speedup_vs_legacy":..}
//
// Before timing, each configuration asserts the packed outputs, run stats
// and noise call counts are bit-identical to the keyed oracle's under the
// same seed — the bench refuses to report a speedup for a kernel that
// changed results, and exits 1 (`--seconds=0` runs just that check on
// every cell; ctest runs it as bench_macro_mvm_selfcheck). Packed rows
// carry "popcount":"hw"|"portable", "chain":"avx2"|"portable" and
// "gemm":"avx2"|"portable", the variants the packed analog kernels and
// the exact-cost tile selected on this host (macro/packed_kernels.hpp).
//
//   build/bench_macro_mvm [--seconds=S]   (default 0.4s per cell)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <string>
#include <vector>

#include "core/macro_engine.hpp"
#include "macro/packed_kernels.hpp"
#include "reference_macro_engine.hpp"

namespace {

using namespace yoloc;
using Clock = std::chrono::steady_clock;

struct Geometry {
  int rows;
  int input_bits;
  int weight_bits;
};

struct Variant {
  const char* name;
  MacroMvmEngine::Mode mode;
  bool noise_free;
};

struct Measurement {
  double seconds = 0.0;
  std::uint64_t columns = 0;
};

MacroConfig make_config(const Geometry& geom, bool noise_free) {
  MacroConfig cfg = default_rom_macro();
  cfg.geometry.rows = geom.rows;
  cfg.geometry.input_bits = geom.input_bits;
  cfg.geometry.weight_bits = geom.weight_bits;
  if (cfg.geometry.rows_per_activation > geom.rows) {
    cfg.geometry.rows_per_activation = geom.rows;
  }
  if (noise_free) {
    cfg.bitline.sigma_cell = 0.0;
    cfg.adc.noise_sigma_v = 0.0;
  }
  cfg.validate();
  return cfg;
}

Measurement run_path(const MvmEngine& engine, int m, int k, int p,
                     const std::vector<std::int8_t>& w,
                     const std::vector<std::uint8_t>& x, double min_seconds) {
  std::vector<std::int32_t> y(static_cast<std::size_t>(m) * p);
  AnalogNoise noise{11, 0};
  MacroRunStats stats;
  MvmScratch scratch;
  MvmSession session{&noise, &stats, &scratch};
  engine.mvm_batch(w.data(), m, k, x.data(), p, y.data(), session);  // warm

  Measurement out;
  const auto start = Clock::now();
  int iters = 0;
  for (;;) {
    engine.mvm_batch(w.data(), m, k, x.data(), p, y.data(), session);
    ++iters;
    out.seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (out.seconds >= min_seconds && iters >= 3) break;
  }
  out.columns = static_cast<std::uint64_t>(iters) * p;
  return out;
}

/// Times one (geometry, variant, m, k, p) cell on both paths and prints
/// its two rows. Returns false, printing why, when the packed path's
/// results differ from the legacy path's.
bool run_cell(const Geometry& geom, const Variant& variant, int m, int k,
              int p, double min_seconds) {
  Rng init(3);
  std::vector<std::int8_t> w(static_cast<std::size_t>(m) * k);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(k) * p);
  for (auto& v : w) {
    v = static_cast<std::int8_t>(init.uniform_int(-127, 127));
  }
  for (auto& v : x) {
    v = static_cast<std::uint8_t>(init.uniform_int(0, 255));
  }
  const MacroConfig cfg = make_config(geom, variant.noise_free);
  const CimMacro macro(cfg);
  const ReferenceMacroEngine legacy(macro, variant.mode);
  MacroMvmEngine packed(macro, variant.mode);
  (void)packed.pack(w.data(), m, k);

  // Refuse to time a kernel whose results changed.
  {
    std::vector<std::int32_t> ya(static_cast<std::size_t>(m) * p);
    std::vector<std::int32_t> yb(static_cast<std::size_t>(m) * p);
    AnalogNoise na{7, 0};
    AnalogNoise nb{7, 0};
    MacroRunStats sa, sb;
    MvmScratch sca, scb;
    MvmSession sea{&na, &sa, &sca}, seb{&nb, &sb, &scb};
    legacy.mvm_batch(w.data(), m, k, x.data(), p, ya.data(), sea);
    packed.mvm_batch(w.data(), m, k, x.data(), p, yb.data(), seb);
    if (ya != yb || sa != sb || na.calls != nb.calls) {
      std::fprintf(stderr,
                   "FATAL: packed path diverged from legacy at "
                   "rows=%d ib=%d wb=%d variant=%s p=%d\n",
                   geom.rows, geom.input_bits, geom.weight_bits,
                   variant.name, p);
      return false;
    }
  }

  const Measurement lm = run_path(legacy, m, k, p, w, x, min_seconds);
  const Measurement pm = run_path(packed, m, k, p, w, x, min_seconds);
  const double macs = static_cast<double>(m) * k;
  const double legacy_ns_per_mac =
      lm.seconds * 1e9 / (macs * static_cast<double>(lm.columns));
  const double packed_ns_per_mac =
      pm.seconds * 1e9 / (macs * static_cast<double>(pm.columns));
  const double legacy_cols_s =
      static_cast<double>(lm.columns) / lm.seconds;
  const double packed_cols_s =
      static_cast<double>(pm.columns) / pm.seconds;

  std::printf(
      "{\"bench\":\"macro_mvm\",\"path\":\"legacy\",\"variant\":\"%s\","
      "\"rows\":%d,\"input_bits\":%d,\"weight_bits\":%d,\"m\":%d,"
      "\"k\":%d,\"p\":%d,\"ns_per_mac\":%.4f,\"columns_per_s\":%.1f}\n",
      variant.name, geom.rows, geom.input_bits, geom.weight_bits, m, k,
      p, legacy_ns_per_mac, legacy_cols_s);
  std::printf(
      "{\"bench\":\"macro_mvm\",\"path\":\"packed\",\"variant\":\"%s\","
      "\"rows\":%d,\"input_bits\":%d,\"weight_bits\":%d,\"m\":%d,"
      "\"k\":%d,\"p\":%d,\"ns_per_mac\":%.4f,\"columns_per_s\":%.1f,"
      "\"pack_ms\":%.4f,\"packed_bytes\":%zu,"
      "\"speedup_vs_legacy\":%.2f,\"popcount\":\"%s\",\"chain\":\"%s\","
      "\"gemm\":\"%s\"}\n",
      variant.name, geom.rows, geom.input_bits, geom.weight_bits, m, k,
      p, packed_ns_per_mac, packed_cols_s, packed.packed().total_pack_ms(),
      packed.packed().packed_bytes(),
      packed_cols_s / legacy_cols_s, detail::packed_kernels().popcount,
      detail::packed_kernels().chain, detail::exact_tile_kernels().gemm);
  std::fflush(stdout);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  double min_seconds = 0.4;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seconds=", 10) == 0) {
      min_seconds = std::atof(argv[i] + 10);
    }
  }

  const Geometry geometries[] = {
      {128, 8, 8},  // YOLO-scale: paper Table I operating point
      {128, 4, 4},
      {64, 8, 8},
      {64, 4, 4},
  };
  const Variant variants[] = {
      {"analog", MacroMvmEngine::Mode::kAnalog, false},
      {"analog_noise_free", MacroMvmEngine::Mode::kAnalog, true},
      {"exact_cost", MacroMvmEngine::Mode::kExactCost, false},
  };
  const int m = 128;  // output rows (YOLO-scale conv channel tile)
  // im2col columns per engine call. Exact-cost also runs p = 1024 (an
  // early conv layer of a batch): its packed path makes one call per
  // k-tile over all columns, which p = 16 barely exercises.
  const std::vector<int> analog_columns = {16};
  const std::vector<int> exact_columns = {16, 1024};

  for (const Geometry& geom : geometries) {
    // k > rows exercises the multi-tile path on one of the sweeps.
    const int k = geom.rows == 128 ? geom.rows : geom.rows * 2 + 10;
    for (const Variant& variant : variants) {
      for (const int p : variant.mode == MacroMvmEngine::Mode::kExactCost
                             ? exact_columns
                             : analog_columns) {
        if (!run_cell(geom, variant, m, k, p, min_seconds)) return 1;
      }
    }
  }
  // The ReBranch deployment's shape: the stage-0 3x3 trunk conv of one
  // 8-image request (m = 8 output channels, k = 8 * 3 * 3 rows, p = 8
  // images * 32 * 32 positions), on the Table I macro.
  if (!run_cell(geometries[0], variants[2], /*m=*/8, /*k=*/72, /*p=*/8192,
                min_seconds)) {
    return 1;
  }
  return 0;
}
