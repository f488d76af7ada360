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
// Two more cells time the ReBranch 3x3 trunk convs of one 8-image
// request in exact-cost mode, variant "conv_stage0" (8 -> 8 channels,
// 32x32) and "conv_stage3" (64 -> 64, 4x4): path "view" reads the
// zero-padded uint8 map through the conv's implicit-im2col offsets, as
// QuantConv2d serves it; path "im2col" gathers the patch matrix first
// (the test-side oracle of tests/im2col_u8.hpp) and reads it through a
// dense view. Both time the gather and the engine call, not the
// quantize pass; the view row carries "speedup_vs_im2col".
//
// Before timing, each configuration asserts the packed outputs, run stats
// and noise call counts are bit-identical to the keyed oracle's under the
// same seed, and each conv cell that both paths give the same outputs
// and run stats — the bench refuses to report a speedup for a kernel
// that changed results, and exits 1 (`--seconds=0` runs just those
// checks on every cell; ctest runs it as bench_macro_mvm_selfcheck).
// Packed rows carry "popcount":"hw"|"portable", "chain":"avx2"|"portable"
// and "gemm":"avx2"|"portable", the variants the packed analog kernels
// and the exact-cost tile selected on this host
// (macro/packed_kernels.hpp); view rows carry "gemm".
//
// The "chain" cell times each noisy read-chain body this host supports
// directly (detail::PackedKernels::noisy_rows, no engine around it) over
// one random 128 x 128 tile at 8b x 8b with the default ROM noise: one
// row per body, path "chain", tagged "chain":"avx512"|"avx2"|"portable",
// with "ns_per_read" and "speedup_vs_portable". It refuses to time
// unless every body's outputs and discharge ledger equal the portable
// body's.
//
//   build/bench_macro_mvm [--seconds=S]   (default 0.4s per cell)

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <string>
#include <vector>

#include "common/act_view.hpp"
#include "core/macro_engine.hpp"
#include "im2col_u8.hpp"
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

/// Times `call` (one engine call over p columns) until min_seconds and
/// at least 3 calls have passed, after one warm-up call.
template <typename Call>
Measurement time_calls(const Call& call, int p, double min_seconds) {
  call();  // warm
  Measurement out;
  const auto start = Clock::now();
  int iters = 0;
  for (;;) {
    call();
    ++iters;
    out.seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (out.seconds >= min_seconds && iters >= 3) break;
  }
  out.columns = static_cast<std::uint64_t>(iters) * p;
  return out;
}

Measurement run_path(const MvmEngine& engine, int m, int k, int p,
                     const std::vector<std::int8_t>& w,
                     const std::vector<std::uint8_t>& x, double min_seconds) {
  std::vector<std::int32_t> y(static_cast<std::size_t>(m) * p);
  AnalogNoise noise{11, 0};
  MacroRunStats stats;
  MvmScratch scratch;
  MvmSession session{&noise, &stats, &scratch};
  const DenseActView xv(x.data(), k, p);
  return time_calls(
      [&] { engine.mvm_batch(w.data(), m, k, xv, p, y.data(), session); }, p,
      min_seconds);
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
    legacy.mvm_batch(w.data(), m, k, DenseActView(x.data(), k, p), p,
                     ya.data(), sea);
    packed.mvm_batch(w.data(), m, k, DenseActView(x.data(), k, p), p,
                     yb.data(), seb);
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

/// Times one ReBranch 3x3 trunk conv (pad 1, stride 1) of an n-image
/// request on the Table I macro in exact-cost mode, two ways over the
/// same uint8 input: the view path (conv_offsets over the zero-padded
/// map, as QuantConv2d runs it) and the im2col path (the test-side
/// im2col_u8_into gather into a patch matrix, then a dense view of it).
/// Prints both rows. Returns false, printing why, when their outputs or
/// run stats differ.
bool run_conv_cell(const char* name, int c_in, int c_out, int hw, int n,
                   double min_seconds) {
  constexpr int kKernel = 3;
  constexpr int kPad = 1;
  const int m = c_out;
  const int k = c_in * kKernel * kKernel;
  const int p = n * hw * hw;
  Rng init(5);
  std::vector<std::int8_t> w(static_cast<std::size_t>(m) * k);
  std::vector<std::uint8_t> input(static_cast<std::size_t>(n) * c_in * hw *
                                  hw);
  for (auto& v : w) {
    v = static_cast<std::int8_t>(init.uniform_int(-127, 127));
  }
  for (auto& v : input) {
    v = static_cast<std::uint8_t>(init.uniform_int(0, 255));
  }
  const std::vector<std::uint8_t> map =
      pad_u8_map(input.data(), n, c_in, hw, hw, kPad);
  const CimMacro macro(make_config({128, 8, 8}, false));
  MacroMvmEngine engine(macro, MacroMvmEngine::Mode::kExactCost);
  (void)engine.pack(w.data(), m, k);

  std::vector<std::size_t> row_off, col_off;
  std::vector<std::uint8_t> cols;
  im2col_u8_into(input.data(), n, c_in, hw, hw, kKernel, 1, kPad, hw, hw,
                 cols);
  const DenseActView dense(cols.data(), k, p);
  std::vector<std::int32_t> y_view(static_cast<std::size_t>(m) * p);
  std::vector<std::int32_t> y_im2col(y_view.size());
  MacroRunStats stats_view, stats_im2col;
  MvmScratch scratch;
  MvmSession view_session{nullptr, &stats_view, &scratch};
  MvmSession im2col_session{nullptr, &stats_im2col, &scratch};
  const auto view_call = [&] {
    conv_offsets(n, c_in, hw + 2 * kPad, hw + 2 * kPad, kKernel, 1, hw, hw,
                 row_off, col_off);
    engine.mvm_batch(w.data(), m, k,
                     ActView{map.data(), row_off.data(), col_off.data()}, p,
                     y_view.data(), view_session);
  };
  const auto im2col_call = [&] {
    im2col_u8_into(input.data(), n, c_in, hw, hw, kKernel, 1, kPad, hw, hw,
                   cols);
    engine.mvm_batch(w.data(), m, k, dense, p, y_im2col.data(),
                     im2col_session);
  };

  // Refuse to time a gather whose results changed.
  view_call();
  im2col_call();
  if (y_view != y_im2col || stats_view != stats_im2col) {
    std::fprintf(stderr,
                 "FATAL: conv view path diverged from im2col at %s\n", name);
    return false;
  }

  const Measurement im = time_calls(im2col_call, p, min_seconds);
  const Measurement vm = time_calls(view_call, p, min_seconds);
  const double macs = static_cast<double>(m) * k;
  const double im_cols_s = static_cast<double>(im.columns) / im.seconds;
  const double view_cols_s = static_cast<double>(vm.columns) / vm.seconds;
  for (const bool view : {false, true}) {
    const Measurement& mm = view ? vm : im;
    std::printf(
        "{\"bench\":\"macro_mvm\",\"path\":\"%s\",\"variant\":\"%s\","
        "\"c_in\":%d,\"c_out\":%d,\"hw\":%d,\"n\":%d,\"m\":%d,"
        "\"k\":%d,\"p\":%d,\"ns_per_mac\":%.4f,\"columns_per_s\":%.1f",
        view ? "view" : "im2col", name, c_in, c_out, hw, n, m, k, p,
        mm.seconds * 1e9 / (macs * static_cast<double>(mm.columns)),
        static_cast<double>(mm.columns) / mm.seconds);
    if (view) {
      std::printf(",\"speedup_vs_im2col\":%.2f,\"gemm\":\"%s\"",
                  view_cols_s / im_cols_s, detail::exact_tile_kernels().gemm);
    }
    std::printf("}\n");
  }
  std::fflush(stdout);
  return true;
}

/// The noisy bodies this host supports, widest first; the last one is
/// the portable body mvm_packed would run without a vector chain.
std::vector<const detail::PackedKernels*> chain_bodies() {
  std::vector<const detail::PackedKernels*> bodies;
  if (const auto* avx512 = detail::avx512_packed_kernels()) {
    bodies.push_back(avx512);
  }
  if (const auto* avx2 = detail::avx2_packed_kernels()) {
    bodies.push_back(avx2);
  }
  const auto* popcnt = detail::popcnt_packed_kernels();
  bodies.push_back(popcnt != nullptr ? popcnt
                                     : &detail::plain_packed_kernels());
  return bodies;
}

/// Times every noisy read-chain body over one random m x k tile on the
/// Table I macro and prints one row per body. Returns false, printing
/// why, when any body's outputs or discharge differ from the portable
/// body's.
bool run_chain_cell(double min_seconds) {
  constexpr int kM = 128;
  constexpr int kK = 128;
  constexpr int kBits = 8;
  const CimMacro macro(make_config({kK, kBits, kBits}, false));
  const CimArrayModel& array = macro.array_model();
  const int rpa = macro.config().geometry.rows_per_activation;
  const int groups = (kK + rpa - 1) / rpa;

  Rng init(9);
  std::vector<RowMask> wbits(static_cast<std::size_t>(kM) * kBits);
  std::vector<RowMask> xbits(kBits);
  for (auto* planes : {&wbits, &xbits}) {
    for (RowMask& mask : *planes) {
      mask.lane[0] = init();
      mask.lane[1] = init();
    }
  }
  std::vector<RowMask> group_masks(static_cast<std::size_t>(groups));
  for (int i = 0; i < kK; ++i) {
    group_masks[static_cast<std::size_t>(i / rpa)].set(i);
  }
  std::vector<double> cell_sd(129);
  for (int c = 0; c <= 128; ++c) {
    cell_sd[static_cast<std::size_t>(c)] =
        array.read_chain_consts().sigma_cell *
        std::sqrt(static_cast<double>(c));
  }
  const detail::PackedCountArgs args{wbits.data(), xbits.data(),
                                     group_masks.data(), kBits,
                                     kBits, groups, nullptr};
  const ReadNoiseKey key{.seed = 11, .call = 3, .tile = 0, .column = 5};

  const auto bodies = chain_bodies();
  std::vector<std::vector<std::int32_t>> ys(bodies.size());
  std::vector<detail::NoisyRows> rows(bodies.size());
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    ys[i].assign(kM, 0);
    rows[i] = {.m = kM,
               .array = &array,
               .cell_sd = cell_sd.data(),
               .key = key,
               .y = ys[i].data()};
    bodies[i]->noisy_rows(args, rows[i]);
  }
  // Refuse to time a body whose results changed.
  for (std::size_t i = 0; i + 1 < bodies.size(); ++i) {
    if (ys[i] != ys.back() || rows[i].discharge != rows.back().discharge) {
      std::fprintf(stderr,
                   "FATAL: the %s read chain diverged from the portable "
                   "body\n",
                   bodies[i]->chain);
      return false;
    }
  }

  std::vector<double> ns_per_mac(bodies.size());
  for (std::size_t i = bodies.size(); i-- > 0;) {
    const Measurement mm = time_calls(
        [&] { bodies[i]->noisy_rows(args, rows[i]); }, 1, min_seconds);
    const double calls = static_cast<double>(mm.columns);
    ns_per_mac[i] = mm.seconds * 1e9 / (calls * kM * kK);
    const double reads =
        calls * kM * kBits * kBits * static_cast<double>(groups);
    std::printf(
        "{\"bench\":\"macro_mvm\",\"path\":\"chain\",\"variant\":\"analog\","
        "\"rows\":%d,\"input_bits\":%d,\"weight_bits\":%d,\"m\":%d,"
        "\"k\":%d,\"chain\":\"%s\",\"ns_per_mac\":%.4f,"
        "\"ns_per_read\":%.3f,\"speedup_vs_portable\":%.2f}\n",
        kK, kBits, kBits, kM, kK, bodies[i]->chain, ns_per_mac[i],
        mm.seconds * 1e9 / reads, ns_per_mac.back() / ns_per_mac[i]);
  }
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
  // The same request's stage-0 and stage-3 3x3 trunk convs, gathered
  // from the padded map by the view vs from an explicit patch matrix.
  if (!run_conv_cell("conv_stage0", /*c_in=*/8, /*c_out=*/8, /*hw=*/32,
                     /*n=*/8, min_seconds) ||
      !run_conv_cell("conv_stage3", /*c_in=*/64, /*c_out=*/64, /*hw=*/4,
                     /*n=*/8, min_seconds)) {
    return 1;
  }
  // Each noisy read-chain body alone, on the Table I tile.
  if (!run_chain_cell(min_seconds)) return 1;
  return 0;
}
