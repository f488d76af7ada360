#include "macro/macro_spec.hpp"

#include <vector>

#include "common/units.hpp"
#include "core/macro_engine.hpp"

namespace yoloc {

MacroSpecSummary summarize_macro(const CimMacro& macro, Rng& rng, int samples,
                                 double reference_density_mb_per_mm2) {
  const MacroConfig& cfg = macro.config();
  const MacroGeometry& g = cfg.geometry;

  MacroSpecSummary s;
  s.macro_size_mb = g.capacity_bits() / kBitsPerMb;
  s.macro_area_mm2 = cfg.area_mm2();
  s.density_mb_per_mm2 = cfg.density_mb_per_mm2();
  s.cell_area_um2 = cfg.area.cell_area_um2;
  s.input_bits = g.input_bits;
  s.weight_bits = g.weight_bits;
  s.inference_time_ns = macro.single_pass_latency_ns();
  s.operation_number = 2 * g.rows;
  s.throughput_gops = gops(s.operation_number, s.inference_time_ns);
  s.area_eff_gops_per_mm2 = s.throughput_gops / s.macro_area_mm2;
  s.standby_power_uw = cfg.standby_power_uw;
  s.density_ratio = s.density_mb_per_mm2 / reference_density_mb_per_mm2;

  // Measure MAC energy efficiency on random full-row dot products, each
  // run through an analog engine the way a deployed layer runs (a fresh
  // engine per sample: an engine's packing is frozen).
  MacroRunStats stats;
  MvmScratch scratch;
  AnalogNoise noise{rng(), 0};
  MvmSession session{&noise, &stats, &scratch};
  const int k = g.rows;
  const int m = g.weights_per_row();
  std::vector<std::int8_t> w(static_cast<std::size_t>(m) * k);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(k));
  std::vector<std::int32_t> y(static_cast<std::size_t>(m));
  for (int iter = 0; iter < samples; ++iter) {
    for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    MacroMvmEngine engine(macro, MacroMvmEngine::Mode::kAnalog);
    engine.pack(w.data(), m, k);
    engine.mvm_batch(w.data(), m, k, DenseActView(x.data(), k, 1), 1,
                     y.data(), session);
  }
  const double ops = 2.0 * static_cast<double>(stats.macs);
  s.mac_eff_tops_per_w = tops_per_watt(ops, stats.energy_pj());
  return s;
}

TextTable macro_spec_table(const MacroSpecSummary& s) {
  TextTable t({"Parameter", "Value"});
  t.add_row({"Process", s.process});
  t.add_row({"Macro size", format_fixed(s.macro_size_mb, 2) + " Mb"});
  t.add_row({"Macro area", format_fixed(s.macro_area_mm2, 3) + " mm^2"});
  t.add_row({"Macro density",
             format_fixed(s.density_mb_per_mm2, 2) + " Mb/mm^2 (" +
                 format_fixed(s.density_ratio, 1) + "x)"});
  t.add_row({"Cell area", format_fixed(s.cell_area_um2, 3) + " um^2"});
  t.add_row({"Input x weight", std::to_string(s.input_bits) + "-bit x " +
                                   std::to_string(s.weight_bits) + "-bit"});
  t.add_row({"Inference time", format_fixed(s.inference_time_ns, 1) + " ns"});
  t.add_row({"Operation number", std::to_string(s.operation_number)});
  t.add_row({"Throughput", format_fixed(s.throughput_gops, 1) + " GOPS"});
  t.add_row({"Macro area efficiency",
             format_fixed(s.area_eff_gops_per_mm2, 1) + " GOPS/mm^2"});
  t.add_row({"MAC energy efficiency",
             format_fixed(s.mac_eff_tops_per_w, 1) + " TOPS/W"});
  t.add_row({"Standby power",
             s.standby_power_uw == 0.0
                 ? std::string("0 (non-volatile)")
                 : format_fixed(s.standby_power_uw, 1) + " uW"});
  return t;
}

}  // namespace yoloc
