#include "macro/cim_macro.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "macro/packed_kernels.hpp"

namespace yoloc {

void MacroRunStats::accumulate(const MacroRunStats& other) {
  array.accumulate(other.array);
  macro_ops += other.macro_ops;
  macs += other.macs;
  latency_ns += other.latency_ns;
}

CimMacro::CimMacro(MacroConfig config)
    : config_(std::move(config)),
      array_(config_.bitline, config_.adc, config_.energy,
             config_.geometry.rows_per_activation) {
  YOLOC_CHECK(config_.geometry.rows <= 128,
              "cim macro: row masks support up to 128 rows");
  // The bit-serial paths index fixed RowMask xbits[8] / wbits[8] arrays;
  // wider operands would silently corrupt the stack, so reject them here
  // rather than relying on the (laxer) MacroConfig::validate bound.
  YOLOC_CHECK(config_.geometry.input_bits >= 1 &&
                  config_.geometry.input_bits <= 8,
              "cim macro: input_bits out of [1, 8]");
  YOLOC_CHECK(config_.geometry.weight_bits >= 1 &&
                  config_.geometry.weight_bits <= 8,
              "cim macro: weight_bits out of [1, 8]");
  YOLOC_CHECK(config_.geometry.rows_per_activation >= 1 &&
                  config_.geometry.rows_per_activation <= config_.geometry.rows,
              "cim macro: rows_per_activation out of [1, rows]");
  YOLOC_CHECK(config_.geometry.rows % config_.geometry.rows_per_activation ==
                  0,
              "cim macro: rows must divide evenly into activation groups");

  // The noisy chain's per-count cell mismatch sigma, formed exactly as
  // CimArrayModel::read() forms it.
  const CimArrayModel::ReadChainConsts& rc = array_.read_chain_consts();
  for (int c = 0; c <= 128; ++c) {
    cell_sd_[static_cast<std::size_t>(c)] =
        rc.sigma_cell * std::sqrt(static_cast<double>(c));
  }

  // Noise-free transfer tables: with both noise sources at zero the
  // estimate is a pure function of the exact count, tabulated through the
  // real bitline/ADC models.
  noise_free_ = rc.sigma_cell == 0.0 && rc.noise_sigma_v == 0.0;
  if (config_.faults.any()) {
    faults_ = std::make_shared<FaultModel>(
        config_.faults, static_cast<std::uint64_t>(config_.kind),
        config_.geometry.rows);
  }
  for (int c = 0; c <= 128; ++c) {
    const double v =
        array_.bitline().voltage_for_count(static_cast<double>(c));
    const int code = array_.adc().quantize_ideal(v);
    ideal_estimate_[static_cast<std::size_t>(c)] =
        code * rc.counts_per_code;
    ideal_precharge_pj_[static_cast<std::size_t>(c)] =
        array_.bitline().precharge_energy_pj(static_cast<double>(c));
  }
}

double CimMacro::single_pass_latency_ns() const {
  return config_.geometry.input_bits * config_.geometry.clock_ns;
}

void CimMacro::charge_op_costs(int m, int k, std::uint64_t pulses,
                               MacroRunStats& stats) const {
  const auto& g = config_.geometry;
  const int groups = (k + g.rows_per_activation - 1) / g.rows_per_activation;

  array_.charge_wl_pulses(pulses, stats.array);

  // Shift-add: one digital accumulation per ADC conversion result.
  const std::uint64_t conversions =
      static_cast<std::uint64_t>(m) * g.weight_bits * g.input_bits * groups;
  array_.charge_shift_adds(conversions, stats.array);

  // Latency: conversions are served by the per-subarray ADC bank.
  const double slots =
      std::ceil(static_cast<double>(conversions) / g.adc_per_subarray);
  stats.latency_ns += slots * config_.adc.t_conv_ns;
  stats.macro_ops += 1;
  stats.macs += static_cast<std::uint64_t>(m) * k;
}

void CimMacro::check_packed_tile(const PackedRomWeights& packed,
                                 int tile_index) const {
  const auto& g = config_.geometry;
  YOLOC_CHECK(packed.rows() == g.rows &&
                  packed.weight_bits() == g.weight_bits &&
                  packed.input_bits() == g.input_bits &&
                  packed.rows_per_activation() == g.rows_per_activation,
              "cim macro: packed weights built for a different geometry");
  YOLOC_CHECK(tile_index >= 0 && tile_index < packed.tile_count(),
              "cim macro: packed tile index out of range");
}

void CimMacro::mvm_packed(const PackedRomWeights& packed, int tile_index,
                          const std::uint8_t* x, std::int32_t* y,
                          const ReadNoiseKey& key,
                          MacroRunStats& stats) const {
  check_packed_tile(packed, tile_index);
  YOLOC_CHECK(packed.has_planes(),
              "cim macro: analog packed path needs weight bit-planes "
              "(packing was built boundaries-only for exact-cost)");
  YOLOC_CHECK(key.tile == static_cast<std::uint32_t>(tile_index) &&
                  tile_index < (1 << keyed::kReadIndexBits),
              "cim macro: noise key names another tile, or the tile index "
              "exceeds the key's 16 bits");
  const PackedRomWeights::Tile& tile = packed.tile(tile_index);
  const int m = packed.m();
  const int k = tile.k_size;
  const int weight_bits = packed.weight_bits();
  const int input_bits = packed.input_bits();

  // Activation bit-planes: one scan of x builds both the planes and the
  // wordline pulse count.
  RowMask xbits[8];
  for (int i = 0; i < k; ++i) {
    const unsigned v = x[i];
    const int lane = i >> 6;
    const int shift = i & 63;
    for (int t = 0; t < input_bits; ++t) {
      xbits[t].lane[lane] |= static_cast<std::uint64_t>((v >> t) & 1u)
                             << shift;
    }
  }
  std::uint64_t pulses = 0;
  for (int t = 0; t < input_bits; ++t) {
    pulses += static_cast<std::uint64_t>(xbits[t].count());
  }

  // Fault overlay in local tile coordinates (macro/fault_model.hpp).
  const FaultModel* faults =
      faults_ != nullptr && faults_->active() ? faults_.get() : nullptr;

  // The read loops run on the variant picked for this CPU
  // (macro/packed_kernels.hpp); every variant is bit-identical.
  const detail::PackedKernels& kernels = detail::packed_kernels();
  const detail::PackedCountArgs count_args{tile.wbits.data(),
                                           xbits,
                                           tile.group_masks.data(),
                                           weight_bits,
                                           input_bits,
                                           tile.groups,
                                           faults};

  if (noise_free_) {
    // Draw-free fast path: a table lookup per read, its energy chained
    // read by read into the stats.
    detail::NoiseFreeRows rows{
        .m = m,
        .bit_cycle_weight = packed.bit_cycle_weight(),
        .ideal_estimate = ideal_estimate_.data(),
        .ideal_precharge_pj = ideal_precharge_pj_.data(),
        .adc_energy_pj = array_.read_chain_consts().adc_energy_pj,
        .y = y,
        .conversions = stats.array.adc_conversions,
        .adc_energy = stats.array.adc_energy_pj,
        .precharge_energy = stats.array.precharge_energy_pj};
    kernels.noise_free_rows(count_args, rows);
    stats.array.adc_conversions = rows.conversions;
    stats.array.adc_energy_pj = rows.adc_energy;
    stats.array.precharge_energy_pj = rows.precharge_energy;
  } else {
    // Keyed noisy reads; the call's discharge ledger converts into the
    // stats doubles once.
    detail::NoisyRows rows{.m = m,
                           .array = &array_,
                           .cell_sd = cell_sd_.data(),
                           .key = key,
                           .y = y};
    kernels.noisy_rows(count_args, rows);
    array_.charge_reads(static_cast<std::uint64_t>(m) * weight_bits *
                            input_bits * tile.groups,
                        rows.discharge, stats.array);
  }
  charge_op_costs(m, k, pulses, stats);
}

namespace {

/// Columns per call of the exact-cost tile kernel: their pulse counts
/// sit on the stack until the stats pass charges them.
constexpr int kExactColBlock = 256;

}  // namespace

void CimMacro::mvm_packed_exact_cost_tile(const PackedRomWeights& packed,
                                          int tile_index,
                                          const std::int8_t* w,
                                          const std::uint8_t* x, int p,
                                          std::int32_t* y,
                                          MacroRunStats& stats) const {
  check_packed_tile(packed, tile_index);
  YOLOC_CHECK(p >= 1, "cim macro: exact-cost tile needs p >= 1 columns");
  const auto& g = config_.geometry;
  const PackedRomWeights::Tile& tile = packed.tile(tile_index);
  const int m = packed.m();
  const int k = tile.k_size;
  const std::size_t ld = static_cast<std::size_t>(p);
  const std::int8_t* wt = w + tile.k0;  // row j at wt + j * packed.k()
  const std::uint8_t* xt = x + static_cast<std::size_t>(tile.k0) * ld;

  // Cost terms every column of the tile pays alike, formed once.
  const std::uint64_t conversions = static_cast<std::uint64_t>(m) *
                                    g.weight_bits * g.input_bits *
                                    tile.groups;
  const double adc_pj =
      static_cast<double>(conversions) * config_.adc.energy_pj;
  // Average discharge ~ quarter of the group (random data assumption).
  const double precharge_pj =
      static_cast<double>(conversions) *
      array_.bitline().precharge_energy_pj(0.25 * g.rows_per_activation);
  // Wordline pulses are the set bits of x inside the input_bits window;
  // the kernel counts them alongside the MACs.
  const detail::ExactTileKernels& kernels = detail::exact_tile_kernels();
  detail::ExactTileArgs args;
  args.w = wt;
  args.ldw = static_cast<std::size_t>(packed.k());
  args.m = m;
  args.k = k;
  args.ldx = ld;
  args.ldy = ld;
  args.window = static_cast<std::uint8_t>((1u << g.input_bits) - 1u);

  std::array<std::uint32_t, kExactColBlock> pulses;
  for (int c0 = 0; c0 < p; c0 += kExactColBlock) {
    const int cols = std::min(kExactColBlock, p - c0);
    args.x = xt + c0;
    args.p = cols;
    args.y = y + c0;
    args.pulses = pulses.data();
    kernels.gemm_pulses(args);
    // The stats doubles advance once per column, in column order, with
    // the per-column operands, so every sum rounds exactly as p separate
    // single-column calls would (the test oracle makes those calls).
    for (int c = 0; c < cols; ++c) {
      stats.array.adc_conversions += conversions;
      stats.array.adc_energy_pj += adc_pj;
      stats.array.precharge_energy_pj += precharge_pj;
      charge_op_costs(m, k, pulses[static_cast<std::size_t>(c)], stats);
    }
  }
}

}  // namespace yoloc
