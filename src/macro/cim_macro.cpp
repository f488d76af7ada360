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

  // Analog read chain constants for the packed path, derived by
  // CimArrayModel next to the canonical read_count(); sqrt_count_
  // pre-tabulates sqrt of the integer ON-cell count.
  read_ = array_.read_chain_consts();
  for (int c = 0; c <= 128; ++c) {
    sqrt_count_[static_cast<std::size_t>(c)] =
        std::sqrt(static_cast<double>(c));
  }

  // Noise-free transfer tables: with both noise sources at zero every
  // draw in read_count is scaled by 0.0, so the estimate collapses to a
  // pure function of the exact count. Tabulating it through the real
  // bitline/ADC models keeps the table bit-identical to the legacy path.
  noise_free_ = read_.sigma_cell == 0.0 && read_.noise_sigma_v == 0.0;
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
        code * read_.counts_per_code;
    ideal_precharge_pj_[static_cast<std::size_t>(c)] =
        array_.bitline().precharge_energy_pj(static_cast<double>(c));
  }
}

double CimMacro::single_pass_latency_ns() const {
  return config_.geometry.input_bits * config_.geometry.clock_ns;
}

void CimMacro::charge_op_costs(int m, int k, const std::uint8_t* x,
                               MacroRunStats& stats) const {
  const auto& g = config_.geometry;
  // Wordline pulses: one per active row per input cycle with bit set; the
  // pulse is shared by every column of the subarray, so it is charged
  // once per row-cycle (not per output).
  std::uint64_t pulses = 0;
  for (int t = 0; t < g.input_bits; ++t) {
    for (int i = 0; i < k; ++i) {
      if ((x[i] >> t) & 1u) ++pulses;
    }
  }
  charge_op_costs(m, k, pulses, stats);
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

void CimMacro::mvm(const std::int8_t* w, int m, int k, const std::uint8_t* x,
                   std::int32_t* y, Rng& rng, MacroRunStats& stats) const {
  const auto& g = config_.geometry;
  YOLOC_CHECK(k >= 1 && k <= g.rows, "cim macro: k exceeds subarray rows");
  YOLOC_CHECK(m >= 1, "cim macro: m >= 1");

  // Input bit-planes.
  RowMask xbits[8];
  for (int t = 0; t < g.input_bits; ++t) {
    for (int i = 0; i < k; ++i) {
      if ((x[i] >> t) & 1u) xbits[t].set(i);
    }
  }

  // Fault overlay (nullptr in the common fault-off case: the hot loop
  // then only pays this one pointer test per call). Coordinates are
  // local tile coordinates — see macro/fault_model.hpp for why that
  // keeps this path bit-identical to the packed path under faults.
  const FaultModel* faults =
      faults_ != nullptr && faults_->active() ? faults_.get() : nullptr;
  const bool transients = faults != nullptr && faults->has_transients();

  const int groups = (k + g.rows_per_activation - 1) / g.rows_per_activation;
  for (int j = 0; j < m; ++j) {
    // Weight bit-planes for output j: ROM columns store the raw
    // two's-complement bit pattern.
    RowMask wbits[8];
    for (int i = 0; i < k; ++i) {
      const std::uint8_t wv = static_cast<std::uint8_t>(
          w[static_cast<std::size_t>(j) * k + i]);
      for (int b = 0; b < g.weight_bits; ++b) {
        if ((wv >> b) & 1u) wbits[b].set(i);
      }
    }
    if (faults != nullptr) {
      for (int b = 0; b < g.weight_bits; ++b) {
        const FaultModel::PlaneFaults pf = faults->plane(j, b);
        wbits[b].or_with(pf.force_one);
        wbits[b].and_not(pf.force_zero);
      }
    }

    double acc = 0.0;
    for (int b = 0; b < g.weight_bits; ++b) {
      const double bit_weight =
          (b == g.weight_bits - 1) ? -static_cast<double>(1 << b)
                                   : static_cast<double>(1 << b);
      AdcDrift drift;
      if (faults != nullptr) drift = faults->adc_drift(j, b);
      for (int t = 0; t < g.input_bits; ++t) {
        RowMask wb = wbits[b];
        if (transients) wb.xor_with(faults->transient_flips(j, b, t));
        for (int grp = 0; grp < groups; ++grp) {
          const int lo = grp * g.rows_per_activation;
          const int hi = std::min(k, lo + g.rows_per_activation);
          const int exact = wb.count_and(xbits[t], lo, hi);
          // The drift overload multiplies/offsets AFTER the canonical
          // chain; taking the base overload when fault-off keeps that
          // path's instruction stream (and FP rounding) untouched.
          const double est =
              faults != nullptr
                  ? array_.read_count(exact, hi - lo, rng, stats.array,
                                      drift)
                  : array_.read_count(exact, hi - lo, rng, stats.array);
          acc += est * bit_weight * static_cast<double>(1 << t);
        }
      }
    }
    y[j] = static_cast<std::int32_t>(std::llround(acc));
  }
  charge_op_costs(m, k, x, stats);
}

void CimMacro::mvm_exact_cost(const std::int8_t* w, int m, int k,
                              const std::uint8_t* x, std::int32_t* y,
                              MacroRunStats& stats) const {
  const auto& g = config_.geometry;
  YOLOC_CHECK(k >= 1 && k <= g.rows, "cim macro: k exceeds subarray rows");
  for (int j = 0; j < m; ++j) {
    std::int64_t acc = 0;
    for (int i = 0; i < k; ++i) {
      acc += static_cast<std::int64_t>(w[static_cast<std::size_t>(j) * k + i]) *
             x[i];
    }
    y[j] = static_cast<std::int32_t>(acc);
  }
  // Pay the analog read energy at the average activity level without
  // drawing noise samples (cost-only path).
  const int groups = (k + g.rows_per_activation - 1) / g.rows_per_activation;
  const std::uint64_t conversions =
      static_cast<std::uint64_t>(m) * g.weight_bits * g.input_bits * groups;
  stats.array.adc_conversions += conversions;
  stats.array.adc_energy_pj +=
      static_cast<double>(conversions) * config_.adc.energy_pj;
  // Average discharge ~ quarter of the group (random data assumption).
  stats.array.precharge_energy_pj +=
      static_cast<double>(conversions) *
      array_.bitline().precharge_energy_pj(0.25 * g.rows_per_activation);
  charge_op_costs(m, k, x, stats);
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
                          const std::uint8_t* x, std::int32_t* y, Rng& rng,
                          MacroRunStats& stats,
                          std::vector<std::uint8_t>& read_counts,
                          std::vector<double>& read_normals) const {
  check_packed_tile(packed, tile_index);
  YOLOC_CHECK(packed.has_planes(),
              "cim macro: analog packed path needs weight bit-planes "
              "(packing was built boundaries-only for exact-cost)");
  const PackedRomWeights::Tile& tile = packed.tile(tile_index);
  const int m = packed.m();
  const int k = tile.k_size;
  const int groups = tile.groups;
  const int weight_bits = packed.weight_bits();
  const int input_bits = packed.input_bits();

  // Activation bit-planes: ONE scan of x builds both the planes and the
  // wordline pulse count (the legacy path scans x a second time inside
  // charge_op_costs).
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

  const double* bcw = packed.bit_cycle_weight();
  const CimArrayModel::ReadChainConsts& rc = read_;

  // Fault overlay — same local-coordinate pattern as the legacy path
  // (the packed tile's rows ARE the legacy chunk's rows), so outputs and
  // stats stay bit-identical between the two paths under faults.
  const FaultModel* faults =
      faults_ != nullptr && faults_->active() ? faults_.get() : nullptr;

  // The popcount-heavy loops run on hardware POPCNT when the CPU has it
  // (macro/packed_kernels.hpp); both variants are bit-identical.
  const detail::PackedKernels& kernels = detail::packed_kernels();
  const detail::PackedCountArgs count_args{tile.wbits.data(),
                                           xbits,
                                           tile.group_masks.data(),
                                           weight_bits,
                                           input_bits,
                                           groups,
                                           faults};

  // Energy accumulators chained from the current stats values so the
  // add sequence (and therefore the floating-point rounding) is
  // identical to the legacy per-read += updates.
  std::uint64_t conversions = stats.array.adc_conversions;
  double adc_energy = stats.array.adc_energy_pj;
  double precharge_energy = stats.array.precharge_energy_pj;

  if (noise_free_) {
    // Draw-free fast path (the session RNG is intentionally not
    // advanced).
    detail::NoiseFreeRows rows{
        .m = m,
        .bit_cycle_weight = bcw,
        .ideal_estimate = ideal_estimate_.data(),
        .ideal_precharge_pj = ideal_precharge_pj_.data(),
        .adc_energy_pj = rc.adc_energy_pj,
        .y = y,
        .conversions = conversions,
        .adc_energy = adc_energy,
        .precharge_energy = precharge_energy};
    kernels.noise_free_rows(count_args, rows);
    conversions = rows.conversions;
    adc_energy = rows.adc_energy;
    precharge_energy = rows.precharge_energy;
  } else {
    // Three passes per output row, so the noise draws come from one
    // bulk fill instead of one out-of-line Rng::normal call each:
    //   1. count: every (b, t, grp) exact ON-cell count, fault overlays
    //      included, and the number of draws the row needs (one per read
    //      for ADC noise, one more per read with exact > 0 for cell
    //      mismatch when sigma_cell > 0);
    //   2. fill:  exactly that many standard normals, bit-identical to
    //      the sequential normal() calls the legacy chain makes;
    //   3. chain: the inlined CimArrayModel::read_count, consuming the
    //      normals in the legacy (j, b, t, grp) draw order.
    const int reads = weight_bits * input_bits * groups;
    if (read_counts.size() < static_cast<std::size_t>(reads)) {
      read_counts.resize(static_cast<std::size_t>(reads));
    }
    if (read_normals.size() < 2 * static_cast<std::size_t>(reads)) {
      read_normals.resize(2 * static_cast<std::size_t>(reads));
    }
    std::uint8_t* counts = read_counts.data();
    const double* z = read_normals.data();
    const bool cell_noise = rc.sigma_cell > 0.0;
    for (int j = 0; j < m; ++j) {
      const int nonzero = kernels.count_row(count_args, j, counts);
      rng.fill_normal(read_normals.data(),
                      static_cast<std::size_t>(reads) +
                          (cell_noise ? static_cast<std::size_t>(nonzero)
                                      : 0u));

      // Inlined CimArrayModel::read_count — identical operations in
      // identical order. Each draw is written as the legacy
      // Rng::normal(0.0, sd) computes it, 0.0 + sd * n.
      std::size_t d = 0;
      int r = 0;
      double acc = 0.0;
      for (int b = 0; b < weight_bits; ++b) {
        AdcDrift drift;
        if (faults != nullptr) drift = faults->adc_drift(j, b);
        for (int t = 0; t < input_bits; ++t) {
          const double cycle_weight =
              bcw[static_cast<std::size_t>(b) * input_bits + t];
          for (int grp = 0; grp < groups; ++grp) {
            const int exact = counts[r++];
            double effective = exact;
            if (cell_noise && exact > 0) {
              const double sd =
                  rc.sigma_cell * sqrt_count_[static_cast<std::size_t>(exact)];
              effective += 0.0 + sd * z[d++];
              if (effective < 0.0) effective = 0.0;
            }
            const double v =
                std::max(rc.v_precharge - effective * rc.delta_v, rc.v_floor);
            const double noisy = v + (0.0 + rc.noise_sigma_v * z[d++]);
            const double clamped = std::clamp(noisy, rc.v_lo, rc.v_hi);
            // lround of a non-negative argument: truncate, then round
            // half away from zero (q - whole is exact for q >= 0).
            const double q = (rc.v_hi - clamped) / rc.lsb;
            const int whole = static_cast<int>(q);
            int code = whole + (q - whole >= 0.5 ? 1 : 0);
            code = std::clamp(code, 0, rc.levels - 1);
            double est = code * rc.counts_per_code;
            if (faults != nullptr) {
              est = est * drift.gain + drift.offset_counts;
            }
            acc += est * cycle_weight;
            ++conversions;
            adc_energy += rc.adc_energy_pj;
            const double dv =
                std::min(effective * rc.delta_v, rc.bl_range);
            precharge_energy += rc.cv * dv * 1e-3;
          }
        }
      }
      y[j] = static_cast<std::int32_t>(std::llround(acc));
    }
  }

  stats.array.adc_conversions = conversions;
  stats.array.adc_energy_pj = adc_energy;
  stats.array.precharge_energy_pj = precharge_energy;
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

  // Cost terms every column of the tile pays alike: the same products
  // mvm_exact_cost forms per call, formed once.
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
    // the legacy per-call operands, so every sum rounds exactly as p
    // separate mvm_exact_cost calls would.
    for (int c = 0; c < cols; ++c) {
      stats.array.adc_conversions += conversions;
      stats.array.adc_energy_pj += adc_pj;
      stats.array.precharge_energy_pj += precharge_pj;
      charge_op_costs(m, k, pulses[static_cast<std::size_t>(c)], stats);
    }
  }
}

}  // namespace yoloc
