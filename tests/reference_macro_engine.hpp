#pragma once
// Test-side oracle for MacroMvmEngine: the per-call macro tiler. It
// tiles the reduction dimension over subarray row capacity and, for every
// (k-tile, column), copies the weight row-tile and the column's
// activations (read element by element through the view) and runs one
// plain scalar macro call over them — re-deriving the weight bit-planes
// each time instead of reading a deploy-time packing:
//   * analog: every read (j, b, t, grp) takes read_normals(key, j, r) and
//     CimArrayModel::read(); codes are summed per (row, weight bit) and
//     discharges in ledger steps. A noise-free config reads the ADC
//     transfer directly and takes each read's discharge from
//     read(count, 0, 0).
//   * exact-cost: the integer MAC, counting the modeled events at the
//     average activity level (a quarter of each row group discharging).
// Every call charges its integer event counts (macro/cim_macro.hpp), so
// the stats sums do not depend on call order. MacroMvmEngine must match
// the oracle bit for bit: outputs, every MacroRunStats field and the
// session's noise call count. Used by the packed-weights,
// runtime and fault suites and as the `legacy` baseline of
// bench_macro_mvm.
//
// Like MacroMvmEngine it requires session.stats and session.scratch, and
// session.noise in analog mode. It needs no packing.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/keyed_noise.hpp"
#include "core/macro_engine.hpp"

namespace yoloc {

class ReferenceMacroEngine final : public MvmEngine {
 public:
  using Mode = MacroMvmEngine::Mode;

  /// `macro` must outlive the engine.
  ReferenceMacroEngine(const CimMacro& macro, Mode mode)
      : macro_(&macro), mode_(mode) {}

  void mvm_batch(const std::int8_t* w, int m, int k, const ActView& x,
                 int p, std::int32_t* y, MvmSession& session) const override {
    YOLOC_CHECK(m > 0 && k > 0 && p > 0, "reference engine: bad MVM shape");
    YOLOC_CHECK(session.stats != nullptr && session.scratch != nullptr,
                "reference engine: session must carry stats and scratch");
    YOLOC_CHECK(mode_ != Mode::kAnalog || session.noise != nullptr,
                "reference engine: analog mode needs a session noise key");
    MacroRunStats& stats = *session.stats;
    const int rows = macro_->config().geometry.rows;

    for (std::size_t i = 0; i < static_cast<std::size_t>(m) * p; ++i) {
      y[i] = 0;
    }
    std::vector<std::uint8_t>& x_chunk = session.scratch->x_chunk;
    std::vector<std::int32_t>& y_partial = session.scratch->y_partial;
    x_chunk.resize(static_cast<std::size_t>(rows));
    y_partial.resize(static_cast<std::size_t>(m));
    ReadNoiseKey key;
    if (mode_ == Mode::kAnalog) {
      key.seed = session.noise->seed;
      key.call = session.noise->calls++;
    }

    // Tile the reduction dimension over subarray row capacity; partial
    // sums accumulate digitally (the shift-add backend).
    std::vector<std::int8_t> w_chunk;
    for (int k0 = 0; k0 < k; k0 += rows) {
      const int k_size = std::min(rows, k - k0);
      key.tile = static_cast<std::uint32_t>(k0 / rows);
      w_chunk.resize(static_cast<std::size_t>(m) * k_size);
      for (int j = 0; j < m; ++j) {
        const std::int8_t* src = w + static_cast<std::size_t>(j) * k + k0;
        std::copy(src, src + k_size,
                  w_chunk.begin() + static_cast<std::size_t>(j) * k_size);
      }
      for (int col = 0; col < p; ++col) {
        key.column = static_cast<std::uint32_t>(col);
        for (int i = 0; i < k_size; ++i) {
          x_chunk[static_cast<std::size_t>(i)] = x.at(k0 + i, col);
        }
        if (mode_ == Mode::kAnalog) {
          analog_mvm(w_chunk.data(), m, k_size, x_chunk.data(),
                     y_partial.data(), key, stats);
        } else {
          exact_cost_mvm(w_chunk.data(), m, k_size, x_chunk.data(),
                         y_partial.data(), stats);
        }
        for (int j = 0; j < m; ++j) {
          y[static_cast<std::size_t>(j) * p + col] +=
              y_partial[static_cast<std::size_t>(j)];
        }
      }
    }
  }

  [[nodiscard]] std::string name() const override {
    return mode_ == Mode::kAnalog ? "reference-macro-analog"
                                  : "reference-macro-exact-cost";
  }

 private:
  /// One analog call on a (m x k) chunk, k <= rows.
  void analog_mvm(const std::int8_t* w, int m, int k, const std::uint8_t* x,
                  std::int32_t* y, const ReadNoiseKey& key,
                  MacroRunStats& stats) const {
    const MacroGeometry& g = macro_->config().geometry;
    const CimArrayModel& array = macro_->array_model();
    YOLOC_CHECK(k >= 1 && k <= g.rows, "reference engine: k exceeds rows");

    RowMask xbits[8];
    for (int t = 0; t < g.input_bits; ++t) {
      for (int i = 0; i < k; ++i) {
        if ((x[i] >> t) & 1u) xbits[t].set(i);
      }
    }
    const FaultModel* faults =
        macro_->fault_model() != nullptr && macro_->fault_model()->active()
            ? macro_->fault_model()
            : nullptr;
    const bool transients = faults != nullptr && faults->has_transients();
    const bool noise_free = macro_->noise_free();
    const auto cpc = static_cast<std::int64_t>(array.counts_per_code());
    const int groups = (k + g.rows_per_activation - 1) / g.rows_per_activation;
    const int top = g.weight_bits - 1;

    std::uint64_t discharge = 0;
    for (int j = 0; j < m; ++j) {
      // Weight bit-planes for output j: ROM columns store the raw
      // two's-complement bit pattern.
      RowMask wbits[8];
      for (int i = 0; i < k; ++i) {
        const auto wv = static_cast<std::uint8_t>(
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

      std::int64_t sums[8] = {};  // noisy: codes << t per weight bit
      double acc = 0.0;           // noise-free: drifted estimates
      std::uint32_t r = 0;
      for (int b = 0; b < g.weight_bits; ++b) {
        const double bit_weight = b == top ? -static_cast<double>(1 << b)
                                           : static_cast<double>(1 << b);
        AdcDrift drift;
        if (faults != nullptr) drift = faults->adc_drift(j, b);
        for (int t = 0; t < g.input_bits; ++t) {
          RowMask wb = wbits[b];
          if (transients) wb.xor_with(faults->transient_flips(j, b, t));
          for (int grp = 0; grp < groups; ++grp, ++r) {
            const int lo = grp * g.rows_per_activation;
            const int hi = std::min(k, lo + g.rows_per_activation);
            const int exact = wb.count_and(xbits[t], lo, hi);
            if (noise_free) {
              const double v = array.bitline().voltage_for_count(exact);
              double est =
                  array.adc().quantize_ideal(v) * array.counts_per_code();
              if (faults != nullptr) {
                est = est * drift.gain + drift.offset_counts;
              }
              acc += est * bit_weight * static_cast<double>(1 << t);
              discharge += array.read(exact, 0.0, 0.0).discharge;
            } else {
              const NormalPair z =
                  read_normals(key, static_cast<std::uint32_t>(j), r);
              const CimArrayModel::ReadOutcome out =
                  array.read(exact, z.cell, z.adc);
              sums[b] += static_cast<std::int64_t>(out.code) << t;
              discharge += out.discharge;
            }
          }
        }
      }
      if (noise_free) {
        y[j] = static_cast<std::int32_t>(std::llround(acc));
      } else if (faults == nullptr) {
        std::int64_t total = 0;
        for (int b = 0; b < g.weight_bits; ++b) {
          const std::int64_t term = sums[b] * (std::int64_t{1} << b);
          total += b == top ? -term : term;
        }
        y[j] = static_cast<std::int32_t>(total * cpc);
      } else {
        // The drift is affine per (row, weight bit): it applies to the
        // bit's summed estimate, whose reads weigh groups * (2^T - 1).
        const double reads_weight =
            static_cast<double>(groups) * ((1 << g.input_bits) - 1);
        double total = 0.0;
        for (int b = 0; b < g.weight_bits; ++b) {
          const AdcDrift drift = faults->adc_drift(j, b);
          const double estimate =
              static_cast<double>(sums[b] * cpc) * drift.gain +
              drift.offset_counts * reads_weight;
          total += estimate * (b == top ? -static_cast<double>(1 << b)
                                        : static_cast<double>(1 << b));
        }
        y[j] = static_cast<std::int32_t>(std::llround(total));
      }
    }
    charge_op_costs(m, k, x, discharge, stats);
  }

  /// One exact-cost call: the integer MAC, with the analog reads
  /// counted at the average activity level.
  void exact_cost_mvm(const std::int8_t* w, int m, int k,
                      const std::uint8_t* x, std::int32_t* y,
                      MacroRunStats& stats) const {
    const MacroGeometry& g = macro_->config().geometry;
    YOLOC_CHECK(k >= 1 && k <= g.rows, "reference engine: k exceeds rows");
    for (int j = 0; j < m; ++j) {
      std::int64_t acc = 0;
      for (int i = 0; i < k; ++i) {
        acc += static_cast<std::int64_t>(
                   w[static_cast<std::size_t>(j) * k + i]) *
               x[i];
      }
      y[j] = static_cast<std::int32_t>(acc);
    }
    charge_op_costs(m, k, x,
                    conversions(m, k) *
                        macro_->array_model().discharge_steps(
                            0.25 * g.rows_per_activation),
                    stats);
  }

  /// One per (output, weight bit, input bit, row group).
  std::uint64_t conversions(int m, int k) const {
    const MacroGeometry& g = macro_->config().geometry;
    const int groups = (k + g.rows_per_activation - 1) / g.rows_per_activation;
    return static_cast<std::uint64_t>(m) * g.weight_bits * g.input_bits *
           groups;
  }

  /// The per-call counts: ADC conversions and their `discharge` ledger
  /// steps, wordline pulses (one per active row per input cycle with its
  /// bit set, shared by every column), shift-adds, ADC slots, ops and
  /// MACs.
  void charge_op_costs(int m, int k, const std::uint8_t* x,
                       std::uint64_t discharge, MacroRunStats& stats) const {
    const MacroGeometry& g = macro_->config().geometry;
    const CimArrayModel& array = macro_->array_model();
    std::uint64_t pulses = 0;
    for (int t = 0; t < g.input_bits; ++t) {
      for (int i = 0; i < k; ++i) {
        if ((x[i] >> t) & 1u) ++pulses;
      }
    }
    const std::uint64_t reads = conversions(m, k);
    array.charge_reads(reads, discharge, stats.array);
    array.charge_wl_pulses(pulses, stats.array);
    array.charge_shift_adds(reads, stats.array);
    const auto adc = static_cast<std::uint64_t>(g.adc_per_subarray);
    stats.add_slots((reads + adc - 1) / adc, macro_->config().adc.t_conv_ns);
    stats.macro_ops += 1;
    stats.macs += static_cast<std::uint64_t>(m) * k;
  }

  const CimMacro* macro_;
  Mode mode_;
};

}  // namespace yoloc
