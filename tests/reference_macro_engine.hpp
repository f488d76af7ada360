#pragma once
// Test-side oracle for MacroMvmEngine: the per-call macro tiler. It
// tiles the reduction dimension over subarray row capacity and, for every
// (k-tile, column), copies the weight row-tile and calls CimMacro::mvm
// (analog) or CimMacro::mvm_exact_cost — re-deriving the weight
// bit-planes each time instead of reading a deploy-time packing.
// MacroMvmEngine must match it bit for bit: outputs, every MacroRunStats
// field and the session RNG draw order (a noise-free analog run aside,
// whose packed path draws nothing). Used by the packed-weights, runtime
// and fault suites and as the `legacy` baseline of bench_macro_mvm.
//
// Like MacroMvmEngine it requires session.stats and session.scratch, and
// session.rng in analog mode. It needs no packing.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "core/macro_engine.hpp"

namespace yoloc {

class ReferenceMacroEngine final : public MvmEngine {
 public:
  using Mode = MacroMvmEngine::Mode;

  /// `macro` must outlive the engine.
  ReferenceMacroEngine(const CimMacro& macro, Mode mode)
      : macro_(&macro), mode_(mode) {}

  void mvm_batch(const std::int8_t* w, int m, int k, const std::uint8_t* x,
                 int p, std::int32_t* y, MvmSession& session) const override {
    YOLOC_CHECK(m > 0 && k > 0 && p > 0, "reference engine: bad MVM shape");
    YOLOC_CHECK(session.stats != nullptr && session.scratch != nullptr,
                "reference engine: session must carry stats and scratch");
    YOLOC_CHECK(mode_ != Mode::kAnalog || session.rng != nullptr,
                "reference engine: analog mode needs a session noise rng");
    MacroRunStats& stats = *session.stats;
    const int rows = macro_->config().geometry.rows;

    for (std::size_t i = 0; i < static_cast<std::size_t>(m) * p; ++i) {
      y[i] = 0;
    }
    std::vector<std::uint8_t>& x_chunk = session.scratch->x_chunk;
    std::vector<std::int32_t>& y_partial = session.scratch->y_partial;
    x_chunk.resize(static_cast<std::size_t>(rows));
    y_partial.resize(static_cast<std::size_t>(m));

    // Tile the reduction dimension over subarray row capacity; partial
    // sums accumulate digitally (the shift-add backend).
    std::vector<std::int8_t> w_chunk;
    for (int k0 = 0; k0 < k; k0 += rows) {
      const int k_size = std::min(rows, k - k0);
      w_chunk.resize(static_cast<std::size_t>(m) * k_size);
      for (int j = 0; j < m; ++j) {
        const std::int8_t* src = w + static_cast<std::size_t>(j) * k + k0;
        std::copy(src, src + k_size,
                  w_chunk.begin() + static_cast<std::size_t>(j) * k_size);
      }
      for (int col = 0; col < p; ++col) {
        for (int i = 0; i < k_size; ++i) {
          x_chunk[static_cast<std::size_t>(i)] =
              x[static_cast<std::size_t>(k0 + i) * p + col];
        }
        if (mode_ == Mode::kAnalog) {
          macro_->mvm(w_chunk.data(), m, k_size, x_chunk.data(),
                      y_partial.data(), *session.rng, stats);
        } else {
          macro_->mvm_exact_cost(w_chunk.data(), m, k_size, x_chunk.data(),
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
  const CimMacro* macro_;
  Mode mode_;
};

}  // namespace yoloc
