#include "core/macro_engine.hpp"

#include <vector>

#include "common/check.hpp"

namespace yoloc {

MacroMvmEngine::MacroMvmEngine(const CimMacro& macro, Mode mode,
                               const PackedWeightsCache* packed_cache)
    : macro_(&macro), mode_(mode), packed_cache_(packed_cache) {}

std::string MacroMvmEngine::name() const {
  return mode_ == Mode::kAnalog ? "macro-analog" : "macro-exact-cost";
}

void MacroMvmEngine::mvm_batch(const std::int8_t* w, int m, int k,
                               const std::uint8_t* x, int p, std::int32_t* y,
                               MvmSession& session) const {
  YOLOC_CHECK(m > 0 && k > 0 && p > 0, "macro engine: bad MVM shape");
  YOLOC_CHECK(session.stats != nullptr,
              "macro engine: session must carry run stats");
  YOLOC_CHECK(mode_ != Mode::kAnalog || session.rng != nullptr,
              "macro engine: analog mode needs a session noise rng");
  MacroRunStats& stats = *session.stats;
  const int rows = macro_->config().geometry.rows;

  for (std::size_t i = 0; i < static_cast<std::size_t>(m) * p; ++i) y[i] = 0;

  // Tiling buffers come from the session scratch when available so the
  // serve-time hot loop stops allocating per layer.
  MvmScratch local_scratch;
  MvmScratch& scratch =
      session.scratch != nullptr ? *session.scratch : local_scratch;
  std::vector<std::uint8_t>& x_chunk = scratch.x_chunk;
  std::vector<std::int32_t>& y_partial = scratch.y_partial;
  x_chunk.resize(static_cast<std::size_t>(rows));
  y_partial.resize(static_cast<std::size_t>(m));

  if (packed_cache_ != nullptr) {
    // Fast path: weight bit-planes were expanded once at deploy time (or
    // on first touch). Exact-cost mode never reads the bit-planes (it
    // MACs the raw int8 rows), so it requests the boundaries-only packing
    // and makes one call per k-tile over every column, reading x and
    // accumulating y in place.
    const PackedRomWeights& packed = packed_cache_->get_or_pack(
        w, m, k, macro_->config().geometry,
        /*pack_planes=*/mode_ != Mode::kExactCost);
    if (mode_ == Mode::kExactCost) {
      for (int tile = 0; tile < packed.tile_count(); ++tile) {
        macro_->mvm_packed_exact_cost_tile(packed, tile, w, x, p, y, stats);
      }
      return;
    }
    // Analog: per column only the activation vector moves. The
    // (k-tile, column) loop order matches the legacy path below so the
    // RNG draw sequence is identical.
    for (int tile = 0; tile < packed.tile_count(); ++tile) {
      const PackedRomWeights::Tile& t = packed.tile(tile);
      for (int col = 0; col < p; ++col) {
        for (int i = 0; i < t.k_size; ++i) {
          x_chunk[static_cast<std::size_t>(i)] =
              x[static_cast<std::size_t>(t.k0 + i) * p + col];
        }
        macro_->mvm_packed(packed, tile, x_chunk.data(), y_partial.data(),
                           *session.rng, stats, scratch.read_counts,
                           scratch.read_normals);
        for (int j = 0; j < m; ++j) {
          y[static_cast<std::size_t>(j) * p + col] +=
              y_partial[static_cast<std::size_t>(j)];
        }
      }
    }
    return;
  }

  // Legacy path (also the packing-free baseline the macro bench times):
  // tile the reduction dimension over subarray row capacity; partial sums
  // accumulate digitally (the shift-add backend).
  std::vector<std::int8_t>& w_chunk = scratch.w_chunk;
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

}  // namespace yoloc
