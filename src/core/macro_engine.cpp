#include "core/macro_engine.hpp"

#include <vector>

#include "common/check.hpp"

namespace yoloc {

MacroMvmEngine::MacroMvmEngine(const CimMacro& macro, Mode mode)
    : macro_(&macro), mode_(mode) {}

std::string MacroMvmEngine::name() const {
  return mode_ == Mode::kAnalog ? "macro-analog" : "macro-exact-cost";
}

const PackedRomWeights& MacroMvmEngine::pack(const std::int8_t* w, int m,
                                             int k) {
  // Exact-cost mode never reads the bit-planes (it MACs the raw int8
  // rows), so it keeps only the tile boundaries and skips the plane
  // expansion's time and memory.
  return packed_.add(w, m, k, macro_->config().geometry,
                     /*pack_planes=*/mode_ != Mode::kExactCost);
}

void MacroMvmEngine::mvm_batch(const std::int8_t* w, int m, int k,
                               const ActView& x, int p, std::int32_t* y,
                               MvmSession& session) const {
  YOLOC_CHECK(m > 0 && k > 0 && p > 0, "macro engine: bad MVM shape");
  YOLOC_CHECK(session.stats != nullptr,
              "macro engine: session must carry run stats");
  YOLOC_CHECK(session.scratch != nullptr,
              "macro engine: session must carry a scratch arena");
  YOLOC_CHECK(mode_ != Mode::kAnalog || session.noise != nullptr,
              "macro engine: analog mode needs a session noise key");
  MacroRunStats& stats = *session.stats;
  const PackedRomWeights& packed = packed_.find(w, m, k);

  for (std::size_t i = 0; i < static_cast<std::size_t>(m) * p; ++i) y[i] = 0;

  if (mode_ == Mode::kExactCost) {
    // One call per k-tile over every column, reading x through the view
    // and accumulating y in place.
    for (int tile = 0; tile < packed.tile_count(); ++tile) {
      macro_->mvm_packed_exact_cost_tile(packed, tile, w, x, p, y, stats);
    }
    return;
  }

  // Analog: per column only the activation vector moves. Every read's
  // noise is keyed by this call's number and its (tile, column, row,
  // read), so no loop order matters to it; partial sums accumulate
  // digitally (the shift-add backend).
  ReadNoiseKey key{.seed = session.noise->seed,
                   .call = session.noise->calls++};
  MvmScratch& scratch = *session.scratch;
  std::vector<std::uint8_t>& x_chunk = scratch.x_chunk;
  std::vector<std::int32_t>& y_partial = scratch.y_partial;
  x_chunk.resize(static_cast<std::size_t>(macro_->config().geometry.rows));
  y_partial.resize(static_cast<std::size_t>(m));
  for (int tile = 0; tile < packed.tile_count(); ++tile) {
    const PackedRomWeights::Tile& t = packed.tile(tile);
    key.tile = static_cast<std::uint32_t>(tile);
    const ActView xt = x.from(t.k0, 0);
    for (int col = 0; col < p; ++col) {
      key.column = static_cast<std::uint32_t>(col);
      for (int i = 0; i < t.k_size; ++i) {
        x_chunk[static_cast<std::size_t>(i)] = xt.at(i, col);
      }
      macro_->mvm_packed(packed, tile, x_chunk.data(), y_partial.data(), key,
                         stats);
      for (int j = 0; j < m; ++j) {
        y[static_cast<std::size_t>(j) * p + col] +=
            y_partial[static_cast<std::size_t>(j)];
      }
    }
  }
}

}  // namespace yoloc
