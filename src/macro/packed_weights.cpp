#include "macro/packed_weights.hpp"

#include <chrono>
#include <string>

#include "common/check.hpp"

namespace yoloc {

PackedRomWeights::PackedRomWeights(const std::int8_t* w, int m, int k,
                                   const MacroGeometry& geometry,
                                   bool pack_planes)
    : m_(m),
      k_(k),
      rows_(geometry.rows),
      weight_bits_(geometry.weight_bits),
      input_bits_(geometry.input_bits),
      rows_per_activation_(geometry.rows_per_activation),
      has_planes_(pack_planes) {
  YOLOC_CHECK(w != nullptr, "packed weights: null weight buffer");
  YOLOC_CHECK(m >= 1 && k >= 1, "packed weights: bad shape");
  YOLOC_CHECK(rows_ >= 1 && rows_ <= 128,
              "packed weights: row masks support up to 128 rows");
  YOLOC_CHECK(weight_bits_ >= 1 && weight_bits_ <= 8,
              "packed weights: weight_bits out of [1, 8]");
  YOLOC_CHECK(input_bits_ >= 1 && input_bits_ <= 8,
              "packed weights: input_bits out of [1, 8]");
  YOLOC_CHECK(rows_per_activation_ >= 1 && rows_per_activation_ <= rows_,
              "packed weights: rows_per_activation out of [1, rows]");
  const auto start = std::chrono::steady_clock::now();

  // Shift-add weight table: MSB carries the two's-complement negative
  // factor (bit 7 of an 8-bit weight contributes with -128).
  bit_cycle_weight_.resize(static_cast<std::size_t>(weight_bits_) *
                           input_bits_);
  for (int b = 0; b < weight_bits_; ++b) {
    const double bit_weight = (b == weight_bits_ - 1)
                                  ? -static_cast<double>(1 << b)
                                  : static_cast<double>(1 << b);
    for (int t = 0; t < input_bits_; ++t) {
      bit_cycle_weight_[static_cast<std::size_t>(b) * input_bits_ + t] =
          bit_weight * static_cast<double>(1 << t);
    }
  }

  // One tile per subarray row-chunk, mirroring MacroMvmEngine's k tiling.
  const int tile_count = (k + rows_ - 1) / rows_;
  tiles_.resize(static_cast<std::size_t>(tile_count));
  for (int ti = 0; ti < tile_count; ++ti) {
    Tile& tile = tiles_[static_cast<std::size_t>(ti)];
    tile.k0 = ti * rows_;
    tile.k_size = (k - tile.k0 < rows_) ? k - tile.k0 : rows_;
    tile.groups =
        (tile.k_size + rows_per_activation_ - 1) / rows_per_activation_;

    tile.group_masks.resize(static_cast<std::size_t>(tile.groups));
    for (int grp = 0; grp < tile.groups; ++grp) {
      const int lo = grp * rows_per_activation_;
      const int hi = (tile.k_size < lo + rows_per_activation_)
                         ? tile.k_size
                         : lo + rows_per_activation_;
      for (int i = lo; i < hi; ++i) {
        tile.group_masks[static_cast<std::size_t>(grp)].set(i);
      }
    }

    if (!pack_planes) {
      packed_bytes_ += tile.group_masks.size() * sizeof(RowMask);
      continue;
    }
    tile.wbits.resize(static_cast<std::size_t>(m) * weight_bits_);
    for (int j = 0; j < m; ++j) {
      RowMask* planes =
          tile.wbits.data() + static_cast<std::size_t>(j) * weight_bits_;
      const std::int8_t* wrow =
          w + static_cast<std::size_t>(j) * k + tile.k0;
      for (int i = 0; i < tile.k_size; ++i) {
        const unsigned wv = static_cast<std::uint8_t>(wrow[i]);
        const int lane = i >> 6;
        const int shift = i & 63;
        for (int b = 0; b < weight_bits_; ++b) {
          planes[b].lane[lane] |=
              static_cast<std::uint64_t>((wv >> b) & 1u) << shift;
        }
      }
    }
    packed_bytes_ += tile.wbits.size() * sizeof(RowMask) +
                     tile.group_masks.size() * sizeof(RowMask);
  }
  packed_bytes_ += bit_cycle_weight_.size() * sizeof(double);

  pack_ms_ = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - start)
                 .count();
}

namespace {

std::array<std::int8_t, 3> sample_weights(const std::int8_t* w, int m,
                                          int k) {
  const std::size_t n = static_cast<std::size_t>(m) * k;
  return {w[0], w[n / 2], w[n - 1]};
}

}  // namespace

const PackedRomWeights& PackedWeightsCache::add(
    const std::int8_t* w, int m, int k, const MacroGeometry& geometry,
    bool pack_planes) {
  if (entries_.contains(Key{w, m, k})) return find(w, m, k);
  auto packed =
      std::make_unique<PackedRomWeights>(w, m, k, geometry, pack_planes);
  const auto [it, inserted] = entries_.emplace(
      Key{w, m, k}, Entry{std::move(packed), sample_weights(w, m, k)});
  return *it->second.packed;
}

const PackedRomWeights& PackedWeightsCache::find(const std::int8_t* w, int m,
                                                 int k) const {
  const auto it = entries_.find(Key{w, m, k});
  YOLOC_CHECK(it != entries_.end(),
              "packed weights cache: no packing for a " + std::to_string(m) +
                  " x " + std::to_string(k) +
                  " weight buffer — pack() every layer before serving");
  // Tripwire for the documented lifetime invariant (packed buffers must
  // outlive the cache): a reallocated buffer with different contents at
  // the same address fails loudly here instead of computing with stale
  // bit-planes.
  YOLOC_CHECK(it->second.sample == sample_weights(w, m, k),
              "packed weights cache: weight buffer contents changed "
              "under a packed key — the buffer must stay alive and "
              "immutable for the cache's lifetime");
  return *it->second.packed;
}

std::size_t PackedWeightsCache::entries() const { return entries_.size(); }

std::size_t PackedWeightsCache::packed_bytes() const {
  std::size_t total = 0;
  for (const auto& [key, entry] : entries_) {
    total += entry.packed->packed_bytes();
  }
  return total;
}

double PackedWeightsCache::total_pack_ms() const {
  double total = 0.0;
  for (const auto& [key, entry] : entries_) total += entry.packed->pack_ms();
  return total;
}

}  // namespace yoloc
