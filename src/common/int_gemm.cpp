#include "common/int_gemm.hpp"

#if YOLOC_GEMM_AVX2

#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <vector>

#define YOLOC_AVX2 [[gnu::target("avx2")]]

namespace yoloc {
namespace {

constexpr int kStrip = 16;    // columns per register tile: two ymm of int32
constexpr int kBlock = 64;    // columns interleaved per pass: one cache line
constexpr int kRowTile = 4;   // output rows per register tile

struct PairScratch {
  std::vector<std::int16_t> x_pairs;  // [strip][i/2][16][2]
  std::vector<std::int32_t> w_pairs;  // [j][i/2]: (w[j][i], w[j][i+1])
};

/// Bytes [0, n) of `row`, zero above n.
YOLOC_AVX2 inline __m128i load_strip(const std::uint8_t* row, int n) {
  if (n == kStrip) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(row));
  }
  alignas(16) std::uint8_t tail[kStrip] = {};
  std::memcpy(tail, row, static_cast<std::size_t>(n));
  return _mm_load_si128(reinterpret_cast<const __m128i*>(tail));
}

/// Per-byte popcount of v & window, through a nibble lookup.
YOLOC_AVX2 inline __m128i window_popcount(__m128i v, __m128i window) {
  const __m128i lut =
      _mm_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m128i nibble = _mm_set1_epi8(0x0F);
  v = _mm_and_si128(v, window);
  return _mm_add_epi8(
      _mm_shuffle_epi8(lut, _mm_and_si128(v, nibble)),
      _mm_shuffle_epi8(lut, _mm_and_si128(_mm_srli_epi16(v, 4), nibble)));
}

/// Widens columns [0, cols <= kBlock) of the k rows at `x` into int16
/// k-pairs, one contiguous [i/2][16][2] run per strip of 16 columns
/// (columns past `cols` and the odd-k tail row are zero), and writes
/// each column's window popcount sum. The per-column sums are kept in
/// 16-bit lanes (k * 8 <= 65535).
YOLOC_AVX2 void interleave_block(const std::uint8_t* x, std::size_t ldx, int k,
                                 int cols, __m128i window, std::int16_t* xp,
                                 std::uint32_t* pulses) {
  const int pairs = (k + 1) / 2;
  const int strips = (cols + kStrip - 1) / kStrip;
  const std::size_t strip_len = static_cast<std::size_t>(pairs) * 2 * kStrip;
  __m256i counts[kBlock / kStrip];
  for (int s = 0; s < strips; ++s) counts[s] = _mm256_setzero_si256();
  for (int q = 0; q < pairs; ++q) {
    const std::uint8_t* ra = x + static_cast<std::size_t>(2 * q) * ldx;
    const bool has_b = 2 * q + 1 < k;
    for (int s = 0; s < strips; ++s) {
      const int n = std::min(kStrip, cols - s * kStrip);
      const __m128i a = load_strip(ra + s * kStrip, n);
      const __m128i b =
          has_b ? load_strip(ra + ldx + s * kStrip, n) : _mm_setzero_si128();
      auto* dst = reinterpret_cast<__m256i*>(
          xp + static_cast<std::size_t>(s) * strip_len +
          static_cast<std::size_t>(q) * 2 * kStrip);
      _mm256_storeu_si256(dst, _mm256_cvtepu8_epi16(_mm_unpacklo_epi8(a, b)));
      _mm256_storeu_si256(dst + 1,
                          _mm256_cvtepu8_epi16(_mm_unpackhi_epi8(a, b)));
      // Two rows give at most 16 per byte, so the add stays in uint8.
      const __m128i both = _mm_add_epi8(window_popcount(a, window),
                                        window_popcount(b, window));
      counts[s] = _mm256_add_epi16(counts[s], _mm256_cvtepu8_epi16(both));
    }
  }
  for (int s = 0; s < strips; ++s) {
    alignas(32) std::uint16_t sums[kStrip];
    _mm256_store_si256(reinterpret_cast<__m256i*>(sums), counts[s]);
    const int n = std::min(kStrip, cols - s * kStrip);
    for (int c = 0; c < n; ++c) pulses[s * kStrip + c] = sums[c];
  }
}

/// y[r*ldy + c] += the R x 16 tile of (weight pairs) x (one strip's
/// activation pairs), for the strip's first n columns.
template <int R>
YOLOC_AVX2 inline void strip_rows(const std::int32_t* wp, int pairs,
                                  const std::int16_t* xp, int n,
                                  std::int32_t* y, std::size_t ldy) {
  __m256i lo[R];
  __m256i hi[R];
  for (int r = 0; r < R; ++r) {
    lo[r] = _mm256_setzero_si256();
    hi[r] = _mm256_setzero_si256();
  }
  for (int q = 0; q < pairs; ++q) {
    const auto* xq = reinterpret_cast<const __m256i*>(
        xp + static_cast<std::size_t>(q) * 2 * kStrip);
    const __m256i x0 = _mm256_loadu_si256(xq);
    const __m256i x1 = _mm256_loadu_si256(xq + 1);
    for (int r = 0; r < R; ++r) {
      const __m256i wv =
          _mm256_set1_epi32(wp[static_cast<std::size_t>(r) * pairs + q]);
      lo[r] = _mm256_add_epi32(lo[r], _mm256_madd_epi16(x0, wv));
      hi[r] = _mm256_add_epi32(hi[r], _mm256_madd_epi16(x1, wv));
    }
  }
  for (int r = 0; r < R; ++r) {
    std::int32_t* yr = y + static_cast<std::size_t>(r) * ldy;
    if (n == kStrip) {
      auto* y0 = reinterpret_cast<__m256i*>(yr);
      _mm256_storeu_si256(y0, _mm256_add_epi32(_mm256_loadu_si256(y0), lo[r]));
      _mm256_storeu_si256(y0 + 1,
                          _mm256_add_epi32(_mm256_loadu_si256(y0 + 1), hi[r]));
    } else {
      alignas(32) std::int32_t sums[kStrip];
      _mm256_store_si256(reinterpret_cast<__m256i*>(sums), lo[r]);
      _mm256_store_si256(reinterpret_cast<__m256i*>(sums + 8), hi[r]);
      for (int c = 0; c < n; ++c) yr[c] += sums[c];
    }
  }
}

}  // namespace

YOLOC_AVX2 void gemm_s8u8_accumulate_avx2(const std::int8_t* w,
                                          std::size_t ldw, int m, int k,
                                          const std::uint8_t* x,
                                          std::size_t ldx, int p,
                                          std::int32_t* y, std::size_t ldy,
                                          std::uint8_t window,
                                          std::uint32_t* pulses) {
  if (m <= 0 || k <= 0 || p <= 0) return;
  const int pairs = (k + 1) / 2;
  const std::size_t strip_len = static_cast<std::size_t>(pairs) * 2 * kStrip;
  thread_local PairScratch scratch;
  scratch.w_pairs.resize(static_cast<std::size_t>(m) * pairs);
  scratch.x_pairs.resize(strip_len * (kBlock / kStrip));
  std::int32_t* wp = scratch.w_pairs.data();
  std::int16_t* xp = scratch.x_pairs.data();

  // Each int32 is the little-endian int16 pair (w[j][i], w[j][i+1]) that
  // vpmaddwd multiplies against (x[i][c], x[i+1][c]).
  for (int j = 0; j < m; ++j) {
    const std::int8_t* wr = w + static_cast<std::size_t>(j) * ldw;
    std::int32_t* pr = wp + static_cast<std::size_t>(j) * pairs;
    for (int q = 0; q < pairs; ++q) {
      const std::int16_t a = wr[2 * q];
      const std::int16_t b = 2 * q + 1 < k ? wr[2 * q + 1] : 0;
      pr[q] = static_cast<std::int32_t>(
          static_cast<std::uint32_t>(static_cast<std::uint16_t>(a)) |
          (static_cast<std::uint32_t>(static_cast<std::uint16_t>(b)) << 16));
    }
  }

  const __m128i win = _mm_set1_epi8(static_cast<char>(window));
  for (int c0 = 0; c0 < p; c0 += kBlock) {
    const int cols = std::min(kBlock, p - c0);
    interleave_block(x + c0, ldx, k, cols, win, xp, pulses + c0);
    for (int s = 0; s * kStrip < cols; ++s) {
      const int c = c0 + s * kStrip;
      const int n = std::min(kStrip, p - c);
      const std::int16_t* xs = xp + static_cast<std::size_t>(s) * strip_len;
      int j = 0;
      for (; j + kRowTile <= m; j += kRowTile) {
        strip_rows<kRowTile>(wp + static_cast<std::size_t>(j) * pairs, pairs,
                             xs, n, y + static_cast<std::size_t>(j) * ldy + c,
                             ldy);
      }
      const std::int32_t* wj = wp + static_cast<std::size_t>(j) * pairs;
      std::int32_t* yj = y + static_cast<std::size_t>(j) * ldy + c;
      switch (m - j) {
        case 3: strip_rows<3>(wj, pairs, xs, n, yj, ldy); break;
        case 2: strip_rows<2>(wj, pairs, xs, n, yj, ldy); break;
        case 1: strip_rows<1>(wj, pairs, xs, n, yj, ldy); break;
        default: break;
      }
    }
  }
}

}  // namespace yoloc

#endif  // YOLOC_GEMM_AVX2
