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

inline std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// How a strip reads its bytes from an activation row, from its column
/// offsets `off` (n <= 16 of them): kRun bytes at a time where every
/// aligned run of kRun columns reads consecutive bytes (16, 8 or 4),
/// byte by byte otherwise (1), and byte by byte into zeroed lanes for a
/// tail strip of n < 16 columns (0).
int strip_run(const std::size_t* off, int n) {
  if (n < kStrip) return 0;
  for (const int run : {16, 8, 4}) {
    bool consecutive = true;
    for (int c = 1; c < kStrip && consecutive; ++c) {
      consecutive = c % run == 0 || off[c] == off[c - 1] + 1;
    }
    if (consecutive) return run;
  }
  return 1;
}

/// The strip's bytes of the activation row at `row`, read as strip_run
/// classified them (lanes at and above n are zero).
template <int kRun>
YOLOC_AVX2 inline __m128i gather_strip(const std::uint8_t* row,
                                       const std::size_t* off, int n) {
  if constexpr (kRun == 16) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + off[0]));
  } else if constexpr (kRun == 8) {
    return _mm_set_epi64x(static_cast<long long>(load_u64(row + off[8])),
                          static_cast<long long>(load_u64(row + off[0])));
  } else if constexpr (kRun == 4) {
    return _mm_setr_epi32(static_cast<int>(load_u32(row + off[0])),
                          static_cast<int>(load_u32(row + off[4])),
                          static_cast<int>(load_u32(row + off[8])),
                          static_cast<int>(load_u32(row + off[12])));
  } else if constexpr (kRun == 1) {
    return _mm_setr_epi8(
        static_cast<char>(row[off[0]]), static_cast<char>(row[off[1]]),
        static_cast<char>(row[off[2]]), static_cast<char>(row[off[3]]),
        static_cast<char>(row[off[4]]), static_cast<char>(row[off[5]]),
        static_cast<char>(row[off[6]]), static_cast<char>(row[off[7]]),
        static_cast<char>(row[off[8]]), static_cast<char>(row[off[9]]),
        static_cast<char>(row[off[10]]), static_cast<char>(row[off[11]]),
        static_cast<char>(row[off[12]]), static_cast<char>(row[off[13]]),
        static_cast<char>(row[off[14]]), static_cast<char>(row[off[15]]));
  } else {
    alignas(16) std::uint8_t lanes[kStrip] = {};
    for (int c = 0; c < n; ++c) lanes[c] = row[off[c]];
    return _mm_load_si128(reinterpret_cast<const __m128i*>(lanes));
  }
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

/// Stores the k-pair of rows a and b of one strip at dst (its [16][2]
/// int16 run) and returns their per-byte window popcount sum (at most
/// 16 per byte, so the add stays in uint8).
YOLOC_AVX2 inline __m128i store_pair(__m128i a, __m128i b, __m128i window,
                                     std::int16_t* dst) {
  auto* d = reinterpret_cast<__m256i*>(dst);
  _mm256_storeu_si256(d, _mm256_cvtepu8_epi16(_mm_unpacklo_epi8(a, b)));
  _mm256_storeu_si256(d + 1, _mm256_cvtepu8_epi16(_mm_unpackhi_epi8(a, b)));
  return _mm_add_epi8(window_popcount(a, window), window_popcount(b, window));
}

/// Gathers the k rows of one strip of n <= 16 columns (column offsets
/// `off`) from the view into int16 k-pairs at xs ([i/2][16][2], columns
/// past n and the odd-k tail row zero) and returns the strip's window
/// popcount sum. The per-column sums are kept in 16-bit lanes (k * 8 <=
/// 65535).
template <int kRun>
YOLOC_AVX2 std::uint64_t interleave_strip(const ActView& x, int k,
                                 const std::size_t* off, int n,
                                 __m128i window, std::int16_t* xs) {
  __m256i counts = _mm256_setzero_si256();
  int i = 0;
  for (; i + 2 <= k; i += 2, xs += 2 * kStrip) {
    const __m128i a = gather_strip<kRun>(x.base + x.row_off[i], off, n);
    const __m128i b = gather_strip<kRun>(x.base + x.row_off[i + 1], off, n);
    counts = _mm256_add_epi16(
        counts, _mm256_cvtepu8_epi16(store_pair(a, b, window, xs)));
  }
  if (i < k) {
    const __m128i a = gather_strip<kRun>(x.base + x.row_off[i], off, n);
    counts = _mm256_add_epi16(
        counts, _mm256_cvtepu8_epi16(
                    store_pair(a, _mm_setzero_si128(), window, xs)));
  }
  alignas(32) std::uint16_t sums[kStrip];
  _mm256_store_si256(reinterpret_cast<__m256i*>(sums), counts);
  std::uint64_t pulses = 0;
  for (int c = 0; c < n; ++c) pulses += sums[c];
  return pulses;
}

/// Interleaves columns [0, cols <= kBlock) of the view, one contiguous
/// [i/2][16][2] run per 16-column strip (see interleave_strip), and
/// returns their window popcount sum.
YOLOC_AVX2 std::uint64_t interleave_block(const ActView& x, int k, int cols,
                                          __m128i window, std::int16_t* xp) {
  const std::size_t strip_len =
      static_cast<std::size_t>((k + 1) / 2) * 2 * kStrip;
  std::uint64_t pulses = 0;
  for (int s = 0; s * kStrip < cols; ++s) {
    const int c = s * kStrip;
    const int n = std::min(kStrip, cols - c);
    const std::size_t* off = x.col_off + c;
    std::int16_t* xs = xp + static_cast<std::size_t>(s) * strip_len;
    switch (strip_run(off, n)) {
      case 16:
        pulses += interleave_strip<16>(x, k, off, n, window, xs);
        break;
      case 8:
        pulses += interleave_strip<8>(x, k, off, n, window, xs);
        break;
      case 4:
        pulses += interleave_strip<4>(x, k, off, n, window, xs);
        break;
      case 1:
        pulses += interleave_strip<1>(x, k, off, n, window, xs);
        break;
      default:
        pulses += interleave_strip<0>(x, k, off, n, window, xs);
        break;
    }
  }
  return pulses;
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

YOLOC_AVX2 std::uint64_t gemm_s8u8_accumulate_avx2(
    const std::int8_t* w, std::size_t ldw, int m, int k, const ActView& x,
    int p, std::int32_t* y, std::size_t ldy, std::uint8_t window) {
  if (m <= 0 || k <= 0 || p <= 0) return 0;
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
  std::uint64_t pulses = 0;
  for (int c0 = 0; c0 < p; c0 += kBlock) {
    const int cols = std::min(kBlock, p - c0);
    pulses += interleave_block(x.from(0, c0), k, cols, win, xp);
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
  return pulses;
}

}  // namespace yoloc

#endif  // YOLOC_GEMM_AVX2
