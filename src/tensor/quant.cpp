#include "tensor/quant.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define YOLOC_QUANT_AVX2 1
#else
#define YOLOC_QUANT_AVX2 0
#endif

namespace yoloc {

int signed_qmax(int bits) {
  YOLOC_CHECK(bits >= 2 && bits <= 8, "signed quantization bits in [2,8]");
  return (1 << (bits - 1)) - 1;
}

int unsigned_qmax(int bits) {
  YOLOC_CHECK(bits >= 1 && bits <= 8, "unsigned quantization bits in [1,8]");
  return (1 << bits) - 1;
}

QuantizedTensor quantize_symmetric(const Tensor& t, int bits) {
  const int qmax = signed_qmax(bits);
  QuantizedTensor q;
  q.shape = t.shape();
  q.data.resize(t.size());
  const float amax = t.max_abs();
  q.scale = amax > 0.0f ? amax / static_cast<float>(qmax) : 1.0f;
  const float inv = 1.0f / q.scale;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const int v = static_cast<int>(std::lround(t[i] * inv));
    q.data[i] = static_cast<std::int8_t>(std::clamp(v, -qmax, qmax));
  }
  return q;
}

QuantizedActivations quantize_unsigned(const Tensor& t, int bits) {
  float mx = 0.0f;
  for (std::size_t i = 0; i < t.size(); ++i) mx = std::max(mx, t[i]);
  const int qmax = unsigned_qmax(bits);
  const float scale = mx > 0.0f ? mx / static_cast<float>(qmax) : 1.0f;
  return quantize_unsigned_with_scale(t, scale, bits);
}

QuantizedActivations quantize_unsigned_with_scale(const Tensor& t, float scale,
                                                  int bits) {
  QuantizedActivations q;
  q.shape = t.shape();
  q.scale = scale;
  quantize_unsigned_with_scale_into(t, scale, bits, q.data);
  return q;
}

void quantize_unsigned_with_scale_into(const Tensor& t, float scale, int bits,
                                       std::vector<std::uint8_t>& out) {
  YOLOC_CHECK(scale > 0.0f, "activation scale must be positive");
  out.resize(t.size());
  quantize_unsigned_row(t.data(), t.size(), 1.0f / scale,
                        static_cast<float>(unsigned_qmax(bits)), out.data());
}

namespace {

void quantize_row_plain(const float* src, std::size_t n, float inv,
                        float qmax, std::uint8_t* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    // Clamp in float, so huge and infinite inputs saturate at qmax (an
    // integer conversion first would overflow). std::max keeps its first
    // argument on NaN, so a NaN product maps to 0.
    const float f = std::min(std::max(0.0f, src[i] * inv), qmax);
    // Round half away from zero, as std::lround does: for 0 <= f <= 255
    // the fraction f - whole is exact.
    const int whole = static_cast<int>(f);
    dst[i] = static_cast<std::uint8_t>(
        whole + (f - static_cast<float>(whole) >= 0.5f ? 1 : 0));
  }
}

#if YOLOC_QUANT_AVX2
/// quantize_row_plain eight lanes at a time, with the same IEEE
/// operations in the same order, so every code is bit-identical; the
/// n % 8 tail runs the plain body. maxps(f, 0) returns 0 when f is NaN,
/// as std::max(0.0f, f) does, and minps(f, qmax) is std::min(f, qmax).
[[gnu::target("avx2")]] void quantize_row_avx2(const float* src,
                                                std::size_t n, float inv,
                                                float qmax,
                                                std::uint8_t* dst) {
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256 vqmax = _mm256_set1_ps(qmax);
  const __m256 half = _mm256_set1_ps(0.5f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 f = _mm256_mul_ps(_mm256_loadu_ps(src + i), vinv);
    f = _mm256_min_ps(_mm256_max_ps(f, _mm256_setzero_ps()), vqmax);
    const __m256i whole = _mm256_cvttps_epi32(f);
    const __m256 frac = _mm256_sub_ps(f, _mm256_cvtepi32_ps(whole));
    // The compare mask is -1 where the fraction rounds up.
    const __m256i code = _mm256_sub_epi32(
        whole, _mm256_castps_si256(_mm256_cmp_ps(frac, half, _CMP_GE_OQ)));
    const __m128i words =
        _mm_packus_epi32(_mm256_castsi256_si128(code),
                         _mm256_extracti128_si256(code, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + i),
                     _mm_packus_epi16(words, words));
  }
  quantize_row_plain(src + i, n - i, inv, qmax, dst + i);
}
#endif

}  // namespace

void quantize_unsigned_row(const float* src, std::size_t n, float inv,
                           float qmax, std::uint8_t* dst) {
  using Body = void (*)(const float*, std::size_t, float, float,
                        std::uint8_t*);
  static const Body body = [] {
#if YOLOC_QUANT_AVX2
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2") != 0) return &quantize_row_avx2;
#endif
    return &quantize_row_plain;
  }();
  body(src, n, inv, qmax, dst);
}

Tensor dequantize(const QuantizedTensor& q) {
  Tensor t(q.shape);
  for (std::size_t i = 0; i < q.data.size(); ++i) {
    t[i] = static_cast<float>(q.data[i]) * q.scale;
  }
  return t;
}

Tensor dequantize(const QuantizedActivations& q) {
  Tensor t(q.shape);
  for (std::size_t i = 0; i < q.data.size(); ++i) {
    t[i] = static_cast<float>(q.data[i]) * q.scale;
  }
  return t;
}

}  // namespace yoloc
