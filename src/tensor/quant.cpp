#include "tensor/quant.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

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
  const float qmax = static_cast<float>(unsigned_qmax(bits));
  const std::size_t n = t.size();
  out.resize(n);
  const float inv = 1.0f / scale;
  const float* src = t.data();
  std::uint8_t* dst = out.data();
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
