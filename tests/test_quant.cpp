// Quantization tests: round-trip error bounds, scale selection, clamping
// semantics and the unsigned activation convention.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "tensor/quant.hpp"

namespace yoloc {
namespace {

TEST(Quant, QmaxValues) {
  EXPECT_EQ(signed_qmax(8), 127);
  EXPECT_EQ(signed_qmax(2), 1);
  EXPECT_EQ(unsigned_qmax(8), 255);
  EXPECT_EQ(unsigned_qmax(1), 1);
  EXPECT_THROW(signed_qmax(9), std::runtime_error);
  EXPECT_THROW(unsigned_qmax(0), std::runtime_error);
}

TEST(Quant, SymmetricRoundTripWithinHalfStep) {
  Rng rng(1);
  Tensor t = Tensor::randn({256}, rng, 1.5f);
  QuantizedTensor q = quantize_symmetric(t, 8);
  Tensor back = dequantize(q);
  const float half_step = q.scale * 0.5f + 1e-6f;
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_LE(std::fabs(back[i] - t[i]), half_step);
  }
}

TEST(Quant, SymmetricScaleFromMaxAbs) {
  Tensor t = Tensor::from_vector({3}, {-2.54f, 1.0f, 0.5f});
  QuantizedTensor q = quantize_symmetric(t, 8);
  EXPECT_NEAR(q.scale, 2.54f / 127.0f, 1e-6);
  EXPECT_EQ(q.data[0], -127);
}

TEST(Quant, ZeroTensorGetsUnitScale) {
  Tensor t({8});
  QuantizedTensor q = quantize_symmetric(t);
  EXPECT_FLOAT_EQ(q.scale, 1.0f);
  for (auto v : q.data) EXPECT_EQ(v, 0);
}

TEST(Quant, UnsignedClampsNegatives) {
  Tensor t = Tensor::from_vector({3}, {-1.0f, 0.0f, 2.0f});
  QuantizedActivations q = quantize_unsigned(t, 8);
  EXPECT_EQ(q.data[0], 0);
  EXPECT_EQ(q.data[2], 255);
}

TEST(Quant, UnsignedWithGivenScaleClips) {
  Tensor t = Tensor::from_vector({2}, {10.0f, 0.5f});
  QuantizedActivations q = quantize_unsigned_with_scale(t, 0.01f, 8);
  EXPECT_EQ(q.data[0], 255);  // 10/0.01 = 1000 clips at 255
  EXPECT_EQ(q.data[1], 50);
}

TEST(Quant, UnsignedSaturatesHugeAndInfinite) {
  // Values past the int range and +inf saturate at qmax instead of
  // wrapping through an integer conversion; NaN maps to 0.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor t = Tensor::from_vector({6}, {1.0f, 3e9f, inf, 200.0f, nan, -inf});
  QuantizedActivations q = quantize_unsigned_with_scale(t, 1.0f, 8);
  EXPECT_EQ(q.data, (std::vector<std::uint8_t>{1, 255, 255, 200, 0, 0}));
  QuantizedActivations q4 = quantize_unsigned_with_scale(t, 1.0f, 4);
  EXPECT_EQ(q4.data, (std::vector<std::uint8_t>{1, 15, 15, 15, 0, 0}));
}

TEST(Quant, UnsignedMatchesLroundBelowSaturation) {
  // Every code and every half-way point between codes, nudged one ulp
  // either side: the libm-free rounding must agree with std::lround
  // (round half away from zero) wherever the integer path cannot wrap.
  std::vector<float> values;
  for (int code = 0; code <= 300; ++code) {
    for (const float base : {static_cast<float>(code), code + 0.5f}) {
      values.push_back(base);
      values.push_back(std::nextafter(base, 0.0f));
      values.push_back(std::nextafter(base, 1e9f));
    }
  }
  Rng rng(5);
  for (int i = 0; i < 4096; ++i) {
    values.push_back(static_cast<float>(rng.uniform(-10.0, 300.0)));
  }
  Tensor t = Tensor::from_vector({static_cast<int>(values.size())}, values);
  for (const float scale : {1.0f, 0.037f}) {
    for (const int bits : {8, 5}) {
      QuantizedActivations q = quantize_unsigned_with_scale(t, scale, bits);
      const float inv = 1.0f / scale;
      for (std::size_t i = 0; i < values.size(); ++i) {
        const long r = std::lround(std::max(0.0f, values[i]) * inv);
        const long expected = std::clamp<long>(r, 0, unsigned_qmax(bits));
        ASSERT_EQ(q.data[i], expected) << values[i] << " scale " << scale;
      }
    }
  }
}

TEST(Quant, UnsignedRejectsBadScale) {
  Tensor t({2});
  EXPECT_THROW(quantize_unsigned_with_scale(t, 0.0f), std::runtime_error);
}

TEST(Quant, DequantizeActivations) {
  Tensor t = Tensor::from_vector({2}, {0.0f, 1.0f});
  QuantizedActivations q = quantize_unsigned(t, 8);
  Tensor back = dequantize(q);
  EXPECT_NEAR(back[1], 1.0f, 1e-5);
}

class QuantBitsProperty : public ::testing::TestWithParam<int> {};

TEST_P(QuantBitsProperty, SignedErrorBoundScalesWithBits) {
  const int bits = GetParam();
  Rng rng(bits);
  Tensor t = Tensor::randn({512}, rng);
  QuantizedTensor q = quantize_symmetric(t, bits);
  Tensor back = dequantize(q);
  const float half_step = q.scale * 0.5f + 1e-6f;
  float max_err = 0.0f;
  for (std::size_t i = 0; i < t.size(); ++i) {
    max_err = std::max(max_err, std::fabs(back[i] - t[i]));
  }
  EXPECT_LE(max_err, half_step);
  // Codes stay in range.
  const int qmax = signed_qmax(bits);
  for (auto v : q.data) {
    EXPECT_GE(v, -qmax);
    EXPECT_LE(v, qmax);
  }
}

TEST_P(QuantBitsProperty, UnsignedCodesInRange) {
  const int bits = GetParam();
  Rng rng(100 + bits);
  Tensor t = Tensor::rand_uniform({512}, rng, -0.2f, 3.0f);
  QuantizedActivations q = quantize_unsigned(t, bits);
  const int qmax = unsigned_qmax(bits);
  for (auto v : q.data) EXPECT_LE(static_cast<int>(v), qmax);
}

INSTANTIATE_TEST_SUITE_P(Bits, QuantBitsProperty,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace yoloc
