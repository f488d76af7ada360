#pragma once
// Post-training quantization used to lower a trained float network onto
// the CiM datapath.
//
// Conventions match the hardware described in the paper (Sec. 3.1):
//  * Weights: signed symmetric int8 (two's complement bit-slices across
//    eight ROM/SRAM columns).
//  * Activations: unsigned uint8 with zero-point 0. Activations enter the
//    array as wordline pulses, which can only encode non-negative
//    amplitudes; all quantized layers therefore follow a ReLU-family
//    nonlinearity whose output is >= 0.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace yoloc {

/// Signed per-tensor symmetric quantization result.
struct QuantizedTensor {
  std::vector<std::int8_t> data;
  std::vector<int> shape;
  /// Dequantize: real = scale * q.
  float scale = 1.0f;
};

/// Unsigned activation quantization result (zero-point fixed at 0).
struct QuantizedActivations {
  std::vector<std::uint8_t> data;
  std::vector<int> shape;
  float scale = 1.0f;
};

/// Symmetric signed quantization to `bits` (default 8): q in
/// [-(2^(b-1)-1), 2^(b-1)-1], scale = max|x| / qmax. A zero tensor gets
/// scale 1.
QuantizedTensor quantize_symmetric(const Tensor& t, int bits = 8);

/// Unsigned quantization to `bits` over [0, max(x)]; negative inputs clamp
/// to 0 (callers feed post-ReLU activations).
QuantizedActivations quantize_unsigned(const Tensor& t, int bits = 8);

/// Unsigned quantization with a caller-provided scale (for calibrated
/// activation ranges measured on a calibration batch). Codes round half
/// away from zero; values past the range, +inf included, saturate at
/// qmax, and NaN maps to 0.
QuantizedActivations quantize_unsigned_with_scale(const Tensor& t,
                                                  float scale, int bits = 8);

/// Same, writing into caller-provided storage (resized only when needed)
/// — the deploy-time hot path reuses one scratch vector per request.
void quantize_unsigned_with_scale_into(const Tensor& t, float scale, int bits,
                                       std::vector<std::uint8_t>& out);

/// The element loop of quantize_unsigned_with_scale_into: dst[i] = the
/// code of src[i] for i < n, given inv = 1 / scale and qmax =
/// unsigned_qmax(bits). Callers that quantize into strided storage (a
/// conv's zero-padded input map) run it row by row. On x86-64 GCC/Clang
/// builds a CPU with AVX2 runs it eight elements per vector, with the
/// same float operations, so the codes do not depend on the CPU.
void quantize_unsigned_row(const float* src, std::size_t n, float inv,
                           float qmax, std::uint8_t* dst);

Tensor dequantize(const QuantizedTensor& q);
Tensor dequantize(const QuantizedActivations& q);

/// Max quantization level for signed-symmetric b-bit (2^(b-1) - 1).
int signed_qmax(int bits);
/// Max quantization level for unsigned b-bit (2^b - 1).
int unsigned_qmax(int bits);

}  // namespace yoloc
