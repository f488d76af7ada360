#include "circuit/adc.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace yoloc {

Adc::Adc(const AdcParams& params) : params_(params) {
  YOLOC_CHECK(params.bits >= 1 && params.bits <= 12, "adc: bits in [1,12]");
  YOLOC_CHECK(params.v_hi > params.v_lo, "adc: full-scale range inverted");
  levels_ = 1 << params.bits;
  lsb_ = (params.v_hi - params.v_lo) / static_cast<double>(levels_ - 1);
}

int Adc::quantize_ideal(double voltage) const {
  const double clamped =
      std::clamp(voltage, params_.v_lo, params_.v_hi);
  const int code =
      static_cast<int>(std::lround((params_.v_hi - clamped) / lsb_));
  return std::clamp(code, 0, levels_ - 1);
}

}  // namespace yoloc
