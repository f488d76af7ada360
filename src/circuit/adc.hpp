#pragma once
// Column ADC model (paper Fig. 5: 16 column-sharing 5-bit ADCs).
//
// A SAR-style ADC digitizes the remnant bitline voltage. The model
// quantizes uniformly over [v_lo, v_hi] with optional input-referred
// Gaussian noise and charges a fixed energy per conversion.

namespace yoloc {

struct AdcParams {
  int bits = 5;
  double v_lo = 0.0;            // full-scale low [V]
  double v_hi = 0.9;            // full-scale high [V]
  double noise_sigma_v = 0.002; // input-referred noise [V, 1 sigma]
  double energy_pj = 0.18;      // per conversion [pJ] (5b SAR @ 28nm class)
  double t_conv_ns = 1.1125;    // conversion time [ns]

  bool operator==(const AdcParams&) const = default;
};

class Adc {
 public:
  explicit Adc(const AdcParams& params);

  /// Digitize a noise-free voltage: returns a code in [0, 2^bits - 1].
  /// Codes grow as the voltage *falls* from v_hi (code 0 = no discharge),
  /// matching the "count of ON cells" convention of the array model. The
  /// input-referred noise (noise_sigma_v) is added by the array model's
  /// read chain (CimArrayModel::read).
  [[nodiscard]] int quantize_ideal(double voltage) const;

  [[nodiscard]] int code_count() const { return levels_; }
  [[nodiscard]] double lsb_voltage() const { return lsb_; }
  [[nodiscard]] const AdcParams& params() const { return params_; }

 private:
  AdcParams params_;
  int levels_;   // 2^bits
  double lsb_;   // volts per code
};

}  // namespace yoloc
