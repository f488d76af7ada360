#include "runtime/execution_context.hpp"

#include "runtime/deployment_plan.hpp"

namespace yoloc {

namespace {
// Keeps the two macros' noise keys apart when both derive from
// one request seed (mirrors the historical framework seeding).
constexpr std::uint64_t kSramSeedSalt = 0x5A5A;
}  // namespace

ExecutionContext::ExecutionContext(const DeploymentPlan& plan,
                                   std::uint64_t noise_seed)
    : plan_(&plan),
      rom_noise_{noise_seed, 0},
      sram_noise_{noise_seed ^ kSramSeedSalt, 0} {}

Tensor ExecutionContext::infer(const Tensor& images) {
  return plan_->execute(images, *this);
}

void ExecutionContext::reseed(std::uint64_t noise_seed) {
  rom_noise_ = {noise_seed, 0};
  sram_noise_ = {noise_seed ^ kSramSeedSalt, 0};
}

void ExecutionContext::reset_stats() {
  rom_stats_ = MacroRunStats{};
  sram_stats_ = MacroRunStats{};
}

double ExecutionContext::total_energy_pj() const {
  return rom_stats_.energy_pj() + sram_stats_.energy_pj();
}

}  // namespace yoloc
