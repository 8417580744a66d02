#include "sim/cpu.hpp"

#include <algorithm>

#include "common/math.hpp"

namespace roia::sim {

CpuCostModel::CpuCostModel(Config config)
    : config_(config), noise_(Rng(0xC0FFEEULL).split(config.noiseSeed)) {}

SimDuration CpuCostModel::charge(double units) {
  double scaled = units / config_.speedFactor;
  if (config_.noiseAmplitude > 0.0) {
    // Multiplicative ~N(1, amplitude), clamped so time never goes negative
    // and a single outlier cannot dominate a fit.
    const double factor =
        std::clamp(noise_.normal(1.0, config_.noiseAmplitude), 0.2, 3.0);
    scaled *= factor;
  }
  return SimDuration::microseconds(roundHalfAway(std::max(0.0, scaled)));
}

SimDuration CpuCostModel::chargeExact(double units) const {
  return SimDuration::microseconds(roundHalfAway(std::max(0.0, units / config_.speedFactor)));
}

CpuAccount::CpuAccount(SimDuration window) : window_(window) {}

void CpuAccount::recordTick(SimTime tickStart, SimDuration busy, SimDuration interval) {
  totalBusy_ += busy;
  ++ticks_;
  const double denom = std::max<double>(1.0, static_cast<double>(interval.micros));
  const double load = std::min(1.0, static_cast<double>(busy.micros) / denom);
  window_.add(tickStart, load);
}

}  // namespace roia::sim
