#include "policies/proactive_threshold.h"

#include <cmath>

#include "policies/shed_algorithms.h"
#include "util/assert.h"

namespace rtsmooth {

ProactiveThresholdPolicy::ProactiveThresholdPolicy(ProactiveConfig config)
    : config_(config) {
  RTS_EXPECTS(config.watermark > 0.0 && config.watermark <= 1.0);
  RTS_EXPECTS(config.value_floor >= 0.0);
}

DropResult ProactiveThresholdPolicy::shed(ServerBuffer& buf, Bytes target) {
  return shed::greedy_shed(buf, target);
}

DropResult ProactiveThresholdPolicy::early_drop(ServerBuffer& buf, Bytes bound,
                                                Time /*now*/) {
  const auto threshold = static_cast<Bytes>(
      std::floor(config_.watermark * static_cast<double>(bound)));
  if (buf.occupancy() <= threshold) return {};
  return shed::greedy_shed(buf, threshold, config_.value_floor);
}

std::unique_ptr<DropPolicy> ProactiveThresholdPolicy::clone() const {
  return std::make_unique<ProactiveThresholdPolicy>(config_);
}

}  // namespace rtsmooth
