#include "policies/greedy_drop.h"

#include "policies/shed_algorithms.h"
#include "util/assert.h"

namespace rtsmooth {

DropResult GreedyDropPolicy::shed(ServerBuffer& buf, Bytes target) {
  const DropResult freed = shed::greedy_shed(buf, target);
  RTS_ENSURES(buf.occupancy() <= target);
  return freed;
}

std::unique_ptr<DropPolicy> GreedyDropPolicy::clone() const {
  return std::make_unique<GreedyDropPolicy>();
}

}  // namespace rtsmooth
