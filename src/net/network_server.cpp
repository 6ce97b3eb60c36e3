#include "net/network_server.hpp"

#include <utility>

namespace alphawan {

bool NetworkServer::adopt_plan(std::uint32_t epoch, Hz frequency_offset,
                               std::vector<Channel> channels) {
  if (plan_ && epoch < plan_->epoch) {
    ++stale_plans_ignored_;
    return false;
  }
  plan_ = AdoptedPlan{epoch, frequency_offset, std::move(channels)};
  return true;
}

void NetworkServer::ingest(const std::vector<UplinkRecord>& records) {
  for (const auto& rec : records) {
    log_.push_back(rec);
    delivered_.insert(rec.packet);
  }
}

void NetworkServer::clear() {
  log_.clear();
  delivered_.clear();
}

}  // namespace alphawan
