#include "net/network_server.hpp"

namespace alphawan {

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
