#include "check/invariants.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace alphawan {
namespace {

std::string join(const std::vector<std::string>& parts) {
  std::ostringstream out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out << "; ";
    out << parts[i];
  }
  return out.str();
}

}  // namespace

void SimInvariants::violate(std::string message) {
  if (fail_fast_) {
    throw std::logic_error("SimInvariants: " + message);
  }
  violations_.push_back(std::move(message));
}

void SimInvariants::require_clean() const {
  if (!ok()) {
    throw std::logic_error("SimInvariants: " + join(violations_));
  }
}

void SimInvariants::clear() {
  violations_.clear();
  windows_checked_ = 0;
}

void SimInvariants::check_gateway_window(
    const WindowTxTable& table, std::span<const std::size_t> tx_index,
    std::span<const RxOutcome> outcomes, std::size_t decoders) {
  if (tx_index.size() != outcomes.size()) {
    std::ostringstream msg;
    msg << "gateway window has " << outcomes.size() << " outcomes for "
        << tx_index.size() << " events";
    violate(msg.str());
    return;
  }
  struct Dispatched {
    Seconds lock_on;
    PacketId packet;
    std::size_t event;
  };
  std::vector<PacketId> ids;
  std::vector<Dispatched> dispatched;
  ids.reserve(outcomes.size());
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    const std::size_t t = tx_index[k];
    const RxDisposition d = outcomes[k].disposition;
    ids.push_back(table.packet[t]);
    if (consumed_decoder(d) || d == RxDisposition::kDroppedDecoderBusy) {
      dispatched.push_back(Dispatched{table.lock_on[t], table.packet[t], k});
    }
  }
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = 1; i < ids.size(); ++i) {
    if (ids[i] != ids[i - 1]) continue;
    std::ostringstream msg;
    msg << "duplicate packet id " << ids[i] << " in one gateway window";
    violate(msg.str());
  }

  std::sort(dispatched.begin(), dispatched.end(),
            [](const Dispatched& a, const Dispatched& b) {
              if (a.lock_on != b.lock_on) return a.lock_on < b.lock_on;
              return a.packet < b.packet;
            });
  struct Holder {
    Seconds end;
    NetworkId network;
  };
  std::vector<Holder> held;
  for (const auto& d : dispatched) {
    const std::size_t t = tx_index[d.event];
    const RxOutcome& out = outcomes[d.event];
    std::erase_if(held, [&](const Holder& h) { return h.end <= d.lock_on; });
    if (out.disposition != RxDisposition::kDroppedDecoderBusy) {
      if (held.size() >= decoders) {
        std::ostringstream msg;
        msg << "packet " << d.packet << " holds a decoder while all "
            << decoders << " are held (exceeds the decoder budget)";
        violate(msg.str());
      }
      held.push_back(Holder{table.end[t], table.net[t]});
      continue;
    }
    if (held.size() < decoders) {
      std::ostringstream msg;
      msg << "packet " << d.packet << " was refused a decoder while only "
          << held.size() << "/" << decoders << " are held";
      violate(msg.str());
      continue;
    }
    const bool foreign =
        std::any_of(held.begin(), held.end(), [&](const Holder& h) {
          return h.network != table.net[t];
        });
    if (out.foreign_among_occupants != foreign) {
      std::ostringstream msg;
      msg << std::boolalpha << "packet " << d.packet << " was refused with "
          << "foreign_among_occupants=" << out.foreign_among_occupants
          << " but the holders say " << foreign;
      violate(msg.str());
    }
  }
}

void SimInvariants::check_window(const WindowResult& result) {
  ++windows_checked_;
  std::map<NetworkId, std::size_t> offered;
  std::map<NetworkId, std::size_t> delivered;
  for (const auto& fate : result.fates) {
    ++offered[fate.network];
    if (fate.delivered) ++delivered[fate.network];
    if (fate.delivered != (fate.cause == LossCause::kDelivered)) {
      std::ostringstream msg;
      msg << "packet " << fate.packet << " has delivered=" << fate.delivered
          << " but cause=" << loss_cause_name(fate.cause);
      violate(msg.str());
    }
  }
  for (const auto& [network, count] : result.offered) {
    const auto it = offered.find(network);
    const std::size_t from_fates = it == offered.end() ? 0 : it->second;
    if (count != from_fates) {
      std::ostringstream msg;
      msg << "network " << network << " offered count " << count
          << " disagrees with fate stream (" << from_fates << ")";
      violate(msg.str());
    }
  }
  for (const auto& [network, count] : result.delivered) {
    const auto it = delivered.find(network);
    const std::size_t from_fates = it == delivered.end() ? 0 : it->second;
    if (count != from_fates) {
      std::ostringstream msg;
      msg << "network " << network << " delivered count " << count
          << " disagrees with fate stream (" << from_fates << ")";
      violate(msg.str());
    }
  }
  for (const auto& [network, count] : offered) {
    if (!result.offered.contains(network)) {
      std::ostringstream msg;
      msg << "fate stream mentions network " << network
          << " missing from the window's offered map";
      violate(msg.str());
    }
    (void)count;
  }
}

void SimInvariants::check_metrics(const MetricsCollector& metrics) {
  const auto networks = metrics.networks();
  std::size_t offered_sum = 0;
  std::size_t delivered_sum = 0;
  std::size_t bytes_sum = 0;
  for (const NetworkId network : networks) {
    const std::size_t offered = metrics.offered(network);
    const std::size_t delivered = metrics.delivered(network);
    offered_sum += offered;
    delivered_sum += delivered;
    bytes_sum += metrics.delivered_bytes(network);
    std::size_t losses = 0;
    for (const auto cause :
         {LossCause::kDecoderContentionIntra, LossCause::kDecoderContentionInter,
          LossCause::kChannelContentionIntra, LossCause::kChannelContentionInter,
          LossCause::kOther}) {
      losses += metrics.losses(network, cause);
    }
    if (offered != delivered + losses) {
      std::ostringstream msg;
      msg << "network " << network << " conservation broken: offered "
          << offered << " != delivered " << delivered << " + losses "
          << losses;
      violate(msg.str());
    }
  }
  if (offered_sum != metrics.total_offered()) {
    std::ostringstream msg;
    msg << "total offered " << metrics.total_offered()
        << " != per-network sum " << offered_sum;
    violate(msg.str());
  }
  if (delivered_sum != metrics.total_delivered()) {
    std::ostringstream msg;
    msg << "total delivered " << metrics.total_delivered()
        << " != per-network sum " << delivered_sum;
    violate(msg.str());
  }
  if (bytes_sum != metrics.total_delivered_bytes()) {
    std::ostringstream msg;
    msg << "total delivered bytes " << metrics.total_delivered_bytes()
        << " != per-network sum " << bytes_sum;
    violate(msg.str());
  }
  std::size_t total_losses = 0;
  for (const auto cause :
       {LossCause::kDecoderContentionIntra, LossCause::kDecoderContentionInter,
        LossCause::kChannelContentionIntra, LossCause::kChannelContentionInter,
        LossCause::kOther}) {
    total_losses += metrics.losses(cause);
  }
  if (metrics.total_offered() != metrics.total_delivered() + total_losses) {
    std::ostringstream msg;
    msg << "total conservation broken: offered " << metrics.total_offered()
        << " != delivered " << metrics.total_delivered() << " + losses "
        << total_losses;
    violate(msg.str());
  }
  // The recent-fate ring is bounded; retained + evicted must account for
  // every offered packet, and while nothing has been evicted the ring is
  // the complete history, so its delivered count must match the aggregate.
  const std::size_t expected_history =
      std::min(metrics.total_offered(), metrics.history_limit());
  if (metrics.history_size() != expected_history) {
    std::ostringstream msg;
    msg << "fate ring size " << metrics.history_size() << " != expected "
        << expected_history << " (offered " << metrics.total_offered()
        << ", limit " << metrics.history_limit() << ")";
    violate(msg.str());
  }
  if (metrics.history_size() + metrics.evicted() != metrics.total_offered()) {
    std::ostringstream msg;
    msg << "fate ring " << metrics.history_size() << " + evicted "
        << metrics.evicted() << " != total offered "
        << metrics.total_offered();
    violate(msg.str());
  }
  std::size_t dr_delivered = 0;
  for (const DataRate dr : kAllDataRates) {
    dr_delivered += metrics.delivered_by_dr(dr);
  }
  if (dr_delivered != metrics.total_delivered()) {
    std::ostringstream msg;
    msg << "per-DR delivered sum " << dr_delivered << " != total delivered "
        << metrics.total_delivered();
    violate(msg.str());
  }
  if (metrics.evicted() == 0) {
    std::size_t delivered_fates = 0;
    for (const auto& fate : metrics.recent_fates()) {
      if (fate.delivered) ++delivered_fates;
    }
    if (delivered_fates != metrics.total_delivered()) {
      std::ostringstream msg;
      msg << "delivered fates " << delivered_fates << " != total delivered "
          << metrics.total_delivered();
      violate(msg.str());
    }
  }
}

SimInvariants* invariants_from_env() {
  static const bool enabled = [] {
    const char* value = std::getenv("ALPHAWAN_CHECK");
    return value != nullptr && value[0] != '\0' &&
           !(value[0] == '0' && value[1] == '\0');
  }();
  if (!enabled) return nullptr;
  static SimInvariants checker = [] {
    SimInvariants c;
    c.set_fail_fast(true);
    return c;
  }();
  return &checker;
}

}  // namespace alphawan
