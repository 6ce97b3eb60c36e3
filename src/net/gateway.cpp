#include "net/gateway.hpp"

namespace alphawan {

Gateway::Gateway(GatewayId id, NetworkId network, Point position,
                 GatewayProfile profile, std::uint16_t sync_word)
    : id_(id),
      network_(network),
      position_(position),
      radio_(profile, network, sync_word),
      antenna_(std::make_unique<OmniAntenna>()) {}

void Gateway::apply_channels(const GatewayChannelConfig& config) {
  radio_.configure_channels(config.channels);
}

void Gateway::set_antenna(std::unique_ptr<Antenna> antenna,
                          double boresight_rad) {
  antenna_ = std::move(antenna);
  boresight_rad_ = boresight_rad;
  ++antenna_epoch_;
}

Db Gateway::antenna_gain_towards(const Point& target) const {
  return antenna_->gain_towards(position_, target, boresight_rad_);
}

void Gateway::receive_window(const RxEventView& view,
                             std::vector<UplinkRecord>& uplinks,
                             std::vector<RxOutcome>& outcomes) {
  radio_.process_into(view, outcomes);
  const WindowTxTable& tbl = *view.table;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& out = outcomes[i];
    if (out.disposition != RxDisposition::kDelivered) continue;
    const std::uint32_t t = view.tx_index[i];
    UplinkRecord rec;
    rec.packet = out.packet;
    rec.node = out.node;
    rec.gateway = id_;
    rec.network = network_;
    rec.timestamp = tbl.end[t];
    rec.channel = tbl.channels[tbl.channel_id[t]];
    rec.dr = sf_to_dr(tbl.sf[t]);
    rec.snr = out.snr;
    uplinks.push_back(rec);
  }
}

}  // namespace alphawan
