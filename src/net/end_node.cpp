#include "net/end_node.hpp"

#include "phy/airtime.hpp"

namespace alphawan {

EndNode::EndNode(NodeId id, NetworkId network, Point position,
                 NodeRadioConfig config)
    : id_(id),
      network_(network),
      position_(position),
      config_(config) {}

TxParams EndNode::tx_params() const {
  TxParams params;
  params.sf = dr_to_sf(config_.dr);
  params.bandwidth = config_.channel.bandwidth;
  return params;
}

Transmission EndNode::make_transmission(Seconds start,
                                        std::uint32_t payload_bytes,
                                        PacketId packet_id) {
  Transmission tx;
  tx.id = packet_id;
  tx.node = id_;
  tx.network = network_;
  tx.sync_word = sync_word_for_network(network_);
  tx.channel = config_.channel;
  tx.params = tx_params();
  tx.payload_bytes = payload_bytes;
  tx.tx_power = config_.tx_power;
  tx.origin = position_;
  tx.start = start;
  ++fcnt_;
  last_tx_end_ = tx.end();
  last_tx_airtime_ = time_on_air(tx.params, payload_bytes);
  return tx;
}

Seconds EndNode::next_allowed_start(double duty_cycle_limit) const {
  if (last_tx_end_ < Seconds{0.0} || duty_cycle_limit >= 1.0) {
    return Seconds{0.0};
  }
  // Classic per-subband off-time rule: T_off = T_air/duty - T_air.
  const Seconds off_time =
      last_tx_airtime_ / duty_cycle_limit - last_tx_airtime_;
  return last_tx_end_ + off_time;
}

}  // namespace alphawan
