// A LoRaWAN gateway: position + antenna + the COTS radio model + packet
// forwarding. Converts radio outcomes into the uplink records a network
// server stores (the metadata AlphaWAN's log parser later mines).
#pragma once

#include <memory>
#include <vector>

#include "common/geometry.hpp"
#include "net/channel_plan.hpp"
#include "phy/antenna.hpp"
#include "radio/gateway_radio.hpp"

namespace alphawan {

// Metadata a gateway attaches when forwarding a decoded uplink to the
// network server (ChirpStack-style rxInfo).
struct UplinkRecord {
  PacketId packet = 0;
  NodeId node = kInvalidNode;
  GatewayId gateway = kInvalidGateway;
  NetworkId network = 0;
  Seconds timestamp{0.0};
  Channel channel{};
  DataRate dr = DataRate::kDR0;
  Db snr{0.0};

  [[nodiscard]] bool operator==(const UplinkRecord&) const = default;
};

class Gateway {
 public:
  Gateway(GatewayId id, NetworkId network, Point position,
          GatewayProfile profile, std::uint16_t sync_word);

  [[nodiscard]] GatewayId id() const { return id_; }
  [[nodiscard]] NetworkId network() const { return network_; }
  [[nodiscard]] const Point& position() const { return position_; }
  [[nodiscard]] const GatewayProfile& profile() const {
    return radio_.profile();
  }
  [[nodiscard]] const GatewayRadio& radio() const { return radio_; }
  [[nodiscard]] const std::vector<Channel>& channels() const {
    return channels_;
  }

  // Apply a channel configuration (triggers a "reboot" in the latency
  // model). Throws on configurations the hardware cannot realize.
  void apply_channels(const GatewayChannelConfig& config);

  // Versioned variant used by the forwarder push path: configs carry a
  // monotonically increasing version so a duplicated or reordered push
  // never re-applies (and never re-reboots) — only strictly newer versions
  // take effect. Returns whether the config was applied.
  bool apply_channels(const GatewayChannelConfig& config,
                      std::uint32_t version);
  [[nodiscard]] std::uint32_t config_version() const {
    return config_version_;
  }

  // Attach/detach a pluggable capture policy on the underlying radio
  // (nullptr = stock COTS pipeline). Not owned; see radio/capture_policy.hpp
  // for the contract.
  void set_capture_policy(const CapturePolicy* policy) {
    radio_.set_capture_policy(policy);
  }

  // Antenna control (omni by default; directional for the Fig. 7 study).
  void set_antenna(std::unique_ptr<Antenna> antenna, double boresight_rad);
  [[nodiscard]] Db antenna_gain_towards(const Point& target) const;

  // Bumped by set_antenna; lets the link cache (phy/link_cache.hpp) know
  // its cached antenna gains for this gateway are stale.
  [[nodiscard]] std::uint64_t antenna_epoch() const { return antenna_epoch_; }

  // Process one window of on-air transmissions (the view's events, read off
  // the window's shared transmission table) through the radio
  // (GatewayRadio::process_into): fills a caller-owned outcome buffer, one
  // outcome per event in view order, so per-window arenas keep their
  // capacity across windows, and appends delivered packets to `uplinks`.
  // Uplink metadata comes from the table, whose memoized end instant is the
  // identical sum Transmission::end() evaluates.
  void receive_window(const RxEventView& view,
                      std::vector<UplinkRecord>& uplinks,
                      std::vector<RxOutcome>& outcomes);

  [[nodiscard]] int reboot_count() const { return reboot_count_; }

 private:
  GatewayId id_;
  NetworkId network_;
  Point position_;
  GatewayRadio radio_;
  std::vector<Channel> channels_;
  std::unique_ptr<Antenna> antenna_;
  double boresight_rad_ = 0.0;
  std::uint64_t antenna_epoch_ = 0;
  std::uint32_t config_version_ = 0;
  int reboot_count_ = 0;
};

}  // namespace alphawan
