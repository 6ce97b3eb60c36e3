#include "check/replay.hpp"

#include <sstream>

namespace alphawan {
namespace {

std::string_view disposition_name(RxDisposition d) {
  switch (d) {
    case RxDisposition::kDelivered: return "delivered";
    case RxDisposition::kDecodedForeign: return "decoded-foreign";
    case RxDisposition::kDroppedDecoderBusy: return "dropped-decoder-busy";
    case RxDisposition::kDroppedCollision: return "dropped-collision";
    case RxDisposition::kDroppedLowSnr: return "dropped-low-snr";
    case RxDisposition::kNotDetected: return "not-detected";
    case RxDisposition::kRejectedFrontEnd: return "rejected-front-end";
  }
  return "?";
}

}  // namespace

std::string ReplayReport::to_string() const {
  std::ostringstream out;
  if (!found) {
    out << "packet " << fate.packet << ": not present in this window\n";
    return out.str();
  }
  out << "packet " << tx.id << " node " << tx.node << " network " << tx.network
      << " sf " << sf_value(tx.params.sf) << " channel "
      << tx.channel.center.value() / 1e6 << " MHz start " << tx.start << " s lock-on "
      << tx.lock_on() << " s end " << tx.end() << " s\n";
  for (const auto& obs : observations) {
    out << "  gw " << obs.gateway << " (net " << obs.network
        << (obs.own_network ? ", own" : ", foreign") << "): ";
    if (obs.pruned) {
      out << "pruned (rx " << obs.rx_power << " dBm below floor)\n";
      continue;
    }
    out << "rx " << obs.rx_power << " dBm, snr " << obs.snr << " dB, "
        << disposition_name(obs.disposition);
    if (obs.chain_channel >= 0) out << ", chain " << obs.chain_channel;
    out << "\n";
  }
  out << "  fate: " << (fate.delivered ? "delivered" : "lost") << " ("
      << loss_cause_name(fate.cause) << ")\n";
  return out.str();
}

ReplayReport replay_packet(Deployment& deployment, std::uint64_t seed,
                           const std::vector<Transmission>& txs,
                           PacketId packet, Db prune_margin) {
  ReplayReport report;
  report.fate.packet = packet;
  const Transmission* target = nullptr;
  for (const auto& tx : txs) {
    if (tx.id == packet) {
      target = &tx;
      break;
    }
  }
  if (target == nullptr) return report;
  report.found = true;
  report.tx = *target;

  const Rng root(seed);
  auto& channel = deployment.channel_model();
  const Dbm floor = noise_floor_dbm(kLoRaBandwidth125k) - prune_margin;
  std::vector<RxOutcome> own_outcomes;

  for (auto& network : deployment.networks()) {
    for (auto& gw : network.gateways()) {
      // Rebuild this gateway's exact view of the window: every event, with
      // the same seed-keyed fading draw the original run used.
      std::vector<RxEvent> events;
      events.reserve(txs.size());
      std::size_t target_event = txs.size();
      Dbm target_power{-400.0};
      bool target_seen = false;
      for (const auto& tx : txs) {
        const Meters dist = distance(tx.origin, gw.position());
        Rng link_rng = packet_link_rng(root, gw.id(), tx.id);
        const Dbm rx_power =
            channel.received_power(tx.node, kGatewayKeyBase + gw.id(), dist,
                                   tx.tx_power, link_rng) +
            gw.antenna_gain_towards(tx.origin);
        if (tx.id == packet) {
          target_power = rx_power;
          target_seen = true;
        }
        if (rx_power < floor) continue;
        if (tx.id == packet) target_event = events.size();
        events.push_back(RxEvent{tx, rx_power});
      }

      GatewayObservation obs;
      obs.gateway = gw.id();
      obs.network = network.id();
      obs.own_network = network.id() == target->network;
      obs.rx_power = target_seen ? target_power : Dbm{-400.0};
      if (target_event == txs.size()) {
        obs.pruned = true;
        report.observations.push_back(obs);
        continue;
      }

      // Process on a copy: pools reset per window anyway, but the copy also
      // keeps server state out of the replay.
      GatewayRadio radio = gw.radio();
      const auto outcomes = radio.process(events);
      const auto& out = outcomes[target_event];
      obs.snr = out.snr;
      obs.disposition = out.disposition;
      obs.chain_channel = out.chain_channel;
      report.observations.push_back(obs);
      if (obs.own_network) own_outcomes.push_back(out);
    }
  }

  report.fate = classify_packet(*target, own_outcomes);
  return report;
}

}  // namespace alphawan
