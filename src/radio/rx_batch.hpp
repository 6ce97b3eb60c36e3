// Window-level SoA views for the receive pipeline.
//
// The runner builds ONE WindowTxTable per window — the per-field columns of
// the shared transmission list, with the airtime-derived times (lock_on /
// end) memoized once per radio setting — and hands each gateway a thin
// RxEventView: indices into that table plus the per-gateway received
// powers. Every per-event quantity a gateway reads is either a table column
// (shared, computed once per window instead of once per (gateway, event))
// or a view column, so GatewayRadio::process_into never touches a
// Transmission struct on its hot path.
//
// Bit-exactness: end[t] and lock_on[t] are term for term the sums
// Transmission::end() / lock_on() compute (start + time_on_air(...), start +
// preamble_duration(...)), through a memo of the same pure functions, so
// uplink timestamps and capture windows match the struct-level values
// (tests/golden/digests.txt pins them).
#pragma once

#include <cstdint>
#include <vector>

#include "radio/transmission.hpp"

namespace alphawan {

// Per-field columns of one window's transmission list. build() may be called
// every window; the airtime memo persists across builds (time_on_air /
// preamble_duration are pure functions of the radio settings).
struct WindowTxTable {
  std::vector<Seconds> start;
  std::vector<Seconds> end;      // start + time_on_air (== Transmission::end)
  std::vector<Seconds> lock_on;  // start + preamble   (== Transmission::lock_on)
  // The window's distinct channels, in first-use order, and each
  // transmission's index into them (its channel is channels[channel_id[t]]):
  // per-channel questions (can this radio read it, on which chain?) are
  // answered once per window channel, not once per event.
  std::vector<Channel> channels;
  std::vector<std::uint32_t> channel_id;
  std::vector<SpreadingFactor> sf;
  std::vector<NetworkId> net;
  std::vector<Dbm> tx_power;
  std::vector<PacketId> packet;
  std::vector<NodeId> node;
  std::vector<std::uint16_t> sync;

  void build(const std::vector<Transmission>& txs);
  [[nodiscard]] std::size_t size() const { return start.size(); }

 private:
  // time_on_air/preamble_duration per distinct (params, payload): a window
  // draws from a handful of radio settings, so the full airtime formula
  // runs once per setting instead of once per event.
  struct AirtimeMemo {
    TxParams params{};
    std::uint32_t payload_bytes = 0;
    Seconds airtime{0.0};
    Seconds preamble{0.0};
  };
  [[nodiscard]] const AirtimeMemo& airtime_for(const Transmission& tx);
  // Index of `ch` in `channels`, appended on first use. A linear scan: a
  // window uses a few dozen channels (its operators' plans).
  [[nodiscard]] std::uint32_t channel_index(const Channel& ch);
  std::vector<AirtimeMemo> memo_;
};

// One gateway's view of a window: `count` events, where event k is
// transmission tx_index[k] received at power rx_power[k]. Both arrays are
// owned by the caller (the runner's per-task arenas) and must outlive the
// process_into() call. The runner's indices ascend in transmission order,
// which fixes every downstream accumulation order.
struct RxEventView {
  const WindowTxTable* table = nullptr;
  const std::uint32_t* tx_index = nullptr;
  const Dbm* rx_power = nullptr;
  std::size_t count = 0;
};

}  // namespace alphawan
