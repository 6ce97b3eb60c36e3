#include "radio/rx_batch.hpp"

namespace alphawan {

const WindowTxTable::AirtimeMemo& WindowTxTable::airtime_for(
    const Transmission& tx) {
  for (const auto& memo : memo_) {
    if (memo.payload_bytes == tx.payload_bytes && memo.params == tx.params) {
      return memo;
    }
  }
  memo_.push_back(AirtimeMemo{tx.params, tx.payload_bytes,
                              time_on_air(tx.params, tx.payload_bytes),
                              preamble_duration(tx.params)});
  return memo_.back();
}

std::uint32_t WindowTxTable::channel_index(const Channel& ch) {
  for (std::size_t c = 0; c < channels.size(); ++c) {
    if (channels[c] == ch) return static_cast<std::uint32_t>(c);
  }
  channels.push_back(ch);
  return static_cast<std::uint32_t>(channels.size() - 1);
}

void WindowTxTable::build(const std::vector<Transmission>& txs) {
  const std::size_t n = txs.size();
  start.resize(n);
  end.resize(n);
  lock_on.resize(n);
  channels.clear();
  channel_id.resize(n);
  sf.resize(n);
  net.resize(n);
  tx_power.resize(n);
  packet.resize(n);
  node.resize(n);
  sync.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    const auto& tx = txs[t];
    const auto& airtime = airtime_for(tx);
    start[t] = tx.start;
    // Term for term the sums Transmission::end()/lock_on() compute, through
    // the memoized airtime, so the cached instants are bit-identical.
    end[t] = tx.start + airtime.airtime;
    lock_on[t] = tx.start + airtime.preamble;
    channel_id[t] = channel_index(tx.channel);
    sf[t] = tx.params.sf;
    net[t] = tx.network;
    tx_power[t] = tx.tx_power;
    packet[t] = tx.id;
    node[t] = tx.node;
    sync[t] = tx.sync_word;
  }
}

}  // namespace alphawan
