// The COTS gateway radio model: front-end chains with frequency
// selectivity, SNR-based preamble detection, FCFS dispatch into a finite
// decoder pool, interference-aware decoding, and post-decode sync-word
// filtering. Reproduces the reception pipeline of paper Appendix C.
//
// The radio processes a *batch* of transmissions (one simulation window):
// internally it is event-ordered (lock-on sorted), so batch processing is
// exact as long as no packet straddles the window boundary.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "phy/batch_kernels.hpp"
#include "phy/overlap.hpp"
#include "radio/capture_policy.hpp"
#include "radio/profiles.hpp"
#include "radio/rx_batch.hpp"
#include "radio/transmission.hpp"

namespace alphawan {

class GatewayRadio {
 public:
  // Throws std::invalid_argument if the profile has fewer than one decoder.
  GatewayRadio(GatewayProfile profile, NetworkId network,
               std::uint16_t sync_word);

  // Configure the operating channels. Throws std::invalid_argument if more
  // channels than data Rx chains or if the frequency span exceeds the
  // radio bandwidth B_j (paper's gateway radio constraints, Sec. 4.3.1).
  void configure_channels(std::vector<Channel> channels);

  [[nodiscard]] const GatewayProfile& profile() const { return profile_; }
  // The operating channels, one per Rx chain (chain i takes channel i).
  [[nodiscard]] const std::vector<Channel>& channels() const {
    return channels_;
  }
  [[nodiscard]] NetworkId network() const { return network_; }
  [[nodiscard]] std::uint16_t sync_word() const { return sync_word_; }

  // Attach a capture policy (nullptr = stock pipeline only). process_into()
  // asks it about each collision drop and delivers the packets it recovers
  // — see capture_policy.hpp. The policy is not owned; the caller keeps it
  // alive across windows.
  void set_capture_policy(const CapturePolicy* policy);

  // Process one window of transmissions observed at this gateway: the
  // view's events, read off the window's shared WindowTxTable columns
  // through the receive kernels (phy/batch_kernels.hpp). Events may arrive
  // unsorted. Fills `outcomes` (resized to view.count, same order as the
  // view) instead of returning a fresh vector, so a caller-owned buffer
  // keeps its capacity across windows.
  void process_into(const RxEventView& view, std::vector<RxOutcome>& outcomes);

  // Which of a window's distinct channels (WindowTxTable::channels) this
  // radio can ever read: fills `readable` with one byte per channel,
  // nonzero where an event on it may reach phase 1's chains, phase 3's
  // interference scan or a capture policy, or shares a frequency bucket
  // with one that may. An event on a zero channel is front-end rejected
  // and changes no other event's outcome, so the runner's prepass never
  // routes it to this radio; the proof is at the definition. Gives the
  // answers of the channel table process_into builds, without building
  // one: it allocates nothing beyond growing `readable`.
  void readable_channels(std::span<const Channel> window_channels,
                         std::vector<std::uint8_t>& readable) const;

  // Convenience adapter for an event list: builds a table and a view over
  // the events (in order) and runs process_into. Returns one outcome per
  // input event (same order).
  [[nodiscard]] std::vector<RxOutcome> process(
      const std::vector<RxEvent>& events);

 private:
  // Every per-channel answer a window needs, over its distinct channels
  // (WindowTxTable::channels) × this radio's chains: each depends only on
  // the pair, so it is computed once per window and read by every event.
  struct ChannelTable {
    struct Row {
      Channel channel{};
      std::int64_t bucket = 0;  // coarse frequency bucket of the center
      int chain = -1;           // the detecting chain, -1 if none
      double noise_lin = 0.0;   // linear noise floor (where chain >= 0)
    };
    std::vector<Row> rows;           // per window channel
    std::vector<ChannelLink> links;  // chain * rows.size() + window channel
    [[nodiscard]] const ChannelLink* toward(std::size_t chain) const {
      return links.data() + chain * rows.size();
    }
  };

  // Reusable per-window working storage (docs/performance.md): allocated
  // once, capacity retained across windows, so a steady-state window does
  // no per-window heap allocation inside process_into(). The flat sorted
  // bucket index replaces the per-window std::map frequency buckets.
  struct RxScratch {
    // A detected packet awaiting FCFS dispatch (`event` indexes the view).
    struct Queued {
      std::size_t event = 0;
      Seconds lock_on{0.0};
      Seconds end{0.0};
      NetworkId network = 0;
      PacketId packet = 0;
    };
    // A decoder held until `end` by a packet of `network`.
    struct Holder {
      Seconds end{0.0};
      NetworkId network = 0;
    };
    ChannelTable channels;
    std::vector<Queued> queue;
    std::vector<Holder> held;
    // event -> rx chain of a packet holding a decoder (-1 otherwise, once
    // FCFS dispatch has run).
    std::vector<int> chain_of;
    std::vector<Seconds> end_of;        // cached tx.end() per event
    std::vector<double> lin_power;      // cached dBm->linear rx power
    std::vector<std::size_t> decoding;  // event indices holding a decoder
    // Hot per-event fields gathered from the table into flat arrays in
    // phase 1, so the interferer scan reads small contiguous vectors
    // instead of one scattered table lookup per candidate pair.
    std::vector<Seconds> start_of;
    std::vector<std::uint32_t> channel_of;  // window channel id
    std::vector<Dbm> power_of;
    std::vector<SpreadingFactor> sf_of;
    std::vector<NetworkId> net_of;
    struct Bucket {
      std::int64_t id = 0;      // coarse frequency bucket
      std::uint32_t begin = 0;  // [begin, end) range into `order`
      std::uint32_t end = 0;
      Seconds max_duration{0.0};
      // When every event in the bucket shares one window channel, one
      // table link per chain covers the whole bucket: zero overlap skips
      // its scan range, full overlap takes the SF-grouped kernel.
      bool uniform = true;
      std::uint32_t channel = 0;
      // When every event in the bucket belongs to one network, each of its
      // colliders gives one attribution (network != the decoded event's),
      // so its first collider settles it.
      bool one_network = true;
      NetworkId network = 0;
      // [groups_begin, groups_end) into sf_groups for a uniform bucket's
      // stable SF grouping (empty for mixed buckets).
      std::uint32_t groups_begin = 0;
      std::uint32_t groups_end = 0;
    };
    std::vector<std::int64_t> bucket_id;     // per-event coarse bucket
    std::vector<std::uint32_t> bucket_count; // counting-sort workspace
    std::vector<std::pair<std::int64_t, std::uint32_t>> keyed;
    // Event indices grouped by bucket. Before phase 3 builds it, FCFS
    // dispatch borrows it for the merged dispatch order (queue indices).
    std::vector<std::uint32_t> order;
    // Per-bucket (start, index) staging for the start-time sort.
    std::vector<std::pair<Seconds, std::uint32_t>> start_idx;
    std::vector<Bucket> buckets;       // sorted by bucket id
    // One collision drop's co-channel time-overlappers, gathered for the
    // capture policy.
    std::vector<CaptureEvent> overlappers;
    // Filled by build_sf_groups: every uniform bucket's events stably
    // regrouped by SF (order_sf, with pos_sf the bucket rank of each
    // entry) and the flat SF-group ranges. Before that, FCFS dispatch
    // borrows pos_sf for the links of its per-class runs.
    std::vector<std::uint32_t> order_sf;
    std::vector<std::uint32_t> pos_sf;
    std::vector<SfGroup> sf_groups;
    // Monotone window-start cursors, one per SF group: the scan walks
    // decoded events in ascending start order, so the grouped kernel's
    // lower window edge only ever advances (phy/batch_kernels.hpp).
    std::vector<std::uint32_t> group_cursor;
  };

  // Fills `table` over a window's distinct channels.
  void build_channel_table(std::span<const Channel> window_channels,
                           ChannelTable& table) const;

  // Phase 2: FCFS dispatch of the filled queue into the profile's
  // decoders. `already_sorted` skips the (lock_on, packet) ordering when
  // the caller proved the queue strictly ascending — any comparison sort
  // is the identity there, so skipping cannot change the dispatch order.
  void dispatch_queue(std::vector<RxOutcome>& outcomes, bool already_sorted);
  // Fills `order` with the queue's (lock_on, packet) order by merging its
  // per-(SF, bandwidth) runs; false when that cannot be exact (the caller
  // sorts instead).
  [[nodiscard]] bool merge_dispatch_order();
  // Phase 3a: coarse frequency bucketing + per-bucket start-time sort over
  // the phase-1 scratch columns. `starts_strict` (the view's starts
  // strictly increase) proves every bucket already start-sorted.
  void build_bucket_index(std::size_t count, bool starts_strict);
  // Phase-3 prep: stable SF grouping of every uniform bucket.
  void build_sf_groups(std::size_t count);
  // Phase 3, collision drops only: gathers event i's co-channel
  // time-overlappers from the bucket index and asks the capture policy.
  [[nodiscard]] bool policy_recovers(std::size_t i, const RxEventView& view);

  GatewayProfile profile_;
  NetworkId network_;
  std::uint16_t sync_word_;
  std::vector<Channel> channels_;
  const CapturePolicy* capture_policy_ = nullptr;
  RxScratch scratch_;
};

}  // namespace alphawan
