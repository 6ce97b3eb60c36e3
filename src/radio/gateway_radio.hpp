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
#include <vector>

#include "phy/batch_kernels.hpp"
#include "phy/overlap.hpp"
#include "radio/capture_policy.hpp"
#include "radio/decoder_pool.hpp"
#include "radio/dispatcher.hpp"
#include "radio/profiles.hpp"
#include "radio/rx_chain.hpp"
#include "radio/rx_batch.hpp"
#include "radio/transmission.hpp"

namespace alphawan {

class GatewayRadio {
 public:
  GatewayRadio(GatewayProfile profile, NetworkId network,
               std::uint16_t sync_word);

  // Configure the operating channels. Throws std::invalid_argument if more
  // channels than data Rx chains or if the frequency span exceeds the
  // radio bandwidth B_j (paper's gateway radio constraints, Sec. 4.3.1).
  void configure_channels(std::vector<Channel> channels);

  [[nodiscard]] const GatewayProfile& profile() const { return profile_; }
  [[nodiscard]] const std::vector<RxChain>& chains() const { return chains_; }
  [[nodiscard]] NetworkId network() const { return network_; }
  [[nodiscard]] std::uint16_t sync_word() const { return sync_word_; }

  // Attach a capture policy invoked at the end of process_into() (nullptr =
  // stock pipeline only, bit-identical to the pre-policy code path). The
  // policy is not owned; the caller keeps it alive across windows. After
  // resolve(), process_into() verifies the policy only rewrote outcomes whose
  // packet already held a decoder (consumed_decoder) and throws
  // std::logic_error otherwise — see capture_policy.hpp.
  void set_capture_policy(const CapturePolicy* policy);
  [[nodiscard]] const CapturePolicy* capture_policy() const {
    return capture_policy_;
  }

  // Process one window of transmissions observed at this gateway: the
  // view's events, read off the window's shared WindowTxTable columns
  // through the receive kernels (phy/batch_kernels.hpp). Events may arrive
  // unsorted. Fills `outcomes` (resized to view.count, same order as the
  // view) instead of returning a fresh vector, so a caller-owned buffer
  // keeps its capacity across windows. Capture policies read the columnar
  // CaptureContext built from the per-event scratch columns.
  void process_into(const RxEventView& view, std::vector<RxOutcome>& outcomes);

  // Convenience adapter for an event list: builds a table and a view over
  // the events (in order) and runs process_into. Returns one outcome per
  // input event (same order).
  [[nodiscard]] std::vector<RxOutcome> process(
      const std::vector<RxEvent>& events);

 private:
  // Reusable per-window working storage (docs/performance.md): allocated
  // once, capacity retained across windows, so a steady-state window does
  // no per-window heap allocation inside process_into(). The flat sorted
  // bucket index replaces the per-window std::map frequency buckets.
  struct RxScratch {
    std::vector<DispatchEntry> queue;
    std::vector<int> chain_of;          // event -> rx chain (-1 = rejected)
    std::vector<Seconds> end_of;        // cached tx.end() per event
    std::vector<double> lin_power;      // cached dBm->linear rx power
    std::vector<std::size_t> decoding;  // event indices holding a decoder
    // Hot per-event fields gathered from the table into flat arrays in
    // phase 1, so the interferer scan reads small contiguous vectors
    // instead of one scattered table lookup per candidate pair.
    std::vector<Seconds> start_of;
    std::vector<Channel> channel_of;
    std::vector<Dbm> power_of;
    std::vector<SpreadingFactor> sf_of;
    std::vector<NetworkId> net_of;
    // Capture-policy columns (node + per-tx sync word), filled only when a
    // policy is installed — the columnar CaptureContext points into these
    // plus the hot columns above.
    std::vector<NodeId> node_of;
    std::vector<std::uint16_t> sync_of;
    struct Bucket {
      std::int64_t id = 0;      // coarse frequency bucket
      std::uint32_t begin = 0;  // [begin, end) range into `order`
      std::uint32_t end = 0;
      Seconds max_duration{0.0};
      // When every event in the bucket shares one exact channel, a single
      // overlap test against the wanted chain covers the whole bucket —
      // and zero overlap skips its entire scan range.
      bool uniform = true;
      Channel channel{};
      // [groups_begin, groups_end) into sf_groups for a uniform bucket's
      // stable SF grouping (empty for mixed buckets).
      std::uint32_t groups_begin = 0;
      std::uint32_t groups_end = 0;
    };
    std::vector<std::int64_t> bucket_id;     // per-event coarse bucket
    std::vector<std::uint32_t> bucket_count; // counting-sort workspace
    std::vector<std::pair<std::int64_t, std::uint32_t>> keyed;
    std::vector<std::uint32_t> order;  // event indices grouped by bucket
    // Per-bucket (start, index) staging for the start-time sort.
    std::vector<std::pair<Seconds, std::uint32_t>> start_idx;
    std::vector<Bucket> buckets;       // sorted by bucket id
    struct ChainMemo {
      Hz center{};
      Hz bandwidth{};
      int chain = -1;
    };
    // best_chain result per distinct packet channel; valid until the
    // channel set changes (cleared by configure_channels).
    std::vector<ChainMemo> chain_memo;
    // Pre-resolve disposition snapshot for the capture-policy budget check
    // (only filled when a policy is installed).
    std::vector<RxDisposition> pre_policy;
    // Filled by build_sf_groups_and_memos: every uniform bucket's events
    // stably regrouped by SF (order_sf, with pos_sf the bucket rank of each
    // entry), the flat SF-group ranges, and the per-(bucket, chain)
    // overlap/coupling memo — values the reference kernel recomputes
    // identically per decoded event.
    std::vector<std::uint32_t> order_sf;
    std::vector<std::uint32_t> pos_sf;
    std::vector<SfGroup> sf_groups;
    // Monotone window-start cursors (one per SF group / per bucket): the
    // scan walks decoded events in ascending start order, so each
    // kernel's lower window edge only ever advances (phy/batch_kernels.hpp).
    std::vector<std::uint32_t> group_cursor;
    std::vector<std::uint32_t> bucket_cursor;
    struct BucketChainMemo {
      double rho = 0.0;
      Db coupling{-400.0};
    };
    std::vector<BucketChainMemo> bucket_chain;  // bucket * n_chains + chain
  };

  // Memoized best_chain: the chain index for a packet channel, or -1 when
  // every chain's filter truncates it.
  [[nodiscard]] int chain_for(const Channel& packet_channel);

  // Phase 2: FCFS dispatch of the filled queue into the decoder pool.
  // `already_sorted` skips sort_fcfs when the caller proved the queue
  // strictly ascending by (lock_on, packet) — any comparison sort is the
  // identity there, so skipping cannot change the dispatch order.
  void dispatch_queue(std::vector<RxOutcome>& outcomes, bool already_sorted);
  // Phase 3a: coarse frequency bucketing + per-bucket start-time sort over
  // the phase-1 scratch columns.
  void build_bucket_index(std::size_t count);
  // Phase-3 prep: stable SF grouping of every uniform bucket and the
  // per-(bucket, chain) overlap/coupling memos.
  void build_sf_groups_and_memos(std::size_t count);
  // Phase 4: pluggable capture resolution + the decoder-budget check.
  // Builds the columnar CaptureContext over the first `count` entries of
  // the per-event scratch columns.
  void apply_capture_policy(std::size_t count,
                            std::vector<RxOutcome>& outcomes);

  GatewayProfile profile_;
  NetworkId network_;
  std::uint16_t sync_word_;
  std::vector<RxChain> chains_;
  DecoderPool pool_;
  const CapturePolicy* capture_policy_ = nullptr;
  RxScratch scratch_;
};

}  // namespace alphawan
