// Batched PHY receive kernels (the receive path of ScenarioRunner and
// GatewayRadio::process_into) and the reference scan they are
// differentially tested against.
//
// The hot loops of the receive pipeline — candidate link-gain /
// sensitivity filtering, the Box–Muller fading draws, and the interferer
// scan with its co-SF / inter-SF SIR capture tests — restructure the
// *scan* but never the *arithmetic*. The interferer scan has two kernels:
// the reference scan (scan_bucket_scalar, the original per-event loop) and
// the SF-grouped scan of a uniform bucket aligned with the receiving chain
// (scan_bucket_aligned_grouped). Bit-exactness is by construction:
//
//  * every floating-point expression a kernel evaluates for a live element
//    is the same expression, on the same operands, in the same order, as
//    the original loop; hoisted subexpressions are values that loop
//    recomputed identically each iteration — the overlap ratio and
//    coupling of each (window channel, chain) pair, read from the
//    per-window channel table (ChannelLink), SIR thresholds per SF pair,
//    the first SplitMix64 round of each fading substream;
//  * elements a kernel skips are exactly those whose contribution is dead:
//    interference sums are never read once a collision is established
//    (the event is dropped before the SNR test), and range pruning uses
//    the identical floating-point bound the reference lower_bound
//    evaluates, so the candidate sets match element for element;
//  * order-sensitive outputs are preserved explicitly: same-SF linear power
//    accumulates in the reference subsequence order (the SF grouping is a
//    stable sort), and the fatal-interferer attribution — last colliding
//    element in reference scan order — is recovered from the max
//    stable-sort rank among colliders, or, in a bucket whose events all
//    share one network, from its first collider (every collider there
//    gives the same attribution).
//
// The kernel tests (tests/test_phy_batch_kernels.cpp) check the grouped
// kernel against the reference scan bit for bit, and the reference scan
// against the per-pair overlap formulas; the pinned digests in
// tests/property/test_prop_kernels.cpp and tests/test_sim_batch.cpp hold
// the whole path to the per-event pipeline they were recorded from. The
// equivalences above are what make that hold for every input, not just
// the sampled ones.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/rng.hpp"
#include "phy/capture.hpp"
#include "phy/link_cache.hpp"
#include "phy/overlap.hpp"

namespace alphawan {

namespace batch_detail {
// Same formula as the receive pipeline's local dBm->linear helper
// (radio/gateway_radio.cpp); qualified so it cannot collide with that
// translation unit's anonymous-namespace copy.
inline double dbm_to_lin(Dbm p) { return std::pow(10.0, p.value() / 10.0); }
}  // namespace batch_detail

// Columns of the per-event scratch arrays the interferer scan reads
// (GatewayRadio::RxScratch fills them in phase 1; all pointers are indexed
// by event and valid for the whole scan).
struct RxScanSoA {
  const Seconds* start = nullptr;
  const Seconds* end = nullptr;
  const double* lin_power = nullptr;  // dBm->linear received power
  const std::uint32_t* channel = nullptr;  // window channel id
  const Dbm* power = nullptr;
  const SpreadingFactor* sf = nullptr;
  const NetworkId* net = nullptr;
};

// How one window channel meets one receive chain: the two values the
// reference scan reads per interferer, computed once per window
// (GatewayRadio's channel table) from the same pure functions it once
// called per candidate pair.
struct ChannelLink {
  double rho = 0.0;     // overlap_ratio(window channel, chain channel)
  Db coupling{-400.0};  // coupling_db(window channel, chain channel) where
                        // 0 < rho < kDetectOverlapThreshold, else -400
};

// The event currently being decoded, hoisted out of its scratch columns.
struct ScanEvent {
  std::size_t index = 0;  // its own event index (skipped as an interferer)
  Seconds start{0.0};
  Seconds end{0.0};
  Dbm power{-400.0};
  SpreadingFactor sf = SpreadingFactor::kSF7;
  NetworkId net = 0;
  // The receiving chain's links, indexed by window channel id.
  const ChannelLink* toward = nullptr;
};

// Interference accumulated for one decoded event across all scanned
// buckets. The sums are only meaningful while !collided: the scalar loop
// keeps accumulating after a collision but the event is dropped before
// either sum is read, so batched kernels stop contributing to them the
// moment a collision is established.
struct ScanAccum {
  double misaligned_intf_lin = 0.0;
  double aligned_same_sf_lin = 0.0;
  bool collided = false;
  bool foreign_fatal = false;  // fatal interferer was foreign (last in scan
                               // order, matching the scalar overwrite chain)
};

// One same-SF run of a bucket's stable SF grouping: [begin, end) into the
// order_sf/pos_sf arrays, events in ascending start time (the stable sort
// preserves the bucket's start order within each SF). max_power is the
// strongest received power in the group: since ev.power - p is monotone
// (non-increasing) in p under IEEE rounding, a group whose strongest member
// fails the capture predicate cannot contain a collider, and the aligned
// kernel skips it without touching its elements.
struct SfGroup {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  SpreadingFactor sf = SpreadingFactor::kSF7;
  Dbm max_power{-400.0};
};

// Reference scan of one frequency bucket — the original per-event phase-3
// inner loop, run for every bucket the aligned kernel does not take: mixed
// buckets and uniform buckets that only partially overlap the receiving
// chain. `order_begin/order_end` delimit the bucket's start-sorted event
// indices; `lookback` is the bucket's longest event duration. Each
// interferer's overlap and coupling are read from the receiving chain's
// links by window channel id; effective_interference_from_coupling on
// coupling_db(src, dst) is effective_interference_dbm(power, src, dst).
inline void scan_bucket_scalar(const RxScanSoA& soa,
                               const std::uint32_t* order_begin,
                               const std::uint32_t* order_end,
                               Seconds lookback, const ScanEvent& ev,
                               ScanAccum& acc) {
  const std::uint32_t* first = std::lower_bound(
      order_begin, order_end, ev.start - lookback,
      [&](std::uint32_t idx, Seconds t) { return soa.start[idx] < t; });
  for (const std::uint32_t* it = first; it != order_end; ++it) {
    const std::size_t j = *it;
    const Seconds j_start = soa.start[j];
    if (j_start >= ev.end) break;
    if (j == ev.index) continue;
    if (!(ev.start < soa.end[j] && j_start < ev.end)) continue;
    const ChannelLink& link = ev.toward[soa.channel[j]];
    if (link.rho <= 0.0) continue;
    const bool same_sf = soa.sf[j] == ev.sf;
    if (link.rho >= kDetectOverlapThreshold) {
      // Co-channel interferer: SF capture matrix applies.
      if (same_sf) acc.aligned_same_sf_lin += soa.lin_power[j];
      if (ev.power - soa.power[j] < capture_sir_threshold(ev.sf, soa.sf[j])) {
        acc.collided = true;
        acc.foreign_fatal = soa.net[j] != ev.net;
      }
    } else {
      // Misaligned interferer: filter-truncated energy acts as noise.
      Dbm eff =
          effective_interference_from_coupling(soa.power[j], link.coupling);
      if (!same_sf) eff -= kCrossSfMisalignedRejection;
      if (eff > Dbm{-250.0}) acc.misaligned_intf_lin += batch_detail::dbm_to_lin(eff);
    }
  }
}

// Batched scan of a uniform-channel bucket whose overlap with the receiving
// chain is >= kDetectOverlapThreshold: every overlapper takes the aligned
// (capture-matrix) branch, so the scan runs per SF group instead of testing
// SFs per element. Per group the SIR threshold is hoisted (the scalar loop
// recomputes capture_sir_threshold(ev.sf, sf_j) with the same arguments at
// every element), and the candidate range is the scalar's time window — the
// identical floating-point bound ev.start - lookback, and start < ev.end —
// restricted to the group:
//  * the window's lower edge comes from `cursors` (one per group, parallel
//    to the groups span): the caller scans decoded events in ascending
//    start order, so ev.start - lookback is non-decreasing per group and a
//    monotone cursor lands on exactly the element a per-event lower_bound
//    from the group's begin would — without the per-event binary searches;
//  * the event's own SF group accumulates same-SF linear power in scalar
//    subsequence order; past the first collider the remaining terms are
//    dead (the sum is only read when no collision occurred anywhere);
//  * the fatal-interferer attribution takes the collider with the maximum
//    stable-sort rank — the forward overwrite chain leaves the group's
//    last collider, exactly as the scalar loop's does;
//  * `one_network` (every event of the bucket belongs to one network)
//    settles the bucket at its first collider: the last collider's
//    attribution soa.net[j] != ev.net is then the first one's, and the
//    sums are dead, so nothing after it can change the result.
// `order_sf`/`pos_sf` are bucket-global arrays: order_sf holds the bucket's
// events stably regrouped by SF, pos_sf the bucket rank of each entry.
inline void scan_bucket_aligned_grouped(const RxScanSoA& soa,
                                        const std::uint32_t* order_sf,
                                        const std::uint32_t* pos_sf,
                                        const SfGroup* groups_begin,
                                        const SfGroup* groups_end,
                                        std::uint32_t* cursors,
                                        Seconds lookback, bool one_network,
                                        const ScanEvent& ev, ScanAccum& acc) {
  // The scalar time-window bound, evaluated once with the scalar's exact
  // floating-point expression (bucket-wide lookback, not per group, so the
  // candidate set matches the reference element for element).
  const Seconds window_from = ev.start - lookback;
  bool found = false;       // a collider exists in this bucket
  std::uint32_t best_pos = 0;  // bucket rank of the last collider so far
  std::uint32_t best_j = 0;
  for (const SfGroup* g = groups_begin; g != groups_end; ++g) {
    const Db threshold = capture_sir_threshold(ev.sf, g->sf);
    // Strongest-member precheck: if even max_power fails the capture
    // predicate, no member can pass it (monotonicity — see SfGroup), so the
    // group matters only through the same-SF power sum, if that is live.
    const bool may_collide = ev.power - g->max_power < threshold;
    const bool sums_live = g->sf == ev.sf && !acc.collided && !found;
    if (!may_collide && !sums_live) continue;
    std::uint32_t& cur = cursors[g - groups_begin];
    while (cur < g->end && soa.start[order_sf[cur]] < window_from) ++cur;
    if (sums_live && !may_collide) {
      // Collider-free by the precheck: accumulate the whole window — the
      // identical terms in the identical order, the per-element predicate
      // provably false throughout.
      for (std::uint32_t it = cur; it < g->end; ++it) {
        const std::uint32_t j = order_sf[it];
        if (soa.start[j] >= ev.end) break;
        if (j == ev.index) continue;
        if (!(ev.start < soa.end[j])) continue;
        acc.aligned_same_sf_lin += soa.lin_power[j];
      }
      continue;
    }
    // Forward scan: accumulate (own-SF group only) until the first collider
    // — everything after it is dead, see ScanAccum — while the overwrite
    // chain keeps the group's last collider for the attribution.
    bool hit = false;
    std::uint32_t last_pos = 0;
    std::uint32_t last_j = 0;
    for (std::uint32_t it = cur; it < g->end; ++it) {
      const std::uint32_t j = order_sf[it];
      if (soa.start[j] >= ev.end) break;
      if (j == ev.index) continue;
      if (!(ev.start < soa.end[j])) continue;
      if (sums_live && !hit) acc.aligned_same_sf_lin += soa.lin_power[j];
      if (ev.power - soa.power[j] < threshold) {
        if (one_network) {
          acc.collided = true;
          acc.foreign_fatal = soa.net[j] != ev.net;
          return;
        }
        hit = true;
        last_pos = pos_sf[it];
        last_j = j;
      }
    }
    if (hit && (!found || last_pos > best_pos)) {
      best_pos = last_pos;
      best_j = last_j;
    }
    found = found || hit;
  }
  if (found) {
    acc.collided = true;
    acc.foreign_fatal = soa.net[best_j] != ev.net;
  }
}

// Batched per-(window, gateway) fast-fading draws: out[k] is the Box–Muller
// draw of the keyed substream for packet packets[tx_index[k]], bit-identical
// to Rng::substream(a, packet).normal_once(0.0, sigma) where `stream` is
// SubstreamBatch(root, a) — the per-packet derivation only re-mixes the
// second key. Streams stay keyed by ids, never iteration order, so the
// batching cannot reorder draws by construction.
void batch_fading_draws(const SubstreamBatch& stream, const PacketId* packets,
                        const std::uint32_t* tx_index, std::size_t count,
                        double sigma, double* out);

// Own-power candidate prune, run before the fading draw: compacts tx_index
// in place to the candidates whose static gain reaches
// min_audible_gain(floor, tx_power[i], fading_sigma) — the candidate-mask
// bound at the transmission's real tx power instead of kMaxTxPower (so it
// holds for out-of-spec powers too). A dropped candidate stays below
// `floor` for every fading draw the Rng can produce, so
// batch_rx_power_filter keeps the same events from the pruned list as from
// the full one; fading is keyed per (gateway, packet), so skipping a draw
// moves no other. A separate branch-free pass: where most candidates fail
// the test, a branch on it predicts badly, and fused into the draw loop it
// would stall the draws behind it (docs/performance.md). Returns the
// number kept, in ascending order.
std::size_t batch_prune_candidates(std::span<const LinkGain> gains,
                                   const std::uint32_t* row_of_tx,
                                   const Dbm* tx_power, Dbm floor,
                                   Db fading_sigma, std::uint32_t* tx_index,
                                   std::size_t count);

// Batched candidate filter: computes each candidate transmission's received
// power through the cached static link terms —
//   ((tx_power - path_loss) + fading) + antenna_gain
// the exact expression and operand order of the scalar consider() — and
// compacts tx_index in place to the transmissions clearing `floor`, writing
// the surviving powers to out_power. fading[k] parallels the *input*
// tx_index. Returns the number kept; compaction preserves ascending order.
std::size_t batch_rx_power_filter(std::span<const LinkGain> gains,
                                  const std::uint32_t* row_of_tx,
                                  const Dbm* tx_power, const double* fading,
                                  Dbm floor, std::uint32_t* tx_index,
                                  std::size_t count, Dbm* out_power);

}  // namespace alphawan
