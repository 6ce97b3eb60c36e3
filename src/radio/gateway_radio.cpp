#include "radio/gateway_radio.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "phy/capture.hpp"
#include "phy/overlap.hpp"
#include "phy/sensitivity.hpp"
#include "radio/detector.hpp"

namespace alphawan {
namespace {

double dbm_to_lin(Dbm p) { return std::pow(10.0, p.value() / 10.0); }
Dbm lin_to_dbm(double lin) { return Dbm{10.0 * std::log10(lin)}; }

// The per-packet noise-floor conversion is a pow() on a three-valued input;
// memoize the three LoRa bandwidths (anything else still reaches
// noise_floor_dbm's hard model error).
double noise_floor_lin(Hz bandwidth) {
  static const double lin125 = dbm_to_lin(noise_floor_dbm(kLoRaBandwidth125k));
  static const double lin250 = dbm_to_lin(noise_floor_dbm(kLoRaBandwidth250k));
  static const double lin500 = dbm_to_lin(noise_floor_dbm(kLoRaBandwidth500k));
  if (bandwidth == kLoRaBandwidth125k) return lin125;
  if (bandwidth == kLoRaBandwidth250k) return lin250;
  if (bandwidth == kLoRaBandwidth500k) return lin500;
  return dbm_to_lin(noise_floor_dbm(bandwidth));
}

// Coarse frequency bucket of a channel center (interference requires
// spectral overlap, so candidates live in the same or an adjacent bucket).
std::int64_t bucket_of(Hz center) {
  return static_cast<std::int64_t>(center / kChannelSpacing);
}

}  // namespace

GatewayRadio::GatewayRadio(GatewayProfile profile, NetworkId network,
                           std::uint16_t sync_word)
    : profile_(profile),
      network_(network),
      sync_word_(sync_word),
      pool_(static_cast<std::size_t>(profile.decoders)) {}

void GatewayRadio::configure_channels(std::vector<Channel> channels) {
  if (channels.empty()) {
    throw std::invalid_argument("GatewayRadio: empty channel set");
  }
  if (static_cast<int>(channels.size()) > profile_.data_rx_chains) {
    throw std::invalid_argument(
        "GatewayRadio: more channels than Rx chains (P_j violated)");
  }
  auto [lo, hi] = std::minmax_element(
      channels.begin(), channels.end(),
      [](const Channel& a, const Channel& b) { return a.center < b.center; });
  if (hi->high() - lo->low() > profile_.rx_spectrum + Hz{1.0}) {
    throw std::invalid_argument(
        "GatewayRadio: channel span exceeds radio bandwidth (B_j violated)");
  }
  chains_.clear();
  chains_.reserve(channels.size());
  for (const auto& ch : channels) chains_.push_back(RxChain{ch});
  scratch_.chain_memo.clear();
}

void GatewayRadio::set_capture_policy(const CapturePolicy* policy) {
  capture_policy_ = policy;
}

int GatewayRadio::chain_for(const Channel& packet_channel) {
  for (const auto& memo : scratch_.chain_memo) {
    if (memo.center == packet_channel.center &&
        memo.bandwidth == packet_channel.bandwidth) {
      return memo.chain;
    }
  }
  const auto chain = best_chain(chains_, packet_channel);
  const int index = chain ? static_cast<int>(*chain) : -1;
  scratch_.chain_memo.push_back(RxScratch::ChainMemo{
      packet_channel.center, packet_channel.bandwidth, index});
  return index;
}

// Phase 2: FCFS dispatch into the decoder pool.
void GatewayRadio::dispatch_queue(std::vector<RxOutcome>& outcomes,
                                  bool already_sorted) {
  auto& sc = scratch_;
  if (!already_sorted) sort_fcfs(sc.queue);
  sc.decoding.clear();
  sc.decoding.reserve(sc.queue.size());
  for (const auto& entry : sc.queue) {
    const DispatchResult result = dispatch(pool_, entry);
    auto& out = outcomes[entry.event_index];
    if (!result.acquired) {
      out.disposition = RxDisposition::kDroppedDecoderBusy;
      out.foreign_among_occupants = result.foreign_among_occupants;
      continue;
    }
    sc.decoding.push_back(entry.event_index);
  }
}

// Phase 3a: group events into coarse frequency buckets (interference
// requires spectral overlap) and sort each bucket by start time, bounding
// the interferer scan to plausible overlappers. Reads only the phase-1
// scratch columns.
//
// The bucket index is flat: sorting (bucket, event index) pairs groups
// each bucket's events in ascending index order — the same initial
// sequence the map-based code fed to the identical start-time sort, so
// the per-bucket permutation (and thus every floating-point accumulation
// order downstream) is unchanged.
void GatewayRadio::build_bucket_index(std::size_t count) {
  auto& sc = scratch_;
  sc.order.resize(count);
  sc.buckets.clear();
  if (count != 0) {
    sc.bucket_id.resize(count);
    std::int64_t lo = bucket_of(sc.channel_of[0].center);
    std::int64_t hi = lo;
    for (std::size_t i = 0; i < count; ++i) {
      const std::int64_t b = bucket_of(sc.channel_of[i].center);
      sc.bucket_id[i] = b;
      lo = std::min(lo, b);
      hi = std::max(hi, b);
    }
    const std::int64_t span = hi - lo + 1;
    if (span <= static_cast<std::int64_t>(4 * count + 64)) {
      // Stable counting sort over the compact id range: within a bucket,
      // ascending scatter order keeps indices ascending — the exact order
      // sorting (bucket, index) pairs produces — without the comparison
      // sort.
      sc.bucket_count.assign(static_cast<std::size_t>(span), 0);
      for (std::size_t i = 0; i < count; ++i) {
        ++sc.bucket_count[static_cast<std::size_t>(sc.bucket_id[i] - lo)];
      }
      std::uint32_t running = 0;
      for (auto& c : sc.bucket_count) {
        const std::uint32_t n = c;
        c = running;
        running += n;
      }
      for (std::size_t i = 0; i < count; ++i) {
        auto& cursor =
            sc.bucket_count[static_cast<std::size_t>(sc.bucket_id[i] - lo)];
        sc.order[cursor++] = static_cast<std::uint32_t>(i);
      }
      // Post-scatter, bucket_count[b] is the end of bucket b (== the start
      // of bucket b + 1 before the scatter).
      for (std::int64_t b = 0; b < span; ++b) {
        const std::uint32_t begin =
            b == 0 ? 0 : sc.bucket_count[static_cast<std::size_t>(b - 1)];
        const std::uint32_t end =
            sc.bucket_count[static_cast<std::size_t>(b)];
        if (end > begin) {
          sc.buckets.push_back(
              RxScratch::Bucket{lo + b, begin, end, Seconds{0.0}});
        }
      }
    } else {
      // Pathological center spread (sparse ids): fall back to the pair
      // sort, which produces the identical grouping.
      sc.keyed.clear();
      sc.keyed.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        sc.keyed.emplace_back(sc.bucket_id[i], static_cast<std::uint32_t>(i));
      }
      std::sort(sc.keyed.begin(), sc.keyed.end());
      for (std::uint32_t pos = 0; pos < sc.keyed.size(); ++pos) {
        const auto [bucket, index] = sc.keyed[pos];
        if (sc.buckets.empty() || sc.buckets.back().id != bucket) {
          sc.buckets.push_back(
              RxScratch::Bucket{bucket, pos, pos, Seconds{0.0}});
        }
        sc.order[pos] = index;
        sc.buckets.back().end = pos + 1;
      }
    }
  }
  for (auto& b : sc.buckets) {
    const auto begin = sc.order.begin() + b.begin;
    const auto end = sc.order.begin() + b.end;
    // Sort each bucket's group by start time — through a contiguous
    // (start, index) staging array, because comparing via the wide event
    // records costs a scattered load per comparison. A start-only
    // comparator sees exactly the comparison outcomes the index comparator
    // would, so the resulting index permutation is identical to sorting
    // the indices directly (bit-identity of every downstream accumulation
    // order).
    auto& staged = sc.start_idx;
    staged.clear();
    bool sorted = true;
    bool strictly = true;
    for (auto it = begin; it != end; ++it) {
      const Seconds start = sc.start_of[*it];
      if (!staged.empty()) {
        if (start < staged.back().first) sorted = strictly = false;
        if (!(staged.back().first < start)) strictly = false;
      }
      staged.emplace_back(start, *it);
    }
    // Skip the sort when it provably cannot move anything: any comparison
    // sort is the identity on strictly sorted input, and libstdc++'s
    // std::sort uses pure insertion sort below its 16-element threshold,
    // which never reorders a sorted-with-ties sequence.
    const bool identity =
        strictly || (sorted && staged.size() <= 16);
    if (!identity) {
      std::sort(staged.begin(), staged.end(),
                [](const std::pair<Seconds, std::uint32_t>& a,
                   const std::pair<Seconds, std::uint32_t>& c) {
                  return a.first < c.first;
                });
      auto out = begin;
      for (const auto& [start, index] : staged) *out++ = index;
    }
    Seconds longest{0.0};
    b.channel = sc.channel_of[*begin];
    b.uniform = true;
    for (auto it = begin; it != end; ++it) {
      longest = std::max(longest, sc.end_of[*it] - sc.start_of[*it]);
      const Channel& ch = sc.channel_of[*it];
      if (!(ch.center == b.channel.center) ||
          !(ch.bandwidth == b.channel.bandwidth)) {
        b.uniform = false;
      }
    }
    b.max_duration = longest;
  }
}

// Phase-3 prep: per uniform bucket, a stable counting sort by SF
// (preserving the start order within each SF, so every same-SF subsequence
// keeps the reference kernel's accumulation order) plus the per-(bucket,
// chain) overlap/coupling memo — overlap_ratio and coupling_db are pure
// functions of the two channels, so memoized values are bit-identical to
// the ones the reference kernel recomputes per decoded event.
void GatewayRadio::build_sf_groups_and_memos(std::size_t count) {
  auto& sc = scratch_;
  sc.order_sf.resize(count);
  sc.pos_sf.resize(count);
  sc.sf_groups.clear();
  sc.bucket_cursor.assign(sc.buckets.size(), 0);
  const std::size_t n_chains = chains_.size();
  sc.bucket_chain.resize(sc.buckets.size() * n_chains);
  for (std::size_t bpos = 0; bpos < sc.buckets.size(); ++bpos) {
    auto& b = sc.buckets[bpos];
    b.groups_begin = static_cast<std::uint32_t>(sc.sf_groups.size());
    b.groups_end = b.groups_begin;
    if (!b.uniform) continue;  // mixed buckets take the reference kernel
    for (std::size_t c = 0; c < n_chains; ++c) {
      auto& memo = sc.bucket_chain[bpos * n_chains + c];
      memo.rho = overlap_ratio(b.channel, chains_[c].channel);
      memo.coupling =
          (memo.rho > 0.0 && memo.rho < kDetectOverlapThreshold)
              ? coupling_db(b.channel, chains_[c].channel)
              : Db{-400.0};
    }
    std::uint32_t counts[6] = {0, 0, 0, 0, 0, 0};
    Dbm max_power[6] = {Dbm{-400.0}, Dbm{-400.0}, Dbm{-400.0},
                        Dbm{-400.0}, Dbm{-400.0}, Dbm{-400.0}};
    for (std::uint32_t k = b.begin; k < b.end; ++k) {
      const std::uint32_t j = sc.order[k];
      const int s = sf_index(sc.sf_of[j]);
      ++counts[s];
      if (sc.power_of[j] > max_power[s]) max_power[s] = sc.power_of[j];
    }
    std::uint32_t cursor[6];
    std::uint32_t running = b.begin;
    for (int s = 0; s < 6; ++s) {
      cursor[s] = running;
      if (counts[s] > 0) {
        sc.sf_groups.push_back(SfGroup{running, running + counts[s],
                                       sf_from_index(s), max_power[s]});
      }
      running += counts[s];
    }
    for (std::uint32_t k = b.begin; k < b.end; ++k) {
      const std::uint32_t j = sc.order[k];
      auto& cur = cursor[sf_index(sc.sf_of[j])];
      sc.order_sf[cur] = j;
      sc.pos_sf[cur] = k - b.begin;  // bucket rank, for last-collider order
      ++cur;
    }
    b.groups_end = static_cast<std::uint32_t>(sc.sf_groups.size());
  }
  // Window-start cursors begin at each group's first element; the scan
  // loop advances them monotonically (decoded events visit in ascending
  // start order).
  sc.group_cursor.resize(sc.sf_groups.size());
  for (std::size_t g = 0; g < sc.sf_groups.size(); ++g) {
    sc.group_cursor[g] = sc.sf_groups[g].begin;
  }
}

// Phase 4 (optional): pluggable capture resolution. The policy may
// rescue packets the stock demodulator lost to collisions, but the
// decoder budget is binding: only outcomes whose packet already held a
// decoder may change, and they must stay decoder-consuming — a policy
// cannot un-busy kDroppedDecoderBusy or decode an undetected packet.
void GatewayRadio::apply_capture_policy(std::size_t count,
                                        std::vector<RxOutcome>& outcomes) {
  auto& sc = scratch_;
  sc.pre_policy.resize(outcomes.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    sc.pre_policy[i] = outcomes[i].disposition;
  }
  capture_policy_->resolve(
      CaptureContext{count, sc.start_of.data(), sc.end_of.data(),
                     sc.channel_of.data(), sc.sf_of.data(), sc.node_of.data(),
                     sc.sync_of.data(), sync_word_, profile_.decoders},
      outcomes);
  if (outcomes.size() != count) {
    throw std::logic_error(
        "CapturePolicy: outcome count changed during resolve");
  }
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const RxDisposition before = sc.pre_policy[i];
    const RxDisposition after = outcomes[i].disposition;
    if (after == before) continue;
    if (!consumed_decoder(before) || !consumed_decoder(after)) {
      throw std::logic_error(
          "CapturePolicy violated the decoder budget: rewrote an outcome "
          "that did not hold a decoder (or released one it held)");
    }
  }
}

// Adapter for callers holding an event list (unit tests, replay, the figure
// benches): one table over the events' transmissions, viewed in event order.
std::vector<RxOutcome> GatewayRadio::process(
    const std::vector<RxEvent>& events) {
  std::vector<Transmission> txs;
  std::vector<Dbm> powers;
  txs.reserve(events.size());
  powers.reserve(events.size());
  for (const auto& ev : events) {
    txs.push_back(ev.tx);
    powers.push_back(ev.rx_power);
  }
  WindowTxTable table;
  table.build(txs);
  std::vector<std::uint32_t> tx_index(events.size());
  std::iota(tx_index.begin(), tx_index.end(), 0u);
  std::vector<RxOutcome> outcomes;
  process_into(RxEventView{&table, tx_index.data(), powers.data(),
                           events.size()},
               outcomes);
  return outcomes;
}

void GatewayRadio::process_into(const RxEventView& view,
                                std::vector<RxOutcome>& outcomes) {
  const WindowTxTable& tbl = *view.table;
  outcomes.assign(view.count, RxOutcome{});
  pool_.reset();
  auto& sc = scratch_;

  // Phase 1: front-end + detection per event, reading the window's shared
  // table columns. Also fills the per-event scratch columns phases 3 and 4
  // lean on: the airtime-derived end instant (memoized in the table) and
  // the linear rx power (a pow), each otherwise paid once per *candidate
  // pair* in the interferer scan. As the dispatch queue fills, a running
  // strict-order check records whether sort_fcfs can be skipped (ascending
  // tx order usually already is lock-on ordered within a chain mix).
  sc.queue.clear();
  sc.queue.reserve(view.count);
  sc.chain_of.assign(view.count, -1);
  sc.end_of.resize(view.count);
  sc.lin_power.resize(view.count);
  sc.start_of.resize(view.count);
  sc.channel_of.resize(view.count);
  sc.power_of.resize(view.count);
  sc.sf_of.resize(view.count);
  sc.net_of.resize(view.count);
  const bool policy_columns = capture_policy_ != nullptr;
  if (policy_columns) {
    sc.node_of.resize(view.count);
    sc.sync_of.resize(view.count);
  }
  bool queue_sorted = true;
  for (std::size_t k = 0; k < view.count; ++k) {
    const std::uint32_t t = view.tx_index[k];
    const Dbm rx_power = view.rx_power[k];
    auto& out = outcomes[k];
    sc.end_of[k] = tbl.end[t];
    sc.lin_power[k] = dbm_to_lin(rx_power);
    sc.start_of[k] = tbl.start[t];
    sc.channel_of[k] = tbl.channel[t];
    sc.power_of[k] = rx_power;
    sc.sf_of[k] = tbl.sf[t];
    sc.net_of[k] = tbl.net[t];
    out.packet = tbl.packet[t];
    out.node = tbl.node[t];
    out.network = tbl.net[t];
    if (policy_columns) {
      sc.node_of[k] = tbl.node[t];
      sc.sync_of[k] = tbl.sync[t];
    }
    const int chain = chain_for(tbl.channel[t]);
    if (chain < 0) {
      out.disposition = RxDisposition::kRejectedFrontEnd;
      continue;
    }
    sc.chain_of[k] = chain;
    out.chain_channel = chain;
    out.snr = packet_snr(rx_power, tbl.channel[t].bandwidth);
    if (out.snr < demod_snr_threshold(tbl.sf[t]) + kDetectionMargin) {
      out.disposition = RxDisposition::kNotDetected;
      continue;
    }
    if (!sc.queue.empty()) {
      const auto& prev = sc.queue.back();
      const bool strictly_before =
          prev.lock_on < tbl.lock_on[t] ||
          (prev.lock_on == tbl.lock_on[t] && prev.packet < tbl.packet[t]);
      if (!strictly_before) queue_sorted = false;
    }
    sc.queue.push_back(DispatchEntry{k, tbl.lock_on[t], sc.end_of[k],
                                     tbl.net[t], tbl.packet[t]});
  }

  // Phase 2: FCFS dispatch (sort skipped when provably the identity).
  dispatch_queue(outcomes, queue_sorted);

  // Phase 3: decode each packet that holds a decoder, accounting for
  // interference from *all* transmissions in the air (including ones the
  // front-end rejected or that were never detected — their RF energy is
  // still present). The bucket index and its prep (SF grouping,
  // per-(bucket, chain) overlap memos) feed a kernel per bucket: aligned
  // uniform buckets take the SF-grouped kernel, partially overlapping
  // uniform buckets the hoisted-coupling kernel, mixed-channel buckets the
  // per-pair reference kernel.
  build_bucket_index(view.count);
  build_sf_groups_and_memos(view.count);

  const RxScanSoA soa{sc.start_of.data(), sc.end_of.data(),
                      sc.lin_power.data(), sc.channel_of.data(),
                      sc.power_of.data(),  sc.sf_of.data(),
                      sc.net_of.data()};
  const std::uint32_t* order = sc.order.data();
  const std::size_t n_chains = chains_.size();
  // Visit decoded events in ascending start order (ties by event index):
  // outcomes are per-event independent, so any visit order gives identical
  // results, and a monotone order lets the kernels' window-start cursors
  // replace per-event lower_bounds. sc.decoding arrives in dispatch
  // (lock-on) order and is not read again afterwards, so sort in place.
  std::sort(sc.decoding.begin(), sc.decoding.end(),
            [&sc](std::size_t a, std::size_t b) {
              if (sc.start_of[a] != sc.start_of[b]) {
                return sc.start_of[a] < sc.start_of[b];
              }
              return a < b;
            });
  for (const std::size_t i : sc.decoding) {
    auto& out = outcomes[i];
    const auto chain = static_cast<std::size_t>(sc.chain_of[i]);
    const Channel& rx_ch = chains_[chain].channel;

    const double noise_lin = noise_floor_lin(sc.channel_of[i].bandwidth);
    ScanAccum acc;
    const ScanEvent se{i,
                       sc.start_of[i],
                       sc.end_of[i],
                       sc.power_of[i],
                       sc.sf_of[i],
                       sc.net_of[i],
                       rx_ch};

    // Candidates: same or adjacent frequency bucket. One lower_bound finds
    // the bucket run (ids are consecutive within [center-1, center+1], and
    // buckets are id-sorted), walked in ascending id order.
    const std::int64_t center_bucket = bucket_of(sc.channel_of[i].center);
    auto bucket_it = std::lower_bound(
        sc.buckets.begin(), sc.buckets.end(), center_bucket - 1,
        [](const RxScratch::Bucket& b, std::int64_t id) { return b.id < id; });
    for (; bucket_it != sc.buckets.end() && bucket_it->id <= center_bucket + 1;
         ++bucket_it) {
      const auto bpos =
          static_cast<std::size_t>(bucket_it - sc.buckets.begin());
      if (bucket_it->uniform) {
        const auto& memo = sc.bucket_chain[bpos * n_chains + chain];
        if (memo.rho <= 0.0) continue;
        if (memo.rho >= kDetectOverlapThreshold) {
          scan_bucket_aligned_grouped(
              soa, sc.order_sf.data(), sc.pos_sf.data(),
              sc.sf_groups.data() + bucket_it->groups_begin,
              sc.sf_groups.data() + bucket_it->groups_end,
              sc.group_cursor.data() + bucket_it->groups_begin,
              bucket_it->max_duration, se, acc);
        } else {
          scan_bucket_misaligned_uniform(soa, order + bucket_it->begin,
                                         order + bucket_it->end,
                                         sc.bucket_cursor[bpos],
                                         bucket_it->max_duration,
                                         memo.coupling, se, acc);
        }
      } else {
        scan_bucket_scalar(soa, order + bucket_it->begin,
                           order + bucket_it->end, /*uniform=*/false,
                           /*rho_uniform=*/0.0, bucket_it->max_duration, se,
                           acc);
      }
    }

    // Combined same-SF co-channel power must also satisfy capture.
    if (!acc.collided && acc.aligned_same_sf_lin > 0.0) {
      const Dbm combined = lin_to_dbm(acc.aligned_same_sf_lin);
      if (se.power - combined < capture_sir_threshold(se.sf, se.sf)) {
        acc.collided = true;
      }
    }

    if (acc.collided) {
      out.disposition = RxDisposition::kDroppedCollision;
      out.foreign_interferer = acc.foreign_fatal;
      continue;
    }

    const Db snr_eff =
        se.power - lin_to_dbm(noise_lin + acc.misaligned_intf_lin);
    if (snr_eff < demod_snr_threshold(se.sf)) {
      out.disposition = RxDisposition::kDroppedLowSnr;
      continue;
    }

    out.disposition = tbl.sync[view.tx_index[i]] == sync_word_
                          ? RxDisposition::kDelivered
                          : RxDisposition::kDecodedForeign;
  }

  if (capture_policy_ != nullptr) apply_capture_policy(view.count, outcomes);
}

}  // namespace alphawan
