#include "radio/gateway_radio.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>

#include "phy/capture.hpp"
#include "phy/overlap.hpp"
#include "phy/sensitivity.hpp"

namespace alphawan {
namespace {

double dbm_to_lin(Dbm p) { return std::pow(10.0, p.value() / 10.0); }
Dbm lin_to_dbm(double lin) { return Dbm{10.0 * std::log10(lin)}; }

// SNR of a received packet given its in-band power.
Db packet_snr(Dbm rx_power, Hz bandwidth) {
  return rx_power - noise_floor_dbm(bandwidth);
}

// Coarse frequency bucket of a channel center (interference requires
// spectral overlap, so candidates live in the same or an adjacent bucket).
std::int64_t bucket_of(Hz center) {
  return static_cast<std::int64_t>(center / kChannelSpacing);
}

// FCFS dispatch key order: (lock_on, packet id).
bool dispatched_before(const auto& a, const auto& b) {
  return a.lock_on < b.lock_on ||
         (a.lock_on == b.lock_on && a.packet < b.packet);
}

// Sorts one bucket's event indices by start time — through a contiguous
// (start, index) staging array, because comparing via the wide event
// records costs a scattered load per comparison. A start-only comparator
// sees exactly the comparison outcomes the index comparator would, so the
// resulting index permutation is identical to sorting the indices directly
// (bit-identity of every downstream accumulation order).
void sort_bucket_by_start(std::span<std::uint32_t> bucket,
                          const Seconds* start_of,
                          std::vector<std::pair<Seconds, std::uint32_t>>& staged) {
  staged.clear();
  bool sorted = true;
  bool strictly = true;
  for (const std::uint32_t k : bucket) {
    const Seconds start = start_of[k];
    if (!staged.empty()) {
      if (start < staged.back().first) sorted = strictly = false;
      if (!(staged.back().first < start)) strictly = false;
    }
    staged.emplace_back(start, k);
  }
  // Skip the sort when it provably cannot move anything: any comparison
  // sort is the identity on strictly sorted input, and libstdc++'s
  // std::sort uses pure insertion sort below its 16-element threshold,
  // which never reorders a sorted-with-ties sequence.
  if (strictly || (sorted && staged.size() <= 16)) return;
  std::sort(staged.begin(), staged.end(),
            [](const std::pair<Seconds, std::uint32_t>& a,
               const std::pair<Seconds, std::uint32_t>& c) {
              return a.first < c.first;
            });
  auto out = bucket.begin();
  for (const auto& [start, index] : staged) *out++ = index;
}

}  // namespace

GatewayRadio::GatewayRadio(GatewayProfile profile, NetworkId network,
                           std::uint16_t sync_word)
    : profile_(profile), network_(network), sync_word_(sync_word) {
  if (profile_.decoders < 1) {
    throw std::invalid_argument("GatewayRadio: decoders must be >= 1");
  }
}

void GatewayRadio::configure_channels(std::vector<Channel> channels) {
  if (channels.empty()) {
    throw std::invalid_argument("GatewayRadio: empty channel set");
  }
  if (static_cast<int>(channels.size()) > profile_.data_rx_chains) {
    throw std::invalid_argument(
        "GatewayRadio: more channels than Rx chains (P_j violated)");
  }
  if (channel_span(channels) > profile_.rx_spectrum + Hz{1.0}) {
    throw std::invalid_argument(
        "GatewayRadio: channel span exceeds radio bandwidth (B_j violated)");
  }
  channels_ = std::move(channels);
}

void GatewayRadio::set_capture_policy(const CapturePolicy* policy) {
  capture_policy_ = policy;
}

// Per window channel w and chain c: the overlap and (where partial) the
// coupling of w toward c, and the chain detecting w — the one whose filter
// best overlaps it (ties go to the lower index), or -1 when every chain's
// filter truncates it (front-end rejection, the Strategy-8 isolation
// path). The noise floor is taken where w is detected; an event on a
// bandwidth noise_floor_dbm does not know aborts in phase 1 (packet_snr)
// before phase 3 could read it.
void GatewayRadio::build_channel_table(std::span<const Channel> window_channels,
                                       ChannelTable& table) const {
  const std::size_t n = window_channels.size();
  table.rows.resize(n);
  table.links.resize(n * channels_.size());
  for (std::size_t w = 0; w < n; ++w) {
    const Channel& ch = window_channels[w];
    auto& row = table.rows[w];
    row.channel = ch;
    row.bucket = bucket_of(ch.center);
    row.chain = -1;
    double best = 0.0;
    for (std::size_t c = 0; c < channels_.size(); ++c) {
      const double rho = overlap_ratio(ch, channels_[c]);
      if (rho >= kDetectOverlapThreshold && rho > best) {
        best = rho;
        row.chain = static_cast<int>(c);
      }
      table.links[c * n + w] = ChannelLink{
          rho, rho > 0.0 && rho < kDetectOverlapThreshold
                   ? coupling_db(ch, channels_[c])
                   : Db{-400.0}};
    }
    const Hz bw = ch.bandwidth;
    const bool known = bw == kLoRaBandwidth125k || bw == kLoRaBandwidth250k ||
                       bw == kLoRaBandwidth500k;
    row.noise_lin =
        row.chain >= 0 && known ? dbm_to_lin(noise_floor_dbm(bw)) : 0.0;
  }
}

// A window channel w is readable when
//   (1) overlap_ratio(w, chain) > 0 for some chain (a table link), or
//   (2) overlap_ratio(w, d) >= kDetectOverlapThreshold for some window
//       channel d that is detectable on a chain (overlaps one by at least
//       kDetectOverlapThreshold, so its table row's chain is not -1), or
//   (3) w shares its coarse frequency bucket with a channel meeting (1)
//       or (2).
// An event j on a channel meeting none of them leaves every outcome of
// the window unchanged, its own included:
//   * phase 1: every chain's overlap with w is 0 < kDetectOverlapThreshold,
//     so w's table row has chain -1 and j is kRejectedFrontEnd — never
//     queued, so FCFS dispatch never sees it, and fold_outcome maps it
//     to 0;
//   * phase 3: a decoded event on chain c reads j only where its table
//     link toward c has rho > 0 (both scan kernels test it), which clause
//     (1) rules out;
//   * policy_recovers(i) gathers j only where overlap_ratio(w, channel of
//     i) >= kDetectOverlapThreshold, and i holds a decoder, so its channel
//     is detectable: clause (2) rules that out;
//   * clause (3) leaves every bucket that holds a readable event with the
//     same members, so its start order (an unstable sort, which may order
//     equal starts differently in a different set), lookback and uniform
//     flag are unchanged; skipped events only ever fill whole buckets of
//     their own, which no kernel reads anything from.
// Clause (2) is not implied by (1): a 500 kHz packet covering a 125 kHz
// chain is detected on it (the ratio divides by the narrower bandwidth),
// and a 125 kHz packet elsewhere inside the 500 kHz band overlaps it fully
// while missing the chain.
// Each clause reads the same overlap_ratio and bucket_of answers
// build_channel_table stores, computed in place: the runner asks once per
// gateway per window, and a table would cost a heap allocation and the
// couplings and noise floors no clause reads.
void GatewayRadio::readable_channels(std::span<const Channel> window_channels,
                                     std::vector<std::uint8_t>& readable) const {
  constexpr std::uint8_t kReadable = 1;
  constexpr std::uint8_t kDetectable = 2;
  const std::size_t n = window_channels.size();
  readable.assign(n, 0);
  for (std::size_t w = 0; w < n; ++w) {
    for (const Channel& chain : channels_) {
      const double rho = overlap_ratio(window_channels[w], chain);
      if (rho >= kDetectOverlapThreshold) {
        readable[w] = kDetectable;
        break;
      }
      if (rho > 0.0) readable[w] = kReadable;
    }
  }
  for (std::size_t w = 0; w < n; ++w) {
    for (std::size_t d = 0; d < n && readable[w] == 0; ++d) {
      if (readable[d] == kDetectable &&
          overlap_ratio(window_channels[w], window_channels[d]) >=
              kDetectOverlapThreshold) {
        readable[w] = kReadable;
      }
    }
  }
  // Sharing a bucket is an equivalence: a channel marked here shares its
  // bucket with one meeting (1) or (2), so marking in place is safe.
  for (std::size_t w = 0; w < n; ++w) {
    const std::int64_t bucket = bucket_of(window_channels[w].center);
    for (std::size_t r = 0; r < n && readable[w] == 0; ++r) {
      if (readable[r] != 0 && bucket_of(window_channels[r].center) == bucket) {
        readable[w] = kReadable;
      }
    }
  }
}

// Phase 2: FCFS dispatch (paper Appendix C). In (lock_on, packet id)
// order, each detected packet claims one of the profile's decoders at its
// lock-on instant and holds it to its end; a decoder frees at the instant
// its packet ends. With every decoder held the packet is dropped at once
// (the radio cannot re-synchronize mid-packet), flagged as inter-network
// contention when any holder belongs to another network. A packet that
// finds no free decoder loses its chain_of entry, so afterwards chain_of
// marks exactly the packets that hold a decoder.
void GatewayRadio::dispatch_queue(std::vector<RxOutcome>& outcomes,
                                  bool already_sorted) {
  auto& sc = scratch_;
  const bool merged = !already_sorted && merge_dispatch_order();
  if (!already_sorted && !merged) {
    std::sort(sc.queue.begin(), sc.queue.end(),
              [](const RxScratch::Queued& a, const RxScratch::Queued& b) {
                return dispatched_before(a, b);
              });
  }
  const auto decoders = static_cast<std::size_t>(profile_.decoders);
  sc.held.clear();
  for (std::size_t q = 0; q < sc.queue.size(); ++q) {
    const auto& entry = sc.queue[merged ? sc.order[q] : q];
    std::erase_if(sc.held, [&](const RxScratch::Holder& h) {
      return h.end <= entry.lock_on;
    });
    if (sc.held.size() >= decoders) {
      auto& out = outcomes[entry.event];
      out.disposition = RxDisposition::kDroppedDecoderBusy;
      out.foreign_among_occupants =
          std::any_of(sc.held.begin(), sc.held.end(),
                      [&](const RxScratch::Holder& h) {
                        return h.network != entry.network;
                      });
      sc.chain_of[entry.event] = -1;
      continue;
    }
    sc.held.push_back(RxScratch::Holder{entry.end, entry.network});
  }
}

// The queue is filled in event order. Events of one (SF, bandwidth) class
// share one preamble duration, so where starts ascend each class's run of
// the queue is already in (lock_on, packet) order, and merging the runs
// yields the sorted order without sorting. The merge equals std::sort's
// result only when that order is unique, so this returns false (the caller
// sorts) when a run is out of order or a key repeats. The classes only
// make sorted runs likely; exactness rests on those two checks alone, so
// a bandwidth other than 250 or 500 kHz may share the 125 kHz class (phase
// 1's noise floor aborts on one before it is queued anyway). The merge
// moves queue indices, not the 40-byte entries: `order` receives the
// result and `pos_sf` holds each run's links, both free until phase 3
// rebuilds them.
bool GatewayRadio::merge_dispatch_order() {
  constexpr std::uint32_t kNone = UINT32_MAX;
  constexpr int kClasses = 3 * kNumSpreadingFactors;
  auto& sc = scratch_;
  const auto n = static_cast<std::uint32_t>(sc.queue.size());
  auto& next = sc.pos_sf;
  next.resize(n);
  std::uint32_t head[kClasses];
  std::uint32_t tail[kClasses] = {};
  std::fill(std::begin(head), std::end(head), kNone);
  for (std::uint32_t q = 0; q < n; ++q) {
    const auto& entry = sc.queue[q];
    const Hz bandwidth =
        sc.channels.rows[sc.channel_of[entry.event]].channel.bandwidth;
    const int bw = bandwidth == kLoRaBandwidth250k   ? 1
                   : bandwidth == kLoRaBandwidth500k ? 2
                                                     : 0;
    const int cls = sf_index(sc.sf_of[entry.event]) * 3 + bw;
    if (head[cls] == kNone) {
      head[cls] = q;
    } else {
      if (!dispatched_before(sc.queue[tail[cls]], entry)) return false;
      next[tail[cls]] = q;
    }
    tail[cls] = q;
  }
  // The live run heads, compacted: an exhausted run takes the last slot's.
  std::uint32_t heads[kClasses] = {};
  int live = 0;
  for (int c = 0; c < kClasses; ++c) {
    if (head[c] == kNone) continue;
    next[tail[c]] = kNone;
    heads[live++] = head[c];
  }
  sc.order.resize(n);
  for (std::uint32_t out = 0; out < n; ++out) {
    int best = 0;
    for (int h = 1; h < live; ++h) {
      const auto& candidate = sc.queue[heads[h]];
      const auto& current = sc.queue[heads[best]];
      if (dispatched_before(candidate, current)) {
        best = h;
      } else if (!dispatched_before(current, candidate)) {
        return false;  // a repeated key: only the sort's order is exact
      }
    }
    sc.order[out] = heads[best];
    heads[best] = next[heads[best]];
    if (heads[best] == kNone) heads[best] = heads[--live];
  }
  return true;
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
void GatewayRadio::build_bucket_index(std::size_t count, bool starts_strict) {
  auto& sc = scratch_;
  sc.order.resize(count);
  sc.buckets.clear();
  if (count != 0) {
    sc.bucket_id.resize(count);
    std::int64_t lo = sc.channels.rows[sc.channel_of[0]].bucket;
    std::int64_t hi = lo;
    for (std::size_t i = 0; i < count; ++i) {
      const std::int64_t b = sc.channels.rows[sc.channel_of[i]].bucket;
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
    // Where the view's starts strictly increase, each bucket's ascending
    // indices are already strictly start-sorted: the sort below would be
    // the identity, so skip its staging too.
    if (!starts_strict) {
      sort_bucket_by_start(std::span(begin, end), sc.start_of.data(),
                           sc.start_idx);
    }
    Seconds longest{0.0};
    b.channel = sc.channel_of[*begin];
    b.network = sc.net_of[*begin];
    b.uniform = true;
    b.one_network = true;
    for (auto it = begin; it != end; ++it) {
      longest = std::max(longest, sc.end_of[*it] - sc.start_of[*it]);
      if (sc.channel_of[*it] != b.channel) b.uniform = false;
      if (sc.net_of[*it] != b.network) b.one_network = false;
    }
    b.max_duration = longest;
  }
}

// Phase-3 prep: per uniform bucket, a stable counting sort by SF
// (preserving the start order within each SF, so every same-SF subsequence
// keeps the reference kernel's accumulation order).
void GatewayRadio::build_sf_groups(std::size_t count) {
  auto& sc = scratch_;
  sc.order_sf.resize(count);
  sc.pos_sf.resize(count);
  sc.sf_groups.clear();
  for (auto& b : sc.buckets) {
    b.groups_begin = static_cast<std::uint32_t>(sc.sf_groups.size());
    b.groups_end = b.groups_begin;
    if (!b.uniform) continue;  // mixed buckets take the reference kernel
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

// Phase 3, collision drops only: gather event i's co-channel
// time-overlappers from the bucket index (same or adjacent coarse bucket,
// each walked from the first event that could still be on the air at i's
// start) and ask the capture policy.
bool GatewayRadio::policy_recovers(std::size_t i, const RxEventView& view) {
  auto& sc = scratch_;
  const auto& rows = sc.channels.rows;
  const auto capture_event = [&](std::size_t k) {
    const Hz bandwidth = rows[sc.channel_of[k]].channel.bandwidth;
    return CaptureEvent{sc.start_of[k], sc.sf_of[k], bandwidth,
                        view.table->node[view.tx_index[k]],
                        packet_snr(sc.power_of[k], bandwidth)};
  };
  const Seconds start = sc.start_of[i];
  const Seconds end = sc.end_of[i];
  const Channel& channel = rows[sc.channel_of[i]].channel;
  const std::int64_t center_bucket = rows[sc.channel_of[i]].bucket;
  sc.overlappers.clear();
  auto bucket_it = std::lower_bound(
      sc.buckets.begin(), sc.buckets.end(), center_bucket - 1,
      [](const RxScratch::Bucket& b, std::int64_t id) { return b.id < id; });
  for (; bucket_it != sc.buckets.end() && bucket_it->id <= center_bucket + 1;
       ++bucket_it) {
    const std::uint32_t* order = sc.order.data();
    const std::uint32_t* last = order + bucket_it->end;
    const std::uint32_t* it = std::lower_bound(
        order + bucket_it->begin, last,
        start - bucket_it->max_duration,
        [&sc](std::uint32_t k, Seconds t) { return sc.start_of[k] < t; });
    for (; it != last && sc.start_of[*it] < end; ++it) {
      const std::uint32_t j = *it;
      if (j == i || !(start < sc.end_of[j]) ||
          overlap_ratio(rows[sc.channel_of[j]].channel, channel) <
              kDetectOverlapThreshold) {
        continue;
      }
      sc.overlappers.push_back(capture_event(j));
    }
  }
  return capture_policy_->recovers(capture_event(i), sc.overlappers);
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
  auto& sc = scratch_;

  // Every per-channel answer of the window, once (build_channel_table).
  build_channel_table(tbl.channels, sc.channels);
  const auto& rows = sc.channels.rows;

  // Phase 1: front-end + detection per event, reading the window's shared
  // table columns and the channel table. Also fills the per-event scratch
  // columns phase 3 leans on: the airtime-derived end instant (memoized in
  // the table) and the linear rx power (a pow), each otherwise paid once
  // per *candidate pair* in the interferer scan. As the dispatch queue
  // fills, a running strict-order check records whether the dispatch sort
  // can be skipped (ascending tx order usually already is lock-on ordered
  // within a chain mix), and another whether the starts ascend, which
  // fixes phase 3's visit order and bucket order without sorting.
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
  bool queue_sorted = true;
  bool starts_ascend = true;  // never decrease in event order
  bool starts_strict = true;  // strictly increase in event order
  for (std::size_t k = 0; k < view.count; ++k) {
    const std::uint32_t t = view.tx_index[k];
    const Dbm rx_power = view.rx_power[k];
    auto& out = outcomes[k];
    if (k != 0) {
      if (tbl.start[t] < sc.start_of[k - 1]) starts_ascend = false;
      if (!(sc.start_of[k - 1] < tbl.start[t])) starts_strict = false;
    }
    sc.end_of[k] = tbl.end[t];
    sc.lin_power[k] = dbm_to_lin(rx_power);
    sc.start_of[k] = tbl.start[t];
    sc.channel_of[k] = tbl.channel_id[t];
    sc.power_of[k] = rx_power;
    sc.sf_of[k] = tbl.sf[t];
    sc.net_of[k] = tbl.net[t];
    out.packet = tbl.packet[t];
    out.node = tbl.node[t];
    out.network = tbl.net[t];
    const auto& row = rows[tbl.channel_id[t]];
    if (row.chain < 0) {
      out.disposition = RxDisposition::kRejectedFrontEnd;
      continue;
    }
    out.chain_channel = row.chain;
    out.snr = packet_snr(rx_power, row.channel.bandwidth);
    if (out.snr < demod_snr_threshold(tbl.sf[t]) + kDetectionMargin) {
      out.disposition = RxDisposition::kNotDetected;
      continue;
    }
    sc.chain_of[k] = row.chain;
    if (!sc.queue.empty()) {
      const auto& prev = sc.queue.back();
      const bool strictly_before =
          prev.lock_on < tbl.lock_on[t] ||
          (prev.lock_on == tbl.lock_on[t] && prev.packet < tbl.packet[t]);
      if (!strictly_before) queue_sorted = false;
    }
    sc.queue.push_back(RxScratch::Queued{k, tbl.lock_on[t], sc.end_of[k],
                                         tbl.net[t], tbl.packet[t]});
  }

  // Phase 2: FCFS dispatch (sort skipped when provably the identity).
  dispatch_queue(outcomes, queue_sorted);

  // Phase 3: decode each packet that holds a decoder, accounting for
  // interference from *all* transmissions in the air (including ones the
  // front-end rejected or that were never detected — their RF energy is
  // still present). The bucket index and its SF grouping feed a kernel
  // per bucket: uniform buckets aligned with the chain take the SF-grouped
  // kernel, every other overlapping bucket the reference scan.
  build_bucket_index(view.count, starts_strict);
  build_sf_groups(view.count);

  const RxScanSoA soa{sc.start_of.data(), sc.end_of.data(),
                      sc.lin_power.data(), sc.channel_of.data(),
                      sc.power_of.data(),  sc.sf_of.data(),
                      sc.net_of.data()};
  const std::uint32_t* order = sc.order.data();
  // Visit decoded events in ascending start order (ties by event index):
  // outcomes are per-event independent, so any visit order gives identical
  // results, and a monotone order lets the kernels' window-start cursors
  // replace per-event lower_bounds. Where the starts never decrease, that
  // order is the event order.
  sc.decoding.clear();
  for (std::size_t k = 0; k < view.count; ++k) {
    if (sc.chain_of[k] >= 0) sc.decoding.push_back(k);
  }
  if (!starts_ascend) {
    std::sort(sc.decoding.begin(), sc.decoding.end(),
              [&sc](std::size_t a, std::size_t b) {
                if (sc.start_of[a] != sc.start_of[b]) {
                  return sc.start_of[a] < sc.start_of[b];
                }
                return a < b;
              });
  }
  for (const std::size_t i : sc.decoding) {
    auto& out = outcomes[i];
    const auto& row = rows[sc.channel_of[i]];
    const ChannelLink* toward =
        sc.channels.toward(static_cast<std::size_t>(sc.chain_of[i]));
    ScanAccum acc;
    const ScanEvent se{i,
                       sc.start_of[i],
                       sc.end_of[i],
                       sc.power_of[i],
                       sc.sf_of[i],
                       sc.net_of[i],
                       toward};

    // Candidates: same or adjacent frequency bucket. One lower_bound finds
    // the bucket run (ids are consecutive within [center-1, center+1], and
    // buckets are id-sorted), walked in ascending id order.
    const std::int64_t center_bucket = row.bucket;
    auto bucket_it = std::lower_bound(
        sc.buckets.begin(), sc.buckets.end(), center_bucket - 1,
        [](const RxScratch::Bucket& b, std::int64_t id) { return b.id < id; });
    for (; bucket_it != sc.buckets.end() && bucket_it->id <= center_bucket + 1;
         ++bucket_it) {
      // Once a collision is established the sums are dead, and a
      // one-network bucket's colliders can only rewrite the attribution
      // with the value it already has: nothing left to learn there.
      if (acc.collided && bucket_it->one_network &&
          (bucket_it->network != se.net) == acc.foreign_fatal) {
        continue;
      }
      if (bucket_it->uniform) {
        const double rho = toward[bucket_it->channel].rho;
        if (rho <= 0.0) continue;
        if (rho >= kDetectOverlapThreshold) {
          scan_bucket_aligned_grouped(
              soa, sc.order_sf.data(), sc.pos_sf.data(),
              sc.sf_groups.data() + bucket_it->groups_begin,
              sc.sf_groups.data() + bucket_it->groups_end,
              sc.group_cursor.data() + bucket_it->groups_begin,
              bucket_it->max_duration, bucket_it->one_network, se, acc);
          continue;
        }
        // Partial overlap: every event adds only to the interference sum,
        // which is dead once a collision is established.
        if (acc.collided) continue;
      }
      scan_bucket_scalar(soa, order + bucket_it->begin, order + bucket_it->end,
                         bucket_it->max_duration, se, acc);
    }

    // Combined same-SF co-channel power must also satisfy capture.
    if (!acc.collided && acc.aligned_same_sf_lin > 0.0) {
      const Dbm combined = lin_to_dbm(acc.aligned_same_sf_lin);
      if (se.power - combined < capture_sir_threshold(se.sf, se.sf)) {
        acc.collided = true;
      }
    }

    if (acc.collided) {
      out.foreign_interferer = acc.foreign_fatal;
      // A capture policy may recover the collision loss; a recovered
      // packet is decoded like any other, sync-word filter included.
      if (capture_policy_ == nullptr || !policy_recovers(i, view)) {
        out.disposition = RxDisposition::kDroppedCollision;
        continue;
      }
    } else if (se.power - lin_to_dbm(row.noise_lin + acc.misaligned_intf_lin) <
               demod_snr_threshold(se.sf)) {
      out.disposition = RxDisposition::kDroppedLowSnr;
      continue;
    }

    out.disposition = tbl.sync[view.tx_index[i]] == sync_word_
                          ? RxDisposition::kDelivered
                          : RxDisposition::kDecodedForeign;
  }
}

}  // namespace alphawan
