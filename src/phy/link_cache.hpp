// Window-invariant link-gain matrix. Everything about a (node, gateway)
// link that does not change between packets — mean path loss, the frozen
// shadowing draw, and the receive antenna gain toward the node — is
// precomputed once into flat per-gateway columns, so the per-packet cost in
// ScenarioRunner::run_window collapses to one array load plus the
// fast-fading draw (docs/performance.md).
//
// The two static terms are stored separately (not pre-summed) so the runner
// can replay the exact floating-point operation order of the uncached path:
//   rx = ((tx_power - path_loss) + fading) + antenna_gain
// which is what keeps the cached pipeline bit-identical to the original.
//
// The cache also derives per-row *candidate column masks*: bit c is set
// when column c's best-case static gain could let a transmission clear a
// prune floor, assuming the strongest legal tx power and the largest
// fast-fading draw the Rng can produce (kNormalTailSigmas). A mask holds
// mask_words() = ceil(columns / 64) words. Pruning against it is a
// conservative superset filter — a skipped (row, column) pair is guaranteed
// to fall below the floor for every possible draw, so event lists are
// unchanged.
//
// For city-scale worlds the cache is partitioned: a ShardedLinkCache holds
// one independent slice per spatial shard, each covering a subset of the
// gateway columns, and rows are materialized per slice only when the node
// is audible there (ensure_row_if_audible). Memory follows the live
// (audible) links instead of the full node x gateway cross product, and
// every slice computes the same LinkGain values a monolithic cache would,
// so any partition of the columns is bit-identical (docs/sharding.md).
//
// Each slice memoizes, per node slot (NodeSlots, shared by the slices), the
// node's row or its rejection, so a steady-state lookup is one vector load
// plus a compare. A first contact (a probe of every column) reuses the
// geometry of the origin the slice probed last — per column the mean path
// loss over the distance and the antenna gain toward the origin — so users
// emulated at one node's position cost one shadowing draw per link; the
// memo is dropped whenever a column is added or its antenna epoch changes.
// Concurrency: the slot-keyed calls (*_at, candidate_mask) touch only their
// own slice, geometry memo included, so distinct slices may run them
// concurrently once every slot in use is assigned; all other mutation —
// node-id-keyed ensure_* (may assign slots), upsert_gateway, reset — is
// serial.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/geometry.hpp"
#include "common/rng.hpp"
#include "phy/channel_model.hpp"

namespace alphawan {

// Absorbs any floating-point reassociation between the one-sided bound
// min_audible_gain tests and the full received-power expression it stands
// in for; dwarfs the few-ulp error either side can accumulate.
inline constexpr double kPruneSlackDb = 1.0;

// The lowest static gain (antenna_gain - path_loss, in dB) at which a
// transmission at `tx_power` can still clear `floor`: a fading draw never
// exceeds kNormalTailSigmas * fading_sigma, and the slack covers the
// reassociation against ((tx_power - path_loss) + fading) + antenna_gain.
// The one derivation of the bound: the candidate masks and the audibility
// gate test it at a power bound, the runner's own-power prune
// (batch_prune_candidates) at each transmission's real tx power.
// ALPHAWAN-LINT-ALLOW(units-swappable-pair: (floor, tx_power) is
// floor-first at every audibility call site)
[[nodiscard]] inline double min_audible_gain(Dbm floor, Dbm tx_power,
                                             Db fading_sigma) {
  return floor.value() - tx_power.value() -
         kNormalTailSigmas * fading_sigma.value() - kPruneSlackDb;
}

// The frozen static terms of one (node, gateway) link.
struct LinkGain {
  Db path_loss{0.0};     // mean path loss + frozen shadowing
  Db antenna_gain{0.0};  // receive antenna gain toward the node
};

// Dense node index: a slice keeps its per-node memo in a vector by slot.
class NodeSlots {
 public:
  static constexpr std::uint32_t kNoSlot = ~0U;
  std::uint32_t assign(NodeId node) {  // the next slot on first sight
    const auto next = static_cast<std::uint32_t>(slot_of_.size());
    return slot_of_.try_emplace(node, next).first->second;
  }
  [[nodiscard]] std::uint32_t find(NodeId node) const {
    const auto it = slot_of_.find(node);
    return it == slot_of_.end() ? kNoSlot : it->second;
  }

 private:
  // ALPHAWAN-LINT-ALLOW(determinism-unordered-member: never iterated)
  std::unordered_map<NodeId, std::uint32_t> slot_of_;
};

class LinkCache {
 public:
  // Queried for the receive antenna gain toward a transmitter position
  // whenever a column is (re)built; must stay valid until the gateway is
  // re-upserted or the cache destroyed (gateways live in stable deques).
  using AntennaGainFn = std::function<Db(const Point&)>;

  // Slices of a ShardedLinkCache share one NodeSlots.
  explicit LinkCache(ChannelModel& model,
                     std::shared_ptr<NodeSlots> slots =
                         std::make_shared<NodeSlots>())
      : model_(&model), slots_(std::move(slots)) {}

  // Register a gateway column, or refresh its antenna gains when
  // `antenna_epoch` advanced since the last upsert (Gateway::set_antenna
  // bumps the epoch). Gateway positions are immutable. Returns the column
  // index, stable for the lifetime of the cache.
  std::size_t upsert_gateway(GatewayId id, std::uint64_t rx_key,
                             const Point& position,
                             std::uint64_t antenna_epoch,
                             AntennaGainFn antenna_gain);

  // Register a transmitter row (idempotent), extending every column with
  // the link's static terms. A registered id whose origin later differs —
  // a traffic generator reusing virtual ids for different positions — is
  // recomputed in place. Returns the row index.
  std::uint32_t ensure_row(NodeId node, const Point& origin) {
    return ensure_row_at(slots_->assign(node), node, origin);
  }
  // The same, given `node`'s slot in this cache's NodeSlots. Every finite
  // static gain clears -inf, so the row always materializes.
  std::uint32_t ensure_row_at(std::uint32_t slot, NodeId node,
                              const Point& origin) {
    return resolve(slot, node, origin,
                   -std::numeric_limits<double>::infinity());
  }

  // Like ensure_row, but materializes the row only if the node is audible
  // here — some column's static gain clears the same conservative bound
  // candidate_mask prunes against (so a rejected node has no candidate
  // columns in this cache and skipping it drops no events). Returns
  // kInvalidRow on rejection; rejections are memoized per (origin,
  // audibility epoch) so steady-state windows don't re-probe. A row that
  // already exists is refreshed like ensure_row and kept resident.
  static constexpr std::uint32_t kInvalidRow = ~0U;
  // ALPHAWAN-LINT-ALLOW(units-swappable-pair: (floor, power_bound) is
  // floor-first at every audibility call site, as below)
  std::uint32_t ensure_row_if_audible(NodeId node, const Point& origin,
                                      Dbm floor, Dbm power_bound) {
    return ensure_row_if_audible_at(slots_->assign(node), node, origin, floor,
                                    power_bound);
  }
  // ALPHAWAN-LINT-ALLOW(units-swappable-pair: (floor, power_bound) is
  // floor-first at every audibility call site)
  std::uint32_t ensure_row_if_audible_at(std::uint32_t slot, NodeId node,
                                         const Point& origin, Dbm floor,
                                         Dbm power_bound);

  // Row index of a registered transmitter id; kInvalidRow if absent.
  [[nodiscard]] std::uint32_t row_of(NodeId node) const;

  // Hint that `slot`'s memo is about to be looked up: a window resolves
  // transmissions in an order unrelated to their slots, so a loop that
  // prefetches a few transmissions ahead hides the memo's cache miss.
  // Changes no state; a slot without a memo is ignored.
  void prefetch(std::uint32_t slot) const {
    if (slot < memos_.size()) __builtin_prefetch(memos_.data() + slot);
  }

  // Bumped whenever the column set, an antenna or the audibility bound
  // changes — anything that can turn an inaudible node audible — which
  // invalidates every rejection memo.
  [[nodiscard]] std::uint32_t audibility_epoch() const {
    return audibility_epoch_;
  }

  [[nodiscard]] std::size_t row_count() const { return row_origin_.size(); }
  [[nodiscard]] std::size_t column_count() const { return columns_.size(); }
  // Words in one candidate mask.
  [[nodiscard]] std::size_t mask_words() const {
    return (columns_.size() + 63) / 64;
  }

  // Column index for a registered gateway id; kInvalidColumn if absent.
  static constexpr std::uint32_t kInvalidColumn = ~0U;
  [[nodiscard]] std::uint32_t column_of(GatewayId id) const;

  // The per-row static link terms of one gateway column (size row_count()).
  [[nodiscard]] std::span<const LinkGain> gains(std::size_t column) const {
    return columns_[column].gains;
  }

  // Bitmask (bit c % 64 of word c / 64 == column c) of the columns whose
  // static gain from `row` reaches min_audible_gain(floor, power_bound,
  // fast_fading_sigma): the best-case received power — tx power <=
  // `power_bound`, the largest fading draw — can clear `floor`. Built
  // lazily for the (floor, power_bound) in use and kept incrementally as
  // rows are added or moved; any gateway change rebuilds from scratch.
  // ALPHAWAN-LINT-ALLOW(units-swappable-pair: (floor, power_bound) is
  // floor-first at every audibility call site)
  [[nodiscard]] std::span<const std::uint64_t> candidate_mask(
      std::uint32_t row, Dbm floor, Dbm power_bound);

 private:
  struct Column {
    GatewayId id = kInvalidGateway;
    std::uint64_t rx_key = 0;
    Point position{};
    std::uint64_t antenna_epoch = 0;
    AntennaGainFn antenna_gain;
    std::vector<LinkGain> gains;  // indexed by row
  };

  // A slot's row (kept once materialized, tracking its origin), or a
  // rejection valid while origin and audibility epoch both match.
  struct Memo {
    Point origin{};
    std::uint32_t row = kInvalidRow;
    std::uint32_t epoch = 0;  // audibility epoch of a rejection
  };

  // Per-column terms that depend on the origin alone.
  struct Geometry {
    Db mean_loss{0.0};     // mean path loss over the distance
    Db antenna_gain{0.0};  // receive antenna gain toward the origin
  };

  // Fill probe_gains_ with `node`'s static terms toward every column from
  // `origin`, reusing the geometry memo when `origin` was probed last.
  void probe(NodeId node, const Point& origin);
  Memo& memo(std::uint32_t slot);
  // The memo-miss path: refresh the slot's row, or probe the node and
  // materialize it if some column's static gain clears `threshold`.
  std::uint32_t resolve(std::uint32_t slot, NodeId node, const Point& origin,
                        double threshold);
  // Switch the audibility bound both candidate pruning and audibility
  // gating test against, invalidating what depended on the old one.
  // ALPHAWAN-LINT-ALLOW(units-swappable-pair: (floor, power_bound) is
  // floor-first at every audibility call site)
  void use_bound(Dbm floor, Dbm power_bound);
  void write_candidates_for_row(std::uint32_t row);

  ChannelModel* model_;
  std::shared_ptr<NodeSlots> slots_;
  std::vector<Column> columns_;
  // ALPHAWAN-LINT-ALLOW(determinism-unordered-member: keyed lookups only;
  // all iteration runs over the index-ordered columns_ vector)
  std::unordered_map<GatewayId, std::uint32_t> column_of_;

  std::vector<NodeId> row_node_;
  std::vector<Point> row_origin_;
  std::vector<Memo> memos_;  // indexed by node slot

  std::uint32_t audibility_epoch_ = 1;  // memos start at 0: never current
  // The audibility bound in use (NaN until the first call) and the static
  // gain below which a (row, column) pair can never clear it.
  Dbm floor_{std::numeric_limits<double>::quiet_NaN()};
  Dbm power_bound_{0.0};
  double threshold_ = 0.0;
  std::vector<LinkGain> probe_gains_;  // scratch filled by probe()
  // Geometry of the origin probed last, one entry per column; empty when
  // dropped.
  Point geometry_origin_{};
  std::vector<Geometry> geometry_;

  // Flat candidate storage: mask_words() words per row.
  bool candidates_valid_ = false;
  std::vector<std::uint64_t> candidate_words_;
};

// A set of independent LinkCache slices over one channel model, one per
// spatial shard. The phy layer knows nothing about shard geometry — the sim
// layer decides which slice a gateway column lives in (sim/shard.hpp); this
// class only guarantees slice independence: every slice computes the same
// LinkGain values a monolithic cache would (the model is a pure function of
// the link key), so any partition of the columns yields bit-identical
// physics while each slice's memory tracks only the links audible there.
// The slices share one NodeSlots, so a node's slot indexes every slice.
class ShardedLinkCache {
 public:
  explicit ShardedLinkCache(ChannelModel& model)
      : model_(&model), slots_(std::make_shared<NodeSlots>()) {}

  // Drop every slice (memos included) and start over with `count` empty
  // ones. Gains are recomputed on the next refresh, so re-partitioning
  // mid-run is safe — and bit-stable, since values depend only on the
  // model. Node slots survive: they name nodes, not rows.
  void reset(std::size_t count) {
    slices_.clear();
    slices_.reserve(count);
    for (std::size_t s = 0; s < count; ++s) {
      slices_.emplace_back(*model_, slots_);
    }
  }

  [[nodiscard]] std::size_t shard_count() const { return slices_.size(); }
  [[nodiscard]] LinkCache& slice(std::size_t shard) { return slices_[shard]; }
  [[nodiscard]] const LinkCache& slice(std::size_t shard) const {
    return slices_[shard];
  }
  [[nodiscard]] NodeSlots& slots() { return *slots_; }

 private:
  ChannelModel* model_;
  std::shared_ptr<NodeSlots> slots_;
  std::vector<LinkCache> slices_;
};

}  // namespace alphawan
