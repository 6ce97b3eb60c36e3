#include "phy/link_cache.hpp"

#include <algorithm>

namespace alphawan {

std::uint32_t LinkCache::column_of(GatewayId id) const {
  const auto it = column_of_.find(id);
  return it == column_of_.end() ? kInvalidColumn : it->second;
}

std::uint32_t LinkCache::row_of(NodeId node) const {
  const std::uint32_t slot = slots_->find(node);
  return slot < memos_.size() ? memos_[slot].row : kInvalidRow;
}

void LinkCache::probe(NodeId node, const Point& origin) {
  // An empty memo is a dropped one (or a cache without columns).
  if (geometry_.empty() || geometry_origin_ != origin) {
    geometry_.clear();
    for (const auto& column : columns_) {
      // Argument order matches the uncached runner path exactly:
      // distance(tx.origin, gw.position()).
      geometry_.push_back(
          {model_->mean_path_loss(distance(origin, column.position)),
           column.antenna_gain(origin)});
    }
    geometry_origin_ = origin;
  }
  // mean_path_loss(dist) + shadowing(tx, rx): the very sum link_path_loss
  // evaluates, so a probe equals the uncached terms bit for bit.
  probe_gains_.clear();
  for (std::size_t col = 0; col < columns_.size(); ++col) {
    probe_gains_.push_back(
        {geometry_[col].mean_loss +
             model_->shadowing(node, columns_[col].rx_key),
         geometry_[col].antenna_gain});
  }
}

std::size_t LinkCache::upsert_gateway(GatewayId id, std::uint64_t rx_key,
                                      const Point& position,
                                      std::uint64_t antenna_epoch,
                                      AntennaGainFn antenna_gain) {
  const auto it = column_of_.find(id);
  if (it != column_of_.end()) {
    Column& column = columns_[it->second];
    if (column.antenna_epoch != antenna_epoch) {
      // Path loss is position-bound and positions are immutable; only the
      // antenna term needs recomputing.
      column.antenna_epoch = antenna_epoch;
      column.antenna_gain = std::move(antenna_gain);
      for (std::uint32_t row = 0; row < row_origin_.size(); ++row) {
        column.gains[row].antenna_gain = column.antenna_gain(row_origin_[row]);
      }
      candidates_valid_ = false;
      geometry_.clear();
      ++audibility_epoch_;  // a new antenna can make rejected nodes audible
    }
    return it->second;
  }

  Column column;
  column.id = id;
  column.rx_key = rx_key;
  column.position = position;
  column.antenna_epoch = antenna_epoch;
  column.antenna_gain = std::move(antenna_gain);
  column.gains.reserve(row_origin_.size());
  for (std::uint32_t row = 0; row < row_origin_.size(); ++row) {
    const Point& origin = row_origin_[row];
    column.gains.push_back(
        {model_->link_path_loss(row_node_[row], rx_key,
                                distance(origin, position)),
         column.antenna_gain(origin)});
  }
  const auto index = columns_.size();
  columns_.push_back(std::move(column));
  column_of_.emplace(id, static_cast<std::uint32_t>(index));
  candidates_valid_ = false;
  geometry_.clear();
  ++audibility_epoch_;  // a new column can make rejected nodes audible
  return index;
}

LinkCache::Memo& LinkCache::memo(std::uint32_t slot) {
  if (slot >= memos_.size()) memos_.resize(std::size_t{slot} + 1);
  return memos_[slot];
}

std::uint32_t LinkCache::resolve(std::uint32_t slot, NodeId node,
                                 const Point& origin, double threshold) {
  Memo& m = memo(slot);
  if (m.row != kInvalidRow) {
    // Materialized rows stay resident even if they drift inaudible (their
    // candidate mask just goes empty). Same id, new position: recompute the
    // row in place.
    if (m.origin == origin) return m.row;
    m.origin = origin;
    row_origin_[m.row] = origin;
    probe(node, origin);
    for (std::size_t col = 0; col < columns_.size(); ++col) {
      columns_[col].gains[m.row] = probe_gains_[col];
    }
    if (candidates_valid_) write_candidates_for_row(m.row);
    return m.row;
  }
  // Probe every column into scratch, materializing only on an audible hit
  // (so the probe's work is not thrown away when the node joins).
  probe(node, origin);
  const bool audible =
      std::any_of(probe_gains_.begin(), probe_gains_.end(),
                  [threshold](const LinkGain& g) {
                    return g.antenna_gain.value() - g.path_loss.value() >=
                           threshold;
                  });
  if (!audible) {
    m = Memo{origin, kInvalidRow, audibility_epoch_};
    return kInvalidRow;
  }
  const auto row = static_cast<std::uint32_t>(row_origin_.size());
  row_node_.push_back(node);
  row_origin_.push_back(origin);
  for (std::size_t col = 0; col < columns_.size(); ++col) {
    columns_[col].gains.push_back(probe_gains_[col]);
  }
  if (candidates_valid_) write_candidates_for_row(row);
  m = Memo{origin, row, 0};
  return row;
}

std::uint32_t LinkCache::ensure_row_if_audible_at(std::uint32_t slot,
                                                  NodeId node,
                                                  const Point& origin,
                                                  Dbm floor, Dbm power_bound) {
  use_bound(floor, power_bound);
  const Memo& m = memo(slot);
  if (m.origin == origin &&
      (m.row != kInvalidRow || m.epoch == audibility_epoch_)) {
    return m.row;
  }
  return resolve(slot, node, origin, threshold_);
}

void LinkCache::use_bound(Dbm floor, Dbm power_bound) {
  if (floor == floor_ && power_bound == power_bound_) return;
  floor_ = floor;
  power_bound_ = power_bound;
  threshold_ = min_audible_gain(floor, power_bound,
                                model_->config().fast_fading_sigma_db);
  candidates_valid_ = false;
  ++audibility_epoch_;  // a new bound can make rejected nodes audible
}

void LinkCache::write_candidates_for_row(std::uint32_t row) {
  const std::size_t end = (std::size_t{row} + 1) * mask_words();
  if (candidate_words_.size() < end) candidate_words_.resize(end);
  std::uint64_t* words = candidate_words_.data() + row * mask_words();
  std::fill_n(words, mask_words(), std::uint64_t{0});
  for (std::uint32_t col = 0; col < columns_.size(); ++col) {
    const LinkGain& g = columns_[col].gains[row];
    if (g.antenna_gain.value() - g.path_loss.value() >= threshold_) {
      words[col / 64] |= std::uint64_t{1} << (col % 64);
    }
  }
}

std::span<const std::uint64_t> LinkCache::candidate_mask(std::uint32_t row,
                                                         Dbm floor,
                                                         Dbm power_bound) {
  use_bound(floor, power_bound);
  if (!candidates_valid_) {
    candidates_valid_ = true;
    for (std::uint32_t r = 0; r < row_origin_.size(); ++r) {
      write_candidates_for_row(r);
    }
  }
  return {candidate_words_.data() + row * mask_words(), mask_words()};
}

}  // namespace alphawan
