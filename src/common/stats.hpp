// Small statistics helpers used by the metrics collector and benches.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

namespace alphawan {

// Jain's fairness index: (sum x)^2 / (n * sum x^2). 1.0 = perfectly fair.
[[nodiscard]] double jain_fairness(const std::vector<double>& xs);

// Counter keyed by an enum/int, convenient for loss-cause tallies.
template <typename Key>
class Tally {
 public:
  void add(Key k, std::size_t n = 1) { counts_[k] += n; }
  [[nodiscard]] std::size_t get(Key k) const {
    auto it = counts_.find(k);
    return it == counts_.end() ? 0 : it->second;
  }
  [[nodiscard]] std::size_t total() const {
    std::size_t sum = 0;
    for (const auto& [k, v] : counts_) sum += v;
    return sum;
  }
  [[nodiscard]] const std::map<Key, std::size_t>& counts() const {
    return counts_;
  }
  void clear() { counts_.clear(); }

 private:
  std::map<Key, std::size_t> counts_;
};

}  // namespace alphawan
