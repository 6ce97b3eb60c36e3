#include "phy/band_plan.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace alphawan {

std::vector<Channel> Spectrum::grid_channels() const {
  std::vector<Channel> out;
  const int n = grid_size();
  out.reserve(n);
  for (int i = 0; i < n; ++i) out.push_back(grid_channel(i));
  return out;
}

bool Spectrum::contains(const Channel& ch) const {
  return ch.low() >= base - Hz{1.0} && ch.high() <= high() + Hz{1.0};
}

int Spectrum::nearest_grid_index(Hz center) const {
  return static_cast<int>(
      std::lround((center - base - kChannelSpacing / 2) / kChannelSpacing));
}

Hz ChannelPlan::span() const { return channel_span(channels); }

Hz channel_span(const std::vector<Channel>& channels) {
  if (channels.empty()) return Hz{0.0};
  Hz lo = channels.front().low();
  Hz hi = channels.front().high();
  for (const auto& ch : channels) {
    lo = std::min(lo, ch.low());
    hi = std::max(hi, ch.high());
  }
  return hi - lo;
}

ChannelPlan standard_plan(const Spectrum& spectrum, int plan_index) {
  const int first = plan_index * 8;
  if (plan_index < 0 || first + 8 > spectrum.grid_size()) {
    throw std::out_of_range("standard_plan: plan #" +
                            std::to_string(plan_index) +
                            " does not fit in spectrum");
  }
  ChannelPlan plan;
  plan.name = "std-plan-" + std::to_string(plan_index);
  plan.channels.reserve(8);
  for (int i = 0; i < 8; ++i) {
    plan.channels.push_back(spectrum.grid_channel(first + i));
  }
  return plan;
}

int num_standard_plans(const Spectrum& spectrum) {
  return spectrum.grid_size() / 8;
}

int oracle_capacity(const Spectrum& spectrum) {
  return spectrum.grid_size() * kNumSpreadingFactors;
}

Spectrum spectrum_1m6() { return Spectrum{Hz{923.2e6}, Hz{1.6e6}}; }
Spectrum spectrum_4m8() { return Spectrum{Hz{916.8e6}, Hz{4.8e6}}; }

}  // namespace alphawan
