// Spectrum, channel grid, and standard LoRaWAN channel plans.
//
// A Channel is identified by its center frequency and bandwidth. Standard
// plans sit on a 200 kHz grid (8 channels per 1.6 MHz, as in the paper's
// testbed); AlphaWAN's inter-network plans deliberately place channels at
// fractional offsets of that grid (frequency misalignment, Strategy 8), so
// channels are represented by real center frequencies rather than indices.
#pragma once

#include <string>
#include <vector>

#include "phy/lora_params.hpp"

namespace alphawan {

struct Channel {
  Hz center{};
  Hz bandwidth = kLoRaBandwidth125k;

  [[nodiscard]] Hz low() const { return center - bandwidth / 2; }
  [[nodiscard]] Hz high() const { return center + bandwidth / 2; }

  friend bool operator==(const Channel&, const Channel&) = default;
};

// A contiguous block of ISM spectrum available to the deployment.
struct Spectrum {
  Hz base{916.8e6};  // paper Sec 5.1.1: 916.8-921.6 MHz
  Hz width{4.8e6};

  [[nodiscard]] Hz high() const { return base + width; }
  // Number of standard grid channels that fit.
  [[nodiscard]] int grid_size() const {
    return static_cast<int>(width / kChannelSpacing);
  }
  // Center frequency of grid channel `index` (0-based).
  [[nodiscard]] Hz grid_center(int index) const {
    return base + kChannelSpacing / 2 + kChannelSpacing * index;
  }
  [[nodiscard]] Channel grid_channel(int index) const {
    return Channel{grid_center(index), kLoRaBandwidth125k};
  }
  // All grid channels.
  [[nodiscard]] std::vector<Channel> grid_channels() const;
  // True if the channel lies entirely inside the spectrum.
  [[nodiscard]] bool contains(const Channel& ch) const;
  // Grid index nearest to the given channel center (may be out of range).
  [[nodiscard]] int nearest_grid_index(Hz center) const;
};

// A channel plan: the set of channels a gateway (or network) operates on.
struct ChannelPlan {
  std::string name;
  std::vector<Channel> channels;

  [[nodiscard]] std::size_t size() const { return channels.size(); }
  [[nodiscard]] bool empty() const { return channels.empty(); }
  // Frequency span from lowest channel low edge to highest high edge.
  [[nodiscard]] Hz span() const;
};

// Frequency span of a channel set: the highest high edge minus the lowest
// low edge (0 for an empty set). The radio bandwidth B_j bounds it.
[[nodiscard]] Hz channel_span(const std::vector<Channel>& channels);

// Standard LoRaWAN channel plan #n: grid channels [8n, 8n+8) of the
// spectrum (Appendix B, Fig. 19). Throws if the plan exceeds the spectrum.
[[nodiscard]] ChannelPlan standard_plan(const Spectrum& spectrum, int plan_index);

// Number of complete standard plans the spectrum holds.
[[nodiscard]] int num_standard_plans(const Spectrum& spectrum);

// Theoretical ("Oracle") concurrent-user capacity of a spectrum: one user
// per (grid channel x spreading factor) pair, 6 SFs per channel.
[[nodiscard]] int oracle_capacity(const Spectrum& spectrum);

// Regional presets used by tests/examples.
[[nodiscard]] Spectrum spectrum_1m6();  // 1.6 MHz / 8 channels (Figs. 2, 5, 12d)
[[nodiscard]] Spectrum spectrum_4m8();  // 4.8 MHz / 24 channels (Figs. 12a, 13)

}  // namespace alphawan
