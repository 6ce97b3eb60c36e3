// Wire-codec hardening properties: for RANDOM instances of every message
// type of the Master protocol,
//   - encode/decode round-trips exactly;
//   - every strict prefix (truncation) is rejected with an error;
//   - every single-bit flip is rejected with an error (guaranteed by the
//     CRC-32 trailer, which detects all 1-bit errors);
// and the decoder never crashes or over-reads (this binary runs under
// ASan/TSan in CI).
#include <string>

#include <gtest/gtest.h>

#include "backhaul/master_protocol.hpp"
#include "common/rng.hpp"

namespace alphawan {
namespace {

std::string random_name(Rng& rng) {
  std::string s;
  const auto len = rng.uniform_int(0, 24);
  for (std::int64_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng.uniform_int(32, 126)));
  }
  return s;
}

std::vector<Channel> random_channels(Rng& rng, int max_count) {
  std::vector<Channel> channels;
  const auto count = rng.uniform_int(0, max_count);
  for (std::int64_t i = 0; i < count; ++i) {
    channels.push_back(Channel{Hz{rng.uniform(902e6, 928e6)},
                               Hz{rng.chance(0.5) ? 125e3 : 500e3}});
  }
  return channels;
}

MasterMessage random_master_message(Rng& rng) {
  switch (rng.uniform_int(0, 4)) {
    case 0:
      return RegisterMsg{static_cast<NetworkId>(rng.uniform_int(0, 65535)),
                         random_name(rng)};
    case 1:
      return RegisterAckMsg{static_cast<NetworkId>(rng.uniform_int(0, 65535)),
                            static_cast<std::uint32_t>(rng.next())};
    case 2:
      return PlanRequestMsg{
          static_cast<NetworkId>(rng.uniform_int(0, 65535)),
          Hz{rng.uniform(100e6, 1e9)}, Hz{rng.uniform(1e5, 1e8)},
          static_cast<std::uint16_t>(rng.uniform_int(0, 65535))};
    case 3: {
      PlanAssignMsg m;
      m.operator_id = static_cast<NetworkId>(rng.uniform_int(0, 65535));
      m.master_epoch = static_cast<std::uint32_t>(rng.next());
      m.overlap_ratio = rng.uniform(0.0, 1.0);
      m.frequency_offset = Hz{rng.uniform(-200e3, 200e3)};
      m.channels = random_channels(rng, 16);
      return m;
    }
    default:
      return ErrorMsg{static_cast<std::uint16_t>(rng.uniform_int(0, 65535)),
                      random_name(rng)};
  }
}

// The three properties, applied to one message and its encoded frame.
void check_frame(const MasterMessage& msg) {
  const std::vector<std::uint8_t> bytes = encode_message(msg);
  const auto back = decode_message(bytes);
  ASSERT_TRUE(back.has_value()) << "round trip failed";
  EXPECT_TRUE(*back == msg) << "round trip changed the message";
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(bytes.data(), cut);
    EXPECT_FALSE(decode_message(prefix).has_value())
        << "truncation to " << cut << " bytes accepted";
  }
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    auto flipped = bytes;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(decode_message(flipped).has_value())
        << "flip of bit " << bit << " accepted";
  }
}

TEST(WireProperty, MasterMessagesRoundTripAndRejectAllCorruption) {
  Rng rng(20260806);
  for (int i = 0; i < 120; ++i) {
    check_frame(random_master_message(rng));
  }
}

TEST(WireProperty, RandomGarbageNeverDecodes) {
  // Pure noise should (overwhelmingly) fail the CRC; mostly this checks
  // the decoder never crashes or over-reads on arbitrary input.
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> junk(
        static_cast<std::size_t>(rng.uniform_int(0, 64)));
    for (auto& b : junk) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    (void)decode_message(junk);
  }
}

}  // namespace
}  // namespace alphawan
