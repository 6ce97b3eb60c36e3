// Tests of the COTS gateway radio model against the black-box behaviours
// the paper measured in Sec. 3.1 (Figs. 3a-3f) and Appendix C.
#include "radio/gateway_radio.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "phy/band_plan.hpp"
#include "phy/capture.hpp"
#include "phy/overlap.hpp"
#include "phy/sensitivity.hpp"
#include "net/sync_word.hpp"
#include "common/rng.hpp"

namespace alphawan {
namespace {

const Spectrum kSpec = spectrum_1m6();

GatewayRadio make_radio(NetworkId network = 0, int num_channels = 8) {
  GatewayRadio radio(default_profile(), network,
                     sync_word_for_network(network));
  std::vector<Channel> channels;
  for (int i = 0; i < num_channels; ++i) {
    channels.push_back(kSpec.grid_channel(i));
  }
  radio.configure_channels(channels);
  return radio;
}

Transmission make_tx(PacketId id, int channel, SpreadingFactor sf,
                     Seconds start, NetworkId network = 0) {
  Transmission tx;
  tx.id = id;
  tx.node = static_cast<NodeId>(id);
  tx.network = network;
  tx.sync_word = sync_word_for_network(network);
  tx.channel = kSpec.grid_channel(channel);
  tx.params.sf = sf;
  tx.start = start;
  return tx;
}

// 20 concurrent packets on orthogonal (channel, SF) pairs, staggered so
// lock-on order equals packet order (the paper's Scheme (b)).
std::vector<RxEvent> twenty_orthogonal(NetworkId network = 0,
                                       Dbm power = Dbm{-80.0}) {
  std::vector<RxEvent> events;
  for (int i = 0; i < 20; ++i) {
    const int channel = i % 8;
    const auto sf = sf_from_index((i / 8) % kNumSpreadingFactors);
    Transmission tx = make_tx(static_cast<PacketId>(i + 1), channel, sf,
                              Seconds{0.0}, network);
    // Shift start so lock-on lands at slot i (1 ms slots).
    tx.start = Seconds{0.001 * (i + 1)} - preamble_duration(tx.params);
    events.push_back(RxEvent{tx, power});
  }
  return events;
}

std::size_t count(const std::vector<RxOutcome>& outcomes, RxDisposition d) {
  return static_cast<std::size_t>(
      std::count_if(outcomes.begin(), outcomes.end(),
                    [&](const RxOutcome& o) { return o.disposition == d; }));
}

TEST(GatewayRadio, ConfigRejectsTooManyChannels) {
  GatewayRadio radio(default_profile(), 0, kPublicSyncWord);
  std::vector<Channel> nine;
  for (int i = 0; i < 8; ++i) nine.push_back(kSpec.grid_channel(i));
  nine.push_back(Channel{kSpec.grid_center(7) + Hz{10e3}, kLoRaBandwidth125k});
  EXPECT_THROW(radio.configure_channels(nine), std::invalid_argument);
}

TEST(GatewayRadio, ConfigRejectsExcessiveSpan) {
  GatewayRadio radio(default_profile(), 0, kPublicSyncWord);
  const Spectrum wide = spectrum_4m8();
  // Two channels 4.6 MHz apart exceed the 1.6 MHz radio bandwidth.
  EXPECT_THROW(radio.configure_channels(
                   {wide.grid_channel(0), wide.grid_channel(23)}),
               std::invalid_argument);
}

TEST(GatewayRadio, ConfigRejectsEmpty) {
  GatewayRadio radio(default_profile(), 0, kPublicSyncWord);
  EXPECT_THROW(radio.configure_channels({}), std::invalid_argument);
}

TEST(GatewayRadio, SixteenDecoderLimit) {
  // The paper's headline observation: 20 collision-free concurrent packets,
  // only 16 received (Fig. 3b).
  auto radio = make_radio();
  const auto outcomes = radio.process(twenty_orthogonal());
  EXPECT_EQ(count(outcomes, RxDisposition::kDelivered), 16u);
  EXPECT_EQ(count(outcomes, RxDisposition::kDroppedDecoderBusy), 4u);
}

TEST(GatewayRadio, FcfsDropsTheLateLockOns) {
  // Scheme (b): lock-on order == node order, so exactly nodes 17-20 drop.
  auto radio = make_radio();
  const auto outcomes = radio.process(twenty_orthogonal());
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(outcomes[static_cast<std::size_t>(i)].disposition,
              RxDisposition::kDelivered)
        << "node " << i + 1;
  }
  for (int i = 16; i < 20; ++i) {
    EXPECT_EQ(outcomes[static_cast<std::size_t>(i)].disposition,
              RxDisposition::kDroppedDecoderBusy)
        << "node " << i + 1;
  }
}

TEST(GatewayRadio, SchemeADropsByLockOnNotStartOrder) {
  // Scheme (a): *starts* are ordered, but SF12 preambles are ~32x longer
  // than SF7 ones, so lock-on order differs from start order. The set of
  // dropped packets must follow lock-on order.
  auto radio = make_radio();
  std::vector<RxEvent> events;
  for (int i = 0; i < 20; ++i) {
    const int channel = i % 8;
    // Mix of SFs so preamble lengths differ wildly.
    const auto sf = sf_from_index((i * 5) % kNumSpreadingFactors);
    Transmission tx = make_tx(static_cast<PacketId>(i + 1), channel, sf,
                              Seconds{0.001 * (i + 1)});
    events.push_back(RxEvent{tx, Dbm{-80.0}});
  }
  const auto outcomes = radio.process(events);
  // Mixed preamble lengths scramble lock-on order relative to start order,
  // and short packets can release decoders before long preambles finish —
  // so the count can exceed 16, never fall below.
  EXPECT_GE(count(outcomes, RxDisposition::kDelivered), 16u);
  // FCFS invariant: a packet is dropped iff 16 decoders were held at its
  // lock-on instant; held = an earlier-locking, still-airing packet that
  // did consume a decoder.
  auto held_at = [&](Seconds t) {
    std::size_t held = 0;
    for (std::size_t j = 0; j < events.size(); ++j) {
      if (!consumed_decoder(outcomes[j].disposition)) continue;
      if (events[j].tx.lock_on() < t && events[j].tx.end() > t) ++held;
    }
    return held;
  };
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Seconds lock = events[i].tx.lock_on();
    if (outcomes[i].disposition == RxDisposition::kDroppedDecoderBusy) {
      EXPECT_GE(held_at(lock), 16u) << "packet " << i;
    } else {
      ASSERT_TRUE(consumed_decoder(outcomes[i].disposition));
      EXPECT_LT(held_at(lock), 16u) << "packet " << i;
    }
  }
}

TEST(GatewayRadio, NoSnrPriority) {
  // Fig. 3c: low-SNR (but decodable) packets are not preempted by strong
  // ones — only lock-on order matters.
  auto radio = make_radio();
  auto events = twenty_orthogonal();
  // Make the first 16 arrivals weaker and the last 4 stronger (within the
  // cross-SF orthogonality tolerance, as in the paper's controlled SNR
  // experiment).
  for (std::size_t i = 0; i < events.size(); ++i) {
    events[i].rx_power = i < 16 ? Dbm{-86.0} : Dbm{-80.0};
  }
  const auto outcomes = radio.process(events);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(outcomes[i].disposition, RxDisposition::kDelivered);
  }
  for (std::size_t i = 16; i < 20; ++i) {
    EXPECT_EQ(outcomes[i].disposition, RxDisposition::kDroppedDecoderBusy);
  }
}

TEST(GatewayRadio, ChannelFairness) {
  // Fig. 3d: packets from crowded channels and idle channels are treated
  // alike; drops depend only on lock-on rank.
  auto radio = make_radio();
  std::vector<RxEvent> events;
  // 15 packets crowd channels 0-2; 5 packets sit alone on channels 3-7.
  for (int i = 0; i < 20; ++i) {
    const int channel = i < 15 ? i % 3 : 3 + (i - 15);
    const auto sf = sf_from_index(i % kNumSpreadingFactors);
    Transmission tx = make_tx(static_cast<PacketId>(i + 1), channel, sf,
                              Seconds{0.0});
    tx.start = Seconds{0.001 * (i + 1)} - preamble_duration(tx.params);
    events.push_back(RxEvent{tx, Dbm{-80.0}});
  }
  const auto outcomes = radio.process(events);
  // Lock-on order is the index order; last 4 drop regardless of channel.
  for (std::size_t i = 16; i < 20; ++i) {
    EXPECT_EQ(outcomes[i].disposition, RxDisposition::kDroppedDecoderBusy);
  }
}

TEST(GatewayRadio, ForeignPacketsConsumeDecoders) {
  // Figs. 3e/3f: packets of another network are decoded (occupying
  // decoders) and only then filtered by sync word.
  auto radio = make_radio(/*network=*/0);
  // 20 mutually orthogonal (channel, SF) pairs; the 10 with the earliest
  // lock-ons belong to the foreign network.
  auto events = twenty_orthogonal();
  for (std::size_t i = 0; i < 10; ++i) {
    events[i].tx.network = 1;
    events[i].tx.sync_word = sync_word_for_network(1);
  }
  const auto outcomes = radio.process(events);
  EXPECT_EQ(count(outcomes, RxDisposition::kDecodedForeign), 10u);
  // Only 6 decoders remain for the 10 own packets.
  EXPECT_EQ(count(outcomes, RxDisposition::kDelivered), 6u);
  EXPECT_EQ(count(outcomes, RxDisposition::kDroppedDecoderBusy), 4u);
  // The drops must be flagged as inter-network contention.
  for (const auto& out : outcomes) {
    if (out.disposition == RxDisposition::kDroppedDecoderBusy) {
      EXPECT_TRUE(out.foreign_among_occupants);
    }
  }
}

TEST(GatewayRadio, FrontEndRejectsMisalignedChannels) {
  // Strategy 8: a packet 40% misaligned from every operating channel never
  // consumes a decoder.
  auto radio = make_radio();
  Transmission tx = make_tx(1, 0, SpreadingFactor::kSF7, Seconds{0.0});
  tx.channel.center += 0.4 * kLoRaBandwidth125k + Hz{20e3};
  const auto outcomes = radio.process({RxEvent{tx, Dbm{-60.0}}});
  EXPECT_EQ(outcomes[0].disposition, RxDisposition::kRejectedFrontEnd);
}

TEST(GatewayRadio, WeakPacketNotDetected) {
  auto radio = make_radio();
  Transmission tx = make_tx(1, 0, SpreadingFactor::kSF7, Seconds{0.0});
  // SF7 threshold is -7.5 dB SNR; noise floor ~-117 dBm -> -130 dBm is
  // undetectable.
  const auto outcomes = radio.process({RxEvent{tx, Dbm{-130.0}}});
  EXPECT_EQ(outcomes[0].disposition, RxDisposition::kNotDetected);
}

TEST(GatewayRadio, SubNoisePacketStillReceivedAtHighSf) {
  // LoRa's signature: SF12 decodes ~20 dB below noise. This is why
  // directional antennas cannot silence off-axis users (Fig. 7).
  auto radio = make_radio();
  Transmission tx = make_tx(1, 0, SpreadingFactor::kSF12, Seconds{0.0});
  const auto outcomes = radio.process({RxEvent{tx, Dbm{-133.0}}});  // SNR ~-16
  EXPECT_EQ(outcomes[0].disposition, RxDisposition::kDelivered);
}

TEST(GatewayRadio, SameSfSameChannelCollision) {
  auto radio = make_radio();
  std::vector<RxEvent> events;
  for (int i = 0; i < 2; ++i) {
    Transmission tx = make_tx(static_cast<PacketId>(i + 1), 0,
                              SpreadingFactor::kSF9, Seconds{0.0});
    events.push_back(RxEvent{tx, Dbm{-90.0}});
  }
  const auto outcomes = radio.process(events);
  EXPECT_EQ(count(outcomes, RxDisposition::kDroppedCollision), 2u);
}

TEST(GatewayRadio, CaptureStrongerSameSfPacket) {
  auto radio = make_radio();
  Transmission strong = make_tx(1, 0, SpreadingFactor::kSF9, Seconds{0.0});
  Transmission weak = make_tx(2, 0, SpreadingFactor::kSF9, Seconds{0.0});
  const auto outcomes =
      radio.process({RxEvent{strong, Dbm{-80.0}}, RxEvent{weak, Dbm{-95.0}}});
  EXPECT_EQ(outcomes[0].disposition, RxDisposition::kDelivered);
  EXPECT_EQ(outcomes[1].disposition, RxDisposition::kDroppedCollision);
}

TEST(GatewayRadio, OrthogonalSfShareChannel) {
  auto radio = make_radio();
  std::vector<RxEvent> events;
  for (int i = 0; i < kNumSpreadingFactors; ++i) {
    Transmission tx = make_tx(static_cast<PacketId>(i + 1), 0,
                              sf_from_index(i), Seconds{0.0});
    events.push_back(RxEvent{tx, Dbm{-85.0}});
  }
  const auto outcomes = radio.process(events);
  EXPECT_EQ(count(outcomes, RxDisposition::kDelivered), 6u);
}

TEST(GatewayRadio, FewerChannelsKeepAllDecoders) {
  // Strategy 1 mechanics: with 2 operating channels the same 16 decoders
  // serve far fewer contenders per spectrum slice.
  auto radio = make_radio(0, /*num_channels=*/2);
  std::vector<RxEvent> events;
  // 12 packets on the 2 channels (6 SFs each): all should be received.
  for (int i = 0; i < 12; ++i) {
    Transmission tx = make_tx(static_cast<PacketId>(i + 1), i % 2,
                              sf_from_index(i / 2 % 6), Seconds{0.0});
    tx.start = Seconds{0.0005 * i};
    events.push_back(RxEvent{tx, Dbm{-80.0}});
  }
  const auto outcomes = radio.process(events);
  EXPECT_EQ(count(outcomes, RxDisposition::kDelivered), 12u);
}

TEST(GatewayRadio, Sx1308ProfileHasEightDecoders) {
  GatewayRadio radio(profile_rak7246g(), 0, kPublicSyncWord);
  std::vector<Channel> channels;
  for (int i = 0; i < 8; ++i) channels.push_back(kSpec.grid_channel(i));
  radio.configure_channels(channels);
  const auto outcomes = radio.process(twenty_orthogonal());
  EXPECT_EQ(count(outcomes, RxDisposition::kDelivered), 8u);
}

TEST(GatewayRadio, MisalignedStrongInterfererActsAsNoiseNotCollision) {
  // Strategy 8 physics: a same-SF interferer 15 dB stronger on a channel
  // misaligned by 40% is filter-truncated — it neither collides with nor
  // preempts the wanted packet (an aligned one would destroy it).
  auto radio = make_radio();
  Transmission wanted = make_tx(1, 0, SpreadingFactor::kSF8, Seconds{0.0});
  Transmission foreign = make_tx(2, 0, SpreadingFactor::kSF8, Seconds{0.0}, 1);
  foreign.channel.center += 0.4 * kLoRaBandwidth125k;
  auto outcomes =
      radio.process({RxEvent{wanted, Dbm{-100.0}}, RxEvent{foreign, Dbm{-85.0}}});
  EXPECT_EQ(outcomes[0].disposition, RxDisposition::kDelivered);
  EXPECT_EQ(outcomes[1].disposition, RxDisposition::kRejectedFrontEnd);

  // Control: the same interferer aligned destroys the wanted packet.
  auto radio2 = make_radio();
  Transmission aligned = foreign;
  aligned.channel = wanted.channel;
  outcomes =
      radio2.process({RxEvent{wanted, Dbm{-100.0}}, RxEvent{aligned, Dbm{-85.0}}});
  EXPECT_EQ(outcomes[0].disposition, RxDisposition::kDroppedCollision);
  EXPECT_TRUE(outcomes[0].foreign_interferer);
}

// The fatal-interferer attribution is the last collider in scan order
// (buckets by ascending id, each in start order), also where the bucket
// index settles one-network buckets at their first collider and skips
// those that cannot change the result. A 500 kHz chain is aligned with
// 125 kHz packets in the buckets on either side of the wanted packet's.
TEST(GatewayRadio, LastColliderInScanOrderDecidesTheAttribution) {
  const Channel wide{Hz{917.3e6}, kLoRaBandwidth500k};
  const Channel below{Hz{917.15e6}, kLoRaBandwidth125k};
  const Channel above{Hz{917.45e6}, kLoRaBandwidth125k};
  const auto bucket = [](const Channel& ch) {
    return static_cast<std::int64_t>(ch.center / kChannelSpacing);
  };
  ASSERT_EQ(bucket(below) + 1, bucket(wide));
  ASSERT_EQ(bucket(wide) + 1, bucket(above));
  const auto tx_on = [](PacketId id, const Channel& ch, Seconds start,
                        NetworkId network) {
    Transmission tx = make_tx(id, 0, SpreadingFactor::kSF9, start, network);
    tx.channel = ch;
    return tx;
  };
  struct Case {
    Channel first_channel;
    NetworkId first_network;
    Channel last_channel;
    NetworkId last_network;
    bool foreign;
  };
  const Case cases[] = {
      // Across buckets: the upper bucket's collider is scanned last.
      {below, 1, above, 0, false},
      {below, 0, above, 1, true},
      // One mixed bucket: the later-starting collider is scanned last.
      {wide, 0, wide, 1, true},
      {wide, 1, wide, 0, false},
  };
  for (const Case& c : cases) {
    GatewayRadio radio(default_profile(), 0, sync_word_for_network(0));
    radio.configure_channels({wide});
    const auto outcomes = radio.process(
        {RxEvent{tx_on(1, wide, Seconds{0.10}, 0), Dbm{-100.0}},
         RxEvent{tx_on(2, c.first_channel, Seconds{0.05}, c.first_network),
                 Dbm{-80.0}},
         RxEvent{tx_on(3, c.last_channel, Seconds{0.12}, c.last_network),
                 Dbm{-80.0}}});
    ASSERT_EQ(outcomes[0].disposition, RxDisposition::kDroppedCollision);
    EXPECT_EQ(outcomes[0].foreign_interferer, c.foreign)
        << "first net " << c.first_network << ", last net " << c.last_network;
  }
}

TEST(GatewayRadio, BucketedScanMatchesBruteForce) {
  // Property: the frequency-bucketed interferer scan must agree with a
  // brute-force reference on the *set of delivered packets* for random
  // traffic. The reference here is an independent collision predicate.
  Rng rng(99);
  auto radio = make_radio();
  std::vector<RxEvent> events;
  for (int i = 0; i < 150; ++i) {
    Transmission tx = make_tx(static_cast<PacketId>(i + 1),
                              static_cast<int>(rng.uniform_int(0, 7)),
                              sf_from_index(static_cast<int>(
                                  rng.uniform_int(0, 5))),
                              Seconds{rng.uniform(0.0, 5.0)});
    events.push_back(RxEvent{tx, Dbm{rng.uniform(-95.0, -75.0)}});
  }
  const auto outcomes = radio.process(events);
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (outcomes[i].disposition != RxDisposition::kDelivered) continue;
    // Brute force: no aligned interferer may beat the capture threshold.
    for (std::size_t j = 0; j < events.size(); ++j) {
      if (j == i) continue;
      if (!events[i].tx.overlaps_in_time(events[j].tx)) continue;
      if (overlap_ratio(events[j].tx.channel, events[i].tx.channel) <
          kDetectOverlapThreshold) {
        continue;
      }
      EXPECT_TRUE(survives_interference(
          events[i].tx.params.sf, events[i].rx_power,
          events[j].tx.params.sf, events[j].rx_power))
          << "delivered packet " << i << " should have collided with " << j;
    }
  }
}

TEST(GatewayRadio, AdjacentBucketInterfererIsScanned) {
  // The interferer scan buckets events by coarse frequency
  // (kChannelSpacing) and only walks the wanted packet's own bucket plus
  // its two neighbours. A misaligned interferer whose center falls in the
  // *adjacent* bucket but whose band still grazes the wanted channel must
  // be found there: its filter-truncated energy degrades SNR.
  Transmission wanted = make_tx(1, 0, SpreadingFactor::kSF8, Seconds{0.0});
  Transmission intf = make_tx(2, 0, SpreadingFactor::kSF8, Seconds{0.0}, 1);
  // +120 kHz crosses the 200 kHz bucket boundary (grid centers sit
  // mid-bucket, 100 kHz below it) while 5 kHz of band still overlaps.
  intf.channel.center += Hz{120e3};
  const auto bucket = [](Hz center) {
    return static_cast<std::int64_t>(center / kChannelSpacing);
  };
  ASSERT_NE(bucket(wanted.channel.center), bucket(intf.channel.center));
  ASSERT_GT(overlap_ratio(intf.channel, wanted.channel), 0.0);

  // Control: alone, the wanted packet is received.
  auto alone = make_radio();
  EXPECT_EQ(alone.process({RxEvent{wanted, Dbm{-100.0}}})[0].disposition,
            RxDisposition::kDelivered);

  // With the strong cross-bucket interferer, residual in-band energy
  // swamps the SNR. The interferer itself is front-end rejected — its RF
  // energy interferes anyway.
  auto radio = make_radio();
  const auto outcomes =
      radio.process({RxEvent{wanted, Dbm{-100.0}}, RxEvent{intf, Dbm{-30.0}}});
  EXPECT_EQ(outcomes[1].disposition, RxDisposition::kRejectedFrontEnd);
  EXPECT_EQ(outcomes[0].disposition, RxDisposition::kDroppedLowSnr);
}

TEST(GatewayRadio, LookbackBoundaryInterfererEndingAtStartIsHarmless) {
  // The scan's lower_bound starts at exactly ev.start - lookback, where
  // lookback is the bucket's longest airtime. An interferer sitting
  // precisely on that boundary ends exactly at ev.start: it must be
  // scanned (lower_bound includes the equal key) yet cause nothing —
  // airtime intervals are half-open, touching is not overlapping.
  Transmission wanted = make_tx(1, 0, SpreadingFactor::kSF9, Seconds{10.0});
  Transmission intf = make_tx(2, 0, SpreadingFactor::kSF9, Seconds{0.0});
  const Seconds duration = intf.end() - intf.start;
  intf.start = wanted.start - duration;  // intf.end() == wanted.start
  {
    auto radio = make_radio();
    const auto outcomes =
        radio.process({RxEvent{wanted, Dbm{-90.0}}, RxEvent{intf, Dbm{-60.0}}});
    EXPECT_EQ(outcomes[0].disposition, RxDisposition::kDelivered);
    EXPECT_EQ(outcomes[1].disposition, RxDisposition::kDelivered);
  }
  // One millisecond later the same interferer genuinely overlaps and its
  // 30 dB advantage destroys the wanted packet.
  intf.start = intf.start + Seconds{0.001};
  {
    auto radio = make_radio();
    const auto outcomes =
        radio.process({RxEvent{wanted, Dbm{-90.0}}, RxEvent{intf, Dbm{-60.0}}});
    EXPECT_EQ(outcomes[0].disposition, RxDisposition::kDroppedCollision);
    EXPECT_EQ(outcomes[1].disposition, RxDisposition::kDelivered);
  }
}

TEST(GatewayRadio, ForwardScanStopsAtEventsStartingAtWantedEnd) {
  // Mirror boundary: the forward scan breaks at the first event whose
  // start reaches ev.end. An interferer starting exactly there shares no
  // airtime; one starting a millisecond earlier collides.
  Transmission wanted = make_tx(1, 0, SpreadingFactor::kSF9, Seconds{0.0});
  Transmission intf = make_tx(2, 0, SpreadingFactor::kSF9, wanted.end());
  {
    auto radio = make_radio();
    const auto outcomes =
        radio.process({RxEvent{wanted, Dbm{-90.0}}, RxEvent{intf, Dbm{-60.0}}});
    EXPECT_EQ(outcomes[0].disposition, RxDisposition::kDelivered);
    EXPECT_EQ(outcomes[1].disposition, RxDisposition::kDelivered);
  }
  intf.start = wanted.end() - Seconds{0.001};
  {
    auto radio = make_radio();
    const auto outcomes =
        radio.process({RxEvent{wanted, Dbm{-90.0}}, RxEvent{intf, Dbm{-60.0}}});
    EXPECT_EQ(outcomes[0].disposition, RxDisposition::kDroppedCollision);
    EXPECT_EQ(outcomes[1].disposition, RxDisposition::kDelivered);
  }
}

TEST(GatewayRadio, DecoderFreedAfterPacketEnd) {
  // Sequential (non-overlapping) packets never contend, regardless of
  // count.
  auto radio = make_radio();
  std::vector<RxEvent> events;
  Seconds t{0.0};
  for (int i = 0; i < 40; ++i) {
    Transmission tx = make_tx(static_cast<PacketId>(i + 1), i % 8,
                              SpreadingFactor::kSF7, t);
    t = tx.end() + Seconds{0.001};
    events.push_back(RxEvent{tx, Dbm{-80.0}});
  }
  const auto outcomes = radio.process(events);
  EXPECT_EQ(count(outcomes, RxDisposition::kDelivered), 40u);
}

TEST(GatewayRadio, ConfigRejectsMixedBandwidthOverspan) {
  // The 500 kHz channel's low edge lies below the lowest-centre channel's:
  // the true span is 903.4625 - 901.85 = 1.6125 MHz > B_j = 1.6 MHz.
  GatewayRadio radio(profile_rak7268cv2(), 0, kPublicSyncWord);
  EXPECT_THROW(radio.configure_channels(
                   {Channel{Hz{902.0e6}, kLoRaBandwidth125k},
                    Channel{Hz{902.1e6}, kLoRaBandwidth500k},
                    Channel{Hz{903.4e6}, kLoRaBandwidth125k}}),
               std::invalid_argument);
}

// ---- Pipeline stages, driven through the radio -----------------------
// Each suite below is named after the receive stage it checks: the
// decoder pool (C_j decoders, claimed at lock-on and held to the packet's
// end), the preamble detector, FCFS dispatch and the Rx chains.

GatewayRadio radio_on(std::vector<Channel> channels, int decoders = 16) {
  GatewayProfile profile = default_profile();
  profile.decoders = decoders;
  GatewayRadio radio(profile, 0, sync_word_for_network(0));
  radio.configure_channels(std::move(channels));
  return radio;
}

GatewayRadio radio_with_decoders(int decoders) {
  std::vector<Channel> channels;
  for (int i = 0; i < 8; ++i) channels.push_back(kSpec.grid_channel(i));
  return radio_on(channels, decoders);
}

// Packet `id` on grid channel id % 8 whose preamble ends at `lock_on`.
RxEvent locking_on_at(PacketId id, Seconds lock_on,
                      SpreadingFactor sf = SpreadingFactor::kSF12,
                      NetworkId network = 0) {
  Transmission tx = make_tx(id, static_cast<int>(id % 8), sf, Seconds{0.0},
                            network);
  tx.start = lock_on - preamble_duration(tx.params);
  return RxEvent{tx, Dbm{-80.0}};
}

// Moves `later`'s start so that its lock-on instant equals `end` exactly.
void lock_on_exactly_at(Transmission& later, Seconds end) {
  const Seconds preamble = preamble_duration(later.params);
  double start = (end - preamble).value();
  for (int step = 0; step < 64 && Seconds{start} + preamble != end; ++step) {
    start = std::nextafter(start, Seconds{start} + preamble < end
                                      ? std::numeric_limits<double>::max()
                                      : -std::numeric_limits<double>::max());
  }
  later.start = Seconds{start};
}

bool claimed(const RxOutcome& out) {
  return consumed_decoder(out.disposition);
}

bool refused(const RxOutcome& out) {
  return out.disposition == RxDisposition::kDroppedDecoderBusy;
}

std::size_t claimed_count(const std::vector<RxOutcome>& outcomes) {
  return static_cast<std::size_t>(
      std::count_if(outcomes.begin(), outcomes.end(), claimed));
}

TEST(DecoderPool, ZeroCapacityThrows) {
  for (const int decoders : {0, -1}) {
    GatewayProfile profile = default_profile();
    profile.decoders = decoders;
    EXPECT_THROW(GatewayRadio(profile, 0, kPublicSyncWord),
                 std::invalid_argument)
        << decoders << " decoders";
  }
}

TEST(DecoderPool, AcquireUpToCapacity) {
  auto radio = radio_with_decoders(3);
  std::vector<RxEvent> events;
  for (PacketId id = 1; id <= 4; ++id) {
    events.push_back(locking_on_at(id, Seconds{0.001 * id}));
  }
  const auto outcomes = radio.process(events);
  EXPECT_EQ(claimed_count(outcomes), 3u);
  EXPECT_TRUE(refused(outcomes[3]));
}

TEST(DecoderPool, ReleaseFreesSlots) {
  // A holder whose end equals a later packet's lock-on frees its decoder
  // for that packet; a packet locking on before that end is refused.
  auto radio = radio_with_decoders(2);
  RxEvent short_one = locking_on_at(1, Seconds{0.0}, SpreadingFactor::kSF7);
  RxEvent long_one = locking_on_at(2, Seconds{0.001});
  RxEvent early = locking_on_at(3, short_one.tx.end() - Seconds{0.005},
                                SpreadingFactor::kSF7);
  RxEvent on_the_edge = locking_on_at(4, Seconds{0.0}, SpreadingFactor::kSF7);
  lock_on_exactly_at(on_the_edge.tx, short_one.tx.end());
  ASSERT_EQ(on_the_edge.tx.lock_on(), short_one.tx.end());
  ASSERT_LT(short_one.tx.end(), long_one.tx.end());
  const auto outcomes =
      radio.process({short_one, long_one, early, on_the_edge});
  EXPECT_TRUE(claimed(outcomes[0]));
  EXPECT_TRUE(claimed(outcomes[1]));
  EXPECT_TRUE(refused(outcomes[2]));
  EXPECT_TRUE(claimed(outcomes[3]));
}

TEST(DecoderPool, BusyNeverExceedsCapacity) {
  // 100 SF9 packets locking on 5 ms apart: about 19 would be on the air
  // at once, so the 16-decoder pool must refuse some and never hold more.
  auto radio = radio_with_decoders(16);
  std::vector<RxEvent> events;
  for (PacketId id = 1; id <= 100; ++id) {
    events.push_back(
        locking_on_at(id, Seconds{0.005 * id}, SpreadingFactor::kSF9));
  }
  const auto outcomes = radio.process(events);
  EXPECT_GT(count(outcomes, RxDisposition::kDroppedDecoderBusy), 0u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (!claimed(outcomes[i])) continue;
    const Seconds now = events[i].tx.lock_on();
    std::size_t held = 0;
    for (std::size_t j = 0; j < events.size(); ++j) {
      if (claimed(outcomes[j]) && events[j].tx.lock_on() <= now &&
          now < events[j].tx.end()) {
        ++held;
      }
    }
    ASSERT_LE(held, 16u) << "at packet " << i + 1;
  }
}

TEST(DecoderPool, ForeignOccupantDetection) {
  // Two holders, one per network: a refusal is inter-network contention
  // for a packet of either network.
  for (const NetworkId late_network : {NetworkId{0}, NetworkId{1}}) {
    auto radio = radio_with_decoders(2);
    const auto outcomes = radio.process(
        {locking_on_at(1, Seconds{0.0}, SpreadingFactor::kSF12, 0),
         locking_on_at(2, Seconds{0.001}, SpreadingFactor::kSF12, 1),
         locking_on_at(3, Seconds{0.002}, SpreadingFactor::kSF12,
                       late_network)});
    ASSERT_TRUE(refused(outcomes[2]));
    EXPECT_TRUE(outcomes[2].foreign_among_occupants) << late_network;
  }
  // Own-network holders only: foreign to a packet of the other network.
  auto radio = radio_with_decoders(2);
  const auto outcomes = radio.process(
      {locking_on_at(1, Seconds{0.0}), locking_on_at(2, Seconds{0.001}),
       locking_on_at(3, Seconds{0.002}, SpreadingFactor::kSF12, 1)});
  ASSERT_TRUE(refused(outcomes[2]));
  EXPECT_TRUE(outcomes[2].foreign_among_occupants);
}

TEST(DecoderPool, OccupantsListed) {
  // Packets below capacity all hold a decoder, none is refused.
  auto radio = radio_with_decoders(4);
  const auto outcomes = radio.process(
      {locking_on_at(11, Seconds{0.0}), locking_on_at(22, Seconds{0.001})});
  EXPECT_EQ(claimed_count(outcomes), 2u);
  EXPECT_EQ(count(outcomes, RxDisposition::kDroppedDecoderBusy), 0u);
}

TEST(DecoderPool, ResetClears) {
  // Back-to-back process() calls each start with the full pool: the
  // second window's packet locks on while the first's would still hold
  // the only decoder.
  auto radio = radio_with_decoders(1);
  const auto first = radio.process({locking_on_at(1, Seconds{0.0})});
  ASSERT_TRUE(claimed(first[0]));
  const auto second = radio.process({locking_on_at(2, Seconds{0.001})});
  EXPECT_TRUE(claimed(second[0]));
}

TEST(DecoderPool, InterleavedReleaseOrder) {
  // The later-claimed, shorter packet releases first.
  auto radio = radio_with_decoders(2);
  const RxEvent long_one = locking_on_at(1, Seconds{0.0});
  const RxEvent short_one =
      locking_on_at(2, Seconds{0.1}, SpreadingFactor::kSF7);
  const Seconds short_end = short_one.tx.end();
  const RxEvent refused_early =
      locking_on_at(3, short_end - Seconds{0.001}, SpreadingFactor::kSF7);
  const RxEvent takes_slot =
      locking_on_at(4, short_end + Seconds{0.001}, SpreadingFactor::kSF7);
  const RxEvent refused_late =
      locking_on_at(5, short_end + Seconds{0.002}, SpreadingFactor::kSF7);
  ASSERT_LT(refused_late.tx.lock_on(), long_one.tx.end());
  const auto outcomes = radio.process(
      {long_one, short_one, refused_early, takes_slot, refused_late});
  EXPECT_TRUE(claimed(outcomes[0]));
  EXPECT_TRUE(claimed(outcomes[1]));
  EXPECT_TRUE(refused(outcomes[2]));
  EXPECT_TRUE(claimed(outcomes[3]));
  EXPECT_TRUE(refused(outcomes[4]));
}

class PoolCapacitySweep : public ::testing::TestWithParam<int> {};

TEST_P(PoolCapacitySweep, ExactlyCapacityConcurrent) {
  // capacity + 10 overlapping packets, then as many again after all of
  // them ended: exactly `capacity` claim a decoder each time.
  const int capacity = GetParam();
  auto radio = radio_with_decoders(capacity);
  std::vector<RxEvent> events;
  const auto burst = static_cast<PacketId>(capacity + 10);
  for (PacketId id = 1; id <= burst; ++id) {
    events.push_back(locking_on_at(id, Seconds{0.001 * id}));
  }
  for (PacketId id = 1; id <= burst; ++id) {
    events.push_back(locking_on_at(burst + id, Seconds{10.0 + 0.001 * id}));
  }
  const auto outcomes = radio.process(events);
  const auto half = outcomes.begin() + static_cast<std::ptrdiff_t>(burst);
  EXPECT_EQ(std::count_if(outcomes.begin(), half, claimed), capacity);
  EXPECT_EQ(std::count_if(half, outcomes.end(), claimed), capacity);
}

INSTANTIATE_TEST_SUITE_P(Capacities, PoolCapacitySweep,
                         ::testing::Values(1, 2, 8, 16, 32, 64));

// One packet of spreading factor `sf` received at `snr` above the noise
// floor on a single-channel radio.
RxOutcome receive_at_snr(SpreadingFactor sf, Db snr) {
  auto radio = radio_on({kSpec.grid_channel(0)});
  const Transmission tx = make_tx(1, 0, sf, Seconds{2.5});
  const Dbm power = noise_floor_dbm(tx.channel.bandwidth) + snr;
  return radio.process({RxEvent{tx, power}})[0];
}

TEST(Detector, LocksOnAboveThreshold) {
  const Db threshold =
      demod_snr_threshold(SpreadingFactor::kSF9) + kDetectionMargin;
  const RxOutcome out =
      receive_at_snr(SpreadingFactor::kSF9, threshold + Db{0.1});
  EXPECT_EQ(out.disposition, RxDisposition::kDelivered);
  EXPECT_NEAR(out.snr.value(), (threshold + Db{0.1}).value(), 1e-9);
}

TEST(Detector, RejectsBelowThreshold) {
  const Db threshold =
      demod_snr_threshold(SpreadingFactor::kSF9) + kDetectionMargin;
  const RxOutcome out =
      receive_at_snr(SpreadingFactor::kSF9, threshold - Db{0.1});
  EXPECT_EQ(out.disposition, RxDisposition::kNotDetected);
  EXPECT_EQ(out.chain_channel, 0);
}

TEST(Detector, ThresholdAtExactBoundaryLocks) {
  // Received power whose SNR is exactly the detection threshold: it is
  // detected, and its SNR is the power above the bandwidth's noise floor.
  auto radio = radio_on({kSpec.grid_channel(0)});
  const SpreadingFactor sf = SpreadingFactor::kSF12;
  const Transmission tx = make_tx(1, 0, sf, Seconds{0.0});
  const Dbm floor = noise_floor_dbm(tx.channel.bandwidth);
  const Db threshold = demod_snr_threshold(sf) + kDetectionMargin;
  const Dbm power = floor + threshold;
  ASSERT_EQ(power - floor, threshold);
  const RxOutcome out = radio.process({RxEvent{tx, power}})[0];
  EXPECT_NE(out.disposition, RxDisposition::kNotDetected);
  EXPECT_EQ(out.snr, power - floor);
}

TEST(Detector, SlowerSpreadingFactorsLockDeeperInNoise) {
  // SF12 demodulates far below SF7's floor — the range/rate trade-off.
  EXPECT_LT(demod_snr_threshold(SpreadingFactor::kSF12),
            demod_snr_threshold(SpreadingFactor::kSF7));
  const Db deep = demod_snr_threshold(SpreadingFactor::kSF12) + Db{0.5};
  EXPECT_NE(receive_at_snr(SpreadingFactor::kSF12, deep).disposition,
            RxDisposition::kNotDetected);
  EXPECT_EQ(receive_at_snr(SpreadingFactor::kSF7, deep).disposition,
            RxDisposition::kNotDetected);
}

TEST(Detector, LockOnIsPreambleEndNotPacketStart) {
  // One decoder: an SF9 packet starts first, but an SF7 packet starting
  // later ends its short preamble first and takes the decoder.
  auto radio = radio_with_decoders(1);
  const RxEvent first_start = locking_on_at(1, Seconds{0.1},
                                            SpreadingFactor::kSF9);
  const RxEvent first_lock_on = locking_on_at(
      2, first_start.tx.lock_on() - Seconds{0.001}, SpreadingFactor::kSF7);
  ASSERT_LT(first_start.tx.start, first_lock_on.tx.start);
  ASSERT_LT(first_start.tx.lock_on(), first_lock_on.tx.end());
  const auto outcomes = radio.process({first_start, first_lock_on});
  EXPECT_TRUE(refused(outcomes[0]));
  EXPECT_TRUE(claimed(outcomes[1]));
}

TEST(Detector, HigherSfLocksLater) {
  // Same start: a longer preamble (higher SF) commits the decoder later.
  const Transmission fast = make_tx(1, 0, SpreadingFactor::kSF7, Seconds{2.5});
  const Transmission slow = make_tx(2, 0, SpreadingFactor::kSF12, Seconds{2.5});
  EXPECT_LT(fast.lock_on(), slow.lock_on());
}

TEST(Detector, PacketSnrIsRelativeToNoiseFloor) {
  for (const Hz bandwidth : {kLoRaBandwidth125k, kLoRaBandwidth500k}) {
    auto radio = radio_on({Channel{kSpec.grid_center(3), bandwidth}});
    Transmission tx = make_tx(1, 3, SpreadingFactor::kSF9, Seconds{0.0});
    tx.channel.bandwidth = bandwidth;
    const Dbm power = noise_floor_dbm(bandwidth) + Db{12.5};
    const RxOutcome out = radio.process({RxEvent{tx, power}})[0];
    EXPECT_EQ(out.snr, power - noise_floor_dbm(bandwidth));
    EXPECT_NEAR(out.snr.value(), 12.5, 1e-9);
  }
}

TEST(Dispatcher, SortsByLockOn) {
  // Events arrive out of lock-on order; the two earliest lock-ons take
  // the two decoders.
  auto radio = radio_with_decoders(2);
  const auto outcomes = radio.process({locking_on_at(10, Seconds{0.003}),
                                       locking_on_at(11, Seconds{0.001}),
                                       locking_on_at(12, Seconds{0.002})});
  EXPECT_TRUE(refused(outcomes[0]));
  EXPECT_TRUE(claimed(outcomes[1]));
  EXPECT_TRUE(claimed(outcomes[2]));
}

TEST(Dispatcher, TiesBrokenByPacketId) {
  // Equal lock-on instants dispatch by packet id: the lower id takes the
  // last free decoder, whatever the event order.
  auto radio = radio_with_decoders(2);
  const RxEvent holder = locking_on_at(3, Seconds{0.0});
  const RxEvent high = locking_on_at(20, Seconds{0.001});
  RxEvent low = locking_on_at(7, Seconds{0.0});
  low.tx.start = high.tx.start;
  ASSERT_EQ(low.tx.lock_on(), high.tx.lock_on());
  const auto outcomes = radio.process({holder, high, low});
  EXPECT_TRUE(claimed(outcomes[0]));
  EXPECT_TRUE(refused(outcomes[1]));
  EXPECT_TRUE(claimed(outcomes[2]));
}

TEST(Dispatcher, DispatchAcquires) {
  auto radio = radio_with_decoders(1);
  const auto outcomes = radio.process({locking_on_at(1, Seconds{0.0})});
  EXPECT_EQ(outcomes[0].disposition, RxDisposition::kDelivered);
}

TEST(Dispatcher, DispatchRefusalReportsForeignMix) {
  auto radio = radio_with_decoders(1);
  const auto outcomes = radio.process(
      {locking_on_at(1, Seconds{0.0}, SpreadingFactor::kSF12, /*network=*/1),
       locking_on_at(2, Seconds{0.1})});
  ASSERT_TRUE(refused(outcomes[1]));
  EXPECT_TRUE(outcomes[1].foreign_among_occupants);
}

TEST(Dispatcher, DispatchRefusalIntraOnly) {
  // Only own-network holders: the refusal is intra-network contention.
  auto radio = radio_with_decoders(1);
  const auto outcomes = radio.process(
      {locking_on_at(1, Seconds{0.0}), locking_on_at(2, Seconds{0.1})});
  ASSERT_TRUE(refused(outcomes[1]));
  EXPECT_FALSE(outcomes[1].foreign_among_occupants);
}

TEST(Dispatcher, ReleasesBeforeDispatch) {
  auto radio = radio_with_decoders(1);
  const RxEvent first = locking_on_at(1, Seconds{0.0}, SpreadingFactor::kSF7);
  const RxEvent later = locking_on_at(2, first.tx.end() + Seconds{0.001},
                                      SpreadingFactor::kSF7);
  const auto outcomes = radio.process({first, later});
  EXPECT_TRUE(claimed(outcomes[0]));
  EXPECT_TRUE(claimed(outcomes[1]));
}

Channel ch(Hz center) { return Channel{center, kLoRaBandwidth125k}; }

// The outcome of one strong packet on `channel` at a radio tuned to
// `chains`.
RxOutcome receive_on(const std::vector<Channel>& chains, Channel channel) {
  GatewayRadio radio(default_profile(), 0, kPublicSyncWord);
  if (!chains.empty()) radio.configure_channels(chains);
  Transmission tx = make_tx(1, 0, SpreadingFactor::kSF9, Seconds{0.0});
  tx.channel = channel;
  return radio.process({RxEvent{tx, Dbm{-80.0}}})[0];
}

TEST(RxChain, PassesAlignedChannel) {
  const RxOutcome out = receive_on({ch(Hz{917.0e6})}, ch(Hz{917.0e6}));
  EXPECT_EQ(out.disposition, RxDisposition::kDelivered);
  EXPECT_EQ(out.chain_channel, 0);
}

TEST(RxChain, PassesNearAlignedChannel) {
  // 3 kHz offset keeps ~97.6% overlap — above the detect threshold.
  const RxOutcome out = receive_on({ch(Hz{917.0e6})}, ch(Hz{917.0e6 + 3e3}));
  EXPECT_NE(out.disposition, RxDisposition::kRejectedFrontEnd);
  EXPECT_EQ(out.chain_channel, 0);
}

TEST(RxChain, RejectsMisalignedChannel) {
  // Half-channel offset: well below the 95% overlap needed to correlate.
  EXPECT_EQ(receive_on({ch(Hz{917.0e6})}, ch(Hz{917.0e6 + 62.5e3})).disposition,
            RxDisposition::kRejectedFrontEnd);
  // Fully disjoint grid neighbour.
  EXPECT_EQ(receive_on({ch(Hz{917.0e6})}, ch(Hz{917.2e6})).disposition,
            RxDisposition::kRejectedFrontEnd);
}

TEST(RxChain, BestChainFindsExactMatch) {
  const RxOutcome out = receive_on(
      {ch(Hz{916.9e6}), ch(Hz{917.1e6}), ch(Hz{917.3e6})}, ch(Hz{917.3e6}));
  EXPECT_EQ(out.disposition, RxDisposition::kDelivered);
  EXPECT_EQ(out.chain_channel, 2);
}

TEST(RxChain, BestChainPrefersClosestAlignment) {
  // The packet sits between two chains whose filters both pass it; the
  // better-aligned (later-listed) one takes it.
  const RxOutcome out = receive_on(
      {ch(Hz{917.0e6 + 4e3}), ch(Hz{917.0e6 - 1e3})}, ch(Hz{917.0e6}));
  EXPECT_NE(out.disposition, RxDisposition::kRejectedFrontEnd);
  EXPECT_EQ(out.chain_channel, 1);
}

TEST(RxChain, BestChainTieGoesToLowerIndex) {
  // Two chains tuned to the same channel overlap the packet equally; the
  // first-listed one takes it.
  const RxOutcome out = receive_on({ch(Hz{917.0e6}), ch(Hz{917.0e6})},
                                   ch(Hz{917.0e6}));
  EXPECT_EQ(out.disposition, RxDisposition::kDelivered);
  EXPECT_EQ(out.chain_channel, 0);
}

TEST(RxChain, BestChainRejectsWhenNoFilterPasses) {
  // The Strategy-8 isolation path: every chain truncates the packet.
  const RxOutcome out =
      receive_on({ch(Hz{916.9e6}), ch(Hz{917.1e6})}, ch(Hz{917.0e6}));
  EXPECT_EQ(out.disposition, RxDisposition::kRejectedFrontEnd);
  EXPECT_EQ(out.chain_channel, -1);
}

TEST(RxChain, BestChainOnEmptyChainList) {
  // A radio with no channels configured rejects every packet.
  EXPECT_EQ(receive_on({}, ch(Hz{917.0e6})).disposition,
            RxDisposition::kRejectedFrontEnd);
}

// One 125 kHz chain at 917.0 MHz; each clause of readable_channels, and a
// channel that meets none of them.
TEST(GatewayRadio, ReadableChannelsFollowTheirThreeClauses) {
  GatewayRadio radio(default_profile(), 0, kPublicSyncWord);
  const Channel chain{Hz{917.0e6}, kLoRaBandwidth125k};
  radio.configure_channels({chain});
  const std::vector<Channel> window = {
      Channel{Hz{916.925e6}, kLoRaBandwidth125k},  // (1) partial overlap
      Channel{Hz{917.15e6}, kLoRaBandwidth500k},   // detected on the chain
      Channel{Hz{917.25e6}, kLoRaBandwidth125k},   // (2) inside the 500 kHz
      Channel{Hz{916.81e6}, kLoRaBandwidth125k},   // (3) bucket of (1)
      Channel{Hz{917.65e6}, kLoRaBandwidth125k},   // none
  };
  ASSERT_GE(overlap_ratio(window[1], chain), kDetectOverlapThreshold);
  for (const std::size_t w : {0, 3}) {
    ASSERT_LT(overlap_ratio(window[w], window[1]), kDetectOverlapThreshold);
  }
  ASSERT_EQ(overlap_ratio(window[2], chain), 0.0);
  ASSERT_EQ(overlap_ratio(window[3], chain), 0.0);
  std::vector<std::uint8_t> readable;
  radio.readable_channels(window, readable);
  ASSERT_EQ(readable.size(), window.size());
  for (std::size_t w = 0; w + 1 < window.size(); ++w) {
    EXPECT_NE(readable[w], 0) << w;
  }
  EXPECT_EQ(readable.back(), 0);
}

}  // namespace
}  // namespace alphawan
