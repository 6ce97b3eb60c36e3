// The receive pipeline's edge shapes, pinned at the exact seams where the
// batched restructuring could diverge from the per-event reference it
// replaced: counting-sort bucket seams, partial-overlap lookback at the
// first/last event of a bucket, batches of exactly 1 and exactly 65
// candidates, the >64-column candidate-mask fallback, and the all-pruned
// window (every batched kernel invoked on an empty batch). The expected
// dispositions and digests were recorded from the scalar reference
// pipeline while it still existed (it agreed with the batched one on every
// case). The sort-skipping cases (equal starts past the insertion-sort
// threshold, events out of start order, a dispatch key tied across two
// classes, a dispatch queue of all three bandwidths) were recorded by the
// receive path before it merged the dispatch order and skipped sorts of
// ordered starts. The Strategy-8 cases (a uniform bucket partially
// overlapping a chain, a mixed bucket of a grid channel and its 75 kHz
// neighbour, 250 and 500 kHz chains) were recorded by the receive path
// before it read overlaps and couplings from a per-window channel table.
// The property suite
// (tests/property/test_prop_kernels.cpp) covers random worlds; these are
// the deliberate corners.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/digest.hpp"
#include "common/rng.hpp"
#include "net/sync_word.hpp"
#include "radio/gateway_radio.hpp"
#include "sim/scenario.hpp"
#include "sim/traffic.hpp"

namespace alphawan {
namespace {

const Spectrum kSpec = spectrum_1m6();

// ---- radio-level pins on crafted windows ---------------------------------

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

Transmission make_tx(PacketId id, Channel channel, SpreadingFactor sf,
                     Seconds start, NetworkId network = 0) {
  Transmission tx;
  tx.id = id;
  tx.node = static_cast<NodeId>(id);
  tx.network = network;
  tx.sync_word = sync_word_for_network(network);
  tx.channel = channel;
  tx.params.sf = sf;
  tx.start = start;
  return tx;
}

// Order-sensitive FNV-1a over every outcome field (field by field, so
// struct padding never leaks in).
std::uint64_t outcome_digest(const std::vector<RxOutcome>& outcomes) {
  std::uint64_t h = kFnv1aOffset;
  for (const auto& o : outcomes) {
    h = fnv1a(&o.packet, sizeof o.packet, h);
    h = fnv1a(&o.node, sizeof o.node, h);
    h = fnv1a(&o.network, sizeof o.network, h);
    const auto disposition = static_cast<std::uint8_t>(o.disposition);
    h = fnv1a(&disposition, sizeof disposition, h);
    const auto flags = static_cast<std::uint8_t>(
        (o.foreign_among_occupants ? 1 : 0) | (o.foreign_interferer ? 2 : 0));
    h = fnv1a(&flags, sizeof flags, h);
    const double snr = o.snr.value();
    h = fnv1a(&snr, sizeof snr, h);
    const auto chain = static_cast<std::int32_t>(o.chain_channel);
    h = fnv1a(&chain, sizeof chain, h);
  }
  return h;
}

// One letter per event, in RxDisposition order: Delivered, decoded
// Foreign, decoder Busy, Collision, Low SNR, Not detected, front-end
// Rejected.
std::string disposition_letters(const std::vector<RxOutcome>& outcomes) {
  std::string letters;
  for (const auto& o : outcomes) {
    letters += "DFBCLNR"[static_cast<int>(o.disposition)];
  }
  return letters;
}

// Run a crafted window through a freshly configured radio (grid channels
// 0-7 unless given) and require the pinned dispositions and the pinned
// digest of every outcome field.
void expect_pinned(const std::vector<Transmission>& txs,
                   const std::vector<Dbm>& powers,
                   const std::string& dispositions, const char* digest,
                   GatewayRadio radio = make_radio()) {
  ASSERT_EQ(txs.size(), powers.size());
  std::vector<RxEvent> events;
  for (std::size_t i = 0; i < txs.size(); ++i) {
    events.push_back(RxEvent{txs[i], powers[i]});
  }
  const auto outcomes = radio.process(events);
  EXPECT_EQ(disposition_letters(outcomes), dispositions);
  EXPECT_EQ(digest_hex(outcome_digest(outcomes)), digest);
}

TEST(BatchPipeline, SingleCandidateWindow) {
  const auto tx = make_tx(1, kSpec.grid_channel(3), SpreadingFactor::kSF9,
                          Seconds{0.01});
  expect_pinned({tx}, {Dbm{-90.0}}, "D", "938408d15ec47703");
}

TEST(BatchPipeline, AllCandidatesBelowSensitivity) {
  // Every event filtered out before dispatch: the scan kernels all run on
  // empty decode sets.
  std::vector<Transmission> txs;
  std::vector<Dbm> powers;
  for (int i = 0; i < 6; ++i) {
    txs.push_back(make_tx(static_cast<PacketId>(i + 1),
                          kSpec.grid_channel(i % 8), SpreadingFactor::kSF7,
                          Seconds{0.002 * i}));
    powers.push_back(Dbm{-200.0});
  }
  expect_pinned(txs, powers, "NNNNNN", "423e1e4b3a52b814");
}

TEST(BatchPipeline, CountingSortBucketSeams) {
  // Events packed around adjacent coarse-frequency buckets: grid channels
  // 0 and 1 fill two adjacent buckets, and an off-grid channel midway
  // between them straddles the seam (partial overlap with both chains,
  // landing its bucket in mixed/non-uniform territory when it collides
  // with a grid event's bucket). The counting sort must keep each event
  // with its own bucket and the scans must not leak across the seam.
  const Channel ch0 = kSpec.grid_channel(0);
  const Channel ch1 = kSpec.grid_channel(1);
  const Channel seam{Hz{(ch0.center.value() + ch1.center.value()) / 2.0},
                     ch0.bandwidth};
  std::vector<Transmission> txs;
  std::vector<Dbm> powers;
  PacketId id = 1;
  // Same-channel colliders in bucket 0 (capture test territory).
  txs.push_back(make_tx(id++, ch0, SpreadingFactor::kSF8, Seconds{0.000}));
  powers.push_back(Dbm{-85.0});
  txs.push_back(make_tx(id++, ch0, SpreadingFactor::kSF8, Seconds{0.003}));
  powers.push_back(Dbm{-84.0});
  // A clean packet in bucket 1 that must NOT see bucket-0 interference.
  txs.push_back(make_tx(id++, ch1, SpreadingFactor::kSF8, Seconds{0.001}));
  powers.push_back(Dbm{-90.0});
  // Seam packets: partial overlap with both chains.
  txs.push_back(make_tx(id++, seam, SpreadingFactor::kSF8, Seconds{0.002}));
  powers.push_back(Dbm{-70.0});
  txs.push_back(make_tx(id++, seam, SpreadingFactor::kSF10, Seconds{0.004}));
  powers.push_back(Dbm{-75.0});
  // Cross-SF interferer in bucket 1.
  txs.push_back(make_tx(id++, ch1, SpreadingFactor::kSF12, Seconds{0.000}));
  powers.push_back(Dbm{-60.0});
  expect_pinned(txs, powers, "CCCRRD", "96b62e3bee735d3e");
}

TEST(BatchPipeline, PartialOverlapLookbackAtBucketEdges) {
  // A misaligned bucket (0 < rho < threshold against every chain) whose
  // first event is a long SF12 frame and whose last is a short SF7 frame:
  // the lookback window of the last decoded grid packet must reach back to
  // the bucket's first event, and the first grid packet must see the
  // bucket's later events only through the forward scan bound.
  const Channel ch2 = kSpec.grid_channel(2);
  const Channel offset{ch2.center + Hz{0.5 * ch2.bandwidth.value()},
                       ch2.bandwidth};
  std::vector<Transmission> txs;
  std::vector<Dbm> powers;
  PacketId id = 1;
  // Long, loud misaligned interferer opening its bucket.
  txs.push_back(make_tx(id++, offset, SpreadingFactor::kSF12, Seconds{0.0}));
  powers.push_back(Dbm{-55.0});
  // Grid packets decoded at the front and the tail of the window.
  txs.push_back(make_tx(id++, ch2, SpreadingFactor::kSF7, Seconds{0.005}));
  powers.push_back(Dbm{-100.0});
  txs.push_back(make_tx(id++, ch2, SpreadingFactor::kSF7, Seconds{0.9}));
  powers.push_back(Dbm{-100.0});
  // Short misaligned interferer closing its bucket, overlapping the tail
  // packet only.
  txs.push_back(make_tx(id++, offset, SpreadingFactor::kSF7, Seconds{0.91}));
  powers.push_back(Dbm{-58.0});
  expect_pinned(txs, powers, "RLLR", "eeff76c5e12c6b11");
}

TEST(BatchPipeline, UniformBucketOffAChainDecidesALowSnrDrop) {
  // A chain 90 kHz above grid channel 2, and interferers 75 kHz above the
  // chain: they sit alone in the next frequency bucket up, a uniform
  // bucket overlapping the chain by 40%. Three weak SF7 packets on the
  // chain: the first overlaps a loud same-SF interferer, whose leaked power
  // sinks it below the SNR threshold; the second a cross-SF one, whose
  // extra rejection lets it through; the third is alone.
  const Channel chain{kSpec.grid_center(2) + Hz{90e3}, kLoRaBandwidth125k};
  const Channel above{chain.center + Hz{75e3}, kLoRaBandwidth125k};
  GatewayRadio radio(default_profile(), 0, sync_word_for_network(0));
  radio.configure_channels(
      {kSpec.grid_channel(0), kSpec.grid_channel(1), chain});
  std::vector<Transmission> txs;
  std::vector<Dbm> powers;
  PacketId id = 1;
  txs.push_back(make_tx(id++, above, SpreadingFactor::kSF7, Seconds{0.00}));
  powers.push_back(Dbm{-90.0});
  txs.push_back(make_tx(id++, chain, SpreadingFactor::kSF7, Seconds{0.01}));
  powers.push_back(Dbm{-122.0});
  txs.push_back(make_tx(id++, above, SpreadingFactor::kSF9, Seconds{0.40}));
  powers.push_back(Dbm{-90.0});
  txs.push_back(make_tx(id++, chain, SpreadingFactor::kSF7, Seconds{0.45}));
  powers.push_back(Dbm{-122.0});
  txs.push_back(make_tx(id++, chain, SpreadingFactor::kSF7, Seconds{0.90}));
  powers.push_back(Dbm{-122.0});
  expect_pinned(txs, powers, "RLRDD", "c55237168e9b9fac", std::move(radio));
}

TEST(BatchPipeline, MixedBucketAlignedColliderAfterMisalignedContributor) {
  // Grid channel 2 and its neighbour 75 kHz up share one frequency bucket.
  // The first decoded packet meets a loud misaligned contributor and then
  // a stronger foreign packet on its own channel, which collides; the
  // second meets only a misaligned contributor, whose leaked power decides
  // its SNR; the third, on grid channel 3, sees neither.
  const Channel grid = kSpec.grid_channel(2);
  const Channel shifted{grid.center + Hz{75e3}, kLoRaBandwidth125k};
  std::vector<Transmission> txs;
  std::vector<Dbm> powers;
  PacketId id = 1;
  txs.push_back(
      make_tx(id++, shifted, SpreadingFactor::kSF8, Seconds{0.05}, 1));
  powers.push_back(Dbm{-80.0});
  txs.push_back(make_tx(id++, grid, SpreadingFactor::kSF8, Seconds{0.10}));
  powers.push_back(Dbm{-100.0});
  txs.push_back(make_tx(id++, grid, SpreadingFactor::kSF8, Seconds{0.12}, 1));
  powers.push_back(Dbm{-95.0});
  txs.push_back(make_tx(id++, shifted, SpreadingFactor::kSF8, Seconds{0.58}));
  powers.push_back(Dbm{-78.0});
  txs.push_back(make_tx(id++, grid, SpreadingFactor::kSF8, Seconds{0.60}));
  powers.push_back(Dbm{-118.0});
  txs.push_back(make_tx(id++, kSpec.grid_channel(3), SpreadingFactor::kSF8,
                        Seconds{0.61}));
  powers.push_back(Dbm{-118.0});
  expect_pinned(txs, powers, "RCCRLD", "d88954e9b5424593");
}

TEST(BatchPipeline, WideChainsAmongNarrowAndShiftedPackets) {
  // A 125 kHz chain, a 250 kHz chain and a 500 kHz chain, hearing packets
  // on each chain, 125 kHz packets inside the wide chains, 250 kHz packets
  // 75 kHz off the 250 kHz chain, and 125 kHz packets across the 500 kHz
  // chain's edges: detection on the best-overlapping chain, partial
  // overlaps of every bandwidth pair, and the noise floor of each
  // bandwidth.
  const Channel narrow = kSpec.grid_channel(0);
  const Channel mid{kSpec.grid_center(1), kLoRaBandwidth250k};
  const Channel wide{kSpec.grid_center(4) + kChannelSpacing / 2,
                     kLoRaBandwidth500k};
  GatewayRadio radio(default_profile(), 0, sync_word_for_network(0));
  radio.configure_channels({narrow, mid, wide});
  const std::vector<Channel> family = {
      narrow,
      mid,
      wide,
      kSpec.grid_channel(1),
      Channel{mid.center + Hz{75e3}, kLoRaBandwidth250k},
      kSpec.grid_channel(4),
      Channel{wide.low() + Hz{20e3}, kLoRaBandwidth125k},
      Channel{wide.high() - Hz{30e3}, kLoRaBandwidth125k},
      Channel{narrow.center + Hz{75e3}, kLoRaBandwidth125k}};
  Rng rng(0x5A5A5AULL);
  std::vector<Transmission> txs;
  std::vector<Dbm> powers;
  double start = 0.0;
  for (int i = 0; i < 60; ++i) {
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(family.size()) - 1));
    start += rng.uniform(0.0, 0.01);
    txs.push_back(make_tx(static_cast<PacketId>(i + 1), family[pick],
                          sf_from_index(static_cast<int>(rng.uniform_int(0, 5))),
                          Seconds{start},
                          static_cast<NetworkId>(rng.uniform_int(0, 1))));
    powers.push_back(Dbm{rng.uniform(-125.0, -75.0)});
  }
  // Later, a weak packet on the 250 kHz chain beside a 250 kHz interferer
  // 75 kHz off it: the leaked power sinks it over the 250 kHz noise floor,
  // and would not over the 125 kHz one.
  txs.push_back(make_tx(61, family[4], SpreadingFactor::kSF7, Seconds{5.0}));
  powers.push_back(Dbm{-108.0});
  txs.push_back(make_tx(62, mid, SpreadingFactor::kSF7, Seconds{5.01}));
  powers.push_back(Dbm{-121.0});
  expect_pinned(txs, powers,
                "CDRCRDRRCRCRDRRCFRRCCDCRRCCDNCFC"
                "RCRRCRRFFFDRRRRRCRFRRRRCRDCCRL",
                "8d305da8c5d93ab9", std::move(radio));
}

TEST(BatchPipeline, SixtyFiveCandidateWindow) {
  // One past the 64-wide mask fast path (and any 64-lane assumption a
  // batched kernel might silently bake in): 65 events across channels,
  // SFs, and start times, with enough power spread to exercise capture,
  // decoder contention, and sensitivity drops in one window.
  Rng rng(0x65656565ULL);
  std::vector<Transmission> txs;
  std::vector<Dbm> powers;
  for (int i = 0; i < 65; ++i) {
    const Channel ch = kSpec.grid_channel(i % 8);
    const auto sf = sf_from_index(i % kNumSpreadingFactors);
    txs.push_back(make_tx(static_cast<PacketId>(i + 1), ch, sf,
                          Seconds{rng.uniform(0.0, 0.2)}));
    powers.push_back(Dbm{rng.uniform(-130.0, -60.0)});
  }
  expect_pinned(txs, powers,
                "CCCCCBCCCCDBCCCDCCCCCCCCDCCBCCDCD"
                "DCBCCCBCCCCCDCDCCCCCCCCCBBBDCCCC",
                "50be90237b4a404a");
}

TEST(BatchPipeline, EqualStartsBeyondTheInsertionSortThreshold) {
  // Twenty events of two networks share one start on one channel: the
  // bucket's start sort meets ties in a run longer than libstdc++'s
  // 16-element insertion-sort threshold, where it may reorder equal starts,
  // and the fatal-interferer attribution follows that order. Strictly
  // later events on the next channel share the window, so the starts never
  // decrease but do not strictly increase.
  Rng rng(0x16161616ULL);
  std::vector<Transmission> txs;
  std::vector<Dbm> powers;
  PacketId id = 1;
  for (int i = 0; i < 20; ++i) {
    txs.push_back(make_tx(id++, kSpec.grid_channel(0), sf_from_index(i % 3),
                          Seconds{0.01}, static_cast<NetworkId>(i % 2)));
    powers.push_back(Dbm{rng.uniform(-120.0, -70.0)});
  }
  for (int i = 0; i < 6; ++i) {
    txs.push_back(make_tx(id++, kSpec.grid_channel(1), sf_from_index(i % 2),
                          Seconds{0.02 + 0.01 * i}));
    powers.push_back(Dbm{rng.uniform(-120.0, -70.0)});
  }
  expect_pinned(txs, powers, "CCCCCCCCCCCCDCCCCCCCCCCBCD", "2dd94ce2dc732775");
}

TEST(BatchPipeline, EventsOutOfStartOrder) {
  // Events arrive in no start order, as GatewayRadio::process allows: the
  // FCFS dispatch, the per-bucket start sorts and the decode visit order
  // all take their sorts. One transmission is heard twice, so a dispatch
  // key repeats.
  Rng rng(0x0DD0DDULL);
  std::vector<Transmission> txs;
  std::vector<Dbm> powers;
  for (int i = 0; i < 40; ++i) {
    txs.push_back(make_tx(static_cast<PacketId>(i + 1),
                          kSpec.grid_channel(static_cast<int>(rng.uniform_int(0, 3))),
                          sf_from_index(static_cast<int>(rng.uniform_int(0, 5))),
                          Seconds{rng.uniform(0.0, 0.3)},
                          static_cast<NetworkId>(rng.uniform_int(0, 1))));
    powers.push_back(Dbm{rng.uniform(-125.0, -70.0)});
  }
  txs.push_back(txs[7]);
  powers.push_back(powers[7]);
  expect_pinned(txs, powers,
                "CCCCCFCCCCCCCCCFCCCDCCCCFCFCCDCCCCCDCDCCC",
                "765f0d04e54bae9c");
}

TEST(BatchPipeline, DispatchKeyTiedAcrossClasses) {
  // One packet id heard as SF7 at 125 kHz and as SF8 at 250 kHz from one
  // start: the two share a symbol time, so their dispatch keys tie, one in
  // each class's run, and dispatch must fall back to the sort. Fifteen
  // earlier packets take all but one decoder, so the dispatch order of
  // the tied pair decides which of them decodes.
  std::vector<Transmission> txs;
  std::vector<Dbm> powers;
  for (int i = 0; i < 15; ++i) {
    txs.push_back(make_tx(static_cast<PacketId>(i + 1),
                          kSpec.grid_channel(1 + i % 7), SpreadingFactor::kSF7,
                          Seconds{0.0}));
    powers.push_back(Dbm{-90.0});
  }
  Channel wide = kSpec.grid_channel(0);
  wide.bandwidth = kLoRaBandwidth250k;
  txs.push_back(make_tx(100, kSpec.grid_channel(0), SpreadingFactor::kSF7,
                        Seconds{0.01}));
  powers.push_back(Dbm{-90.0});
  txs.push_back(make_tx(100, wide, SpreadingFactor::kSF8, Seconds{0.01}));
  powers.push_back(Dbm{-90.0});
  expect_pinned(txs, powers, "CCCCCCCCCCCCCCCDB", "fb49f6c2dcc62ccc");
}

TEST(BatchPipeline, QueueMixesAllThreeBandwidths) {
  // Ascending starts over 125, 250 and 500 kHz packets of every SF: each
  // (SF, bandwidth) class shares one preamble, so its run of the dispatch
  // queue is in lock-on order while the runs interleave, and with 80
  // packets on four chains the dispatch order decides who finds a free
  // decoder.
  Rng rng(0xB0B0B0ULL);
  std::vector<Transmission> txs;
  std::vector<Dbm> powers;
  double start = 0.0;
  for (int i = 0; i < 80; ++i) {
    const int slot = static_cast<int>(rng.uniform_int(0, 3));
    Channel ch = kSpec.grid_channel(slot);
    switch (i % 3) {
      case 1:
        ch.bandwidth = kLoRaBandwidth250k;
        break;
      case 2:
        ch = Channel{ch.center + kChannelSpacing / 2, kLoRaBandwidth500k};
        break;
      default:
        break;
    }
    start += rng.uniform(0.0, 0.004);
    txs.push_back(make_tx(static_cast<PacketId>(i + 1), ch,
                          sf_from_index(static_cast<int>(rng.uniform_int(0, 5))),
                          Seconds{start}));
    powers.push_back(Dbm{rng.uniform(-125.0, -70.0)});
  }
  expect_pinned(txs, powers,
                "CCCCCCDCCCCDCCCBBCCCCCCCBBDBCBCBCBCCDCBCBCDCCCC"
                "NCBBCCDCBCBBBCCCCDCCCCBDCBCCBDDDB",
                "8849994659975159");
}

// ---- runner-level pins ---------------------------------------------------

struct RunnerOutcome {
  std::uint64_t digest = 0;
  std::size_t delivered = 0;
};

RunnerOutcome runner_digest(int gateways, int nodes, std::uint64_t seed,
                            Dbm tx_power = Dbm{14.0}) {
  Deployment deployment(Region{Meters{1000.0}, Meters{1000.0}},
                        spectrum_1m6(), ChannelModelConfig{});
  auto& network = deployment.add_network("op");
  Rng rng(seed);
  deployment.place_gateways(network, gateways, default_profile(), rng);
  deployment.place_nodes(network, nodes, rng);
  std::vector<EndNode*> nodes_ptr;
  for (auto& node : network.nodes()) {
    NodeRadioConfig cfg = node.config();
    cfg.tx_power = tx_power;
    node.apply_config(cfg);
    nodes_ptr.push_back(&node);
  }
  PacketIdSource ids;
  const auto txs = concurrent_burst(nodes_ptr, Seconds{0.0}, ids);
  ScenarioRunner runner(deployment, seed);
  const auto result = runner.run_window(txs);
  return RunnerOutcome{fate_digest(result.fates), result.total_delivered()};
}

TEST(BatchPipeline, MaskFallbackBeyond64GatewayColumns) {
  // 65 gateways in one shard slice give every candidate mask a second
  // word: the prepass must route a column of the second word exactly as
  // one of the first. ReplayEquivalence.MultiWordMasksMatchReplay checks
  // such a world fate for fate.
  const RunnerOutcome run = runner_digest(/*gateways=*/65, /*nodes=*/24,
                                          /*seed=*/42);
  EXPECT_EQ(digest_hex(run.digest), "eee024bac2a789e7");
  // The window must be live, or the pin proves little.
  EXPECT_EQ(run.delivered, 20u);
}

TEST(BatchPipeline, AllPrunedWindowMatchesScalar) {
  // Transmit powers so low every (tx, gateway) candidate is pruned before
  // the fading draw: the per-gateway batches are all empty.
  const RunnerOutcome run = runner_digest(/*gateways=*/3, /*nodes=*/12,
                                          /*seed=*/43, Dbm{-80.0});
  EXPECT_EQ(digest_hex(run.digest), "3dda7bd4e02304e5");
  // If anything was delivered, the window was not all-pruned and the test
  // is not exercising the empty-batch kernels.
  EXPECT_EQ(run.delivered, 0u);
}

}  // namespace
}  // namespace alphawan
