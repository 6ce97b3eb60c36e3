#include "baselines/alphawan_policy.hpp"
#include "baselines/cic.hpp"
#include "baselines/curvinglora.hpp"
#include "baselines/lmac.hpp"
#include "baselines/random_cp.hpp"
#include "baselines/registry.hpp"
#include "baselines/saloha.hpp"
#include "baselines/ss5g.hpp"
#include "baselines/standard_lorawan.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "net/sync_word.hpp"
#include "radio/gateway_radio.hpp"
#include "sim/scenario.hpp"
#include "sim/traffic.hpp"

namespace alphawan {
namespace {

ChannelModelConfig quiet_channel() {
  // The paper's controlled capacity experiments use stable links (fixed
  // node placements, clear margins); heavy shadowing would conflate
  // decoder contention with RF capture losses.
  ChannelModelConfig cfg;
  cfg.shadowing_sigma_db = Db{0.3};
  cfg.fast_fading_sigma_db = Db{0.1};
  return cfg;
}

struct BaselineFixture {
  Deployment deployment{Region{Meters{1200.0}, Meters{1000.0}}, spectrum_1m6()};
  Network* network = nullptr;
  Rng rng{41};

  BaselineFixture() {
    network = &deployment.add_network("op");
    deployment.place_gateways(*network, 3, default_profile(), rng);
    deployment.place_nodes(*network, 30, rng);
  }
};

TEST(StandardLorawan, GatewaysHomogeneous) {
  BaselineFixture f;
  StandardLorawanPolicy().configure(f.deployment, *f.network, f.rng);
  const auto& gws = f.network->gateways();
  // 1.6 MHz holds a single standard plan: all identical.
  for (std::size_t i = 1; i < gws.size(); ++i) {
    EXPECT_EQ(gws[i].channels(), gws[0].channels());
  }
  EXPECT_EQ(gws[0].channels().size(), 8u);
}

TEST(StandardLorawan, AdrSkewsTowardsFastRates) {
  // Fig. 6d/6e: standard ADR pushes most users to high DRs.
  BaselineFixture f;
  StandardLorawanOptions options;
  options.use_adr = true;
  StandardLorawanPolicy(options).configure(f.deployment, *f.network, f.rng);
  int dr45 = 0;
  for (const auto& node : f.network->nodes()) {
    if (node.config().dr == DataRate::kDR5 ||
        node.config().dr == DataRate::kDR4) {
      ++dr45;
    }
  }
  EXPECT_GT(dr45, static_cast<int>(f.network->nodes().size()) / 2);
}

TEST(StandardLorawan, NoAdrStaysAtDr0) {
  BaselineFixture f;
  StandardLorawanOptions options;
  options.use_adr = false;
  StandardLorawanPolicy(options).configure(f.deployment, *f.network, f.rng);
  for (const auto& node : f.network->nodes()) {
    EXPECT_EQ(node.config().dr, DataRate::kDR0);
  }
}

TEST(RandomCp, ChannelsValidAndReduced) {
  BaselineFixture f;
  RandomCpPolicy().configure(f.deployment, *f.network, f.rng);
  for (const auto& gw : f.network->gateways()) {
    EXPECT_GE(gw.channels().size(), 2u);
    EXPECT_LE(gw.channels().size(), 4u);
    EXPECT_TRUE(valid_for_profile(GatewayChannelConfig{gw.channels()},
                                  gw.profile()));
    // Channels sit on the standard grid.
    for (const auto& ch : gw.channels()) {
      const int idx = f.deployment.spectrum().nearest_grid_index(ch.center);
      EXPECT_NEAR(ch.center.value(),
                  f.deployment.spectrum().grid_center(idx).value(), 1.0);
    }
  }
}

TEST(Lmac, EliminatesInRangeSameChannelOverlap) {
  BaselineFixture f;
  std::vector<EndNode*> nodes;
  // 6 nodes, all on the same channel and SF: guaranteed collisions
  // without carrier sensing.
  for (int i = 0; i < 6; ++i) {
    NodeRadioConfig cfg;
    cfg.channel = f.deployment.spectrum().grid_channel(0);
    cfg.dr = DataRate::kDR5;
    auto& node = f.network->add_node(f.deployment.next_node_id(),
                                     Point{Meters{500.0 + i * 10.0}, Meters{500.0}}, cfg);
    nodes.push_back(&node);
  }
  PacketIdSource ids;
  auto txs = concurrent_burst(nodes, Seconds{0.0}, ids);
  Rng rng(3);
  const auto scheduled = LmacPolicy().shape_window(txs, rng);
  ASSERT_EQ(scheduled.size(), 6u);
  // After CSMA, no two same-channel transmissions within sense range
  // overlap in time.
  for (std::size_t i = 0; i < scheduled.size(); ++i) {
    for (std::size_t j = i + 1; j < scheduled.size(); ++j) {
      EXPECT_FALSE(scheduled[i].overlaps_in_time(scheduled[j]))
          << i << " vs " << j;
    }
  }
}

TEST(Lmac, DifferentChannelsUntouched) {
  BaselineFixture f;
  std::vector<EndNode*> nodes;
  for (int i = 0; i < 4; ++i) {
    NodeRadioConfig cfg;
    cfg.channel = f.deployment.spectrum().grid_channel(i);
    cfg.dr = DataRate::kDR5;
    nodes.push_back(&f.network->add_node(f.deployment.next_node_id(),
                                         Point{Meters{500}, Meters{500}}, cfg));
  }
  PacketIdSource ids;
  auto txs = concurrent_burst(nodes, Seconds{0.0}, ids);
  Rng rng(5);
  const auto scheduled = LmacPolicy().shape_window(txs, rng);
  for (const auto& tx : scheduled) EXPECT_DOUBLE_EQ(tx.start.value(), 0.0);
}

TEST(Lmac, HiddenTerminalsStillCollide) {
  BaselineFixture f;
  std::vector<EndNode*> nodes;
  NodeRadioConfig cfg;
  cfg.channel = f.deployment.spectrum().grid_channel(0);
  cfg.dr = DataRate::kDR5;
  // Two nodes far apart (beyond the 1.5 km sense range).
  nodes.push_back(&f.network->add_node(f.deployment.next_node_id(),
                                       Point{Meters{0}, Meters{0}}, cfg));
  nodes.push_back(&f.network->add_node(f.deployment.next_node_id(),
                                       Point{Meters{1200}, Meters{990}}, cfg));
  PacketIdSource ids;
  auto txs = concurrent_burst(nodes, Seconds{0.0}, ids);
  Rng rng(7);
  const auto scheduled = LmacPolicy().shape_window(txs, rng);
  EXPECT_TRUE(scheduled[0].overlaps_in_time(scheduled[1]));
}

TEST(Lmac, DeferralBounded) {
  BaselineFixture f;
  std::vector<EndNode*> nodes;
  NodeRadioConfig cfg;
  cfg.channel = f.deployment.spectrum().grid_channel(0);
  cfg.dr = DataRate::kDR0;  // long airtime: deferrals add up
  for (int i = 0; i < 10; ++i) {
    nodes.push_back(&f.network->add_node(f.deployment.next_node_id(),
                                         Point{Meters{500}, Meters{500}}, cfg));
  }
  PacketIdSource ids;
  auto txs = concurrent_burst(nodes, Seconds{0.0}, ids);
  Rng rng(9);
  const auto scheduled = LmacPolicy().shape_window(txs, rng);
  // Ten ~1 s packets cannot all fit before LMAC's 5 s deferral bound: the
  // late ones give up waiting and transmit at the deadline.
  for (const auto& tx : scheduled) {
    EXPECT_LE(tx.start, Seconds{5.0});
  }
  EXPECT_EQ(scheduled.back().start, Seconds{5.0});
}

TEST(Cic, ResolvesSmallCollisions) {
  // Two same-SF same-channel packets collide on a stock gateway; a CIC
  // receiver recovers both.
  Deployment deployment{Region{Meters{600.0}, Meters{600.0}}, spectrum_1m6(), quiet_channel()};
  auto& network = deployment.add_network("op");
  auto& gw = network.add_gateway(1, deployment.region().center(),
                                 default_profile());
  gw.apply_channels(GatewayChannelConfig{
      standard_plan(deployment.spectrum(), 0).channels});
  NodeRadioConfig cfg;
  cfg.channel = deployment.spectrum().grid_channel(0);
  cfg.dr = DataRate::kDR3;
  auto& n1 = network.add_node(1, Point{Meters{300}, Meters{310}}, cfg);
  auto& n2 = network.add_node(2, Point{Meters{310}, Meters{300}}, cfg);

  PacketIdSource ids;
  ScenarioRunner runner(deployment);
  std::vector<Transmission> txs = {n1.make_transmission(Seconds{0.0}, 10, ids.next()),
                                   n2.make_transmission(Seconds{0.0}, 10, ids.next())};
  const auto stock = runner.run_window(txs);
  EXPECT_EQ(stock.total_delivered(), 0u);

  RunOptions cic_options;
  cic_options.capture_policy = std::make_shared<CicCapturePolicy>();
  ScenarioRunner cic_runner(deployment, 7, std::move(cic_options));
  txs = {n1.make_transmission(Seconds{10.0}, 10, ids.next()),
         n2.make_transmission(Seconds{10.0}, 10, ids.next())};
  const auto with_cic = cic_runner.run_window(txs);
  EXPECT_EQ(with_cic.total_delivered(), 2u);
}

TEST(Cic, BoundedResolvability) {
  // Five overlapping same-channel packets exceed kMaxResolvable = 3: CIC
  // leaves them collided.
  Deployment deployment{Region{Meters{600.0}, Meters{600.0}}, spectrum_1m6(), quiet_channel()};
  auto& network = deployment.add_network("op");
  auto& gw = network.add_gateway(1, deployment.region().center(),
                                 default_profile());
  gw.apply_channels(GatewayChannelConfig{
      standard_plan(deployment.spectrum(), 0).channels});
  NodeRadioConfig cfg;
  cfg.channel = deployment.spectrum().grid_channel(0);
  cfg.dr = DataRate::kDR3;
  std::vector<EndNode*> nodes;
  // Equidistant ring: no capture winner, a genuine 5-way collision.
  const Point ring[5] = {Point{Meters{330}, Meters{300}},
                         Point{Meters{309}, Meters{329}},
                         Point{Meters{276}, Meters{318}},
                         Point{Meters{276}, Meters{282}},
                         Point{Meters{309}, Meters{271}}};
  for (int i = 0; i < 5; ++i) {
    nodes.push_back(
        &network.add_node(static_cast<NodeId>(i + 1), ring[i], cfg));
  }
  PacketIdSource ids;
  RunOptions cic_options;
  cic_options.capture_policy = std::make_shared<CicCapturePolicy>();
  ScenarioRunner runner(deployment, 7, std::move(cic_options));
  const auto result = runner.run_window(concurrent_burst(nodes, Seconds{0.0}, ids));
  EXPECT_EQ(result.total_delivered(), 0u);
}

// Capture-policy worlds: one gateway radio and hand-built packets (SF7
// unless stated) at equal power, so every time-overlapping same-SF
// co-channel pair collides on the stock pipeline and any delivery is the
// policy's decision alone.
const Spectrum kCaptureSpectrum = spectrum_1m6();
const Seconds kSf7Symbol = symbol_duration(SpreadingFactor::kSF7,
                                           kLoRaBandwidth125k);

Transmission capture_tx(PacketId id, NodeId node, Seconds start,
                        SpreadingFactor sf = SpreadingFactor::kSF7,
                        Channel channel = kCaptureSpectrum.grid_channel(0)) {
  Transmission tx;
  tx.id = id;
  tx.node = node;
  tx.sync_word = sync_word_for_network(0);
  tx.channel = channel;
  tx.params.sf = sf;
  tx.start = start;
  return tx;
}

// Receive `events` on one gateway with `policy` installed (nullptr =
// stock); returns each packet's disposition.
std::vector<RxDisposition> capture_receive(
    const CapturePolicy* policy, const std::vector<RxEvent>& events,
    std::vector<Channel> chains = {kCaptureSpectrum.grid_channel(0)},
    int decoders = 16) {
  GatewayProfile profile = default_profile();
  profile.decoders = decoders;
  GatewayRadio radio(profile, 0, sync_word_for_network(0));
  radio.configure_channels(std::move(chains));
  radio.set_capture_policy(policy);
  std::vector<RxDisposition> out;
  for (const auto& o : radio.process(events)) out.push_back(o.disposition);
  return out;
}

// The same for `txs`, every packet received at -80 dBm.
std::vector<RxDisposition> capture_receive(
    const CapturePolicy* policy, const std::vector<Transmission>& txs,
    std::vector<Channel> chains = {kCaptureSpectrum.grid_channel(0)},
    int decoders = 16) {
  std::vector<RxEvent> events;
  for (const auto& tx : txs) events.push_back(RxEvent{tx, Dbm{-80.0}});
  return capture_receive(policy, events, std::move(chains), decoders);
}

constexpr RxDisposition kOk = RxDisposition::kDelivered;
constexpr RxDisposition kHit = RxDisposition::kDroppedCollision;

TEST(Cic, RecoversThreeWayButNotFourWayCollision) {
  // kMaxResolvable = 3: three packets (two overlappers each) are recovered,
  // four (three overlappers each) are not.
  const CicCapturePolicy cic;
  std::vector<Transmission> txs;
  for (int i = 0; i < 3; ++i) {
    txs.push_back(capture_tx(static_cast<PacketId>(i + 1),
                             static_cast<NodeId>(i + 1), kSf7Symbol * i));
  }
  EXPECT_EQ(capture_receive(nullptr, txs),
            std::vector<RxDisposition>(3, kHit));
  EXPECT_EQ(capture_receive(&cic, txs),
            std::vector<RxDisposition>(3, kOk));
  txs.push_back(capture_tx(4, 4, kSf7Symbol * 3));
  EXPECT_EQ(capture_receive(&cic, txs),
            std::vector<RxDisposition>(4, kHit));
}

TEST(Ss5g, RecoversSameSfPairOffsetByEnoughSymbols) {
  const Ss5gCapturePolicy ss5g;
  const std::vector<Transmission> txs = {
      capture_tx(1, 1, Seconds{0.0}), capture_tx(2, 2, kSf7Symbol * 3.5)};
  EXPECT_EQ(capture_receive(nullptr, txs),
            std::vector<RxDisposition>(2, kHit));
  EXPECT_EQ(capture_receive(&ss5g, txs),
            std::vector<RxDisposition>(2, kOk));
}

TEST(Ss5g, NearAlignedPairStaysCollided) {
  // Offset below kMinOffsetSymbols = 3: no whole symbols to slice at.
  const Ss5gCapturePolicy ss5g;
  const std::vector<Transmission> txs = {
      capture_tx(1, 1, Seconds{0.0}), capture_tx(2, 2, kSf7Symbol * 2.5)};
  EXPECT_EQ(capture_receive(&ss5g, txs),
            std::vector<RxDisposition>(2, kHit));
}

TEST(Ss5g, CrossSfOverlapperBlocksRecovery) {
  // A pair within the superposition bound and offset by whole symbols, so
  // only the SF rule can refuse: the same-SF interferer is sliced away, a
  // much stronger cross-SF one (which the stock receiver also loses the
  // SF7 packet to) is not.
  const Ss5gCapturePolicy ss5g;
  const std::vector<Transmission> txs = {capture_tx(1, 1, Seconds{0.0}),
                                         capture_tx(2, 2, kSf7Symbol * 4)};
  EXPECT_EQ(capture_receive(&ss5g, txs), std::vector<RxDisposition>(2, kOk));
  const std::vector<RxEvent> cross_sf = {
      RxEvent{txs[0], Dbm{-80.0}},
      RxEvent{capture_tx(2, 2, kSf7Symbol * 4, SpreadingFactor::kSF8),
              Dbm{-50.0}}};
  ASSERT_EQ(capture_receive(nullptr, cross_sf)[0], kHit);
  EXPECT_EQ(capture_receive(&ss5g, cross_sf)[0], kHit);
}

TEST(Ss5g, ThreeWaySuperpositionExceedsMaxSuperposed) {
  const Ss5gCapturePolicy ss5g;  // kMaxSuperposed = 2
  const std::vector<Transmission> txs = {capture_tx(1, 1, Seconds{0.0}),
                                         capture_tx(2, 2, kSf7Symbol * 4),
                                         capture_tx(3, 3, kSf7Symbol * 8)};
  EXPECT_EQ(capture_receive(&ss5g, txs),
            std::vector<RxDisposition>(3, kHit));
}

TEST(CurvingLora, RecoversSameSfPacketsOnDifferentCurvatures) {
  const CurvingLoraCapturePolicy curving;  // kCurvatureCount = 4
  const std::vector<Transmission> txs = {capture_tx(1, 1, Seconds{0.0}),
                                         capture_tx(2, 2, Seconds{0.0}),
                                         capture_tx(3, 3, kSf7Symbol)};
  EXPECT_EQ(capture_receive(nullptr, txs),
            std::vector<RxDisposition>(3, kHit));
  EXPECT_EQ(capture_receive(&curving, txs),
            std::vector<RxDisposition>(3, kOk));
}

TEST(CurvingLora, SameCurvatureStaysCollided) {
  // Nodes 1 and 5 are congruent mod kCurvatureCount = 4.
  const CurvingLoraCapturePolicy curving;
  ASSERT_EQ(curving.curvature_of(1), curving.curvature_of(5));
  const std::vector<Transmission> txs = {capture_tx(1, 1, Seconds{0.0}),
                                         capture_tx(2, 5, Seconds{0.0})};
  EXPECT_EQ(capture_receive(&curving, txs),
            std::vector<RxDisposition>(2, kHit));
}

TEST(CurvingLora, CrossSfOverlapperBlocksRecovery) {
  const CurvingLoraCapturePolicy curving;
  const std::vector<Transmission> txs = {
      capture_tx(1, 1, Seconds{0.0}), capture_tx(2, 2, Seconds{0.0}),
      capture_tx(3, 3, Seconds{0.0}, SpreadingFactor::kSF8)};
  const auto outcomes = capture_receive(&curving, txs);
  EXPECT_EQ(outcomes[0], kHit);
  EXPECT_EQ(outcomes[1], kHit);
}

TEST(CapturePolicies, CountOverlapperAcrossFrequencyBucketBoundary) {
  // Centres 2 kHz either side of a multiple of kChannelSpacing fall in
  // adjacent coarse buckets yet overlap by 121/125 >= 0.95: each packet is
  // the other's co-channel overlapper, so a same-curvature pair stays
  // collided.
  const Hz boundary = kChannelSpacing * 4617.0;
  const Channel below{boundary - Hz{2e3}, kLoRaBandwidth125k};
  const Channel above{boundary + Hz{2e3}, kLoRaBandwidth125k};
  ASSERT_GE(overlap_ratio(below, above), kDetectOverlapThreshold);
  const std::vector<Transmission> txs = {
      capture_tx(1, 1, Seconds{0.0}, SpreadingFactor::kSF7, below),
      capture_tx(2, 5, Seconds{0.0}, SpreadingFactor::kSF7, above)};
  EXPECT_EQ(capture_receive(nullptr, txs, {below}),
            std::vector<RxDisposition>(2, kHit));
  const CurvingLoraCapturePolicy curving;
  EXPECT_EQ(capture_receive(&curving, txs, {below}),
            std::vector<RxDisposition>(2, kHit));
}

TEST(CapturePolicies, NeverRecoverADecoderBusyDrop) {
  // One decoder: packet 1 holds it and collides with packet 2, which found
  // no free decoder. Every capture scheme rescues packet 1 (the pair is
  // resolvable for each) but packet 2 stays a decoder-contention drop.
  const std::vector<Transmission> txs = {capture_tx(1, 1, Seconds{0.0}),
                                         capture_tx(2, 2, kSf7Symbol * 4)};
  const std::vector<Channel> chains = {kCaptureSpectrum.grid_channel(0)};
  constexpr RxDisposition kBusy = RxDisposition::kDroppedDecoderBusy;
  EXPECT_EQ(capture_receive(nullptr, txs, chains, 1),
            (std::vector<RxDisposition>{kHit, kBusy}));
  int schemes = 0;
  for (const auto& name : BaselineRegistry::instance().names()) {
    const BaselineScheme scheme = BaselineRegistry::instance().make(name);
    if (!scheme.capture) continue;
    ++schemes;
    EXPECT_EQ(capture_receive(scheme.capture.get(), txs, chains, 1),
              (std::vector<RxDisposition>{kOk, kBusy}))
        << name;
  }
  EXPECT_EQ(schemes, 3);
}

// Constructing a scheme from bad options throws std::invalid_argument
// naming the field.
template <typename Make>
void expect_rejected(Make make, const std::string& field) {
  try {
    make();
    ADD_FAILURE() << "accepted a bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(StandardLorawan, RejectsMinTxPowerAboveMax) {
  StandardLorawanOptions options;
  options.adr.min_tx_power = Dbm{16.0};  // above the 14 dBm ADR ceiling
  expect_rejected([&] { StandardLorawanPolicy{options}; }, "min_tx_power");
}

TEST(StandardLorawan, RejectsNonFiniteInstallationMargin) {
  for (const double value : {kNan, kInf, -kInf}) {
    StandardLorawanOptions options;
    options.adr.installation_margin = Db{value};
    expect_rejected([&] { StandardLorawanPolicy{options}; },
                    "installation_margin");
  }
}

TEST(AlphaWanScheme, RejectsNegativeOrNonFiniteDemandPerNode) {
  for (const double value : {-0.001, kNan, kInf}) {
    AlphaWanBaselineOptions options;
    options.demand_per_node = value;
    expect_rejected([&] { AlphaWanPolicy{options}; }, "demand_per_node");
  }
}

TEST(AlphaWanScheme, RejectsBadGaConfigAtConstruction) {
  AlphaWanBaselineOptions options;
  options.controller.planner.ga.population = 0;
  expect_rejected([&] { AlphaWanPolicy{options}; }, "population");
}

}  // namespace
}  // namespace alphawan
