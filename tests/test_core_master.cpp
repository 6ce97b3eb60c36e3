#include "core/master.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "backhaul/faults.hpp"
#include "phy/overlap.hpp"

namespace alphawan {
namespace {

MasterConfig config_for(int networks, double overlap = 0.4) {
  MasterConfig cfg;
  cfg.spectrum = Spectrum{Hz{923.2e6}, Hz{1.6e6}};
  cfg.desired_overlap = overlap;
  cfg.expected_networks = networks;
  return cfg;
}

TEST(Master, RegistrationAssignsStableSlots) {
  MasterNode master(config_for(3));
  (void)master.handle_register({1, "a"});
  (void)master.handle_register({2, "b"});
  (void)master.handle_register({1, "a-again"});
  EXPECT_EQ(master.registered_operators(), 2u);
  EXPECT_DOUBLE_EQ(master.offset_of(1)->value(), 0.0);
  EXPECT_GT(master.offset_of(2)->value(), 0.0);
}

TEST(Master, UnregisteredOperatorHasNoOffset) {
  MasterNode master(config_for(2));
  EXPECT_FALSE(master.offset_of(9).has_value());
}

TEST(Master, PlanRequestBeforeRegisterIsError) {
  MasterNode master(config_for(2));
  const auto reply = master.handle_plan_request({5, Hz{923.2e6}, Hz{1.6e6}, 8});
  EXPECT_NE(std::get_if<ErrorMsg>(&reply), nullptr);
}

TEST(Master, DesiredOverlapSetsOffsetStep) {
  MasterNode master(config_for(2, /*overlap=*/0.4));
  // delta = (1 - 0.4) * 125 kHz = 75 kHz.
  EXPECT_NEAR(master.plan_offset_step().value(), 75e3, 1.0);
  EXPECT_NEAR(master.effective_overlap(), 0.4, 1e-9);
}

TEST(Master, CompressesStepWhenManyNetworks) {
  // 6 networks cannot fit at 40% overlap (capacity = 200/75 = 2 plans);
  // the Master compresses to spacing/6 and reports the higher overlap.
  MasterNode master(config_for(6, 0.4));
  EXPECT_NEAR(master.plan_offset_step().value(), kChannelSpacing.value() / 6.0,
              1.0);
  EXPECT_GT(master.effective_overlap(), 0.4);
  EXPECT_LT(master.effective_overlap(), 0.95);
}

TEST(Master, AssignedPlansAreMisaligned) {
  MasterNode master(config_for(2, 0.4));
  (void)master.handle_register({1, "a"});
  (void)master.handle_register({2, "b"});
  const auto r1 = master.handle_plan_request({1, Hz{923.2e6}, Hz{1.6e6}, 8});
  const auto r2 = master.handle_plan_request({2, Hz{923.2e6}, Hz{1.6e6}, 8});
  const auto* p1 = std::get_if<PlanAssignMsg>(&r1);
  const auto* p2 = std::get_if<PlanAssignMsg>(&r2);
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  ASSERT_FALSE(p1->channels.empty());
  ASSERT_FALSE(p2->channels.empty());
  // Worst-case pairwise overlap must match the advertised ratio.
  double worst = 0.0;
  for (const auto& a : p1->channels) {
    for (const auto& b : p2->channels) {
      worst = std::max(worst, overlap_ratio(a, b));
    }
  }
  EXPECT_NEAR(worst, p2->overlap_ratio, 0.02);
  // And crucially: below the front-end detection threshold, so the
  // networks are physically isolated (Strategy 8).
  EXPECT_LT(worst, kDetectOverlapThreshold);
}

TEST(Master, ChannelsStayInsideSpectrum) {
  MasterNode master(config_for(4, 0.2));
  for (NetworkId op = 1; op <= 4; ++op) {
    (void)master.handle_register({op, "op"});
  }
  for (NetworkId op = 1; op <= 4; ++op) {
    const auto reply = master.handle_plan_request({op, Hz{923.2e6}, Hz{1.6e6}, 8});
    const auto* assign = std::get_if<PlanAssignMsg>(&reply);
    ASSERT_NE(assign, nullptr);
    for (const auto& ch : assign->channels) {
      EXPECT_TRUE(master.config().spectrum.contains(ch));
    }
  }
}

TEST(Master, BaseOffsetShiftsAllPlans) {
  MasterConfig cfg = config_for(2, 0.4);
  cfg.base_offset = Hz{37.5e3};
  MasterNode master(cfg);
  (void)master.handle_register({1, "a"});
  (void)master.handle_register({2, "b"});
  EXPECT_DOUBLE_EQ(master.offset_of(1)->value(), 37.5e3);
  EXPECT_DOUBLE_EQ(master.offset_of(2)->value(),
                   37.5e3 + master.plan_offset_step().value());
  // Assigned channels sit off the standard grid by at least base_offset.
  const auto reply = master.handle_plan_request({1, Hz{923.2e6}, Hz{1.6e6}, 8});
  const auto* assign = std::get_if<PlanAssignMsg>(&reply);
  ASSERT_NE(assign, nullptr);
  const Spectrum spec{Hz{923.2e6}, Hz{1.6e6}};
  for (const auto& ch : assign->channels) {
    const int idx = spec.nearest_grid_index(ch.center);
    EXPECT_GT(abs(ch.center - spec.grid_center(idx)), Hz{30e3});
  }
}

// A bad config fails at construction, naming the field. Clamping would let
// NaN through: one network then gets a 0-channel plan, and several hit an
// undefined int conversion in plan_offset_step.
void expect_master_rejects(const MasterConfig& cfg, const std::string& field) {
  try {
    MasterNode master(cfg);
    ADD_FAILURE() << "accepted a bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(Master, RejectsOutOfRangeOrNonFiniteDesiredOverlap) {
  for (const double overlap :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(), -0.1, 0.96}) {
    for (const int networks : {1, 3}) {
      expect_master_rejects(config_for(networks, overlap), "desired_overlap");
    }
  }
  EXPECT_NO_THROW(MasterNode{config_for(2, 0.0)});
  EXPECT_NO_THROW(MasterNode{config_for(2, 0.95)});
}

TEST(Master, RejectsExpectedNetworksBelowOne) {
  for (const int networks : {0, -3}) {
    expect_master_rejects(config_for(networks), "expected_networks");
  }
  EXPECT_NO_THROW(MasterNode{config_for(1)});
}

TEST(MasterServiceTest, RoundTripOverBus) {
  Engine engine;
  LatencyModel latency{LatencyModelConfig{}, 5};
  MessageBus bus(engine, latency);
  MasterNode master(config_for(2));
  MasterService service(master, bus);

  std::optional<MasterMessage> reply;
  bus.attach("operator-1", [&](const EndpointId&,
                               std::vector<std::uint8_t> payload) {
    reply = decode_message(payload);
  });

  bus.send("operator-1", MasterService::endpoint(),
           encode_message(RegisterMsg{1, "op-1"}), /*wan=*/true);
  engine.run();
  ASSERT_TRUE(reply.has_value());
  EXPECT_NE(std::get_if<RegisterAckMsg>(&*reply), nullptr);
  // The exchange took two WAN legs (Fig. 17 component).
  EXPECT_GT(engine.now(), Seconds{0.05});
  EXPECT_LT(engine.now(), Seconds{0.3});

  reply.reset();
  bus.send("operator-1", MasterService::endpoint(),
           encode_message(PlanRequestMsg{1, Hz{923.2e6}, Hz{1.6e6}, 8}), true);
  engine.run();
  ASSERT_TRUE(reply.has_value());
  EXPECT_NE(std::get_if<PlanAssignMsg>(&*reply), nullptr);
  EXPECT_EQ(service.requests_served(), 2u);
}

TEST(Master, DuplicateRegistrationKeepsEpochStable) {
  MasterNode master(config_for(3));
  EXPECT_EQ(master.current_epoch(), 1u);
  (void)master.handle_register({1, "a"});
  const auto epoch_after_first = master.current_epoch();
  EXPECT_EQ(epoch_after_first, 2u);
  // A retried registration (lost ack) is idempotent: same slot, same epoch.
  const auto ack = master.handle_register({1, "a"});
  EXPECT_EQ(master.current_epoch(), epoch_after_first);
  EXPECT_EQ(ack.master_epoch, epoch_after_first);
  EXPECT_EQ(master.registered_operators(), 1u);
  // A NEW operator advances the epoch.
  (void)master.handle_register({2, "b"});
  EXPECT_EQ(master.current_epoch(), epoch_after_first + 1);
}

TEST(MasterServiceTest, DuplicateRegisterMsgCountedAndAnsweredIdempotently) {
  Engine engine;
  LatencyModel latency{LatencyModelConfig{}, 5};
  MessageBus bus(engine, latency);
  MasterNode master(config_for(2));
  MasterService service(master, bus);

  std::vector<RegisterAckMsg> acks;
  bus.attach("operator-1", [&](const EndpointId&,
                               std::vector<std::uint8_t> payload) {
    const auto reply = decode_message(payload);
    ASSERT_TRUE(reply.has_value());
    const auto* ack = std::get_if<RegisterAckMsg>(&*reply);
    ASSERT_NE(ack, nullptr);
    acks.push_back(*ack);
  });
  for (int i = 0; i < 3; ++i) {
    bus.send("operator-1", MasterService::endpoint(),
             encode_message(RegisterMsg{1, "op-1"}), /*wan=*/true);
  }
  engine.run();
  ASSERT_EQ(acks.size(), 3u);
  EXPECT_EQ(service.duplicate_registrations(), 2u);
  EXPECT_EQ(acks[0].master_epoch, acks[1].master_epoch);
  EXPECT_EQ(acks[1].master_epoch, acks[2].master_epoch);
  EXPECT_EQ(master.registered_operators(), 1u);
}

TEST(MasterServiceTest, PlanRequestFromUnregisteredOperatorGetsError) {
  Engine engine;
  LatencyModel latency{LatencyModelConfig{}, 5};
  MessageBus bus(engine, latency);
  MasterNode master(config_for(2));
  MasterService service(master, bus);

  std::optional<MasterMessage> reply;
  bus.attach("operator-9", [&](const EndpointId&,
                               std::vector<std::uint8_t> payload) {
    reply = decode_message(payload);
  });
  bus.send("operator-9", MasterService::endpoint(),
           encode_message(PlanRequestMsg{9, Hz{923.2e6}, Hz{1.6e6}, 8}), true);
  engine.run();
  ASSERT_TRUE(reply.has_value());
  const auto* error = std::get_if<ErrorMsg>(&*reply);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, 1);  // "operator not registered"
}

TEST(MasterServiceTest, MalformedMessageGetsError) {
  Engine engine;
  LatencyModel latency{LatencyModelConfig{}, 7};
  MessageBus bus(engine, latency);
  MasterNode master(config_for(2));
  MasterService service(master, bus);

  std::optional<MasterMessage> reply;
  bus.attach("rogue", [&](const EndpointId&, std::vector<std::uint8_t> p) {
    reply = decode_message(p);
  });
  bus.send("rogue", MasterService::endpoint(), {0xDE, 0xAD}, true);
  engine.run();
  ASSERT_TRUE(reply.has_value());
  EXPECT_NE(std::get_if<ErrorMsg>(&*reply), nullptr);
}

struct OperatorClientFixture : ::testing::Test {
  Engine engine;
  LatencyModel latency{LatencyModelConfig{}, 5};
  MessageBus bus{engine, latency};
  MasterNode master{config_for(2)};
  MasterService service{master, bus};
  Spectrum spectrum{Hz{923.2e6}, Hz{1.6e6}};
};

TEST_F(OperatorClientFixture, CleanBusConvergesToMasterPlan) {
  NetworkServer server(1);
  OperatorClient client(1, "op-1", bus, RetryPolicy{}, &server);
  client.sync(spectrum, 8);
  engine.run();
  EXPECT_TRUE(client.registered());
  ASSERT_TRUE(client.has_plan());
  EXPECT_TRUE(client.idle());
  EXPECT_EQ(client.plan_epoch(), master.current_epoch());
  EXPECT_EQ(client.plan().frequency_offset, *master.offset_of(1));
  EXPECT_EQ(client.stats().retries, 0u);
  // The accepted plan was adopted into the network server too.
  ASSERT_TRUE(server.has_plan());
  EXPECT_EQ(server.plan_epoch(), master.current_epoch());
  EXPECT_EQ(server.plan().channels, client.plan().channels);
}

TEST_F(OperatorClientFixture, StaleEpochPlanAssignIgnored) {
  OperatorClient client(1, "op-1", bus, RetryPolicy{});
  client.sync(spectrum, 8);
  engine.run();
  ASSERT_TRUE(client.has_plan());
  const auto good = client.plan();
  ASSERT_GT(good.master_epoch, 0u);

  // A delayed duplicate from an older epoch arrives after convergence: it
  // must be counted and discarded, keeping the last-known-good plan.
  PlanAssignMsg stale = good;
  stale.master_epoch = good.master_epoch - 1;
  stale.frequency_offset = Hz{999.0e3};
  bus.send("imposter", client.endpoint(), encode_message(stale), true);
  engine.run();
  EXPECT_EQ(client.stats().stale_plans_ignored, 1u);
  EXPECT_EQ(client.plan().frequency_offset, good.frequency_offset);
  EXPECT_EQ(client.plan_epoch(), good.master_epoch);
}

TEST_F(OperatorClientFixture, DuplicatePlanAssignIgnoredAfterConvergence) {
  OperatorClient client(1, "op-1", bus, RetryPolicy{});
  client.sync(spectrum, 8);
  engine.run();
  ASSERT_TRUE(client.has_plan());
  bus.send("imposter", client.endpoint(), encode_message(client.plan()), true);
  engine.run();
  EXPECT_EQ(client.stats().duplicates_ignored, 1u);
}

TEST_F(OperatorClientFixture, RetriesThroughLossyBusAndConverges) {
  FaultPlan plan;
  plan.seed = 99;
  plan.everywhere.drop_prob = 0.5;
  FaultInjector injector(bus, plan);
  OperatorClient client(1, "op-1", bus, RetryPolicy{});
  client.sync(spectrum, 8);
  engine.run();
  EXPECT_TRUE(client.registered());
  ASSERT_TRUE(client.has_plan());
  EXPECT_TRUE(client.idle());
  EXPECT_GT(client.stats().timeouts, 0u);  // the loss actually bit
  EXPECT_EQ(client.plan().frequency_offset, *master.offset_of(1));
}

TEST_F(OperatorClientFixture, BoundedAttemptsGiveUpKeepingLastKnownGood) {
  OperatorClient client(1, "op-1", bus, RetryPolicy{.max_attempts = 3});
  client.sync(spectrum, 8);
  engine.run();
  ASSERT_TRUE(client.has_plan());
  const auto good = client.plan();

  // The master goes dark; a refresh must give up after 3 attempts and
  // keep the previously accepted plan in force.
  bus.set_down(MasterService::endpoint(), true);
  client.refresh();
  engine.run();
  EXPECT_TRUE(client.idle());
  EXPECT_EQ(client.stats().gave_up, 1u);
  EXPECT_EQ(client.plan(), good);
}

}  // namespace
}  // namespace alphawan
