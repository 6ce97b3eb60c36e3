#include "core/master.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

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
  master.handle_register(1);
  master.handle_register(2);
  const Hz second = *master.offset_of(2);
  master.handle_register(1);
  master.handle_register(3);
  EXPECT_DOUBLE_EQ(master.offset_of(1)->value(), 0.0);
  EXPECT_GT(second.value(), 0.0);
  EXPECT_EQ(*master.offset_of(2), second);
  // Re-registering operator 1 took no slot: the third gets the next one.
  EXPECT_GT(*master.offset_of(3), second);
}

TEST(Master, UnregisteredOperatorHasNoOffset) {
  MasterNode master(config_for(2));
  EXPECT_FALSE(master.offset_of(9).has_value());
}

TEST(Master, PlanRequestBeforeRegisterIsError) {
  MasterNode master(config_for(2));
  EXPECT_THROW(
      try {
        (void)master.handle_plan_request(5, 8);
      } catch (const std::invalid_argument& e) {
        // The message names the unregistered id.
        EXPECT_NE(std::string(e.what()).find("operator 5"), std::string::npos)
            << e.what();
        throw;
      },
      std::invalid_argument);
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
  master.handle_register(1);
  master.handle_register(2);
  const auto p1 = master.handle_plan_request(1, 8);
  const auto p2 = master.handle_plan_request(2, 8);
  ASSERT_FALSE(p1.channels.empty());
  ASSERT_FALSE(p2.channels.empty());
  // Worst-case pairwise overlap must match the advertised ratio.
  double worst = 0.0;
  for (const auto& a : p1.channels) {
    for (const auto& b : p2.channels) {
      worst = std::max(worst, overlap_ratio(a, b));
    }
  }
  EXPECT_NEAR(worst, p2.overlap_ratio, 0.02);
  // And crucially: below the front-end detection threshold, so the
  // networks are physically isolated (Strategy 8).
  EXPECT_LT(worst, kDetectOverlapThreshold);
}

TEST(Master, ChannelsStayInsideSpectrum) {
  MasterNode master(config_for(4, 0.2));
  for (NetworkId op = 1; op <= 4; ++op) {
    master.handle_register(op);
  }
  for (NetworkId op = 1; op <= 4; ++op) {
    const auto assign = master.handle_plan_request(op, 8);
    for (const auto& ch : assign.channels) {
      EXPECT_TRUE(master.config().spectrum.contains(ch));
    }
  }
}

// coexist_plan's second operator: shifted +75 kHz, the last of the 24 grid
// channels would poke out of the band, so the Master assigns one fewer
// than asked. (IntraPlanner::plan ignores this list today and plans on
// all 24 shifted channels; ROADMAP item 3.)
TEST(Master, ShiftedOperatorGetsOneChannelFewerThanFullGrid) {
  const Spectrum spec = spectrum_4m8();
  MasterNode master(MasterConfig{spec, 0.4, 2});
  master.handle_register(1);
  master.handle_register(2);
  ASSERT_EQ(master.offset_of(2)->value(), 75e3);
  const auto assign = master.handle_plan_request(2, spec.grid_size());
  EXPECT_EQ(spec.grid_size(), 24);
  EXPECT_EQ(assign.channels.size(), 23u);
  for (const auto& ch : assign.channels) EXPECT_TRUE(spec.contains(ch));
}

TEST(Master, BaseOffsetShiftsAllPlans) {
  MasterConfig cfg = config_for(2, 0.4);
  cfg.base_offset = Hz{37.5e3};
  MasterNode master(cfg);
  master.handle_register(1);
  master.handle_register(2);
  EXPECT_DOUBLE_EQ(master.offset_of(1)->value(), 37.5e3);
  EXPECT_DOUBLE_EQ(master.offset_of(2)->value(),
                   37.5e3 + master.plan_offset_step().value());
  // Assigned channels sit off the standard grid by at least base_offset.
  const auto assign = master.handle_plan_request(1, 8);
  const Spectrum spec{Hz{923.2e6}, Hz{1.6e6}};
  for (const auto& ch : assign.channels) {
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

}  // namespace
}  // namespace alphawan
