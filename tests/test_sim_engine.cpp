#include "sim/engine.hpp"

#include <gtest/gtest.h>

namespace alphawan {
namespace {

TEST(EventQueue, OrdersByTime) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(Seconds{2.0}, [&] { order.push_back(2); });
  engine.schedule_at(Seconds{1.0}, [&] { order.push_back(1); });
  engine.schedule_at(Seconds{3.0}, [&] { order.push_back(3); });
  EXPECT_EQ(engine.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now().value(), 3.0);
}

TEST(EventQueue, FifoAmongTies) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.schedule_at(Seconds{1.0}, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(engine.run(), 5u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, StepOnEmptyEngineRunsNothing) {
  Engine engine;
  engine.schedule_at(Seconds{2.0}, [] {});
  engine.run();
  EXPECT_FALSE(engine.step());
  EXPECT_FALSE(engine.step(Seconds{10.0}));
  EXPECT_DOUBLE_EQ(engine.now().value(), 2.0);
}

TEST(Engine, AdvancesClock) {
  Engine engine;
  double seen = -1.0;
  engine.schedule_in(Seconds{5.0}, [&] { seen = engine.now().value(); });
  engine.run();
  EXPECT_DOUBLE_EQ(seen, 5.0);
  EXPECT_DOUBLE_EQ(engine.now().value(), 5.0);
}

TEST(Engine, NestedScheduling) {
  Engine engine;
  int fired = 0;
  engine.schedule_in(Seconds{1.0}, [&] {
    ++fired;
    engine.schedule_in(Seconds{1.0}, [&] { ++fired; });
  });
  EXPECT_EQ(engine.run(), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(engine.now().value(), 2.0);
}

TEST(Engine, HorizonStopsExecution) {
  Engine engine;
  int fired = 0;
  engine.schedule_in(Seconds{1.0}, [&] { ++fired; });
  engine.schedule_in(Seconds{10.0}, [&] { ++fired; });
  EXPECT_EQ(engine.run(Seconds{5.0}), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(engine.now().value(), 5.0);
  EXPECT_EQ(engine.run(), 1u);  // remaining event still runs later
  EXPECT_EQ(fired, 2);
}

TEST(Engine, NegativeDelayThrows) {
  Engine engine;
  EXPECT_THROW(engine.schedule_in(Seconds{-1.0}, [] {}), std::invalid_argument);
}

TEST(Engine, PastAbsoluteTimeThrows) {
  Engine engine;
  engine.schedule_in(Seconds{2.0}, [] {});
  engine.run();
  EXPECT_THROW(engine.schedule_at(Seconds{1.0}, [] {}), std::invalid_argument);
}

TEST(Engine, ResetRestoresInitialState) {
  Engine engine;
  engine.schedule_in(Seconds{1.0}, [] {});
  engine.run();
  engine.reset();
  EXPECT_DOUBLE_EQ(engine.now().value(), 0.0);
  EXPECT_EQ(engine.run(), 0u);
}

}  // namespace
}  // namespace alphawan
