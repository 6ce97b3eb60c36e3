// The fixed baseline table: scheme set and order, unknown-name errors,
// ALPHAWAN_BASELINE parsing, and the null-side convenience semantics of
// BaselineScheme (docs/baselines.md).
#include "baselines/registry.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

namespace alphawan {
namespace {

TEST(BaselineRegistry, BuiltinsRegisteredInLexicographicOrder) {
  const auto names = BaselineRegistry::instance().names();
  const std::vector<std::string> expected = {
      "alphawan", "cic",  "curvinglora", "lmac",     "random-cp",
      "saloha",   "ss5g", "standard",    "standard-no-adr"};
  EXPECT_EQ(names, expected);
  for (const auto& name : expected) {
    EXPECT_TRUE(BaselineRegistry::instance().contains(name)) << name;
  }
}

TEST(BaselineRegistry, MakeBuildsTheNamedScheme) {
  const auto& registry = BaselineRegistry::instance();
  for (const auto& name : registry.names()) {
    const BaselineScheme scheme = registry.make(name);
    EXPECT_EQ(scheme.name, name);
    // Every scheme has a MAC side; only the gateway-side collision
    // resolvers carry a capture policy.
    ASSERT_NE(scheme.mac, nullptr) << name;
    const bool capture_side =
        name == "cic" || name == "ss5g" || name == "curvinglora";
    EXPECT_EQ(scheme.capture != nullptr, capture_side) << name;
    if (scheme.capture) EXPECT_EQ(scheme.capture->name(), name);
  }
  // MAC-side policies report their registry name.
  EXPECT_EQ(registry.make("standard").mac->name(), "standard");
  EXPECT_EQ(registry.make("standard-no-adr").mac->name(), "standard-no-adr");
  EXPECT_EQ(registry.make("saloha").mac->name(), "saloha");
  EXPECT_EQ(registry.make("alphawan").mac->name(), "alphawan");
}

TEST(BaselineRegistry, UnknownNameThrowsListingRegisteredSchemes) {
  try {
    (void)BaselineRegistry::instance().make("no-such-scheme");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-scheme"), std::string::npos) << what;
    EXPECT_NE(what.find("saloha"), std::string::npos)
        << "error should list the registered schemes: " << what;
  }
}

TEST(BaselineRegistry, ParseBaselineListTrimsAndValidates) {
  const auto parsed = parse_baseline_list(" lmac , cic,\tsaloha ,");
  EXPECT_EQ(parsed,
            (std::vector<std::string>{"lmac", "cic", "saloha"}));
  EXPECT_TRUE(parse_baseline_list("").empty());
  EXPECT_TRUE(parse_baseline_list(" , ,").empty());
  EXPECT_THROW((void)parse_baseline_list("lmac,unknown-scheme"),
               std::invalid_argument);
}

TEST(BaselineRegistry, BaselinesFromEnvFallsBackAndOverrides) {
  // NOLINTBEGIN(concurrency-mt-unsafe) — single-threaded test process.
  const std::vector<std::string> fallback = {"standard"};
  unsetenv("ALPHAWAN_BASELINE");
  EXPECT_EQ(baselines_from_env(fallback), fallback);
  setenv("ALPHAWAN_BASELINE", "", /*overwrite=*/1);
  EXPECT_EQ(baselines_from_env(fallback), fallback);
  setenv("ALPHAWAN_BASELINE", "ss5g,curvinglora", 1);
  EXPECT_EQ(baselines_from_env(fallback),
            (std::vector<std::string>{"ss5g", "curvinglora"}));
  setenv("ALPHAWAN_BASELINE", "not-a-scheme", 1);
  EXPECT_THROW((void)baselines_from_env(fallback), std::invalid_argument);
  unsetenv("ALPHAWAN_BASELINE");
  // NOLINTEND(concurrency-mt-unsafe)
}

// A policy that overrides nothing inherits the documented defaults:
// configure is a no-op and shape_window is the identity.
TEST(NodeMacPolicy, BaseClassDefaultsAreIdentity) {
  struct Inert final : NodeMacPolicy {
    [[nodiscard]] std::string_view name() const override { return "inert"; }
  };
  const Inert policy;
  Deployment deployment{Region{Meters{100.0}, Meters{100.0}}, spectrum_1m6()};
  auto& network = deployment.add_network("op");
  Rng rng(1);
  policy.configure(deployment, network, rng);
  EXPECT_TRUE(network.nodes().empty());
  std::vector<Transmission> txs(2);
  txs[0].id = 4;
  txs[1].id = 5;
  const auto shaped = policy.shape_window(std::move(txs), rng);
  ASSERT_EQ(shaped.size(), 2u);
  EXPECT_EQ(shaped[0].id, 4u);
  EXPECT_EQ(shaped[1].id, 5u);
}

TEST(BaselineScheme, NullSidesAreNoOps) {
  BaselineScheme scheme{"empty", nullptr, nullptr};
  Deployment deployment{Region{Meters{100.0}, Meters{100.0}}, spectrum_1m6()};
  auto& network = deployment.add_network("op");
  Rng rng(1);
  scheme.configure(deployment, network, rng);  // must not crash
  std::vector<Transmission> txs(3);
  txs[0].id = 7;
  txs[1].id = 8;
  txs[2].id = 9;
  const auto shaped = scheme.shape_window(std::move(txs), rng);
  ASSERT_EQ(shaped.size(), 3u);
  EXPECT_EQ(shaped[0].id, 7u);
  EXPECT_EQ(shaped[2].id, 9u);
}

}  // namespace
}  // namespace alphawan
