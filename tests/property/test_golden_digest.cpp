// Golden run-digests for the canonical scenarios, plus replay round-trips.
// If a digest mismatch is intentional (a real behaviour change), follow
// docs/testing.md to re-bless tests/golden/digests.txt.
#include <fstream>
#include <map>
#include <sstream>

#include <gtest/gtest.h>

#include "check/canonical.hpp"
#include "check/replay.hpp"

namespace alphawan {
namespace {

std::map<std::string, std::string> load_golden_digests() {
  std::ifstream in(std::string(ALPHAWAN_GOLDEN_DIR) + "/digests.txt");
  EXPECT_TRUE(in.good()) << "missing tests/golden/digests.txt";
  std::map<std::string, std::string> golden;
  std::string name;
  std::string hex;
  while (in >> name >> hex) golden[name] = hex;
  return golden;
}

TEST(GoldenDigest, CanonicalScenariosMatchCheckedInDigests) {
  const auto golden = load_golden_digests();
  for (const auto& name : canonical_names()) {
    const auto it = golden.find(name);
    ASSERT_NE(it, golden.end()) << "no golden digest for " << name;
    EXPECT_EQ(digest_hex(canonical_digest(name)), it->second)
        << "behaviour change in canonical scenario '" << name
        << "' — if intentional, re-bless per docs/testing.md";
  }
}

TEST(GoldenDigest, DigestsAreStableAcrossConsecutiveRuns) {
  for (const auto& name : canonical_names()) {
    EXPECT_EQ(canonical_digest(name), canonical_digest(name)) << name;
  }
}

TEST(GoldenDigest, DigestIsOrderSensitive) {
  PacketFate a;
  a.packet = 1;
  PacketFate b;
  b.packet = 2;
  EXPECT_NE(fate_digest({a, b}), fate_digest({b, a}));
  EXPECT_NE(fate_digest({a}), fate_digest({a, a}));
}

// Replaying any packet of a canonical run must reproduce the fate the full
// run assigned — bit-for-bit, thanks to seed-keyed fading substreams.
TEST(GoldenDigest, ReplayReproducesEveryPacketFate) {
  for (const auto& name : canonical_names()) {
    CanonicalScenario scenario = make_canonical(name);
    ScenarioRunner runner(*scenario.deployment, scenario.seed);
    const auto result = runner.run_window(scenario.txs);
    for (const auto& fate : result.fates) {
      const ReplayReport report =
          replay_packet(*scenario.deployment, scenario.seed, scenario.txs,
                        fate.packet);
      ASSERT_TRUE(report.found) << name << " packet " << fate.packet;
      EXPECT_EQ(report.fate.delivered, fate.delivered)
          << name << " packet " << fate.packet;
      EXPECT_EQ(report.fate.cause, fate.cause)
          << name << " packet " << fate.packet << "\n"
          << report.to_string();
    }
  }
}

// The Strategy-8 scenario holds front-end rejects, so the replay check
// above covers the events the runner skips before the fading draw.
TEST(GoldenDigest, MisalignedPlansHoldFrontEndRejects) {
  CanonicalScenario scenario = make_canonical("misaligned-plans");
  std::size_t rejected = 0;
  for (const auto& tx : scenario.txs) {
    const ReplayReport report =
        replay_packet(*scenario.deployment, scenario.seed, scenario.txs, tx.id);
    for (const auto& obs : report.observations) {
      rejected += !obs.pruned &&
                  obs.disposition == RxDisposition::kRejectedFrontEnd;
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(GoldenDigest, ReplayReportsMissingPacket) {
  CanonicalScenario scenario = make_canonical("burst-1net");
  const ReplayReport report = replay_packet(
      *scenario.deployment, scenario.seed, scenario.txs, 999'999);
  EXPECT_FALSE(report.found);
  EXPECT_NE(report.to_string().find("not present"), std::string::npos);
}

}  // namespace
}  // namespace alphawan
