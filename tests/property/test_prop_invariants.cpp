// Property: for ANY random topology, channel plan, and traffic mix, the
// invariant checker stays clean and packet conservation holds exactly —
// checked at threads 8 x shards 8. Negative controls prove the output-level
// decoder check catches each contract violation it claims to.
#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "check/digest.hpp"
#include "proptest.hpp"

namespace alphawan {
namespace {

using prop::CaseParams;

// The checked properties run in the configuration people ship: the
// checker reads window outputs only, so it does not serialize the run.
const RunOptions kParallel{.threads = 8, .shards = 8};

std::optional<std::string> join_violations(const SimInvariants& inv) {
  if (inv.ok()) return std::nullopt;
  std::string joined;
  for (const auto& v : inv.violations()) {
    if (!joined.empty()) joined += "; ";
    joined += v;
  }
  return joined;
}

// Invariants + conservation on a random world.
std::optional<std::string> invariants_hold(const CaseParams& p) {
  auto world = prop::build_world(p);
  SimInvariants checker;
  ScenarioRunner runner(*world.deployment, p.seed ^ 0xBEEF, kParallel);
  runner.set_invariants(&checker);
  MetricsCollector metrics;
  const auto result = runner.run_window(world.txs, metrics);
  checker.check_metrics(metrics);
  if (result.total_offered() != world.txs.size()) {
    return "offered != generated transmissions";
  }
  if (auto recount = prop::collector_matches_window(metrics, result)) {
    return recount;
  }
  // Conservation down to exact counts.
  std::size_t losses = 0;
  for (const auto cause :
       {LossCause::kDecoderContentionIntra, LossCause::kDecoderContentionInter,
        LossCause::kChannelContentionIntra, LossCause::kChannelContentionInter,
        LossCause::kOther}) {
    losses += metrics.losses(cause);
  }
  if (metrics.total_offered() != metrics.total_delivered() + losses) {
    return "offered != delivered + sum(loss causes)";
  }
  return join_violations(checker);
}

// Bit-identical reruns: same params -> same fate digest.
std::optional<std::string> deterministic_digest(const CaseParams& p) {
  std::uint64_t digests[2] = {0, 0};
  for (auto& digest : digests) {
    auto world = prop::build_world(p);
    ScenarioRunner runner(*world.deployment, p.seed);
    digest = fate_digest(runner.run_window(world.txs).fates);
  }
  if (digests[0] != digests[1]) {
    return "same params produced different digests: " +
           digest_hex(digests[0]) + " vs " + digest_hex(digests[1]);
  }
  return std::nullopt;
}

const CaseParams kLo{1, 1, 1, 1, 1, false, 0};
const CaseParams kHi{3, 2, 28, 8, 16, false, 0};

TEST(PropertyInvariants, HoldOnRandomTopologies) {
  prop::check_property("invariants-hold", 120, 0xA11CE, kLo, kHi,
                       invariants_hold);
}

TEST(PropertyInvariants, RunsAreBitReproducible) {
  prop::check_property("deterministic-digest", 60, 0xD15E5, kLo, kHi,
                       deterministic_digest);
}

// ---- Output-level negative controls ----
//
// A fabricated gateway window, clean by construction, that exercises every
// branch of the replay: two decoders, packets 1 (net 0) and 2 (net 1) take
// them, packet 3 (net 0) is refused with a foreign holder present, and
// packet 4 arrives after both have ended and takes a freed decoder. Events
// are listed out of lock-on order, so the check must sort them itself. Each
// control injects exactly one defect and must draw exactly one violation.
struct FabricatedWindow {
  WindowTxTable table;
  std::vector<std::uint32_t> tx_index;
  std::vector<RxOutcome> outcomes;
  std::size_t decoders = 2;

  RxOutcome& outcome_of(PacketId packet) {
    for (auto& out : outcomes) {
      if (out.packet == packet) return out;
    }
    throw std::out_of_range("no outcome for packet");
  }
};

FabricatedWindow contended_window(PacketId last_id = 4) {
  const auto tx = [](PacketId id, NetworkId network, double start) {
    Transmission t;
    t.id = id;
    t.network = network;
    t.start = Seconds{start};
    return t;
  };
  const std::vector<Transmission> txs = {tx(1, 0, 0.000), tx(2, 1, 0.001),
                                         tx(3, 0, 0.002),
                                         tx(last_id, 0, 1.0)};
  FabricatedWindow w;
  w.table.build(txs);
  w.tx_index = {3, 0, 2, 1};
  for (const std::uint32_t t : w.tx_index) {
    RxOutcome out;
    out.packet = txs[t].id;
    out.network = txs[t].network;
    out.disposition = txs[t].network == 0 ? RxDisposition::kDelivered
                                          : RxDisposition::kDecodedForeign;
    w.outcomes.push_back(out);
  }
  auto& refused = w.outcome_of(3);
  refused.disposition = RxDisposition::kDroppedDecoderBusy;
  refused.foreign_among_occupants = true;
  return w;
}

std::vector<std::string> violations_of(const FabricatedWindow& w) {
  SimInvariants checker;
  checker.check_gateway_window(w.table, w.tx_index, w.outcomes, w.decoders);
  return checker.violations();
}

void expect_single_violation(const FabricatedWindow& w,
                             const std::string& needle) {
  const auto found = violations_of(w);
  ASSERT_EQ(found.size(), 1u) << (found.empty() ? "none" : found[0]);
  EXPECT_NE(found[0].find(needle), std::string::npos) << found[0];
}

TEST(PropertyInvariants, FabricatedContendedWindowIsClean) {
  EXPECT_TRUE(violations_of(contended_window()).empty());
}

TEST(PropertyInvariants, HoldersBeyondDecoderBudgetAreCaught) {
  auto w = contended_window();
  w.outcome_of(3).disposition = RxDisposition::kDroppedCollision;
  expect_single_violation(w, "packet 3 holds a decoder while all 2");
}

TEST(PropertyInvariants, BusyDropWithFreeDecoderIsCaught) {
  auto w = contended_window();
  w.outcome_of(4).disposition = RxDisposition::kDroppedDecoderBusy;
  expect_single_violation(w, "packet 4 was refused a decoder while only 0/2");
}

TEST(PropertyInvariants, WrongForeignOccupantFlagIsCaught) {
  auto w = contended_window();
  w.outcome_of(3).foreign_among_occupants = false;
  expect_single_violation(w, "foreign_among_occupants=false");
}

TEST(PropertyInvariants, DuplicatePacketIdIsCaught) {
  expect_single_violation(contended_window(/*last_id=*/1),
                          "duplicate packet id 1");
}

// A fail-fast checker throws at the first violation instead of collecting.
TEST(PropertyInvariants, FailFastThrowsImmediately) {
  auto w = contended_window();
  w.outcome_of(3).disposition = RxDisposition::kDroppedCollision;
  w.outcome_of(4).disposition = RxDisposition::kDroppedDecoderBusy;
  SimInvariants checker;
  checker.set_fail_fast(true);
  try {
    checker.check_gateway_window(w.table, w.tx_index, w.outcomes, w.decoders);
    FAIL() << "fail-fast checker did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("packet 3 holds a decoder"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(checker.violations().empty());
}

// The checker is passive: attaching it to a parallel, sharded run leaves
// the fates bit-identical, and the world is contended enough that the
// decoder replay has refusals to check.
TEST(PropertyInvariants, CheckerIsPassiveAtEightThreadsEightShards) {
  const CaseParams p{3, 2, 28, 8, 4, true, 0x5EED};
  std::uint64_t digests[2] = {0, 0};
  for (const bool attach : {false, true}) {
    auto world = prop::build_world(p);
    SimInvariants checker;
    ScenarioRunner runner(*world.deployment, p.seed, kParallel);
    if (attach) runner.set_invariants(&checker);
    const auto result = runner.run_window(world.txs);
    digests[attach ? 1 : 0] = fate_digest(result.fates);
    if (!attach) continue;
    EXPECT_TRUE(checker.ok()) << checker.violations().front();
    EXPECT_EQ(checker.windows_checked(), 1u);
    EXPECT_TRUE(std::any_of(result.fates.begin(), result.fates.end(),
                            [](const PacketFate& fate) {
                              return fate.cause ==
                                         LossCause::kDecoderContentionIntra ||
                                     fate.cause ==
                                         LossCause::kDecoderContentionInter;
                            }));
  }
  EXPECT_EQ(digests[0], digests[1]);
}

}  // namespace
}  // namespace alphawan
