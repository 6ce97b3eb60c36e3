// ScenarioRunner: the glue that runs one window of traffic through every
// gateway of every coexisting network, feeds the network servers, and
// classifies packet fates. This is the top-level simulation API used by
// benches, examples, and AlphaWAN's measurement loop.
//
// Within a window, gateways are independent consumers of the shared
// transmission list, so run_window fans them out across the parallel
// executor (common/parallel.hpp) and merges per-gateway results in
// deployment order — bit-identical to the serial run (docs/parallelism.md).
//
// Each window takes one receive path: the runner builds the window's shared
// WindowTxTable once, and every gateway consumes it through an RxEventView
// (Gateway::receive_window -> GatewayRadio::process_into), with capture
// policies (RunOptions::capture_policy) as the one gateway-side extension
// point.
//
// The world is additionally partitioned into spatial shards (sim/shard.hpp):
// each shard owns a LinkCache slice and its own scratch arenas, and the
// shards' window yields — boundary events included — are published in
// ascending shard order. Shard count never changes results
// (docs/sharding.md); it bounds memory to the live audible links.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/topology.hpp"

namespace alphawan {

class SimInvariants;

// Seed-stable per-(gateway, packet) generator for fast-fading draws. The
// stream depends only on the runner's root seed and the two ids — never on
// iteration order — so engine refactors cannot reshuffle draws and a single
// packet's reception can be replayed in isolation (check/replay.hpp).
[[nodiscard]] Rng packet_link_rng(const Rng& root, GatewayId gateway,
                                  PacketId packet);

// Per-runner knobs, consolidated in one value so a runner is configured in
// a single statement instead of a pile of setters.
struct RunOptions {
  // Transmissions weaker than noise_floor - prune_margin at a gateway are
  // dropped from that gateway's event list (they can neither be received
  // nor meaningfully interfere).
  Db prune_margin{25.0};
  // Pluggable gateway-side capture resolution (radio/capture_policy.hpp):
  // installed on every gateway each window, invoked inside
  // GatewayRadio::process_into so rescued packets flow through the normal
  // uplink-forwarding path. nullptr = stock COTS pipeline, bit-identical
  // to the pre-policy engine. The shared_ptr keeps registry-built schemes
  // alive for the lifetime of the options value.
  std::shared_ptr<const CapturePolicy> capture_policy;
  // Worker threads for the per-gateway fan-out: 0 = the ALPHAWAN_THREADS
  // process default, 1 = force serial.
  int threads = 0;
  // Spatial shards for the link-cache partition: 0 = the
  // ALPHAWAN_SHARDS process default, >= 1 explicit. Any count produces
  // bit-identical results (docs/sharding.md).
  int shards = 0;
};

// Telemetry from the last window's shard partition: how many transmitter
// rows the slices held, and how much of the window crossed a shard border
// (a boundary row is a transmitter audible in a stripe other than the one
// holding its origin; a boundary event is a reception at such a gateway).
struct ShardWindowStats {
  int shards = 1;
  std::size_t resident_rows = 0;   // rows materialized across all slices
  std::size_t boundary_rows = 0;   // audible (tx, shard) pairs away from home
  std::size_t boundary_events = 0; // rx events that crossed a border
};

// Everything one gateway produces from a window, computed independently of
// every other gateway and merged in deployment order afterwards. Lives in
// the runner's scratch so the buffers (outcome lists above all) keep their
// capacity across windows instead of being reallocated every window.
struct GatewayYield {
  std::vector<RxOutcome> outcomes;
  std::vector<std::size_t> event_tx_index;
  std::vector<UplinkRecord> uplinks;
};

struct WindowResult {
  // Fate of every offered packet (across all networks).
  std::vector<PacketFate> fates;
  // Delivered unique packets per network in this window.
  std::map<NetworkId, std::size_t> delivered;
  std::map<NetworkId, std::size_t> offered;
  // Distinct nodes served per network.
  std::map<NetworkId, std::size_t> served_nodes;

  [[nodiscard]] std::size_t total_delivered() const;
  [[nodiscard]] std::size_t total_offered() const;
};

class ScenarioRunner {
 public:
  explicit ScenarioRunner(Deployment& deployment, std::uint64_t seed = 7,
                          RunOptions options = {});

  // The constructor and set_options throw std::invalid_argument, naming the
  // field, for a negative threads or shards count or a negative or
  // non-finite prune_margin.
  void set_options(RunOptions options);
  [[nodiscard]] const RunOptions& options() const { return options_; }
  [[nodiscard]] Db prune_margin() const { return options_.prune_margin; }
  [[nodiscard]] std::uint64_t seed() const { return rng_.root_seed(); }

  // Attach the correctness harness: after each window's parallel region,
  // every gateway's output is checked against FCFS decoder dispatch and the
  // window against packet conservation. Enabled automatically (fail-fast)
  // when ALPHAWAN_CHECK=1 is exported. Pass nullptr to detach. The checker
  // only reads outputs, so the window still runs at options().threads and
  // options().shards.
  void set_invariants(SimInvariants* invariants) { invariants_ = invariants; }
  [[nodiscard]] SimInvariants* invariants() const { return invariants_; }

  // Run one window. Transmissions may belong to any network in the
  // deployment; every gateway observes every transmission in range
  // (including foreign ones — that is the point of the paper).
  WindowResult run_window(const std::vector<Transmission>& txs);

  // Convenience: run a window and add each fate to `metrics`.
  WindowResult run_window(const std::vector<Transmission>& txs,
                          MetricsCollector& metrics);

  // Shard telemetry from the most recent run_window call.
  [[nodiscard]] const ShardWindowStats& shard_stats() const {
    return shard_stats_;
  }

 private:
  // Per-window working storage, reused across windows so a steady-state
  // window allocates nothing in the prepass or the classification pass
  // (docs/performance.md). Makes concurrent run_window calls on one runner
  // invalid — they already were (network servers are shared state).
  //
  // Routing state (rows, candidate masks, per-column tx lists) lives per
  // shard: each shard's arenas reference only its own LinkCache slice
  // (docs/sharding.md).
  struct ShardScratch {
    std::vector<std::uint32_t> row_of_tx;  // tx index -> row in this slice
    std::vector<std::uint64_t> tx_mask;    // tx index -> candidate columns
    std::vector<std::vector<std::uint32_t>> gw_txs;  // per-column tx lists
                                                     // (> 64-column path)
    std::vector<std::size_t> tasks;  // global task indices homed here
    bool use_mask = true;            // slice fits the 64-column mask path
  };

  struct RunScratch {
    std::vector<ShardScratch> shards;
    std::vector<std::uint32_t> task_col;    // task index -> column in slice
    std::vector<std::uint32_t> task_shard;  // task index -> home shard
    std::vector<std::uint32_t> task_slot;   // task index -> slot in shard
    // Per-shard staging slots for the window's yields, plus the publish
    // pointers the shard loop fills (global task index -> staged yield).
    // Pointer publication keeps the per-task buffers alive window to
    // window.
    std::vector<std::vector<GatewayYield>> staged;
    std::vector<const GatewayYield*> yield_ptr;
    // The window's shared transmission columns plus per-task candidate
    // index / fading / power buffers consumed by the receive kernels
    // (phy/batch_kernels.hpp).
    WindowTxTable table;
    std::vector<std::vector<std::uint32_t>> task_idx;
    std::vector<std::vector<double>> task_fade;
    std::vector<std::vector<Dbm>> task_power;
    // Flat per-packet own-network outcome gather (count / prefix / fill).
    std::vector<std::uint32_t> own_count;
    std::vector<std::uint32_t> own_offset;
    std::vector<RxOutcome> own_flat;
    // Per-network uplink gather handed to NetworkServer::ingest.
    std::vector<UplinkRecord> uplinks;
    // Flat per-network classification counters (dense network index).
    std::vector<NetworkId> net_ids;
    std::vector<std::size_t> offered;
    std::vector<std::size_t> delivered;
    std::vector<std::vector<NodeId>> served;
  };

  Deployment& deployment_;
  Rng rng_;
  RunOptions options_;
  SimInvariants* invariants_ = nullptr;
  RunScratch scratch_;
  ShardWindowStats shard_stats_;
};

}  // namespace alphawan
