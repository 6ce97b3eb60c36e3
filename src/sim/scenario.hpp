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
// shards' prepass loops run in parallel. Shard count never changes results
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
  // Pluggable gateway-side capture policy (radio/capture_policy.hpp):
  // installed on every gateway each window; GatewayRadio::process_into
  // asks it about each collision drop, so recovered packets flow through
  // the normal uplink-forwarding path. nullptr = stock COTS pipeline. The
  // shared_ptr keeps registry-built schemes alive for the lifetime of the
  // options value.
  std::shared_ptr<const CapturePolicy> capture_policy;
  // Worker threads for the per-gateway fan-out: 0 = the ALPHAWAN_THREADS
  // process default, 1 = force serial.
  int threads = 0;
  // Spatial shards for the link-cache partition: 0 = the
  // ALPHAWAN_SHARDS process default, 1..kMaxShards explicit. Any count
  // produces bit-identical results (docs/sharding.md).
  int shards = 0;
};

// Telemetry from the last window's shard partition: how many transmitter
// rows the slices held, and how much of the window crossed a shard border
// (a boundary row is a transmitter audible in a stripe other than the one
// holding its origin; a boundary event is an event handed to the radio of
// a gateway in another stripe — candidates pruned before the radio, on
// power or on a channel it cannot read, are not counted).
struct ShardWindowStats {
  int shards = 1;
  std::size_t resident_rows = 0;   // rows materialized across all slices
  std::size_t boundary_rows = 0;   // audible (tx, shard) pairs away from home
  std::size_t boundary_events = 0; // radio events that crossed a border
};

// Everything one gateway produces from a window, computed independently of
// every other gateway and merged in deployment order afterwards. Lives in
// the runner's scratch so the buffers (outcome lists above all) keep their
// capacity across windows instead of being reallocated every window.
struct GatewayYield {
  std::vector<RxOutcome> outcomes;  // parallel to the gateway's event list
  std::vector<UplinkRecord> uplinks;
};

struct WindowResult {
  // Fate of every offered packet (across all networks).
  std::vector<PacketFate> fates;
  // Delivered unique packets per network in this window.
  std::map<NetworkId, std::size_t> delivered;
  std::map<NetworkId, std::size_t> offered;

  [[nodiscard]] std::size_t total_delivered() const;
  [[nodiscard]] std::size_t total_offered() const;
};

class ScenarioRunner {
 public:
  explicit ScenarioRunner(Deployment& deployment, std::uint64_t seed = 7,
                          RunOptions options = {});

  // The constructor and set_options throw std::invalid_argument, naming the
  // field, for a negative threads count or a shards count outside
  // [0, kMaxShards].
  void set_options(RunOptions options);
  [[nodiscard]] const RunOptions& options() const { return options_; }
  // Transmissions weaker than noise_floor - prune_margin() at a gateway are
  // dropped from that gateway's event list (they can neither be received
  // nor meaningfully interfere). A fixed 25 dB.
  [[nodiscard]] static Db prune_margin();
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
  // Routing state (rows, per-column candidate lists) lives per shard: each
  // shard's arenas reference only its own LinkCache slice and its own
  // gateways' radios, so the per-shard prepass loops can run concurrently
  // (docs/sharding.md).
  struct ShardScratch {
    std::vector<std::uint32_t> row_of_tx;  // tx index -> row in this slice
    // Window channel -> the slice's mask_words() words: bit c is set when
    // column c's gateway can read the channel (readable_channels).
    std::vector<std::uint64_t> readable_cols;
    // Column -> its candidate tx indices, ascending; its gateway's task
    // compacts the list in place into the gateway's event list.
    std::vector<std::vector<std::uint32_t>> col_txs;
    std::vector<std::uint8_t> readable;  // one radio's readable_channels
    std::size_t boundary_rows = 0;       // this shard's ShardWindowStats term
  };

  struct RunScratch {
    std::vector<std::uint32_t> tx_slot;  // tx index -> node slot
    std::vector<std::uint32_t> tx_home;  // tx index -> home shard
    std::vector<ShardScratch> shards;
    std::vector<std::uint32_t> task_col;    // task index -> column in slice
    std::vector<std::uint32_t> task_shard;  // task index -> home shard
    std::vector<GatewayId> task_ids;        // every task's gateway id, sorted
    std::vector<GatewayYield> yields;       // task index -> its yield
    // The window's shared transmission columns plus per-task fading /
    // power buffers consumed by the receive kernels (phy/batch_kernels.hpp).
    WindowTxTable table;
    std::vector<std::vector<double>> task_fade;
    std::vector<std::vector<Dbm>> task_power;
    // tx index -> its own-network outcomes, folded (fold_outcome).
    std::vector<std::uint8_t> own_fold;
    // Per-network uplink gather handed to NetworkServer::ingest.
    std::vector<UplinkRecord> uplinks;
    // Flat per-network classification counters (dense network index).
    std::vector<NetworkId> net_ids;
    std::vector<std::size_t> offered;
    std::vector<std::size_t> delivered;
  };

  Deployment& deployment_;
  Rng rng_;
  RunOptions options_;
  SimInvariants* invariants_ = nullptr;
  RunScratch scratch_;
  ShardWindowStats shard_stats_;
};

}  // namespace alphawan
