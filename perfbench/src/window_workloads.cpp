// The two data-plane workloads: one operation is one 30 s window of
// traffic turned into packet fates by ScenarioRunner::run_window, plus the
// MetricsCollector::record of every fate.
//
//   dense_window  Fig. 13's 12k-user point: 15 gateways hear almost every
//                 packet, so the radio receive pipeline dominates.
//   city_window   half of bench_city_1m's world: each packet reaches few
//                 gateways, so the runner's prepass and merge over a large
//                 resident link cache dominate.
#include <cstdio>
#include <functional>
#include <stdexcept>

#include "bench.hpp"
#include "check/digest.hpp"
#include "layer_metrics.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace alphawan;

namespace {

constexpr NodeId kFirstVirtualId = 1'000'000;

struct WindowSpec {
  const char* name;
  Meters width;
  Meters height;
  std::size_t gateways;
  std::size_t nodes;
  std::size_t users_per_node;
  // Per-user packet rate (packets per second) for a node.
  std::function<double(const EndNode&)> user_rate;
  BaselineTuning tuning;
  int threads;
  int shards;
  // prr and the per-layer counts cover exactly the first `fixed_windows`
  // timed windows, so they repeat exactly whatever the run length; the run
  // always times at least that many.
  std::size_t fixed_windows;
  int setups;  // set-ups per run; setup_s is their median
};

WindowSpec dense_spec() {
  WindowSpec spec;
  spec.name = "dense_window";
  spec.width = Meters{2100.0};
  spec.height = Meters{1600.0};
  spec.gateways = 15;
  spec.nodes = 144;
  spec.users_per_node = 83;  // 144 x 83 = 11,952 emulated users
  // Fig. 13: each user fills 0.5% of its data rate's airtime.
  spec.user_rate = [](const EndNode& node) {
    return 0.005 / time_on_air(node.tx_params(), kDefaultPayloadBytes).value();
  };
  // bench_fig13_scaled_ops' tuning: homogeneous plans, conservative ADR.
  spec.tuning.node_side.spread_gateways_across_plans = false;
  spec.tuning.node_side.adr.installation_margin = Db{10.0};
  spec.tuning.node_side.adr.min_tx_power = Dbm{8.0};
  spec.threads = 1;
  spec.shards = 1;
  spec.fixed_windows = 10;
  spec.setups = 5;
  return spec;
}

WindowSpec city_spec() {
  WindowSpec spec;
  spec.name = "city_window";
  spec.width = Meters{24000.0};
  spec.height = Meters{12000.0};
  spec.gateways = 64;
  spec.nodes = 50'000;
  spec.users_per_node = 10;  // 500k emulated users
  // Heartbeat load: 0.1 packets per user per window.
  spec.user_rate = [](const EndNode&) { return 0.1 / kWindow.value(); };
  spec.tuning.node_side.adr.installation_margin = Db{10.0};
  spec.tuning.node_side.adr.min_tx_power = Dbm{8.0};
  spec.threads = 2;
  spec.shards = 8;
  spec.fixed_windows = 4;
  spec.setups = 3;
  return spec;
}

struct WindowWorld {
  std::unique_ptr<Deployment> deployment;
  BaselineScheme scheme;
  std::vector<UserGroup> groups;
  std::unique_ptr<ScenarioRunner> runner;
};

std::unique_ptr<WindowWorld> build_world(const WindowSpec& spec,
                                         std::uint64_t seed, Tracer& tracer,
                                         std::uint64_t op,
                                         std::vector<double>& configure_ms) {
  auto world = std::make_unique<WindowWorld>();
  Network* network = nullptr;
  Rng rng(kWorldSeed);
  {
    const Tracer::Scope span(tracer, "sim.build_world", op);
    world->deployment = std::make_unique<Deployment>(
        Region{spec.width, spec.height}, spectrum_4m8(),
        urban_channel(kWorldSeed));
    network = &world->deployment->add_network("op");
    world->deployment->place_gateways(*network, spec.gateways,
                                      default_profile(), rng);
    world->deployment->place_nodes(*network, spec.nodes, rng);
  }
  {
    const auto start = Clock::now();
    const Tracer::Scope span(tracer, "baselines.configure", op);
    world->scheme = BaselineRegistry::instance().make("standard", spec.tuning);
    world->scheme.configure(*world->deployment, *network, rng);
    configure_ms.push_back(ms_since(start));
  }
  world->groups = user_groups(*network, spec.users_per_node, kFirstVirtualId);
  for (UserGroup& g : world->groups) g.rate = spec.user_rate(*g.node);

  RunOptions options;
  options.capture_policy = world->scheme.capture;
  options.threads = spec.threads;
  options.shards = spec.shards;
  world->runner =
      std::make_unique<ScenarioRunner>(*world->deployment, seed, options);
  {
    const Tracer::Scope span(tracer, "sim.preregister", op);
    preregister_links(*world->deployment, spec.shards,
                      world->runner->prune_margin(), world->groups);
  }
  return world;
}

Report run_windows(const WindowSpec& spec, const Args& args, Tracer& tracer) {
  Report report;
  MetricsCollector metrics;  // this window's fates only

  // ---- set-up: world, scheme, link cache, untimed warm-up window ----------
  std::vector<double> setup_s;
  std::vector<double> configure_ms;
  std::unique_ptr<WindowWorld> world;
  for (int k = 0; k < spec.setups; ++k) {
    world.reset();  // free the previous world before building the next
    const std::uint64_t op = kSetupOp + static_cast<std::uint64_t>(k);
    const auto start = Clock::now();
    const Tracer::Scope setup(tracer, "sim.setup", op, /*root=*/true);
    world = build_world(spec, args.seed, tracer, op, configure_ms);
    const auto txs = warmup_traffic(world->groups, args.seed);
    {
      const Tracer::Scope span(tracer, "sim.warmup_window", op);
      ++report.attempted;
      const WindowResult result =
          run_and_record(*world->runner, txs, metrics, tracer, op);
      const std::string err = check_conservation(txs.size(), result, metrics);
      if (!err.empty()) report.fail("warm-up window: " + err);
      report.digests["warm-up"] = fate_digest(result.fates);
    }
    clear_servers(*world->deployment);
    metrics.clear();
    setup_s.push_back(ms_since(start) / 1e3);
  }

  // ---- timed windows -------------------------------------------------------
  LayerSamples layers;
  std::vector<double> op_ms;
  std::size_t packets = 0;
  std::vector<double> probes;  // probe time before each window
  std::vector<double> op_per_probe;
  std::vector<double> items_per_probe;
  std::size_t fixed_offered = 0;
  std::size_t fixed_delivered = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  for (std::uint64_t w = 1;
       Clock::now() < deadline || w <= spec.fixed_windows; ++w) {
    const auto txs = window_traffic(world->groups, args.seed, w, kWindow);
    const bool fixed = w <= spec.fixed_windows;
    // The traced run records spans on every other window; the windows in
    // between measure what the tracer itself costs.
    const bool traced = tracer.enabled() && w % 2 == 1;
    tracer.set_recording(traced);
    ++report.attempted;
    try {
      const double probe = probe_ms();
      probes.push_back(probe);
      const auto start = Clock::now();
      WindowResult result;
      {
        const Tracer::Scope span(tracer, "sim.window_op", w, /*root=*/true);
        result = run_and_record(*world->runner, txs, metrics, tracer, w);
      }
      const double ms = ms_since(start);
      tracer.set_recording(tracer.enabled());
      op_ms.push_back(ms);
      layers.op_ms(traced, ms);
      packets += txs.size();
      op_per_probe.push_back(ms / probe);
      items_per_probe.push_back(static_cast<double>(txs.size()) * probe / ms);

      const std::string label = "window-" + std::to_string(w);
      report.digests[label] = fate_digest(result.fates);
      std::string err = check_conservation(txs.size(), result, metrics);
      if (fixed) {
        fixed_offered += metrics.total_offered();
        fixed_delivered += metrics.total_delivered();
      }
      if (tracer.enabled()) {
        const ReplayResult replay = replay_window(
            *world->deployment, *world->runner, spec.shards, txs, result,
            logged_uplinks(*world->deployment), tracer, w);
        err += replay.error;
        layers.window(tracer, w, traced, replay, fixed);
        if (w == spec.fixed_windows) {
          layers.shard_stats(world->runner->shard_stats(),
                             link_rows(*world->deployment, spec.shards));
        }
      }
      if (!err.empty()) report.fail(label + ": " + err);
    } catch (const std::exception& e) {
      tracer.set_recording(tracer.enabled());
      report.fail("window " + std::to_string(w) + ": " + e.what());
    }
    clear_servers(*world->deployment);
    metrics.clear();
  }

  const Summary ops = summarize(op_ms);
  std::fprintf(stderr,
               "%s: %zu windows, op p50 %.3f ms, max %.3f ms, tail p%.1f "
               "%.3f ms, probe p50 %.3f ms, %zu packets\n",
               spec.name, ops.count, ops.p50, ops.max, ops.tail_percentile,
               ops.tail_value, median(probes), packets);
  if (!tracer.enabled()) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("items_per_probe", median(items_per_probe), "1/probe");
    report.metric("op_per_probe", median(op_per_probe), "x");
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    report.metric("prr", static_cast<double>(fixed_delivered) /
                             static_cast<double>(fixed_offered),
                  "ratio");
  } else {
    layers.configure_ms(median(configure_ms));
    layers.emit(report, ops);
  }
  return report;
}

}  // namespace

Report run_dense_window(const Args& args, Tracer& tracer) {
  return run_windows(dense_spec(), args, tracer);
}

Report run_city_window(const Args& args, Tracer& tracer) {
  return run_windows(city_spec(), args, tracer);
}

}  // namespace perfbench
