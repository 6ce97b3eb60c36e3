// The control-plane workload: two operators share the 4.8 MHz band in the
// Fig. 13 area. Set-up runs a warm-up window, then a status-quo measurement
// campaign into the servers' logs, and saves each network's configuration.
// One operation is one planning round for both operators: parse_links ->
// per_window_counts -> TrafficEstimator::estimate ->
// AlphaWanController::upgrade, with one shared MasterNode (Strategy 8) and
// the Fig. 17 GA budget. Every round
// first restores the saved configuration, so every round solves the same
// problem. After the last round, evaluation windows run both networks on
// their Master-misaligned plans; their delivery ratio is the workload's prr.
#include <cstdio>
#include <stdexcept>

#include "bench.hpp"
#include "check/digest.hpp"
#include "core/controller.hpp"
#include "core/traffic_estimator.hpp"
#include "layer_metrics.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace alphawan;

namespace {

constexpr std::size_t kOperators = 2;
constexpr std::size_t kGatewaysPerOperator = 6;
constexpr std::size_t kNodesPerOperator = 6000;
// Application load: each node reports once per window on average.
constexpr double kPacketsPerNodePerWindow = 1.0;
constexpr std::uint64_t kCampaignWindows = 3;
constexpr std::uint64_t kEvalWindows = 6;
constexpr int kSetups = 3;
// Window indices (traffic draws and span ids) of the evaluation windows.
constexpr std::uint64_t kEvalBase = 100;

AlphaWanConfig planner_config() {
  AlphaWanConfig cfg;
  cfg.strategy8_spectrum_sharing = true;
  // bench_fig17_latency's production-sized GA budget, pinned to one thread.
  cfg.planner.ga.population = 32;
  cfg.planner.ga.generations = 40;
  cfg.planner.ga.early_stop = false;
  cfg.planner.ga.threads = 1;
  return cfg;
}

struct CoexistWorld {
  std::unique_ptr<Deployment> deployment;
  std::vector<Network*> operators;
  std::vector<NetworkChannelConfig> saved;  // status-quo configurations
  std::vector<UserGroup> groups;
  std::unique_ptr<ScenarioRunner> runner;
  std::unique_ptr<MasterNode> master;
  std::size_t campaign_offered = 0;
  std::size_t campaign_delivered = 0;
};

// One window through the runner plus the collector, checked for
// conservation and recorded in the digest map.
WindowResult run_checked_window(CoexistWorld& world,
                                const std::vector<Transmission>& txs,
                                MetricsCollector& metrics, Tracer& tracer,
                                std::uint64_t op, const std::string& label,
                                Report& report) {
  WindowResult result =
      run_and_record(*world.runner, txs, metrics, tracer, op);
  const std::string err = check_conservation(txs.size(), result, metrics);
  if (!err.empty()) report.fail(label + ": " + err);
  report.digests[label] = fate_digest(result.fates);
  return result;
}

std::unique_ptr<CoexistWorld> build_world(std::uint64_t seed, Tracer& tracer,
                                          std::uint64_t op,
                                          std::vector<double>& configure_ms,
                                          Report& report) {
  auto world = std::make_unique<CoexistWorld>();
  Rng rng(kWorldSeed);
  {
    const Tracer::Scope span(tracer, "sim.build_world", op);
    world->deployment = std::make_unique<Deployment>(
        Region{Meters{2100.0}, Meters{1600.0}}, spectrum_4m8(),
        urban_channel(kWorldSeed));
    for (std::size_t i = 0; i < kOperators; ++i) {
      Network& net =
          world->deployment->add_network("op-" + std::to_string(i));
      world->deployment->place_gateways(net, kGatewaysPerOperator,
                                        default_profile(), rng);
      world->deployment->place_nodes(net, kNodesPerOperator, rng);
      world->operators.push_back(&net);
    }
  }
  {
    // Status quo: both operators run standard LoRaWAN on one homogeneous
    // plan, as commercial operators do (paper Sec. 3.2).
    const auto start = Clock::now();
    const Tracer::Scope span(tracer, "baselines.configure", op);
    BaselineTuning tuning;
    tuning.node_side.spread_gateways_across_plans = false;
    tuning.node_side.adr.installation_margin = Db{10.0};
    tuning.node_side.adr.min_tx_power = Dbm{8.0};
    const BaselineScheme scheme =
        BaselineRegistry::instance().make("standard", tuning);
    for (Network* net : world->operators) {
      scheme.configure(*world->deployment, *net, rng);
    }
    configure_ms.push_back(ms_since(start));
  }
  for (Network* net : world->operators) {
    for (UserGroup g : user_groups(*net, 0, 0)) {
      g.rate = kPacketsPerNodePerWindow / kWindow.value();
      world->groups.push_back(g);
    }
  }
  RunOptions options;
  options.threads = 1;
  options.shards = 1;
  world->runner =
      std::make_unique<ScenarioRunner>(*world->deployment, seed, options);
  {
    const Tracer::Scope span(tracer, "sim.preregister", op);
    preregister_links(*world->deployment, options.shards,
                      world->runner->prune_margin(), world->groups);
  }
  {
    // The campaign's logs start empty: the servers forget the warm-up.
    const Tracer::Scope span(tracer, "sim.warmup_window", op);
    MetricsCollector metrics;
    ++report.attempted;
    (void)run_checked_window(*world, warmup_traffic(world->groups, seed),
                             metrics, tracer, op, "warm-up", report);
    clear_servers(*world->deployment);
  }
  {
    // The measurement campaign: consecutive windows into the servers' logs.
    const Tracer::Scope span(tracer, "sim.campaign", op);
    MetricsCollector metrics;
    for (std::uint64_t w = 0; w < kCampaignWindows; ++w) {
      const auto txs =
          window_traffic(world->groups, seed, w, kWindow,
                         kWindow * static_cast<double>(w));
      ++report.attempted;
      (void)run_checked_window(*world, txs, metrics, tracer, op,
                               "campaign-" + std::to_string(w), report);
      world->campaign_offered += metrics.total_offered();
      world->campaign_delivered += metrics.total_delivered();
      metrics.clear();
    }
  }
  for (Network* net : world->operators) {
    world->saved.push_back(net->current_config());
  }
  world->master = std::make_unique<MasterNode>(
      MasterConfig{spectrum_4m8(), 0.4, static_cast<int>(kOperators)});
  return world;
}

// What one round hands to the replay and the checks.
struct RoundOutput {
  std::vector<LinkEstimates> links;
  std::vector<std::map<NodeId, double>> traffic;
  std::vector<UpgradeReport> reports;
};

RoundOutput planning_round(CoexistWorld& world, std::uint64_t seed,
                           Tracer& tracer, std::uint64_t op) {
  RoundOutput out;
  const Tracer::Scope round(tracer, "core.round", op, /*root=*/true);
  LatencyModel latency{LatencyModelConfig{}, seed};
  const TrafficEstimator estimator;
  const Spectrum& spectrum = world.deployment->spectrum();
  for (std::size_t i = 0; i < world.operators.size(); ++i) {
    Network& net = *world.operators[i];
    const auto& log = net.server().log();
    std::map<NodeId, std::vector<std::size_t>> series;
    {
      const Tracer::Scope span(tracer, "core.parse_logs", op);
      // The server knows the transmit powers of the configs it pushed.
      std::map<NodeId, Dbm> tx_power;
      for (const auto& [id, cfg] : world.saved[i].nodes) {
        tx_power.emplace(id, cfg.tx_power);
      }
      out.links.push_back(parse_links(log, tx_power));
      series = per_window_counts(log, kWindow, kCampaignWindows);
    }
    {
      const Tracer::Scope span(tracer, "core.estimate", op);
      out.traffic.push_back(estimator.estimate(series));
    }
    {
      const Tracer::Scope span(tracer, "core.upgrade", op);
      AlphaWanController controller(planner_config(), latency);
      out.reports.push_back(controller.upgrade(net, spectrum, out.links[i],
                                               out.traffic[i],
                                               world.master.get()));
    }
  }
  return out;
}

// CP-instance nodes of one operator: its nodes the logs ever heard.
std::size_t cp_nodes(const Network& net, const LinkEstimates& links) {
  std::size_t n = 0;
  for (const EndNode& node : net.nodes()) n += links.nodes.count(node.id());
  return n;
}

// Replay each operator's CP build and solve outside the round, checking it
// reproduces the round's objective.
RoundFigures replay_solve(CoexistWorld& world, const RoundOutput& round,
                          Tracer& tracer, std::uint64_t op,
                          std::string& error) {
  RoundFigures figures;
  const Tracer::Scope replay(tracer, "core.replay", op, /*root=*/true);
  const AlphaWanConfig cfg = planner_config();
  const IntraPlanner planner(cfg.planner);
  for (std::size_t i = 0; i < world.operators.size(); ++i) {
    CpInstance instance;
    {
      const Tracer::Scope span(tracer, "core.build_instance", op);
      instance = planner.build_instance(*world.operators[i],
                                        world.deployment->spectrum(),
                                        round.links[i], round.traffic[i]);
    }
    GaResult solved;
    {
      const Tracer::Scope span(tracer, "core.solve_cp", op);
      solved = solve_cp(instance, cfg.planner.ga);
    }
    if (solved.best_eval.objective != round.reports[i].eval.objective) {
      error += "replayed solve of operator " + std::to_string(i) +
               " gave objective " + std::to_string(solved.best_eval.objective) +
               ", the round " +
               std::to_string(round.reports[i].eval.objective) + "; ";
    }
    figures.cp_nodes += instance.nodes.size();
    figures.ga_evaluations += solved.evaluations;
    figures.objective += solved.best_eval.objective;
    const UpgradeReport& r = round.reports[i];
    figures.master_sim_s =
        std::max(figures.master_sim_s, r.master_communication.value());
    figures.push_sim_s =
        std::max(figures.push_sim_s, r.config_distribution.value());
    figures.reboot_sim_s =
        std::max(figures.reboot_sim_s, r.gateway_reboot.value());
  }
  return figures;
}

}  // namespace

Report run_coexist_plan(const Args& args, Tracer& tracer) {
  Report report;

  // ---- set-up: worlds, status-quo campaign, saved configurations ----------
  std::vector<double> setup_s;
  std::vector<double> configure_ms;
  std::unique_ptr<CoexistWorld> world;
  for (int k = 0; k < kSetups; ++k) {
    world.reset();
    const std::uint64_t op = kSetupOp + static_cast<std::uint64_t>(k);
    const auto start = Clock::now();
    {
      const Tracer::Scope setup(tracer, "sim.setup", op, /*root=*/true);
      world = build_world(args.seed, tracer, op, configure_ms, report);
    }
    setup_s.push_back(ms_since(start) / 1e3);
  }

  // ---- timed planning rounds ------------------------------------------------
  LayerSamples layers;
  std::vector<double> op_ms;
  std::size_t planned_nodes = 0;
  std::vector<double> probes;  // probe time before each round
  std::vector<double> op_per_probe;
  std::vector<double> items_per_probe;
  std::vector<double> first_objective;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  for (std::uint64_t r = 1; r == 1 || Clock::now() < deadline; ++r) {
    for (std::size_t i = 0; i < world->operators.size(); ++i) {
      world->operators[i]->apply_config(world->saved[i]);
    }
    const bool traced = tracer.enabled() && r % 2 == 1;
    tracer.set_recording(traced);
    ++report.attempted;
    const std::string label = "round " + std::to_string(r);
    try {
      const double probe = probe_ms();
      probes.push_back(probe);
      const auto start = Clock::now();
      const RoundOutput round = planning_round(*world, args.seed, tracer, r);
      const double ms = ms_since(start);
      tracer.set_recording(tracer.enabled());
      op_ms.push_back(ms);
      layers.op_ms(traced, ms);

      std::size_t round_nodes = 0;
      std::string err;
      for (std::size_t i = 0; i < round.reports.size(); ++i) {
        round_nodes += cp_nodes(*world->operators[i], round.links[i]);
        const double objective = round.reports[i].eval.objective;
        if (first_objective.size() <= i) first_objective.push_back(objective);
        if (objective != first_objective[i]) {
          err += "operator " + std::to_string(i) + " objective " +
                 std::to_string(objective) + " != round 1's " +
                 std::to_string(first_objective[i]) + "; ";
        }
      }
      planned_nodes += round_nodes;
      op_per_probe.push_back(ms / probe);
      items_per_probe.push_back(static_cast<double>(round_nodes) * probe / ms);
      if (tracer.enabled()) {
        const RoundFigures figures = replay_solve(*world, round, tracer, r, err);
        layers.round(tracer, r, traced, figures);
      }
      if (!err.empty()) report.fail(label + ": " + err);
    } catch (const std::exception& e) {
      tracer.set_recording(tracer.enabled());
      report.fail(label + ": " + e.what());
    }
  }

  // ---- evaluation windows on the planned, Master-misaligned configs --------
  std::size_t eval_offered = 0;
  std::size_t eval_delivered = 0;
  MetricsCollector metrics;
  for (std::uint64_t e = 0; e < kEvalWindows; ++e) {
    const std::uint64_t w = kEvalBase + e;
    const std::string label = "eval-" + std::to_string(e);
    ++report.attempted;
    try {
      const auto txs = window_traffic(
          world->groups, args.seed, w, kWindow,
          kWindow * static_cast<double>(kCampaignWindows + e));
      const std::size_t logged_before = logged_uplinks(*world->deployment);
      const WindowResult result = run_checked_window(
          *world, txs, metrics, tracer, w, label, report);
      eval_offered += metrics.total_offered();
      eval_delivered += metrics.total_delivered();
      if (tracer.enabled()) {
        // Only this window's records: the campaign's stay in the logs.
        const ReplayResult replay = replay_window(
            *world->deployment, *world->runner, 1, txs, result,
            logged_uplinks(*world->deployment) - logged_before, tracer, w);
        if (!replay.error.empty()) report.fail(label + ": " + replay.error);
        layers.window(tracer, w, /*traced=*/true, replay, /*fixed=*/true);
        layers.shard_stats(world->runner->shard_stats(),
                           link_rows(*world->deployment, 1));
      }
    } catch (const std::exception& ex) {
      report.fail(label + ": " + ex.what());
    }
    metrics.clear();
  }

  const Summary ops = summarize(op_ms);
  std::fprintf(stderr,
               "coexist_plan: %zu rounds, op p50 %.3f ms, max %.3f ms, "
               "probe p50 %.3f ms, %zu planned users\n",
               ops.count, ops.p50, ops.max, median(probes), planned_nodes);
  if (!tracer.enabled()) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("items_per_probe", median(items_per_probe), "1/probe");
    report.metric("op_per_probe", median(op_per_probe), "x");
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    report.metric("prr", static_cast<double>(eval_delivered) /
                             static_cast<double>(eval_offered),
                  "ratio");
  } else {
    layers.configure_ms(median(configure_ms));
    layers.campaign_prr(static_cast<double>(world->campaign_delivered) /
                        static_cast<double>(world->campaign_offered));
    layers.emit(report, ops);
  }
  return report;
}

}  // namespace perfbench
