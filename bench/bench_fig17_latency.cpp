// Figure 17 reproduction: end-to-end latency of an AlphaWAN capacity
// upgrade. (a) single network at 4k/8k/12k users (4/8/12 gateways):
// CP solving (measured wall clock of our GA), config distribution,
// gateway reboot. (b) 2..4 coexisting networks (3k users each): adds the
// operator-to-Master exchanges. Paper: total < 10 s, reboot dominates
// (~4.62 s), CP solve 0.45 -> 1.37 s from 4k to 12k users.
#include "harness.hpp"

using namespace alphawan;
using namespace alphawan::bench;

namespace {

UpgradeReport upgrade_once(std::size_t users, int gateways,
                           MasterNode* master, std::uint64_t seed) {
  Deployment deployment{Region{Meters{2100}, Meters{1600}}, spectrum_4m8(),
                        urban_channel(seed)};
  auto& network = deployment.add_network("op");
  Rng rng(seed);
  deployment.place_gateways(network, gateways, default_profile(), rng);
  deployment.place_nodes(network, users, rng);
  LatencyModel latency{LatencyModelConfig{}, seed};
  AlphaWanConfig cfg;
  cfg.strategy8_spectrum_sharing = master != nullptr;
  // Production-sized solver budget (the paper's workstation solve).
  cfg.planner.ga.population = 32;
  cfg.planner.ga.generations = 40;
  cfg.planner.ga.early_stop = false;
  AlphaWanController controller(cfg, latency);
  const auto links = oracle_link_estimates(deployment, network);
  return controller.upgrade(network, deployment.spectrum(), links,
                            uniform_traffic(network), master);
}

void print_report(const char* label, const UpgradeReport& report) {
  std::printf("  %-14s %-10.2f %-12.2f %-12.2f %-10.2f %-8.2f %-8.4f\n", label,
              report.cp_solve.value(), report.master_communication.value(),
              report.config_distribution.value(), report.gateway_reboot.value(),
              report.total().value(), report.ga_gain);
}

}  // namespace

int main() {
  print_header(
      "Fig. 17a — capacity-upgrade latency, single network\n"
      "(columns: CP solve [measured], Master comm, config push, reboot,\n"
      "total, GA gain = (best seed - final) / best seed objective;\n"
      "paper: CP 0.45->1.37 s, reboot ~4.62 s, total < 10 s)");
  std::printf("  %-14s %-10s %-12s %-12s %-10s %-8s %-8s\n", "scale", "cp(s)",
              "master(s)", "config(s)", "reboot(s)", "total", "ga_gain");
  print_report("4k / 4 GW", upgrade_once(4000, 4, nullptr, 1));
  print_report("8k / 8 GW", upgrade_once(8000, 8, nullptr, 2));
  print_report("12k / 12 GW", upgrade_once(12000, 12, nullptr, 3));

  print_header(
      "Fig. 17b — coexisting networks (3k users, 4 GWs each; networks\n"
      "solve their CP problems in parallel, so the slowest one counts)\n"
      "paper: 0.17-0.28 s of Master communication, total < 6 s");
  std::printf("  %-14s %-10s %-12s %-12s %-10s %-8s %-8s\n", "networks",
              "cp(s)", "master(s)", "config(s)", "reboot(s)", "total",
              "ga_gain");
  for (int networks = 2; networks <= 4; ++networks) {
    MasterNode master(MasterConfig{spectrum_4m8(), 0.4, networks});
    UpgradeReport worst;
    Seconds worst_total{0.0};
    for (int n = 0; n < networks; ++n) {
      const auto report =
          upgrade_once(3000, 4, &master, 10 + networks * 4 + n);
      if (report.total() > worst_total) {
        worst_total = report.total();
        worst = report;
      }
    }
    char label[16];
    std::snprintf(label, sizeof(label), "%d", networks);
    print_report(label, worst);
  }
  return 0;
}
