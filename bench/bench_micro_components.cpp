// Component micro-benchmarks (google-benchmark): throughput of the pieces
// the system runs continuously — airtime math, the gateway radio pipeline,
// the CP solver at the Fig. 17 scales, and the kernel-versus-oracle PHY
// pairs (phy/batch_kernels.hpp: each batched receive kernel against its
// scalar reference). The BM_Batch* pairs also report through PerfRecorder,
// so the per-kernel throughputs land in the alphawan-bench-v1 JSON
// trajectory alongside the end-to-end numbers.
#include <benchmark/benchmark.h>

#include <chrono>
#include <numeric>

#include "baselines/standard_lorawan.hpp"
#include "core/ga_solver.hpp"
#include "harness.hpp"
#include "net/sync_word.hpp"
#include "phy/airtime.hpp"
#include "phy/batch_kernels.hpp"
#include "radio/gateway_radio.hpp"
#include "sim/scenario.hpp"
#include "sim/traffic.hpp"

namespace alphawan {
namespace {

void BM_Airtime(benchmark::State& state) {
  TxParams params;
  params.sf = SpreadingFactor::kSF9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(time_on_air(params, 10));
  }
}
BENCHMARK(BM_Airtime);

std::vector<RxEvent> burst_events(int count) {
  const Spectrum spec = spectrum_1m6();
  std::vector<RxEvent> events;
  for (int i = 0; i < count; ++i) {
    Transmission tx;
    tx.id = static_cast<PacketId>(i + 1);
    tx.node = static_cast<NodeId>(i + 1);
    tx.channel = spec.grid_channel(i % 8);
    tx.params.sf = sf_from_index((i / 8) % 6);
    tx.start = Seconds{0.0005 * i};
    events.push_back(RxEvent{tx, Dbm{-85.0}});
  }
  return events;
}

void BM_GatewayRadioProcess(benchmark::State& state) {
  GatewayRadio radio(default_profile(), 0, kPublicSyncWord);
  const Spectrum spec = spectrum_1m6();
  std::vector<Channel> channels;
  for (int i = 0; i < 8; ++i) channels.push_back(spec.grid_channel(i));
  radio.configure_channels(channels);
  const auto events = burst_events(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(radio.process(events));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GatewayRadioProcess)->Arg(48)->Arg(144)->Arg(1000);

CpInstance solver_instance(int users, int gateways) {
  CpInstance inst;
  inst.spectrum = spectrum_4m8();
  inst.num_channels = inst.spectrum.grid_size();
  for (int j = 0; j < gateways; ++j) {
    inst.gateways.push_back({static_cast<GatewayId>(j + 1), 16, 8, 8});
  }
  for (int i = 0; i < users; ++i) {
    CpNode node;
    node.id = static_cast<NodeId>(i + 1);
    node.traffic = 1.0;
    node.min_level.assign(static_cast<std::size_t>(gateways), 0);
    // Roughly half the gateways in reach, varying per node.
    for (int j = 0; j < gateways; ++j) {
      if ((i + j) % 2 == 0) {
        node.min_level[static_cast<std::size_t>(j)] = 2;
      }
    }
    inst.nodes.push_back(std::move(node));
  }
  return inst;
}

// The Fig. 17 CP-solve scaling measurement (4k -> 12k users).
void BM_CpSolve(benchmark::State& state) {
  const auto inst = solver_instance(static_cast<int>(state.range(0)),
                                    static_cast<int>(state.range(0)) / 1000);
  GaConfig cfg;
  cfg.population = 32;
  cfg.generations = 60;
  cfg.early_stop = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_cp(inst, cfg));
  }
}
BENCHMARK(BM_CpSolve)->Unit(benchmark::kMillisecond)->Arg(4000)->Arg(8000)->Arg(12000)->Iterations(1);

// ---- parallel-speedup table (threads x {GA solve, 1k-node window}) --------
// Results are bit-identical at every thread count (see docs/parallelism.md);
// only wall-clock time moves. The Arg is the explicit thread count, so the
// table is the speedup trajectory tracked in BENCH_*.json.

void BM_CpSolveThreads(benchmark::State& state) {
  const auto inst = solver_instance(4000, 4);
  GaConfig cfg;
  cfg.population = 32;
  cfg.generations = 20;
  cfg.early_stop = false;
  cfg.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_cp(inst, cfg));
  }
}
BENCHMARK(BM_CpSolveThreads)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(1);

void BM_WindowThreads(benchmark::State& state) {
  ChannelModelConfig urban;
  urban.shadowing_sigma_db = Db{3.0};
  urban.fast_fading_sigma_db = Db{0.8};
  Deployment deployment{Region{Meters{2100}, Meters{1600}}, spectrum_4m8(),
                        urban};
  auto& network = deployment.add_network("op");
  Rng rng(17);
  deployment.place_gateways(network, 15, default_profile(), rng);
  deployment.place_nodes(network, 1000, rng);
  StandardLorawanPolicy().configure(deployment, network, rng);

  RunOptions options;
  options.threads = static_cast<int>(state.range(0));
  ScenarioRunner runner(deployment, 17, options);
  std::vector<EndNode*> nodes;
  for (auto& n : network.nodes()) nodes.push_back(&n);
  PacketIdSource ids;
  Rng traffic_rng(23);
  const auto txs =
      poisson_traffic(nodes, Seconds{30.0}, 1.0 / 40.0, traffic_rng, ids, 0.01);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run_window(txs));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(txs.size()));
}
BENCHMARK(BM_WindowThreads)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(4);

// ---- kernel-versus-oracle PHY pairs ---------------------------------------
// Each BM_Batch* runs the same work through the scalar reference (Arg 0)
// and the batched kernel (Arg 1) and reports both as PerfRecorder rows, so
// the per-kernel speedups are tracked in BENCH_*.json independently of the
// end-to-end blend (where shared costs dilute them — docs/performance.md).
// Iterations are pinned so each row is recorded exactly once per process.

void record_kernel_row(const std::string& name, double items, double seconds) {
  bench::PerfRecorder::instance().record(name, items, seconds, 1);
}

void BM_BatchFading(benchmark::State& state) {
  const bool batched = state.range(0) != 0;
  constexpr std::size_t kDraws = 4096;
  const Rng root(0xFADEULL);
  const std::uint64_t domain = 0xFAD1'F0E5'7A7EULL ^ (std::uint64_t{5} << 40);
  std::vector<PacketId> packets(kDraws);
  std::vector<std::uint32_t> tx_index(kDraws);
  Rng setup(1);
  for (std::size_t i = 0; i < kDraws; ++i) {
    packets[i] = setup.next();
    tx_index[i] = static_cast<std::uint32_t>(i);
  }
  std::vector<double> out(kDraws);
  const double sigma = 0.8;
  const auto begin = std::chrono::steady_clock::now();
  for (auto _ : state) {
    if (batched) {
      const SubstreamBatch stream(root, domain);
      batch_fading_draws(stream, packets.data(), tx_index.data(), kDraws,
                         sigma, out.data());
    } else {
      for (std::size_t k = 0; k < kDraws; ++k) {
        Rng link = root.substream(domain, packets[tx_index[k]]);
        out[k] = link.normal_once(0.0, sigma);
      }
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kDraws));
  record_kernel_row(std::string("micro_fading_") +
                        (batched ? "batched" : "scalar"),
                    static_cast<double>(state.iterations()) * kDraws, secs);
}
BENCHMARK(BM_BatchFading)->Arg(0)->Arg(1)->Iterations(200);

void BM_BatchSensitivity(benchmark::State& state) {
  const bool batched = state.range(0) != 0;
  constexpr std::size_t kCandidates = 4096;
  constexpr std::size_t kRows = 512;
  Rng setup(2);
  std::vector<LinkGain> gains(kRows);
  for (auto& g : gains) {
    g.path_loss = Db{setup.uniform(70.0, 140.0)};
    g.antenna_gain = Db{setup.uniform(-1.0, 3.0)};
  }
  std::vector<std::uint32_t> row_of_tx(kCandidates);
  std::vector<Dbm> tx_power(kCandidates, Dbm{14.0});
  std::vector<double> fading(kCandidates);
  std::vector<std::uint32_t> base_index(kCandidates);
  for (std::size_t i = 0; i < kCandidates; ++i) {
    row_of_tx[i] = static_cast<std::uint32_t>(setup.uniform_int(
        0, static_cast<std::int64_t>(kRows) - 1));
    fading[i] = setup.normal(0.0, 3.0);
    base_index[i] = static_cast<std::uint32_t>(i);
  }
  const Dbm floor{-110.0};
  std::vector<std::uint32_t> tx_index(kCandidates);
  std::vector<Dbm> out_power(kCandidates, Dbm{-400.0});
  std::size_t kept = 0;
  const auto begin = std::chrono::steady_clock::now();
  for (auto _ : state) {
    // Both modes pay the same index-refresh copy: the batched filter
    // compacts tx_index in place, exactly like the pipeline's per-window
    // candidate arrays.
    std::copy(base_index.begin(), base_index.end(), tx_index.begin());
    if (batched) {
      kept = batch_rx_power_filter(gains, row_of_tx.data(), tx_power.data(),
                                   fading.data(), floor, tx_index.data(),
                                   kCandidates, out_power.data());
    } else {
      kept = 0;
      for (std::size_t k = 0; k < kCandidates; ++k) {
        const std::uint32_t i = tx_index[k];
        const LinkGain g = gains[row_of_tx[i]];
        const Dbm rx_power =
            tx_power[i] - g.path_loss + Db{fading[k]} + g.antenna_gain;
        if (rx_power < floor) continue;
        tx_index[kept] = i;
        out_power[kept] = rx_power;
        ++kept;
      }
    }
    benchmark::DoNotOptimize(kept);
    benchmark::ClobberMemory();
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kCandidates));
  record_kernel_row(std::string("micro_sensitivity_") +
                        (batched ? "batched" : "scalar"),
                    static_cast<double>(state.iterations()) * kCandidates,
                    secs);
}
BENCHMARK(BM_BatchSensitivity)->Arg(0)->Arg(1)->Iterations(2000);

void BM_BatchCapture(benchmark::State& state) {
  // One dense uniform-channel bucket in the pipeline's real shape: the
  // decoded events are the strong minority (the decoder pool caps how many
  // events ever reach the interferer scan), visited in ascending start
  // order. The scalar mode pays a per-event lower_bound + per-element SF
  // tests; the batched mode the per-window stable SF grouping, the group
  // max-power prechecks, and the monotone-cursor group scans.
  const bool batched = state.range(0) != 0;
  constexpr std::size_t kEvents = 256;
  constexpr std::size_t kDecoded = 32;
  const Spectrum spec = spectrum_1m6();
  const Channel ch = spec.grid_channel(0);
  Rng setup(3);
  std::vector<Seconds> start(kEvents);
  std::vector<Seconds> end(kEvents);
  std::vector<double> lin_power(kEvents);
  std::vector<std::uint32_t> channel(kEvents, 0);  // one window channel
  const ChannelLink aligned{overlap_ratio(ch, ch), Db{-400.0}};
  std::vector<Dbm> power(kEvents);
  std::vector<SpreadingFactor> sf(kEvents);
  std::vector<NetworkId> net(kEvents);
  Seconds lookback{0.0};
  for (std::size_t i = 0; i < kEvents; ++i) {
    start[i] = Seconds{setup.uniform(0.0, 0.5)};
    const Seconds dur{setup.uniform(0.02, 0.2)};
    end[i] = start[i] + dur;
    lookback = std::max(lookback, dur);
    power[i] = Dbm{setup.uniform(-130.0, -60.0)};
    lin_power[i] = batch_detail::dbm_to_lin(power[i]);
    sf[i] = sf_from_index(static_cast<int>(setup.uniform_int(0, 5)));
    net[i] = static_cast<NetworkId>(setup.uniform_int(0, 2));
  }
  const RxScanSoA soa{start.data(),   end.data(), lin_power.data(),
                      channel.data(), power.data(), sf.data(), net.data()};
  std::vector<std::uint32_t> order(kEvents);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (start[a] != start[b]) return start[a] < start[b];
    return a < b;
  });
  // Decoded set: the kDecoded strongest events (the ones that win decoders),
  // scanned in ascending (start, index) order as the pipeline guarantees.
  std::vector<std::uint32_t> decoded(kEvents);
  std::iota(decoded.begin(), decoded.end(), 0u);
  std::partial_sort(decoded.begin(), decoded.begin() + kDecoded, decoded.end(),
                    [&](std::uint32_t a, std::uint32_t b) {
                      if (power[a] != power[b]) return power[a] > power[b];
                      return a < b;
                    });
  decoded.resize(kDecoded);
  std::sort(decoded.begin(), decoded.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (start[a] != start[b]) return start[a] < start[b];
              return a < b;
            });
  std::vector<std::uint32_t> order_sf(kEvents);
  std::vector<std::uint32_t> pos_sf(kEvents);
  std::vector<SfGroup> groups;
  std::vector<std::uint32_t> cursors;
  std::size_t sink = 0;
  const auto begin = std::chrono::steady_clock::now();
  for (auto _ : state) {
    if (batched) {
      // Per-window prep, as in build_sf_groups: stable counting
      // sort by SF with per-group max power, then cursor-driven scans.
      groups.clear();
      std::uint32_t counts[kNumSpreadingFactors] = {};
      Dbm max_power[kNumSpreadingFactors];
      for (auto& p : max_power) p = Dbm{-400.0};
      for (const std::uint32_t j : order) {
        const int s = sf_index(sf[j]);
        ++counts[s];
        if (power[j] > max_power[s]) max_power[s] = power[j];
      }
      std::uint32_t cursor[kNumSpreadingFactors];
      std::uint32_t running = 0;
      for (int s = 0; s < kNumSpreadingFactors; ++s) {
        cursor[s] = running;
        if (counts[s] > 0) {
          groups.push_back(SfGroup{running, running + counts[s],
                                   sf_from_index(s), max_power[s]});
        }
        running += counts[s];
      }
      for (std::uint32_t k = 0; k < kEvents; ++k) {
        const std::uint32_t j = order[k];
        auto& cur = cursor[sf_index(sf[j])];
        order_sf[cur] = j;
        pos_sf[cur] = k;
        ++cur;
      }
      cursors.clear();
      for (const auto& g : groups) cursors.push_back(g.begin);
    }
    for (const std::uint32_t i : decoded) {
      const ScanEvent ev{i,     start[i], end[i], power[i],
                         sf[i], net[i],   &aligned};
      ScanAccum acc;
      if (batched) {
        scan_bucket_aligned_grouped(soa, order_sf.data(), pos_sf.data(),
                                    groups.data(),
                                    groups.data() + groups.size(),
                                    cursors.data(), lookback,
                                    /*one_network=*/false, ev, acc);
      } else {
        scan_bucket_scalar(soa, order.data(), order.data() + kEvents, lookback,
                           ev, acc);
      }
      sink += acc.collided ? 1 : 0;
    }
    benchmark::DoNotOptimize(sink);
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kDecoded));
  record_kernel_row(std::string("micro_capture_") +
                        (batched ? "batched" : "scalar"),
                    static_cast<double>(state.iterations()) * kDecoded, secs);
}
BENCHMARK(BM_BatchCapture)->Arg(0)->Arg(1)->Iterations(2000);

}  // namespace
}  // namespace alphawan

BENCHMARK_MAIN();
