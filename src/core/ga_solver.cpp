#include "core/ga_solver.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace alphawan {
namespace {

// The GA's operators (see GaConfig).
constexpr int kTournament = 3;
constexpr int kElites = 2;
constexpr double kCrossoverRate = 0.9;
// Per-gene mutation probability for node genes; gateway genes mutate with
// 10x this rate per gateway.
constexpr double kMutationRate = 0.02;

// Rebuild any gateway channel set whose size drifted away from a forced
// width (mutation clamping can collapse windows at the spectrum edges).
void enforce_forced_width(const CpInstance& instance, int width,
                          CpSolution& s) {
  for (std::size_t j = 0; j < instance.gateways.size(); ++j) {
    auto& chans = s.gateway_channels[j];
    const auto& gw = instance.gateways[j];
    const int w = clamp_width(gw, instance.num_channels, width);
    if (static_cast<int>(chans.size()) == w) continue;
    const int anchor =
        chans.empty() ? 0
                      : std::min(chans.front(), instance.num_channels - w);
    chans.clear();
    for (int c = anchor; c < anchor + w; ++c) chans.push_back(c);
  }
}

struct Individual {
  CpSolution solution;
  CpEvaluation eval;
  CpScorer::Scratch scratch;  // this individual's scoring buffers
  bool evaluated = false;
};

// The gateways each node reaches at any level, with the level each needs:
// node i's entries are [first[i], first[i + 1]), in gateway order. One
// flat table, so a mutation reads two arrays rather than two vectors per
// node.
struct ReachLists {
  std::vector<std::size_t> first;
  std::vector<std::int32_t> gateway;
  std::vector<std::uint8_t> min_level;
};

ReachLists reachable_gateways(const CpInstance& instance) {
  ReachLists reach;
  reach.first.reserve(instance.nodes.size() + 1);
  reach.first.push_back(0);
  for (const auto& node : instance.nodes) {
    for (std::size_t j = 0; j < instance.gateways.size(); ++j) {
      if (node.min_level[j] != kUnreachable) {
        reach.gateway.push_back(static_cast<std::int32_t>(j));
        reach.min_level.push_back(node.min_level[j]);
      }
    }
    reach.first.push_back(reach.gateway.size());
  }
  return reach;
}

void randomize_gateway(const CpInstance& instance, const GaConfig& config,
                       CpSolution& s, std::size_t j, Rng& rng) {
  const auto& gw = instance.gateways[j];
  int width = config.forced_channel_count.value_or(static_cast<int>(
      rng.uniform_int(1, std::min(gw.max_channels, gw.max_span_channels))));
  width = clamp_width(gw, instance.num_channels, width);
  const int max_start = instance.num_channels - width;
  const int start = static_cast<int>(rng.uniform_int(0, max_start));
  auto& chans = s.gateway_channels[j];
  chans.clear();
  for (int c = start; c < start + width; ++c) chans.push_back(c);
}

// Index of the first node gene at or after `i` that mutates, or `n` when
// none does: one chance(rate) draw per gene, as the node loop always drew.
// The draws run on a local copy of the generator, written back at the end,
// so the loop keeps the xoshiro state in registers. The copy is exact:
// copying an Rng keeps its state and drops only a cached normal() sample,
// and the GA never draws normal().
std::size_t next_mutation(Rng& rng, double rate, std::size_t i,
                          std::size_t n) {
  Rng local = rng;
  while (i < n && !local.chance(rate)) ++i;
  rng = local;
  return i;
}

void mutate(const CpInstance& instance, const GaConfig& config,
            const ReachLists& reach, bool nodes_frozen, CpSolution& s,
            Rng& rng) {
  // Gateway genes.
  for (std::size_t j = 0; j < instance.gateways.size(); ++j) {
    if (!rng.chance(kMutationRate * 10.0)) continue;
    const double op = rng.uniform();
    auto& chans = s.gateway_channels[j];
    if (op < 0.4) {
      // Shift the whole window by +-1..2 channels.
      const int shift = static_cast<int>(rng.uniform_int(-2, 2));
      for (auto& c : chans) {
        c = std::clamp(c + shift, 0, instance.num_channels - 1);
      }
    } else if (op < 0.7 && !config.forced_channel_count) {
      // Grow or shrink the channel set by one.
      if (rng.chance(0.5) && chans.size() > 1) {
        chans.erase(chans.begin() +
                    static_cast<std::ptrdiff_t>(rng.uniform_int(
                        0, static_cast<std::int64_t>(chans.size()) - 1)));
      } else {
        chans.push_back(static_cast<std::int32_t>(
            rng.uniform_int(0, instance.num_channels - 1)));
      }
    } else {
      randomize_gateway(instance, config, s, j, rng);
    }
  }
  // Node genes.
  if (nodes_frozen) return;
  const std::size_t n = instance.nodes.size();
  for (std::size_t i = next_mutation(rng, kMutationRate, 0, n); i < n;
       i = next_mutation(rng, kMutationRate, i + 1, n)) {
    const std::size_t first = reach.first[i];
    const std::size_t count = reach.first[i + 1] - first;
    if (count == 0) continue;
    const std::size_t k =
        first + static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(count) - 1));
    const auto j = static_cast<std::size_t>(reach.gateway[k]);
    const auto& gw_chans = s.gateway_channels[j];
    if (!gw_chans.empty() && rng.chance(0.7)) {
      s.node_channel[i] = gw_chans[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(gw_chans.size()) - 1))];
    } else {
      s.node_channel[i] = static_cast<std::int32_t>(
          rng.uniform_int(0, instance.num_channels - 1));
    }
    const int min_l = reach.min_level[k];
    s.node_level[i] =
        static_cast<std::int32_t>(rng.uniform_int(min_l, kNumLevels - 1));
  }
}

// Uniform crossover written over `child`, reusing its buffers: each
// gateway's channel set, then each node's (channel, level) pair, comes
// from `b` with probability 0.5 and from `a` otherwise, one draw per gene
// in that order (frozen node genes take `a`'s, without draws). A gene
// comes from `b` when bit 63 of its draw is clear: chance(0.5) tests
// (next() >> 11) * 2^-53 < 0.5, which holds exactly then. The node loop
// indexes its source by that bit instead of branching on it, and runs on
// a local copy of the generator (exact, see next_mutation).
void crossover(const CpInstance& instance, bool nodes_frozen,
               const CpSolution& a, const CpSolution& b, Rng& rng,
               CpSolution& child) {
  child.gateway_channels.resize(instance.gateways.size());
  for (std::size_t j = 0; j < instance.gateways.size(); ++j) {
    child.gateway_channels[j] = (rng.next() >> 63) == 0
                                    ? b.gateway_channels[j]
                                    : a.gateway_channels[j];
  }
  if (nodes_frozen) {
    child.node_channel = a.node_channel;
    child.node_level = a.node_level;
    return;
  }
  const std::size_t n = instance.nodes.size();
  child.node_channel.resize(n);
  child.node_level.resize(n);
  // Indexed by bit 63 of the draw: 0 selects b, 1 selects a.
  const std::int32_t* const channel[2] = {b.node_channel.data(),
                                          a.node_channel.data()};
  const std::int32_t* const level[2] = {b.node_level.data(),
                                        a.node_level.data()};
  std::int32_t* const out_channel = child.node_channel.data();
  std::int32_t* const out_level = child.node_level.data();
  Rng local = rng;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t from = local.next() >> 63;
    out_channel[i] = channel[from][i];
    out_level[i] = level[from][i];
  }
  rng = local;
}

}  // namespace

void validate(const GaConfig& config) {
  if (config.population < 1) {
    throw std::invalid_argument("GaConfig::population must be >= 1, got " +
                                std::to_string(config.population));
  }
}

GaResult solve_cp(const CpInstance& instance, const GaConfig& config) {
  if (!instance.valid()) {
    throw std::invalid_argument("solve_cp: invalid CP instance");
  }
  validate(config);
  const CpSolution* frozen =
      config.frozen_nodes ? &config.frozen_nodes->solution : nullptr;
  const bool nodes_frozen = frozen != nullptr;

  Rng rng(config.seed);
  const auto reach = reachable_gateways(instance);
  const CpScorer scorer(instance);
  GaResult result;

  // Prepare + score one individual. Pure in the individual given the
  // instance and config — the precondition that lets a batch fan out.
  // Seeds are repaired in full before they join the population; every
  // later individual takes its node genes from repaired ones, and mutate
  // draws node channels and levels inside their ranges, so only the
  // gateway channel sets can need repair.
  auto evaluate_individual = [&](Individual& ind) {
    repair_gateways(instance, ind.solution);
    if (config.forced_channel_count) {
      enforce_forced_width(instance, *config.forced_channel_count,
                           ind.solution);
    }
    if (nodes_frozen) {
      ind.solution.node_channel = frozen->node_channel;
      ind.solution.node_level = frozen->node_level;
    }
    scorer.score(ind.solution, ind.scratch, ind.eval);
    ind.evaluated = true;
  };
  // Evaluate every not-yet-scored individual concurrently. Results land in
  // each individual's own slot and the count is exact, so GaResult is
  // identical at any thread count.
  std::vector<Individual*> pending;
  auto evaluate_pending = [&](std::vector<Individual>& group) {
    pending.clear();
    for (auto& ind : group) {
      if (!ind.evaluated) pending.push_back(&ind);
    }
    parallel_for(
        pending.size(), [&](std::size_t i) { evaluate_individual(*pending[i]); },
        config.threads);
    result.evaluations += pending.size();
  };

  // ---- initial population -------------------------------------------
  std::vector<Individual> population;
  population.reserve(static_cast<std::size_t>(config.population));
  {
    // Each greedy seed's per-gateway widths, with its population index: a
    // greedy seed with the widths of an earlier one is a copy of it.
    std::vector<std::pair<std::vector<int>, std::size_t>> greedy_built;
    auto add_greedy = [&](std::optional<int> forced_width) {
      std::vector<int> widths;
      widths.reserve(instance.gateways.size());
      for (const auto& gw : instance.gateways) {
        widths.push_back(
            greedy_width(gw, instance.num_channels, forced_width));
      }
      Individual ind;
      const auto same =
          std::find_if(greedy_built.begin(), greedy_built.end(),
                       [&](const auto& built) { return built.first == widths; });
      if (same != greedy_built.end()) {
        ind.solution = population[same->second].solution;
      } else {
        ind.solution = greedy_seed(instance, forced_width);
        greedy_built.emplace_back(std::move(widths), population.size());
      }
      population.push_back(std::move(ind));
    };
    // A frozen solution seeds the population itself; otherwise the
    // greedy plan at the configured width does.
    if (nodes_frozen) {
      Individual seed;
      seed.solution = *frozen;
      population.push_back(std::move(seed));
    } else {
      add_greedy(config.forced_channel_count);
    }
    // Seed a few structurally different greedy plans (channel widths 1-4):
    // multi-gateway coverage overlap makes the ideal width instance-specific.
    if (!config.forced_channel_count && !nodes_frozen) {
      for (int width = 1;
           width <= 4 &&
           population.size() + 1 < static_cast<std::size_t>(config.population);
           ++width) {
        add_greedy(width);
      }
    }
    for (auto& ind : population) repair(instance, ind.solution);
  }
  // Score the seeds first: the random fill below perturbs the REPAIRED
  // front-of-population solution, as the serial algorithm always has.
  evaluate_pending(population);
  while (population.size() < static_cast<std::size_t>(config.population)) {
    Individual ind;
    ind.solution = population.front().solution;
    for (std::size_t j = 0; j < instance.gateways.size(); ++j) {
      if (rng.chance(0.5)) {
        randomize_gateway(instance, config, ind.solution, j, rng);
      }
    }
    mutate(instance, config, reach, nodes_frozen, ind.solution, rng);
    population.push_back(std::move(ind));
  }
  evaluate_pending(population);

  auto better = [](const Individual& a, const Individual& b) {
    return a.eval.objective < b.eval.objective;
  };
  result.seed_objective =
      std::min_element(population.begin(), population.end(), better)
          ->eval.objective;
  auto tournament_pick = [&]() -> const Individual& {
    const Individual* best = nullptr;
    for (int t = 0; t < kTournament; ++t) {
      const auto& cand = population[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(population.size()) - 1))];
      if (!best || better(cand, *best)) best = &cand;
    }
    return *best;
  };

  // ---- generations ----------------------------------------------------
  // Offspring are constructed serially (every rng draw happens here, in a
  // fixed order), then the batch of new individuals is scored in parallel.
  // The population is double-buffered: each generation is written over the
  // individuals of the one before last, reusing their vectors, so making a
  // child allocates nothing once every buffer has grown to size.
  std::vector<Individual> next(population.size());
  for (int gen = 0; gen < config.generations; ++gen) {
    std::sort(population.begin(), population.end(), better);
    if (config.early_stop &&
        population.front().eval.hard_objective() <= 1e-9) {
      break;
    }

    std::size_t k = 0;
    for (; static_cast<int>(k) < kElites && k < next.size(); ++k) {
      next[k].solution = population[k].solution;
      next[k].eval = population[k].eval;
      next[k].evaluated = true;
    }
    for (; k < next.size(); ++k) {
      Individual& child = next[k];
      const Individual& p1 = tournament_pick();
      if (rng.chance(kCrossoverRate)) {
        const Individual& p2 = tournament_pick();
        crossover(instance, nodes_frozen, p1.solution, p2.solution, rng,
                  child.solution);
      } else {
        child.solution = p1.solution;
      }
      mutate(instance, config, reach, nodes_frozen, child.solution, rng);
      child.evaluated = false;
    }
    evaluate_pending(next);
    population.swap(next);
    ++result.generations_run;
  }

  std::sort(population.begin(), population.end(), better);
  result.best = population.front().solution;
  result.best_eval = population.front().eval;
  return result;
}

double GaResult::ga_gain() const {
  if (seed_objective == 0.0) return 0.0;
  return (seed_objective - best_eval.objective) / seed_objective;
}

}  // namespace alphawan
