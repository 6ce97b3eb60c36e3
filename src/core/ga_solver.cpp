#include "core/ga_solver.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace alphawan {
namespace {

// Rebuild any gateway channel set whose size drifted away from a forced
// width (mutation clamping can collapse windows at the spectrum edges).
void enforce_forced_width(const CpInstance& instance, int width,
                          CpSolution& s) {
  for (std::size_t j = 0; j < instance.gateways.size(); ++j) {
    auto& chans = s.gateway_channels[j];
    const auto& gw = instance.gateways[j];
    const int w = std::clamp(width, 1,
                             std::min({gw.max_channels, gw.max_span_channels,
                                       instance.num_channels}));
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
  bool evaluated = false;
};

// Reachable gateway list per node (any level).
std::vector<std::vector<std::int32_t>> reachable_gateways(
    const CpInstance& instance) {
  std::vector<std::vector<std::int32_t>> reach(instance.nodes.size());
  for (std::size_t i = 0; i < instance.nodes.size(); ++i) {
    for (std::size_t j = 0; j < instance.gateways.size(); ++j) {
      if (instance.nodes[i].min_level[j] != kUnreachable) {
        reach[i].push_back(static_cast<std::int32_t>(j));
      }
    }
  }
  return reach;
}

void randomize_gateway(const CpInstance& instance, const GaConfig& config,
                       CpSolution& s, std::size_t j, Rng& rng) {
  const auto& gw = instance.gateways[j];
  int width = config.forced_channel_count.value_or(static_cast<int>(
      rng.uniform_int(1, std::min(gw.max_channels, gw.max_span_channels))));
  width = std::clamp(width, 1,
                     std::min({gw.max_channels, gw.max_span_channels,
                               instance.num_channels}));
  const int max_start = instance.num_channels - width;
  const int start = static_cast<int>(rng.uniform_int(0, max_start));
  auto& chans = s.gateway_channels[j];
  chans.clear();
  for (int c = start; c < start + width; ++c) chans.push_back(c);
}

void mutate(const CpInstance& instance, const GaConfig& config,
            const std::vector<std::vector<std::int32_t>>& reach,
            bool nodes_frozen, CpSolution& s, Rng& rng) {
  // Gateway genes.
  for (std::size_t j = 0; j < instance.gateways.size(); ++j) {
    if (!rng.chance(config.mutation_rate * 10.0)) continue;
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
  if (!nodes_frozen) {
    for (std::size_t i = 0; i < instance.nodes.size(); ++i) {
      if (!rng.chance(config.mutation_rate)) continue;
      if (reach[i].empty()) continue;
      const auto j = static_cast<std::size_t>(reach[i][static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(reach[i].size()) - 1))]);
      const auto& gw_chans = s.gateway_channels[j];
      if (!gw_chans.empty() && rng.chance(0.7)) {
        s.node_channel[i] = gw_chans[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(gw_chans.size()) - 1))];
      } else {
        s.node_channel[i] = static_cast<std::int32_t>(
            rng.uniform_int(0, instance.num_channels - 1));
      }
      const int min_l = instance.nodes[i].min_level[j];
      s.node_level[i] =
          static_cast<std::int32_t>(rng.uniform_int(min_l, kNumLevels - 1));
    }
  }
}

CpSolution crossover(const CpInstance& instance, bool nodes_frozen,
                     const CpSolution& a, const CpSolution& b, Rng& rng) {
  CpSolution child = a;
  for (std::size_t j = 0; j < instance.gateways.size(); ++j) {
    if (rng.chance(0.5)) child.gateway_channels[j] = b.gateway_channels[j];
  }
  if (!nodes_frozen) {
    for (std::size_t i = 0; i < instance.nodes.size(); ++i) {
      if (rng.chance(0.5)) {
        child.node_channel[i] = b.node_channel[i];
        child.node_level[i] = b.node_level[i];
      }
    }
  }
  return child;
}

}  // namespace

void validate(const GaConfig& config) {
  auto at_least_one = [](int value, const char* field) {
    if (value < 1) {
      throw std::invalid_argument(std::string("GaConfig::") + field +
                                  " must be >= 1, got " +
                                  std::to_string(value));
    }
  };
  auto probability = [](double value, const char* field) {
    if (!(value >= 0.0 && value <= 1.0)) {
      throw std::invalid_argument(std::string("GaConfig::") + field +
                                  " must be in [0, 1], got " +
                                  std::to_string(value));
    }
  };
  at_least_one(config.population, "population");
  at_least_one(config.tournament, "tournament");
  probability(config.crossover_rate, "crossover_rate");
  probability(config.mutation_rate, "mutation_rate");
}

GaResult solve_cp(const CpInstance& instance, const GaConfig& config) {
  if (!instance.valid()) {
    throw std::invalid_argument("solve_cp: invalid CP instance");
  }
  validate(config);
  const CpSolution* frozen =
      config.frozen_nodes ? &config.frozen_nodes->solution : nullptr;
  const bool nodes_frozen = frozen != nullptr;
  // Population seed: an explicit initial wins; a frozen solution doubles as
  // the seed otherwise.
  const CpSolution* seed_solution =
      config.initial ? &*config.initial : frozen;

  Rng rng(config.seed);
  const auto reach = reachable_gateways(instance);
  const CpScorer scorer(instance);
  GaResult result;

  // Prepare + score one individual. Pure in the individual given the
  // instance and config — the precondition that lets a batch fan out.
  auto evaluate_individual = [&](Individual& ind) {
    repair(instance, ind.solution);
    if (config.forced_channel_count) {
      enforce_forced_width(instance, *config.forced_channel_count,
                           ind.solution);
    }
    if (nodes_frozen) {
      ind.solution.node_channel = frozen->node_channel;
      ind.solution.node_level = frozen->node_level;
    }
    ind.eval = scorer.score(ind.solution, config.weights);
    ind.evaluated = true;
  };
  // Evaluate every not-yet-scored individual concurrently. Results land in
  // each individual's own slot and the count is exact, so GaResult is
  // identical at any thread count.
  auto evaluate_pending = [&](std::vector<Individual>& group) {
    std::vector<Individual*> pending;
    pending.reserve(group.size());
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
    Individual seed;
    GreedyOptions greedy_opts;
    greedy_opts.forced_channel_count = config.forced_channel_count;
    seed.solution = seed_solution != nullptr ? *seed_solution
                                             : greedy_seed(instance, greedy_opts);
    population.push_back(seed);
    // If both an explicit initial and a greedy seed make sense, add the
    // greedy one too.
    if (config.initial && !nodes_frozen) {
      Individual greedy;
      greedy.solution = greedy_seed(instance, greedy_opts);
      population.push_back(greedy);
    }
    // Seed a few structurally different greedy plans (channel widths 1-4):
    // multi-gateway coverage overlap makes the ideal width instance-specific.
    if (!config.forced_channel_count && !nodes_frozen) {
      for (int width = 1;
           width <= 4 &&
           population.size() + 1 < static_cast<std::size_t>(config.population);
           ++width) {
        Individual ind;
        GreedyOptions opts;
        opts.forced_channel_count = width;
        ind.solution = greedy_seed(instance, opts);
        population.push_back(std::move(ind));
      }
    }
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
  auto tournament_pick = [&]() -> const Individual& {
    const Individual* best = nullptr;
    for (int t = 0; t < config.tournament; ++t) {
      const auto& cand = population[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(population.size()) - 1))];
      if (!best || better(cand, *best)) best = &cand;
    }
    return *best;
  };

  // ---- generations ----------------------------------------------------
  // Offspring are constructed serially (every rng draw happens here, in a
  // fixed order), then the batch of new individuals is scored in parallel.
  for (int gen = 0; gen < config.generations; ++gen) {
    std::sort(population.begin(), population.end(), better);
    if (config.early_stop &&
        population.front().eval.hard_objective() <= 1e-9) {
      break;
    }

    std::vector<Individual> next;
    next.reserve(population.size());
    for (int e = 0; e < config.elites &&
                    e < static_cast<int>(population.size());
         ++e) {
      next.push_back(population[static_cast<std::size_t>(e)]);
    }
    while (next.size() < population.size()) {
      const Individual& p1 = tournament_pick();
      Individual child;
      if (rng.chance(config.crossover_rate)) {
        const Individual& p2 = tournament_pick();
        child.solution =
            crossover(instance, nodes_frozen, p1.solution, p2.solution, rng);
      } else {
        child.solution = p1.solution;
      }
      mutate(instance, config, reach, nodes_frozen, child.solution, rng);
      next.push_back(std::move(child));
    }
    evaluate_pending(next);
    population = std::move(next);
    ++result.generations_run;
  }

  std::sort(population.begin(), population.end(), better);
  result.best = population.front().solution;
  result.best_eval = population.front().eval;
  return result;
}

}  // namespace alphawan
