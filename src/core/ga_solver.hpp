// Evolutionary solver for the CP problem (paper Sec. 4.3.1 runs an
// evolutionary algorithm on a central server). Tournament selection,
// per-gateway / per-node uniform crossover, repair-based feasibility, and
// greedy seeding. Deterministic under a fixed seed, at any thread count:
// all random draws happen while offspring are constructed serially, and
// fitness evaluation — a pure function per individual — is what fans out
// across the parallel executor (docs/parallelism.md).
#pragma once

#include <optional>

#include "core/cp_problem.hpp"
#include "core/greedy_seed.hpp"

namespace alphawan {

// Strategy 7 node-side disabled: node genes are pinned to this solution,
// which also seeds the population. Wrapping the solution (rather than a
// bool next to an optional) makes "frozen but no solution" unrepresentable.
struct FrozenNodes {
  CpSolution solution;
};

// The search budget and the strategy switches. Tournament size, elite
// count, crossover and mutation rates are constants in ga_solver.cpp.
struct GaConfig {
  int population = 32;
  int generations = 80;
  std::uint64_t seed = 42;
  // Strategy 1 disabled: force this channel count on every gateway.
  std::optional<int> forced_channel_count;
  // Freeze node genes to frozen_nodes->solution, which also seeds the
  // population (see FrozenNodes).
  std::optional<FrozenNodes> frozen_nodes;
  // Stop early once the objective reaches zero (perfect plan).
  bool early_stop = true;
  // Worker threads for fitness evaluation: 0 = the ALPHAWAN_THREADS
  // process default, 1 = force serial. Any value yields identical results.
  int threads = 0;
};

struct GaResult {
  CpSolution best;
  CpEvaluation best_eval;
  // Best objective of the initial population (the seeds and their random
  // perturbations), scored before generation 1.
  double seed_objective = 0.0;
  int generations_run = 0;
  std::size_t evaluations = 0;

  // What the generations earned: (seed_objective - best) / seed_objective,
  // 0 when the seeds already score 0. Exactly 0 when no generation ran, and
  // never negative while at least one elite survives each generation.
  [[nodiscard]] double ga_gain() const;
};

// Throws std::invalid_argument naming the offending field when `config`
// cannot drive a solve: a population below 1.
void validate(const GaConfig& config);

// Throws std::invalid_argument on an invalid instance or configuration.
[[nodiscard]] GaResult solve_cp(const CpInstance& instance,
                                const GaConfig& config = GaConfig{});

}  // namespace alphawan
