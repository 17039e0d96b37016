// Parallel sweep execution.
//
// Individual experiments are strictly single-threaded and deterministic; a
// sweep over configurations (a figure's x axis, a seed ensemble) is
// embarrassingly parallel. Each index is a whole experiment, so the pool is
// one shared claim cursor: every worker takes the next unclaimed index until
// none is left, and a handful of slow cells cannot idle the rest of the
// machine. Reduction is chunked: each run is folded into a compact summary
// as soon as it finishes, and summaries are reduced sequentially in index
// order — results are bit-identical regardless of which worker ran what,
// and a million-run sweep never holds a million full ExperimentResults.
//
// Failure semantics: a throwing run never abandons work. Every index is
// still executed (claimed indices are always run — the pre-2 behaviour of
// returning default-constructed results for claimed-but-skipped indices is
// regression-tested away in tests/parallel_test.cpp), each failure is
// recorded against its index, and after all workers join the error with the
// LOWEST index is rethrown — deterministic no matter which worker hit it
// first.
#pragma once

#include <functional>
#include <vector>

#include "g2g/core/experiment.hpp"

namespace g2g::core {

/// Run body(i) for every i in [0, count) on up to `threads` workers
/// (0 = hardware concurrency) claiming indices from one shared cursor. All
/// indices run even if some throw; afterwards the exception with the lowest
/// index is rethrown on the calling thread.
void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& body);

/// Run every config; results are positionally aligned with `configs`.
/// All configs run even if some throw; the lowest-index error is rethrown.
[[nodiscard]] std::vector<ExperimentResult> run_parallel(
    const std::vector<ExperimentConfig>& configs, std::size_t threads = 0);

/// Convenience: run `base` under seeds seed, seed+1, ..., seed+runs-1 in
/// parallel and aggregate exactly like run_repeated (bit-identical: the
/// per-run summaries are reduced in seed order).
[[nodiscard]] AggregateResult run_repeated_parallel(const ExperimentConfig& base,
                                                    std::size_t runs,
                                                    std::size_t threads = 0);

/// One cell of a figure sweep: a config repeated over `runs` seeds.
struct SweepCell {
  ExperimentConfig config;
  std::size_t runs = 1;
};

/// Per-cell perf telemetry, summed over the cell's runs: wall seconds spent
/// inside run_experiment and discrete events fired by the simulator (the
/// `g2g.sim.events_fired` counter). Feeds bench_results/BENCH_*.json; never
/// part of the scientific result, so it carries no determinism obligation.
struct CellTelemetry {
  double wall_s = 0.0;
  std::uint64_t sim_events = 0;
};

/// Run a whole figure's worth of cells through one pool: every (cell, seed)
/// pair becomes one unit of work, so parallelism is total-runs wide instead
/// of runs-per-cell wide. Aggregates are positionally aligned with `cells`
/// and identical to calling run_repeated on each cell. When `telemetry` is
/// non-null it is resized to cells.size() and filled with per-cell totals.
[[nodiscard]] std::vector<AggregateResult> run_sweep(const std::vector<SweepCell>& cells,
                                                     std::size_t threads = 0,
                                                     std::vector<CellTelemetry>* telemetry = nullptr);

}  // namespace g2g::core
