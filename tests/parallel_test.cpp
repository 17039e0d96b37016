#include "g2g/core/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace g2g::core {
namespace {

ExperimentConfig tiny(Protocol p, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.protocol = p;
  cfg.scenario = infocom05_scenario();
  cfg.scenario.trace_config.nodes = 12;
  cfg.scenario.trace_config.duration = Duration::days(2);
  cfg.scenario.window_start = TimePoint::from_seconds(8.0 * 3600.0);
  cfg.sim_window = Duration::hours(1.5);
  cfg.traffic_window = Duration::hours(1);
  cfg.mean_interarrival = Duration::seconds(60.0);
  cfg.seed = seed;
  return cfg;
}

TEST(Parallel, MatchesSequentialResults) {
  std::vector<ExperimentConfig> configs;
  for (std::uint64_t s = 1; s <= 6; ++s) configs.push_back(tiny(Protocol::G2GEpidemic, s));

  const auto parallel = run_parallel(configs, 4);
  ASSERT_EQ(parallel.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const ExperimentResult seq = run_experiment(configs[i]);
    EXPECT_EQ(parallel[i].generated, seq.generated) << i;
    EXPECT_EQ(parallel[i].delivered, seq.delivered) << i;
    EXPECT_DOUBLE_EQ(parallel[i].avg_replicas, seq.avg_replicas) << i;
  }
}

TEST(Parallel, PreservesInputOrder) {
  std::vector<ExperimentConfig> configs{tiny(Protocol::Epidemic, 1),
                                        tiny(Protocol::G2GEpidemic, 1)};
  const auto results = run_parallel(configs, 2);
  // G2G spends signatures; vanilla epidemic does not sign relay handshakes.
  std::uint64_t epi_sigs = 0;
  std::uint64_t g2g_sigs = 0;
  for (std::uint32_t n = 0; n < 12; ++n) {
    epi_sigs += results[0].collector.costs(NodeId(n)).signatures;
    g2g_sigs += results[1].collector.costs(NodeId(n)).signatures;
  }
  EXPECT_EQ(epi_sigs, 0u);
  EXPECT_GT(g2g_sigs, 0u);
}

TEST(Parallel, SingleThreadAndEmptyInput) {
  EXPECT_TRUE(run_parallel({}, 4).empty());
  const auto one = run_parallel({tiny(Protocol::Epidemic, 3)}, 1);
  EXPECT_EQ(one.size(), 1u);
  EXPECT_GT(one[0].generated, 0u);
}

TEST(Parallel, PropagatesExceptions) {
  ExperimentConfig bad = tiny(Protocol::Epidemic, 1);
  bad.scenario.trace_config.nodes = 1;  // invalid
  EXPECT_THROW((void)run_parallel({bad}, 2), std::invalid_argument);
}

// Regression: a failing config must not poison its neighbours. The old pool
// set a shared failure flag that let workers claim an index via fetch_add and
// then return without running it, leaving default-constructed results for
// innocent configs; and "first error wins" depended on thread timing.
TEST(Parallel, FailingConfigDoesNotAbandonOtherIndices) {
  std::atomic<int> executed{0};
  EXPECT_THROW(parallel_for(16, 4,
                            [&executed](std::size_t i) {
                              executed.fetch_add(1);
                              if (i % 5 == 2) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  // Every index ran, including the ones a worker claimed after its failure.
  EXPECT_EQ(executed.load(), 16);
}

TEST(Parallel, LowestIndexErrorIsRethrownDeterministically) {
  for (int trial = 0; trial < 10; ++trial) {
    try {
      parallel_for(12, 4, [](std::size_t i) {
        if (i == 3 || i == 7 || i == 11) {
          throw std::runtime_error("fail at " + std::to_string(i));
        }
      });
      FAIL() << "expected a throw";
    } catch (const std::runtime_error& e) {
      // No matter which worker finishes first, index 3's error surfaces.
      EXPECT_STREQ(e.what(), "fail at 3");
    }
  }
}

TEST(Parallel, SweepMatchesPerCellRepeatedRuns) {
  std::vector<SweepCell> cells;
  cells.push_back({tiny(Protocol::Epidemic, 5), 2});
  cells.push_back({tiny(Protocol::G2GEpidemic, 5), 3});
  cells.push_back({tiny(Protocol::G2GEpidemic, 9), 1});
  const std::vector<AggregateResult> sweep = run_sweep(cells, 4);
  ASSERT_EQ(sweep.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const AggregateResult seq = run_repeated(cells[i].config, cells[i].runs);
    EXPECT_EQ(sweep[i].success_rate.count(), seq.success_rate.count()) << i;
    EXPECT_NEAR(sweep[i].success_rate.mean(), seq.success_rate.mean(), 1e-12) << i;
    EXPECT_NEAR(sweep[i].avg_replicas.mean(), seq.avg_replicas.mean(), 1e-12) << i;
    EXPECT_EQ(sweep[i].false_positives, seq.false_positives) << i;
  }
}

TEST(Parallel, SweepPropagatesLowestCellError) {
  ExperimentConfig bad = tiny(Protocol::Epidemic, 1);
  bad.scenario.trace_config.nodes = 1;  // invalid
  const std::vector<SweepCell> cells{{tiny(Protocol::Epidemic, 2), 1},
                                     {bad, 2},
                                     {tiny(Protocol::Epidemic, 3), 1}};
  EXPECT_THROW((void)run_sweep(cells, 3), std::invalid_argument);
}

// TSan-targeted contention stress: thousands of near-empty work items keep
// every worker racing on the shared claim cursor — back-to-back fetch_adds,
// claims past the end — while failures land under the error mutex. The pool
// contract must survive untouched: every index executes exactly once
// (drain-all), and the lowest-index error is the one rethrown no matter
// which worker hit its failure first. Runs in the normal suite too; under
// `tools/check.sh --tsan` the same interleavings are race-checked.
TEST(Parallel, ContentionStressDrainsAllAndRethrowsLowest) {
  constexpr std::size_t kIndices = 4096;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kFirstFailure = 41;
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<std::atomic<std::uint8_t>> executions(kIndices);
    try {
      parallel_for(kIndices, kThreads, [&executions](std::size_t i) {
        executions[i].fetch_add(1);
        // Uneven spin: some cells run slower, so workers fall out of step
        // and their claims interleave irregularly.
        volatile std::size_t sink = 0;
        for (std::size_t k = 0; k < (i % 7) * 50; ++k) sink = sink + k;
        if (i % 97 == kFirstFailure % 97 && i >= kFirstFailure) {
          throw std::runtime_error("fail at " + std::to_string(i));
        }
      });
      FAIL() << "expected a throw (trial " << trial << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "fail at 41") << "trial " << trial;
    }
    for (std::size_t i = 0; i < kIndices; ++i) {
      ASSERT_EQ(executions[i].load(), 1u) << "index " << i << " trial " << trial;
    }
  }
}

// The same contract one layer up: a run_sweep whose flattened index space
// carries several failing cells interleaved with healthy ones, pushed wide
// enough that completions race. The error of the lowest flat index — the
// first run of the first bad cell — must surface every time, and healthy
// cells must still aggregate exactly like their sequential counterparts.
TEST(Parallel, SweepContentionRacingExceptionsStayDeterministic) {
  ExperimentConfig bad = tiny(Protocol::Epidemic, 1);
  bad.scenario.trace_config.nodes = 1;  // invalid: throws in run_experiment
  std::vector<SweepCell> cells;
  for (std::uint64_t s = 0; s < 6; ++s) {
    cells.push_back({tiny(Protocol::Epidemic, 20 + s), 2});
  }
  cells.insert(cells.begin() + 2, {bad, 2});  // flat indices 4..5 fail first
  cells.push_back({bad, 1});                  // and a racing failure at the tail
  for (int trial = 0; trial < 3; ++trial) {
    EXPECT_THROW((void)run_sweep(cells, 8), std::invalid_argument) << trial;
  }
}

TEST(Parallel, RepeatedParallelMatchesSequentialAggregate) {
  const ExperimentConfig base = tiny(Protocol::G2GEpidemic, 9);
  const AggregateResult par = run_repeated_parallel(base, 4, 4);
  const AggregateResult seq = run_repeated(base, 4);
  EXPECT_EQ(par.success_rate.count(), seq.success_rate.count());
  EXPECT_NEAR(par.success_rate.mean(), seq.success_rate.mean(), 1e-12);
  EXPECT_NEAR(par.avg_replicas.mean(), seq.avg_replicas.mean(), 1e-12);
}

}  // namespace
}  // namespace g2g::core
