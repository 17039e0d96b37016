#include "g2g/core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

namespace g2g::core {

namespace {

/// Compact per-run record: everything run_repeated's aggregation reads from
/// an ExperimentResult, in a few dozen bytes. Folding into these as runs
/// finish is what keeps huge sweeps memory-light.
struct RunSummary {
  double success_rate = 0.0;
  bool has_delay = false;
  double delay_mean_s = 0.0;
  double avg_replicas = 0.0;
  std::size_t deviant_count = 0;
  double detection_rate = 0.0;
  bool has_detection_minutes = false;
  double detection_minutes_mean = 0.0;
  std::size_t false_positives = 0;
  // Perf telemetry (CellTelemetry); rides along with the summary but is
  // folded separately and never enters the AggregateResult.
  double wall_s = 0.0;
  std::uint64_t sim_events = 0;
};

RunSummary summarize(const ExperimentResult& r) {
  RunSummary s;
  s.success_rate = r.success_rate;
  s.has_delay = !r.delay_seconds.empty();
  if (s.has_delay) s.delay_mean_s = r.delay_seconds.mean();
  s.avg_replicas = r.avg_replicas;
  s.deviant_count = r.deviant_count;
  s.detection_rate = r.detection_rate;
  s.has_detection_minutes = !r.detection_minutes_after_delta1.empty();
  if (s.has_detection_minutes) {
    s.detection_minutes_mean = r.detection_minutes_after_delta1.mean();
  }
  s.false_positives = r.false_positives;
  s.sim_events = r.counters.value("g2g.sim.events_fired");
  return s;
}

void fold(AggregateResult& agg, const RunSummary& s) {
  agg.success_rate.add(s.success_rate);
  if (s.has_delay) agg.avg_delay_s.add(s.delay_mean_s);
  agg.avg_replicas.add(s.avg_replicas);
  if (s.deviant_count > 0) {
    agg.detection_rate.add(s.detection_rate);
    if (s.has_detection_minutes) agg.detection_minutes.add(s.detection_minutes_mean);
  }
  agg.false_positives += s.false_positives;
}

}  // namespace

void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  threads = std::min(threads, count);

  // g2g-lint: allow(no-adhoc-atomic) -- work-claim cursor, not a counter;
  // results are reduced in index order, so the claim order never shows up.
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::vector<std::pair<std::size_t, std::exception_ptr>> errors;

  const auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      try {
        body(i);
      } catch (...) {
        const std::scoped_lock lock(error_mutex);
        errors.emplace_back(i, std::current_exception());
      }
    }
  };

  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  if (!errors.empty()) {
    // Every index ran; rethrow the failure of the lowest index so the caller
    // sees the same error no matter how the work was interleaved.
    const auto lowest =
        std::min_element(errors.begin(), errors.end(),
                         [](const auto& a, const auto& b) { return a.first < b.first; });
    std::rethrow_exception(lowest->second);
  }
}

std::vector<ExperimentResult> run_parallel(const std::vector<ExperimentConfig>& configs,
                                           std::size_t threads) {
  std::vector<ExperimentResult> results(configs.size());
  parallel_for(configs.size(), threads,
               [&](std::size_t i) { results[i] = run_experiment(configs[i]); });
  return results;
}

AggregateResult run_repeated_parallel(const ExperimentConfig& base, std::size_t runs,
                                      std::size_t threads) {
  const SweepCell cell{base, std::max<std::size_t>(1, runs)};
  return run_sweep({cell}, threads).front();
}

std::vector<AggregateResult> run_sweep(const std::vector<SweepCell>& cells,
                                       std::size_t threads,
                                       std::vector<CellTelemetry>* telemetry) {
  // Flatten every (cell, seed) pair into one global index space so the pool
  // is total-runs wide; per-run summaries land at their flat index and are
  // reduced per cell in seed order afterwards (deterministic regardless of
  // which worker ran what).
  std::vector<std::size_t> cell_of;
  std::vector<std::size_t> run_of;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const std::size_t runs = std::max<std::size_t>(1, cells[c].runs);
    for (std::size_t r = 0; r < runs; ++r) {
      cell_of.push_back(c);
      run_of.push_back(r);
    }
  }

  std::vector<RunSummary> summaries(cell_of.size());
  parallel_for(cell_of.size(), threads, [&](std::size_t i) {
    ExperimentConfig config = cells[cell_of[i]].config;
    config.seed += run_of[i];
    // steady_clock: perf telemetry only; results are summarized from the
    // run, never from the clock.
    const auto t0 = std::chrono::steady_clock::now();
    summaries[i] = summarize(run_experiment(config));
    summaries[i].wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  });

  std::vector<AggregateResult> aggregates(cells.size());
  if (telemetry != nullptr) {
    telemetry->assign(cells.size(), CellTelemetry{});
  }
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    fold(aggregates[cell_of[i]], summaries[i]);
    if (telemetry != nullptr) {
      (*telemetry)[cell_of[i]].wall_s += summaries[i].wall_s;
      (*telemetry)[cell_of[i]].sim_events += summaries[i].sim_events;
    }
  }
  return aggregates;
}

}  // namespace g2g::core
