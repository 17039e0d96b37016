// The shared main() of the google-benchmark micro benches (micro_crypto,
// micro_proto): the console table, plus `--json-out FILE` for a
// BENCH_<name>.json telemetry report.
//
// The console table is coloured only when stdout is a terminal, so a
// redirected run (`micro_crypto > file`) writes plain text.
#pragma once

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"

namespace g2g::bench {

/// Console output plus one telemetry cell per benchmark: wall_s is the total
/// measured real time, sim_events the iteration count, so events_per_s is
/// iterations per second — raw Run fields only, stable across
/// google-benchmark versions. allocs/op rides along only when a bench set an
/// "allocs_per_op" counter.
class CellCollector final : public benchmark::ConsoleReporter {
 public:
  CellCollector()
      : ConsoleReporter(::isatty(STDOUT_FILENO) != 0 ? OO_Defaults : OO_Tabular) {}

  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      BenchCell cell;
      cell.name = run.benchmark_name();
      cell.runs = 1;
      cell.wall_s = run.real_accumulated_time;
      cell.sim_events = static_cast<std::uint64_t>(run.iterations);
      const auto it = run.counters.find("allocs_per_op");
      if (it != run.counters.end()) cell.allocs_per_op = it->second;
      cells.push_back(std::move(cell));
    }
    ConsoleReporter::ReportRuns(report);
  }

  std::vector<BenchCell> cells;
};

/// Run the registered benchmarks with `argv` and, given `--json-out FILE`,
/// write the report for `bench` there. Returns the process exit code.
inline int micro_main(int argc, char** argv, const char* bench) {
  // Strip --json-out before google-benchmark parses the argv; probe the path
  // up front so a bad sink fails before any benchmark runs.
  std::string json_out;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json-out" && i + 1 < argc) {
      json_out = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  if (!json_out.empty()) {
    std::FILE* probe = std::fopen(json_out.c_str(), "w");
    if (probe == nullptr) {
      std::fprintf(stderr, "error: cannot open %s for writing (--json-out)\n",
                   json_out.c_str());
      return 1;
    }
    std::fclose(probe);
  }

  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) return 1;

  CellCollector reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!json_out.empty()) {
    BenchReport report;
    report.bench = bench;
    report.config = crypto_kernels();
    report.cells = std::move(reporter.cells);
    if (!report.write(json_out)) return 1;
  }
  return 0;
}

}  // namespace g2g::bench
