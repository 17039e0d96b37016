// Shared helpers for the reproduction benches: flag parsing, scenario
// iteration, and consistent table output. Every bench prints the rows/series
// of one paper table or figure (see DESIGN.md's experiment index).
#pragma once

#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "g2g/core/experiment.hpp"
#include "g2g/core/parallel.hpp"
#include "g2g/core/report.hpp"
#include "g2g/obs/tracer.hpp"
#include "g2g/util/parse_number.hpp"

namespace g2g::bench {

struct Options {
  bool quick = false;  ///< thin the sweeps for fast smoke runs
  bool csv = false;    ///< machine-readable output
  std::size_t runs = 2;
  std::uint64_t seed = 1;
  bool obs = false;        ///< print counters + stage times for one config
  std::string trace_out;   ///< stream one representative run as JSONL
  std::string json_out;    ///< write BENCH_<name>.json telemetry here
  std::size_t threads = 0;  ///< sweep worker threads (0 = hardware)
};

/// Fail fast on an unwritable output path: a bench that runs for minutes must
/// not discover at report time that its sink cannot be opened. Probed at flag
/// parse time, so `--trace-out /bad/x --help` still exits non-zero.
inline void require_writable(const std::string& path, const char* flag) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::cerr << "error: cannot open " << path << " for writing (" << flag << ")\n";
    std::exit(1);
  }
  std::fclose(f);
}

inline void print_usage(std::ostream& out, const char* argv0) {
  out << "usage: " << argv0
      << " [--quick] [--csv] [--runs N] [--seed S] [--obs]"
         " [--trace-out FILE] [--json-out FILE] [--threads N]\n";
}

/// A flag whose value is missing or rejected: the error and the usage on
/// stderr, exit 1 — like the other parse errors, before any work starts.
[[noreturn]] inline void usage_error(const char* argv0, const std::string& what) {
  std::cerr << "error: " << what << "\n";
  print_usage(std::cerr, argv0);
  std::exit(1);
}

/// The value of the flag at argv[i], advancing i past it.
inline const char* flag_value(int argc, char** argv, int& i) {
  if (i + 1 == argc) usage_error(argv[0], std::string("missing value for ") + argv[i]);
  ++i;
  return argv[i];
}

/// The value of the numeric flag at argv[i] as a T >= lo (parse_number's
/// strict rules), advancing i past it.
template <typename T>
T flag_number(int argc, char** argv, int& i, T lo) {
  const char* flag = argv[i];
  const char* text = flag_value(argc, argv, i);
  const std::optional<T> v = parse_number<T>(text, lo);
  if (!v) usage_error(argv[0], "bad value '" + std::string(text) + "' for " + flag);
  return *v;
}

inline Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--csv") {
      opt.csv = true;
    } else if (arg == "--runs") {
      opt.runs = flag_number<std::size_t>(argc, argv, i, 1);
    } else if (arg == "--seed") {
      opt.seed = flag_number<std::uint64_t>(argc, argv, i, 0);
    } else if (arg == "--obs") {
      opt.obs = true;
    } else if (arg == "--trace-out") {
      opt.trace_out = flag_value(argc, argv, i);
      require_writable(opt.trace_out, "--trace-out");
    } else if (arg == "--json-out") {
      opt.json_out = flag_value(argc, argv, i);
      require_writable(opt.json_out, "--json-out");
    } else if (arg == "--threads") {
      opt.threads = flag_number<std::size_t>(argc, argv, i, 0);  // 0: hardware
    } else if (arg == "--help" || arg == "-h") {
      print_usage(std::cout, argv[0]);
      std::exit(0);
    } else {
      // A typo'd flag silently ignored is the same failure class as an
      // unwritable sink: the sweep runs, the result is not what was asked.
      std::cerr << "error: unknown option '" << arg << "' (see --help)\n";
      std::exit(1);
    }
  }
  return opt;
}

inline std::vector<core::Scenario> both_scenarios(std::uint64_t seed) {
  return {core::infocom05_scenario(seed), core::cambridge06_scenario(seed)};
}

inline void emit(const core::Table& table, const Options& opt) {
  if (opt.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << '\n';
}

/// Observability report: when --obs, --trace-out, or --json-out was given,
/// re-run one representative config single-threaded with tracing attached.
/// --obs/--trace-out print the counter registry and stage profile; --json-out
/// reuses the same run's registry for the BENCH telemetry (the return value).
/// The parallel sweep itself stays untraced — one run, one ObsContext, one
/// sink, no interleaving. Exits non-zero if the trace sink cannot be opened.
inline std::optional<core::ExperimentResult> obs_report(core::ExperimentConfig cfg,
                                                        const Options& opt) {
  if (!opt.obs && opt.trace_out.empty() && opt.json_out.empty()) return std::nullopt;
  std::unique_ptr<obs::JsonlSink> sink;
  if (!opt.trace_out.empty()) {
    sink = obs::JsonlSink::open(opt.trace_out);
    if (!sink) {
      std::cerr << "error: cannot open " << opt.trace_out << " for writing\n";
      std::exit(1);
    }
    cfg.trace_sink = sink.get();
  }
  core::ExperimentResult r = core::run_experiment(cfg);
  if (opt.obs || !opt.trace_out.empty()) {
    if (!opt.csv) {
      std::cout << "observability report (one run: " << core::to_string(cfg.protocol)
                << " on " << cfg.scenario.name << ", seed " << cfg.seed << ")\n";
    }
    core::Table counters({"counter", "value"});
    for (const auto& [name, counter] : r.counters.counters()) {
      if (counter.value() > 0) counters.add_row({name, std::to_string(counter.value())});
    }
    emit(counters, opt);
    core::Table stages({"stage", "seconds"});
    for (const auto& stage : r.stages.stages()) {
      stages.add_row({stage.name, core::fmt(stage.seconds, 3)});
    }
    emit(stages, opt);
  }
  if (sink) {
    std::cerr << "wrote " << sink->lines_written() << " events to " << opt.trace_out
              << "\n";
  }
  return r;
}

/// The effective options and the crypto kernels as "config" key/value pairs
/// for the BENCH report.
inline std::vector<std::pair<std::string, std::string>> option_pairs(const Options& opt) {
  std::vector<std::pair<std::string, std::string>> pairs = {
      {"quick", opt.quick ? "true" : "false"},
      {"runs", std::to_string(opt.runs)},
      {"seed", std::to_string(opt.seed)}};
  for (auto& kernel : crypto_kernels()) pairs.push_back(std::move(kernel));
  return pairs;
}

/// core::run_sweep that also appends one telemetry row per sweep cell, named
/// by `names`, to `report` (the cells of BENCH_<name>.json).
inline std::vector<core::AggregateResult> sweep(const std::vector<core::SweepCell>& cells,
                                                const std::vector<std::string>& names,
                                                const Options& opt,
                                                std::vector<BenchCell>& report) {
  std::vector<core::CellTelemetry> telemetry;
  std::vector<core::AggregateResult> aggs = core::run_sweep(cells, opt.threads, &telemetry);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    report.push_back(
        BenchCell{names.at(i), cells[i].runs, telemetry[i].wall_s, telemetry[i].sim_events});
  }
  return aggs;
}

/// The tail of every table bench: the observability report of `repr` (see
/// obs_report), then, when --json-out was given, BENCH_<bench_name>.json with
/// the swept `cells` and that run's counters. Exits non-zero when the write
/// fails so CI never mistakes a missing report for a passing perf run.
inline void report(const std::string& bench_name, const core::ExperimentConfig& repr,
                   const Options& opt, std::vector<BenchCell> cells) {
  const std::optional<core::ExperimentResult> repr_result = obs_report(repr, opt);
  if (opt.json_out.empty()) return;
  BenchReport report;
  report.bench = bench_name;
  report.config = option_pairs(opt);
  report.cells = std::move(cells);
  report.registry = repr_result ? &repr_result->counters : nullptr;
  if (!report.write(opt.json_out)) std::exit(1);
}

/// Deviant-count sweep matching the paper's x axes (0..~nodes, step 5).
inline std::vector<std::size_t> dropper_counts(std::size_t nodes, bool quick,
                                               bool include_zero = true) {
  std::vector<std::size_t> out;
  if (include_zero) out.push_back(0);
  const std::size_t step = quick ? 15 : 5;
  for (std::size_t n = 5; n <= nodes; n += step) out.push_back(n);
  return out;
}

}  // namespace g2g::bench
