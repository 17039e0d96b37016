// g2gsim — full command-line simulation driver.
//
// The "adopt this repo" entry point: run any of the six protocols on a
// built-in scenario or on your own contact trace file, with every knob of
// the experiment runner exposed as a flag.
//
//   $ ./g2gsim --scenario infocom05 --protocol g2g-epidemic
//   $ ./g2gsim --scenario cambridge06 --protocol g2g-delegation-lc
//              --deviation dropper --deviants 10 --outsiders --seed 9
//   $ ./g2gsim --protocol epidemic --ttl-min 20 --runs 3 --csv
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "g2g/core/experiment.hpp"
#include "g2g/core/report.hpp"
#include "g2g/obs/tracer.hpp"
#include "g2g/util/parse_number.hpp"

namespace {

using namespace g2g;
using namespace g2g::core;

struct CliOptions {
  std::string scenario = "infocom05";
  std::string protocol = "g2g-epidemic";
  std::string deviation = "none";
  std::size_t deviants = 0;
  bool outsiders = false;
  std::uint64_t seed = 1;
  std::size_t runs = 1;
  std::optional<double> ttl_min;
  double interarrival_s = 4.0;
  bool csv = false;
  bool schnorr = false;
  std::optional<std::string> trace_out;  ///< stream events as JSONL to this file
  bool obs = false;                      ///< print counters + stage profile
};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --scenario  infocom05|cambridge06        (default infocom05)\n"
      "  --protocol  epidemic|g2g-epidemic|delegation-freq|delegation-lc|\n"
      "              g2g-delegation-freq|g2g-delegation-lc\n"
      "  --deviation none|dropper|liar|cheater|hoarder (default none)\n"
      "  --deviants  N                            (default 0, at most the\n"
      "                                           scenario's node count)\n"
      "  --outsiders                              deviate only with outsiders\n"
      "  --ttl-min   MINUTES                      override Delta1/TTL (> 0)\n"
      "  --interarrival SECONDS                   traffic mean gap (default 4, > 0)\n"
      "  --seed S    --runs N                     repetitions average results\n"
      "                                           (N >= 1)\n"
      "  --schnorr                                real public-key suite\n"
      "  --csv                                    machine-readable output\n"
      "  --trace-out FILE                         stream simulation events (JSONL)\n"
      "  --obs                                    print protocol counters and\n"
      "                                           pipeline stage times\n",
      argv0);
  return 2;
}

// Time flags span [1e-6, 1e9] of their unit: at least the simulator's 1 µs
// resolution, and far from overflowing its 64-bit microsecond clock.
constexpr double kMinTime = 1e-6;
constexpr double kMaxTime = 1e9;

std::optional<Protocol> parse_protocol(const std::string& s) {
  if (s == "epidemic") return Protocol::Epidemic;
  if (s == "g2g-epidemic") return Protocol::G2GEpidemic;
  if (s == "delegation-freq") return Protocol::DelegationFrequency;
  if (s == "delegation-lc") return Protocol::DelegationLastContact;
  if (s == "g2g-delegation-freq") return Protocol::G2GDelegationFrequency;
  if (s == "g2g-delegation-lc") return Protocol::G2GDelegationLastContact;
  return std::nullopt;
}

std::optional<proto::Behavior> parse_deviation(const std::string& s) {
  if (s == "none") return proto::Behavior::Faithful;
  if (s == "dropper") return proto::Behavior::Dropper;
  if (s == "liar") return proto::Behavior::Liar;
  if (s == "cheater") return proto::Behavior::Cheater;
  if (s == "hoarder") return proto::Behavior::Hoarder;
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--scenario") {
      opt.scenario = next();
    } else if (arg == "--protocol") {
      opt.protocol = next();
    } else if (arg == "--deviation") {
      opt.deviation = next();
    } else if (arg == "--deviants") {
      // Checked against the scenario's node count once --scenario is known.
      const auto v = parse_number<std::size_t>(next());
      if (!v) return usage(argv[0]);
      opt.deviants = *v;
    } else if (arg == "--outsiders") {
      opt.outsiders = true;
    } else if (arg == "--seed") {
      const auto v = parse_number<std::uint64_t>(next());
      if (!v) return usage(argv[0]);
      opt.seed = *v;
    } else if (arg == "--runs") {
      const auto v = parse_number<std::size_t>(next(), 1);
      if (!v) return usage(argv[0]);
      opt.runs = *v;
    } else if (arg == "--ttl-min") {
      opt.ttl_min = parse_number(next(), kMinTime, kMaxTime);
      if (!opt.ttl_min) return usage(argv[0]);
    } else if (arg == "--interarrival") {
      const auto v = parse_number(next(), kMinTime, kMaxTime);
      if (!v) return usage(argv[0]);
      opt.interarrival_s = *v;
    } else if (arg == "--csv") {
      opt.csv = true;
    } else if (arg == "--schnorr") {
      opt.schnorr = true;
    } else if (arg == "--trace-out") {
      opt.trace_out = next();
    } else if (arg == "--obs") {
      opt.obs = true;
    } else {
      return usage(argv[0]);
    }
  }

  const auto protocol = parse_protocol(opt.protocol);
  const auto deviation = parse_deviation(opt.deviation);
  if (!protocol || !deviation ||
      (opt.scenario != "infocom05" && opt.scenario != "cambridge06")) {
    return usage(argv[0]);
  }

  ExperimentConfig cfg;
  cfg.scenario = opt.scenario == "infocom05" ? infocom05_scenario(opt.seed)
                                             : cambridge06_scenario(opt.seed);
  if (opt.deviants > cfg.scenario.trace_config.nodes) return usage(argv[0]);
  cfg.protocol = *protocol;
  cfg.deviation = *deviation;
  cfg.deviant_count = opt.deviants;
  cfg.with_outsiders = opt.outsiders;
  cfg.seed = opt.seed;
  cfg.mean_interarrival = Duration::seconds(opt.interarrival_s);
  if (opt.ttl_min) cfg.delta1_override = Duration::minutes(*opt.ttl_min);
  if (opt.schnorr) cfg.suite = crypto::make_schnorr_suite();

  std::unique_ptr<obs::JsonlSink> sink;
  if (opt.trace_out) {
    sink = obs::JsonlSink::open(*opt.trace_out);
    if (!sink) {
      std::fprintf(stderr, "error: cannot open %s for writing\n", opt.trace_out->c_str());
      return 1;
    }
    cfg.trace_sink = sink.get();
  }

  ExperimentResult last;
  const AggregateResult agg =
      run_repeated(cfg, opt.runs, opt.obs ? &last : nullptr);

  Table table({"metric", "mean", "min", "max"});
  table.add_row({"success rate", fmt_pct(agg.success_rate.mean()),
                 fmt_pct(agg.success_rate.min()), fmt_pct(agg.success_rate.max())});
  table.add_row({"avg delay (min)", fmt(agg.avg_delay_s.mean() / 60.0, 1),
                 fmt(agg.avg_delay_s.min() / 60.0, 1), fmt(agg.avg_delay_s.max() / 60.0, 1)});
  table.add_row({"cost (replicas/msg)", fmt(agg.avg_replicas.mean(), 2),
                 fmt(agg.avg_replicas.min(), 2), fmt(agg.avg_replicas.max(), 2)});
  if (opt.deviants > 0) {
    table.add_row({"detection rate", fmt_pct(agg.detection_rate.mean()),
                   fmt_pct(agg.detection_rate.min()), fmt_pct(agg.detection_rate.max())});
    table.add_row({"detect time (min after D1)", fmt(agg.detection_minutes.mean(), 1),
                   fmt(agg.detection_minutes.min(), 1), fmt(agg.detection_minutes.max(), 1)});
    table.add_row({"false accusations", std::to_string(agg.false_positives), "-", "-"});
  }

  if (!opt.csv) {
    std::printf("%s on %s | deviation=%s x%zu%s | runs=%zu seed=%llu\n",
                to_string(cfg.protocol), cfg.scenario.name.c_str(), opt.deviation.c_str(),
                opt.deviants, opt.outsiders ? " (outsiders)" : "", opt.runs,
                static_cast<unsigned long long>(opt.seed));
  }
  if (opt.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  if (opt.obs) {
    // Counters and stage times of the final run (seed = seed + runs - 1).
    Table counters({"counter", "value"});
    for (const auto& [name, counter] : last.counters.counters()) {
      if (counter.value() > 0) counters.add_row({name, std::to_string(counter.value())});
    }
    Table stages({"stage", "seconds"});
    for (const auto& stage : last.stages.stages()) {
      stages.add_row({stage.name, fmt(stage.seconds, 3)});
    }
    if (!opt.csv) std::printf("\nprotocol counters (last run)\n");
    opt.csv ? counters.print_csv(std::cout) : counters.print(std::cout);
    if (!opt.csv) std::printf("\npipeline stages (last run)\n");
    opt.csv ? stages.print_csv(std::cout) : stages.print(std::cout);
  }
  if (sink) {
    std::fprintf(stderr, "wrote %llu events to %s\n",
                 static_cast<unsigned long long>(sink->lines_written()),
                 opt.trace_out->c_str());
  }
  return 0;
}
