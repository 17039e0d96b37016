// Figure 3 — "Effect of message droppers on Epidemic Forwarding".
// Delivery rate of vanilla Epidemic Forwarding as the number of droppers
// grows, for plain selfishness and selfishness-with-outsiders, on both
// trace stand-ins. Paper shape: delivery collapses toward the direct
// source-destination meeting probability as everyone drops.
#include <iostream>

#include "bench_util.hpp"
#include "g2g/core/parallel.hpp"

using namespace g2g;
using namespace g2g::core;

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  std::cout << "== Fig. 3: effect of message droppers on Epidemic Forwarding ==\n\n";

  std::vector<bench::BenchCell> bench_cells;
  for (const Scenario& scen : bench::both_scenarios(opt.seed)) {
    const std::vector<std::size_t> counts =
        bench::dropper_counts(scen.trace_config.nodes, opt.quick);
    std::vector<SweepCell> cells;
    std::vector<std::string> names;
    for (const std::size_t n : counts) {
      ExperimentConfig cfg;
      cfg.protocol = Protocol::Epidemic;
      cfg.scenario = scen;
      cfg.deviation = proto::Behavior::Dropper;
      cfg.deviant_count = n;
      cfg.seed = opt.seed;

      const std::string stem = scen.name + "/droppers=" + std::to_string(n);
      cfg.with_outsiders = false;
      cells.push_back({cfg, opt.runs});
      names.push_back(stem + "/plain");
      cfg.with_outsiders = true;
      cells.push_back({cfg, opt.runs});
      names.push_back(stem + "/outsiders");
    }
    const std::vector<AggregateResult> agg = bench::sweep(cells, names, opt, bench_cells);

    Table table({"scenario", "droppers", "delivery% (plain)", "delivery% (w/ outsiders)"});
    for (std::size_t i = 0; i < counts.size(); ++i) {
      table.add_row({scen.name, std::to_string(counts[i]),
                     fmt_pct(agg[2 * i].success_rate.mean()),
                     fmt_pct(agg[2 * i + 1].success_rate.mean())});
    }
    bench::emit(table, opt);
  }
  {
    ExperimentConfig repr;
    repr.protocol = Protocol::Epidemic;
    repr.scenario = infocom05_scenario(opt.seed);
    repr.deviation = proto::Behavior::Dropper;
    repr.deviant_count = 10;
    repr.seed = opt.seed;
    bench::report("fig3", repr, opt, std::move(bench_cells));
  }
  return 0;
}
