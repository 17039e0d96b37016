// Figure 5 — "Effect of message droppers and liars on Delegation Forwarding"
// (four panels: droppers/liars x Infocom05/Cambridge06, each with the plain
// and with-outsiders variants).
// Paper shape: both deviations cut delivery substantially as their number
// grows; liars starve the delegation mechanism, droppers break relay chains.
#include <iostream>

#include "bench_util.hpp"
#include "g2g/core/parallel.hpp"

using namespace g2g;
using namespace g2g::core;

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  std::cout << "== Fig. 5: droppers and liars on (vanilla) Delegation Forwarding ==\n"
            << "   (Delegation Destination Last Contact, as in the paper's Section VII)\n\n";

  std::vector<bench::BenchCell> bench_cells;
  for (const Scenario& scen : bench::both_scenarios(opt.seed)) {
    for (const proto::Behavior behavior : {proto::Behavior::Dropper, proto::Behavior::Liar}) {
      const std::vector<std::size_t> counts =
          bench::dropper_counts(scen.trace_config.nodes, opt.quick);
      std::vector<SweepCell> cells;
      std::vector<std::string> names;
      for (const std::size_t n : counts) {
        ExperimentConfig cfg;
        cfg.protocol = Protocol::DelegationLastContact;
        cfg.scenario = scen;
        cfg.deviation = behavior;
        cfg.deviant_count = n;
        cfg.seed = opt.seed;

        const std::string stem = scen.name + "/" + proto::to_string(behavior) +
                                 "s=" + std::to_string(n);
        cfg.with_outsiders = false;
        cells.push_back({cfg, opt.runs});
        names.push_back(stem + "/plain");
        cfg.with_outsiders = true;
        cells.push_back({cfg, opt.runs});
        names.push_back(stem + "/outsiders");
      }
      const std::vector<AggregateResult> agg = bench::sweep(cells, names, opt, bench_cells);

      Table table({"scenario", "deviation", "count", "delivery% (plain)",
                   "delivery% (w/ outsiders)"});
      for (std::size_t i = 0; i < counts.size(); ++i) {
        table.add_row({scen.name, proto::to_string(behavior), std::to_string(counts[i]),
                       fmt_pct(agg[2 * i].success_rate.mean()),
                       fmt_pct(agg[2 * i + 1].success_rate.mean())});
      }
      bench::emit(table, opt);
    }
  }
  {
    ExperimentConfig repr;
    repr.protocol = Protocol::DelegationFrequency;
    repr.scenario = infocom05_scenario(opt.seed);
    repr.deviation = proto::Behavior::Dropper;
    repr.deviant_count = 10;
    repr.seed = opt.seed;
    bench::report("fig5", repr, opt, std::move(bench_cells));
  }
  return 0;
}
