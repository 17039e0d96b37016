// Figure 7 — "Dependence of detection time from the number of selfish
// individuals in G2G Delegation Forwarding": average detection time vs the
// number of deviants, for droppers/liars/cheaters x plain/with-outsiders.
// Paper shape: detection time does not depend on the number of deviants.
#include <iostream>

#include "bench_util.hpp"
#include "g2g/core/parallel.hpp"

using namespace g2g;
using namespace g2g::core;

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  std::cout << "== Fig. 7: detection time vs number of selfish individuals ==\n"
            << "   (G2G Delegation Destination Last Contact; minutes after Delta1;\n"
            << "    '-' = no deviant was detected in the sampled runs)\n\n";

  std::vector<bench::BenchCell> bench_cells;
  for (const Scenario& scen : bench::both_scenarios(opt.seed)) {
    Table table({"scenario", "count", "droppers", "droppers(out)", "liars", "liars(out)",
                 "cheaters", "cheaters(out)"});
    std::vector<std::size_t> counts = opt.quick ? std::vector<std::size_t>{10, 30}
                                                : std::vector<std::size_t>{5, 10, 20, 30};
    const std::size_t cell_runs = opt.quick ? 1 : opt.runs;
    std::vector<SweepCell> sweep;
    std::vector<std::string> names;
    for (const std::size_t n : counts) {
      for (const proto::Behavior behavior :
           {proto::Behavior::Dropper, proto::Behavior::Liar, proto::Behavior::Cheater}) {
        for (const bool outsiders : {false, true}) {
          ExperimentConfig cfg;
          cfg.protocol = Protocol::G2GDelegationLastContact;
          cfg.scenario = scen;
          cfg.deviation = behavior;
          cfg.deviant_count = n;
          cfg.with_outsiders = outsiders;
          cfg.seed = opt.seed;
          sweep.push_back({cfg, cell_runs});
          std::string name = scen.name + "/count=" + std::to_string(n) + "/";
          name += behavior == proto::Behavior::Dropper ? "dropper"
                  : behavior == proto::Behavior::Liar  ? "liar"
                                                       : "cheater";
          if (outsiders) name += "_out";
          names.push_back(std::move(name));
        }
      }
    }
    const std::vector<AggregateResult> aggs = bench::sweep(sweep, names, opt, bench_cells);

    std::size_t k = 0;
    for (const std::size_t n : counts) {
      std::vector<std::string> cells{scen.name, std::to_string(n)};
      for (int column = 0; column < 6; ++column) {
        const AggregateResult& agg = aggs[k++];
        cells.push_back(agg.detection_minutes.count() == 0
                            ? "-"
                            : fmt_minutes(agg.detection_minutes.mean()));
      }
      table.add_row(std::move(cells));
    }
    bench::emit(table, opt);
  }
  {
    ExperimentConfig repr;
    repr.protocol = Protocol::G2GDelegationFrequency;
    repr.scenario = infocom05_scenario(opt.seed);
    repr.deviation = proto::Behavior::Dropper;
    repr.deviant_count = 10;
    repr.seed = opt.seed;
    bench::report("fig7", repr, opt, std::move(bench_cells));
  }
  return 0;
}
