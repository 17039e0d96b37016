// Figure 4 — "Dependence of droppers detection time from the number of
// droppers in G2G Epidemic Forwarding" (plus the detection probabilities the
// text quotes: 94.7% plain / 91.3% with outsiders).
// Paper shape: average detection time (measured after Delta1 expires) is
// minutes-scale and flat in the number of droppers.
#include <iostream>

#include "bench_util.hpp"
#include "g2g/core/parallel.hpp"

using namespace g2g;
using namespace g2g::core;

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  std::cout << "== Fig. 4: dropper detection time in G2G Epidemic Forwarding ==\n"
            << "   (detection time measured after the Delta1/TTL of the message)\n\n";

  std::vector<bench::BenchCell> bench_cells;
  for (const Scenario& scen : bench::both_scenarios(opt.seed)) {
    // Whole-figure sweep: every (dropper count, outsiders, seed) run goes
    // through one pool instead of per-cell round-robins.
    const std::vector<std::size_t> counts =
        bench::dropper_counts(scen.trace_config.nodes, opt.quick, /*include_zero=*/false);
    std::vector<SweepCell> cells;
    std::vector<std::string> names;
    for (const std::size_t n : counts) {
      ExperimentConfig cfg;
      cfg.protocol = Protocol::G2GEpidemic;
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

    Table table({"scenario", "droppers", "detect% (plain)", "avg time (plain)",
                 "detect% (outsiders)", "avg time (outsiders)"});
    for (std::size_t i = 0; i < counts.size(); ++i) {
      const AggregateResult& plain = agg[2 * i];
      const AggregateResult& outsiders = agg[2 * i + 1];
      table.add_row({scen.name, std::to_string(counts[i]),
                     fmt_pct(plain.detection_rate.mean()),
                     fmt_minutes(plain.detection_minutes.mean()),
                     fmt_pct(outsiders.detection_rate.mean()),
                     fmt_minutes(outsiders.detection_minutes.mean())});
    }
    bench::emit(table, opt);
  }
  {
    ExperimentConfig repr;
    repr.protocol = Protocol::G2GEpidemic;
    repr.scenario = infocom05_scenario(opt.seed);
    repr.deviation = proto::Behavior::Dropper;
    repr.deviant_count = 10;
    repr.seed = opt.seed;
    bench::report("fig4", repr, opt, std::move(bench_cells));
  }
  return 0;
}
