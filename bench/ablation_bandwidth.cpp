// Bandwidth-limited contacts (extension bench). The paper assumes every
// contact completes all transfers; real radios do not. This sweep shows how
// delivery degrades as the per-contact byte budget (duration x bandwidth)
// shrinks, and that the G2G handshake overhead costs a little extra headroom
// at low bandwidth but nothing at realistic rates.
#include <iostream>

#include "bench_util.hpp"
#include "g2g/core/parallel.hpp"

using namespace g2g;
using namespace g2g::core;

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  const std::size_t runs = opt.quick ? 1 : opt.runs;

  std::cout << "== Extension: bandwidth-limited contacts ==\n"
            << "   (budget per contact = duration x bandwidth; 0 = unlimited)\n\n";

  const std::vector<double> bandwidths{0.0, 50000.0, 5000.0, 1000.0, 250.0};
  std::vector<bench::BenchCell> bench_cells;
  for (const Scenario& scen : bench::both_scenarios(opt.seed)) {
    std::vector<SweepCell> cells;
    std::vector<std::string> names;
    for (const double bw : bandwidths) {
      ExperimentConfig cfg;
      cfg.scenario = scen;
      cfg.bandwidth_bytes_per_s = bw;
      cfg.seed = opt.seed;

      const std::string stem = scen.name + "/bandwidth=" + fmt(bw, 0) + "/";
      cfg.protocol = Protocol::Epidemic;
      cells.push_back({cfg, runs});
      names.push_back(stem + to_string(cfg.protocol));
      cfg.protocol = Protocol::G2GEpidemic;
      cells.push_back({cfg, runs});
      names.push_back(stem + to_string(cfg.protocol));
    }
    const std::vector<AggregateResult> aggs = bench::sweep(cells, names, opt, bench_cells);

    Table table({"scenario", "bandwidth", "Epidemic success", "G2G Epidemic success",
                 "Epidemic cost", "G2G cost"});
    for (std::size_t i = 0; i < bandwidths.size(); ++i) {
      const double bw = bandwidths[i];
      const AggregateResult& epi = aggs[2 * i];
      const AggregateResult& g2g = aggs[2 * i + 1];
      table.add_row({scen.name, bw == 0.0 ? "unlimited" : fmt(bw / 1000.0, 2) + " kB/s",
                     fmt_pct(epi.success_rate.mean()), fmt_pct(g2g.success_rate.mean()),
                     fmt(epi.avg_replicas.mean(), 1), fmt(g2g.avg_replicas.mean(), 1)});
    }
    bench::emit(table, opt);
  }
  {
    ExperimentConfig repr;
    repr.protocol = Protocol::G2GEpidemic;
    repr.scenario = infocom05_scenario(opt.seed);
    repr.bandwidth_bytes_per_s = 1024.0 * 1024.0;
    repr.seed = opt.seed;
    bench::report("ablation_bandwidth", repr, opt, std::move(bench_cells));
  }
  return 0;
}
