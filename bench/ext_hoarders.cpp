// Extension bench: hoarders — the deviation the paper defeats with energy
// rather than detection. A hoarder stores every message it accepts, never
// relays, and honestly answers the storage-proof challenge, so it is never
// evicted; but each challenge costs a heavy HMAC. This bench shows
//   (a) hoarders hurt delivery less than droppers (the message survives at
//       the hoarder and the source's other relay keeps working), and
//   (b) the energy bill on both sides: hoarders compute a heavy HMAC per
//       storage test they answer, and the faithful *sources* that verify the
//       STORED responses pay the same — testing is deliberately costly, which
//       is why only the source (the interested party) runs it.
#include <algorithm>
#include <iostream>

#include "bench_util.hpp"
#include "g2g/core/parallel.hpp"

using namespace g2g;
using namespace g2g::core;

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  const std::size_t runs = opt.quick ? 1 : opt.runs;

  std::cout << "== Extension: hoarders vs droppers under G2G Epidemic ==\n\n";

  const std::vector<std::size_t> deviant_counts{5, 15, 30};
  // Telemetry covers the dropper sweep; the hoarder runs stay outside it.
  std::vector<bench::BenchCell> bench_cells;
  for (const Scenario& scen : bench::both_scenarios(opt.seed)) {
    // The dropper baseline only needs the standard aggregates, so all three
    // counts go through one sweep; the hoarder runs need per-node collector
    // costs and stay on run_experiment.
    std::vector<SweepCell> dropper_cells;
    std::vector<std::string> names;
    for (const std::size_t n : deviant_counts) {
      ExperimentConfig cfg;
      cfg.protocol = Protocol::G2GEpidemic;
      cfg.scenario = scen;
      cfg.deviant_count = n;
      cfg.deviation = proto::Behavior::Dropper;
      cfg.seed = opt.seed;
      dropper_cells.push_back({std::move(cfg), runs});
      names.push_back(scen.name + "/droppers=" + std::to_string(n));
    }
    const std::vector<AggregateResult> dropper_aggs =
        bench::sweep(dropper_cells, names, opt, bench_cells);

    Table table({"scenario", "deviants", "dropper delivery", "hoarder delivery",
                 "hoarder HMACs/node", "faithful HMACs/node", "evicted hoarders"});
    for (std::size_t ci = 0; ci < deviant_counts.size(); ++ci) {
      const std::size_t n = deviant_counts[ci];
      const AggregateResult& droppers = dropper_aggs[ci];
      ExperimentConfig cfg;
      cfg.protocol = Protocol::G2GEpidemic;
      cfg.scenario = scen;
      cfg.deviant_count = n;
      cfg.seed = opt.seed;

      cfg.deviation = proto::Behavior::Hoarder;
      double hoarder_hmacs = 0.0;
      double faithful_hmacs = 0.0;
      std::size_t evicted = 0;
      RunningStats hoarder_delivery;
      for (std::size_t i = 0; i < runs; ++i) {
        cfg.seed = opt.seed + i;
        const ExperimentResult r = run_experiment(cfg);
        hoarder_delivery.add(r.success_rate);
        evicted += r.detected_count;
        std::size_t nh = 0;
        std::size_t nf = 0;
        double hh = 0.0;
        double fh = 0.0;
        for (std::uint32_t node = 0; node < scen.trace_config.nodes; ++node) {
          const bool deviant =
              std::binary_search(r.deviants.begin(), r.deviants.end(), NodeId(node));
          const double h = static_cast<double>(r.collector.costs(NodeId(node)).heavy_hmacs);
          if (deviant) {
            hh += h;
            ++nh;
          } else {
            fh += h;
            ++nf;
          }
        }
        hoarder_hmacs += hh / static_cast<double>(nh);
        // Faithful nodes also verify STORED responses as sources; exclude
        // nothing — the asymmetry is still stark.
        faithful_hmacs += fh / static_cast<double>(nf);
      }

      table.add_row({scen.name, std::to_string(n), fmt_pct(droppers.success_rate.mean()),
                     fmt_pct(hoarder_delivery.mean()),
                     fmt(hoarder_hmacs / static_cast<double>(runs), 1),
                     fmt(faithful_hmacs / static_cast<double>(runs), 1),
                     std::to_string(evicted)});
    }
    bench::emit(table, opt);
  }
  std::cout << "(hoarders are never evicted by design; their deterrent is the heavy-HMAC\n"
               " energy bill, which the payoff model prices above honest relaying)\n";
  {
    ExperimentConfig repr;
    repr.protocol = Protocol::G2GEpidemic;
    repr.scenario = infocom05_scenario(opt.seed);
    repr.deviation = proto::Behavior::Hoarder;
    repr.deviant_count = 10;
    repr.seed = opt.seed;
    bench::report("ext_hoarders", repr, opt, std::move(bench_cells));
  }
  return 0;
}
