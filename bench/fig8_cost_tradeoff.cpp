// Figure 8 — "Performance of G2G Epidemic Forwarding and G2G Delegation
// Forwarding compared with Epidemic Forwarding and Delegation Forwarding":
// success rate vs cost and delay vs cost for all six protocols, on both
// trace stand-ins. We trace each protocol's curve by sweeping the TTL/Delta1
// (the natural cost knob), exactly as the cost axis of the paper's figure.
// Paper shape: the G2G variants sit at ~20% lower cost than their alter egos
// at comparable success rate and delay.
#include <iostream>

#include "bench_util.hpp"
#include "g2g/core/parallel.hpp"

using namespace g2g;
using namespace g2g::core;

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  std::cout << "== Fig. 8: success rate / delay vs cost for all six protocols ==\n"
            << "   (cost = replicas per generated message; each row is one TTL point)\n\n";

  const Protocol protocols[] = {
      Protocol::Epidemic,
      Protocol::G2GEpidemic,
      Protocol::DelegationLastContact,
      Protocol::G2GDelegationLastContact,
      Protocol::DelegationFrequency,
      Protocol::G2GDelegationFrequency,
  };
  const std::vector<double> ttl_minutes =
      opt.quick ? std::vector<double>{15.0, 45.0} : std::vector<double>{10.0, 20.0, 30.0, 45.0};

  std::vector<bench::BenchCell> bench_cells;
  for (const Scenario& scen : bench::both_scenarios(opt.seed)) {
    const std::size_t runs = opt.quick ? 1 : opt.runs;
    // All TTL points for all six protocols plus the headline row configs go
    // through one pool.
    std::vector<SweepCell> cells;
    std::vector<std::string> names;
    for (const Protocol p : protocols) {
      for (const double ttl : ttl_minutes) {
        ExperimentConfig cfg;
        cfg.protocol = p;
        cfg.scenario = scen;
        cfg.delta1_override = Duration::minutes(ttl);
        cfg.seed = opt.seed;
        cells.push_back({std::move(cfg), runs});
        names.push_back(scen.name + "/" + to_string(p) + "/ttl=" + fmt(ttl, 0) + "m");
      }
    }
    for (const Protocol p : protocols) {
      ExperimentConfig cfg;
      cfg.protocol = p;
      cfg.scenario = scen;
      cfg.seed = opt.seed;
      cells.push_back({std::move(cfg), runs});
      names.push_back(scen.name + "/" + to_string(p) + "/ttl=paper");
    }
    const std::vector<AggregateResult> aggs = bench::sweep(cells, names, opt, bench_cells);

    Table table({"scenario", "protocol", "ttl", "cost (replicas)", "success rate",
                 "avg delay"});
    std::size_t k = 0;
    for (const Protocol p : protocols) {
      for (const double ttl : ttl_minutes) {
        const AggregateResult& agg = aggs[k++];
        table.add_row({scen.name, to_string(p), fmt(ttl, 0) + "m",
                       fmt(agg.avg_replicas.mean(), 2), fmt_pct(agg.success_rate.mean()),
                       fmt_minutes(agg.avg_delay_s.mean() / 60.0)});
      }
    }
    bench::emit(table, opt);

    // Headline comparison at the paper's per-scenario TTL.
    Table headline({"scenario", "protocol", "cost", "success", "delay",
                    "cost vs vanilla"});
    double vanilla_epi_cost = 0.0;
    double vanilla_del_cost[2] = {0.0, 0.0};  // [LastContact, Frequency]
    for (const Protocol p : protocols) {
      const AggregateResult& agg = aggs[k++];
      const double cost = agg.avg_replicas.mean();
      std::string rel = "-";
      if (p == Protocol::Epidemic) {
        vanilla_epi_cost = cost;
      } else if (p == Protocol::DelegationLastContact) {
        vanilla_del_cost[0] = cost;
      } else if (p == Protocol::DelegationFrequency) {
        vanilla_del_cost[1] = cost;
      } else {
        const double base = p == Protocol::G2GEpidemic ? vanilla_epi_cost
                            : p == Protocol::G2GDelegationLastContact
                                ? vanilla_del_cost[0]
                                : vanilla_del_cost[1];
        if (base > 0) rel = fmt((cost / base - 1.0) * 100.0, 1) + "%";
      }
      headline.add_row({scen.name, to_string(p), fmt(cost, 2),
                        fmt_pct(agg.success_rate.mean()),
                        fmt_minutes(agg.avg_delay_s.mean() / 60.0), rel});
    }
    bench::emit(headline, opt);
  }
  {
    ExperimentConfig repr;
    repr.protocol = Protocol::G2GEpidemic;
    repr.scenario = infocom05_scenario(opt.seed);
    repr.seed = opt.seed;
    bench::report("fig8", repr, opt, std::move(bench_cells));
  }
  return 0;
}
