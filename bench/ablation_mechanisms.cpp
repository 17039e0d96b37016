// Ablation bench for the design choices DESIGN.md calls out:
//   1. Delta2/Delta1 ratio    — detection rate vs how long state is kept
//                               (the paper argues Delta2 = 2*Delta1 suffices);
//   2. relay fanout           — the two-relay cap is both the Nash mechanism
//                               and the ~20% cost saving;
//   3. TTL semantics          — message-global Delta1 (default) vs per-holder;
//   4. PoM dissemination      — epidemic gossip vs an instant-broadcast oracle.
#include <iostream>

#include "bench_util.hpp"
#include "g2g/core/parallel.hpp"

using namespace g2g;
using namespace g2g::core;

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  const Scenario scen = infocom05_scenario(opt.seed);
  const std::size_t runs = opt.quick ? 1 : opt.runs;

  std::cout << "== Ablations of the Give2Get mechanisms (Infocom05 stand-in) ==\n\n";

  // Telemetry covers the two swept sections; the Delta2 and TTL sections
  // read per-run results and run outside the sweep pool.
  std::vector<bench::BenchCell> bench_cells;

  {
    std::cout << "-- Delta2 / Delta1: test-window length vs dropper detection --\n";
    Table table({"delta2/delta1", "detection rate", "avg detect time", "memory (GB*s)"});
    for (const double factor : {1.25, 1.5, 2.0, 3.0}) {
      ExperimentConfig cfg;
      cfg.protocol = Protocol::G2GEpidemic;
      cfg.scenario = scen;
      cfg.deviation = proto::Behavior::Dropper;
      cfg.deviant_count = 10;
      cfg.delta2_factor = factor;
      cfg.seed = opt.seed;
      double mem = 0.0;
      AggregateResult agg;
      for (std::size_t i = 0; i < runs; ++i) {
        cfg.seed = opt.seed + i;
        const ExperimentResult r = run_experiment(cfg);
        agg.detection_rate.add(r.detection_rate);
        if (!r.detection_minutes_after_delta1.empty()) {
          agg.detection_minutes.add(r.detection_minutes_after_delta1.mean());
        }
        for (std::uint32_t n = 0; n < scen.trace_config.nodes; ++n) {
          mem += r.collector.costs(NodeId(n)).memory_byte_seconds;
        }
      }
      table.add_row({fmt(factor, 2), fmt_pct(agg.detection_rate.mean()),
                     fmt_minutes(agg.detection_minutes.mean()),
                     fmt(mem / static_cast<double>(runs) / 1e9, 3)});
    }
    bench::emit(table, opt);
  }

  {
    std::cout << "-- Relay fanout: forwarding duty per relay --\n";
    const std::vector<std::size_t> fanouts{1, 2, 3, 4};
    std::vector<SweepCell> cells;
    std::vector<std::string> names;
    for (const std::size_t fanout : fanouts) {
      ExperimentConfig cfg;
      cfg.protocol = Protocol::G2GEpidemic;
      cfg.scenario = scen;
      cfg.relay_fanout = fanout;
      cfg.seed = opt.seed;
      cells.push_back({std::move(cfg), runs});
      names.push_back("fanout=" + std::to_string(fanout));
    }
    const std::vector<AggregateResult> aggs = bench::sweep(cells, names, opt, bench_cells);

    Table table({"fanout", "success", "cost (replicas)", "avg delay"});
    for (std::size_t i = 0; i < fanouts.size(); ++i) {
      const AggregateResult& agg = aggs[i];
      table.add_row({std::to_string(fanouts[i]), fmt_pct(agg.success_rate.mean()),
                     fmt(agg.avg_replicas.mean(), 2),
                     fmt_minutes(agg.avg_delay_s.mean() / 60.0)});
    }
    bench::emit(table, opt);
  }

  {
    std::cout << "-- TTL semantics: message-global Delta1 vs per-holder --\n";
    Table table({"protocol", "ttl semantics", "success", "cost", "avg delay"});
    for (const Protocol p : {Protocol::G2GEpidemic, Protocol::G2GDelegationLastContact}) {
      for (const bool global : {true, false}) {
        ExperimentConfig cfg;
        cfg.protocol = p;
        cfg.scenario = scen;
        cfg.seed = opt.seed;
        // Route the flag through a scenario copy: NodeConfig is assembled by
        // the runner, so use the dedicated override.
        AggregateResult agg;
        for (std::size_t i = 0; i < runs; ++i) {
          cfg.seed = opt.seed + i;
          ExperimentConfig run_cfg = cfg;
          run_cfg.per_holder_ttl = !global;
          const ExperimentResult r = run_experiment(run_cfg);
          agg.success_rate.add(r.success_rate);
          agg.avg_replicas.add(r.avg_replicas);
          if (!r.delay_seconds.empty()) agg.avg_delay_s.add(r.delay_seconds.mean());
        }
        table.add_row({to_string(p), global ? "global (paper)" : "per-holder",
                       fmt_pct(agg.success_rate.mean()), fmt(agg.avg_replicas.mean(), 2),
                       fmt_minutes(agg.avg_delay_s.mean() / 60.0)});
      }
    }
    bench::emit(table, opt);
  }

  {
    std::cout << "-- PoM dissemination: epidemic gossip vs instant broadcast --\n";
    std::vector<SweepCell> cells;
    std::vector<std::string> names;
    for (const bool instant : {false, true}) {
      ExperimentConfig cfg;
      cfg.protocol = Protocol::G2GEpidemic;
      cfg.scenario = scen;
      cfg.deviation = proto::Behavior::Dropper;
      cfg.deviant_count = 15;
      cfg.instant_pom_broadcast = instant;
      cfg.seed = opt.seed;
      cells.push_back({std::move(cfg), runs});
      names.push_back(instant ? "pom=instant" : "pom=gossip");
    }
    const std::vector<AggregateResult> aggs = bench::sweep(cells, names, opt, bench_cells);

    Table table({"dissemination", "post-eviction success", "detection rate"});
    for (int instant = 0; instant < 2; ++instant) {
      const AggregateResult& agg = aggs[static_cast<std::size_t>(instant)];
      table.add_row({instant ? "instant (oracle)" : "gossip (default)",
                     fmt_pct(agg.success_rate.mean()), fmt_pct(agg.detection_rate.mean())});
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
    bench::report("ablation_mechanisms", repr, opt, std::move(bench_cells));
  }
  return 0;
}
