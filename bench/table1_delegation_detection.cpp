// Table I — "Performance of G2G Delegation on the real traces": detection
// rate and average detection time for droppers, liars, and cheaters, plain
// and with-outsiders, on both trace stand-ins.
// Paper reference values (Infocom05 / Cambridge06):
//   droppers 88%/86% @ 12/21 min; liars 67%/65% @ 26/52 min;
//   cheaters 83%/84% @ 35/64 min (with-outsiders variants slightly lower).
// Expected shapes: high rates everywhere, zero false accusations, and longer
// times on the sparser Cambridge trace.
#include <iostream>

#include "bench_util.hpp"
#include "g2g/core/parallel.hpp"

using namespace g2g;
using namespace g2g::core;

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  std::cout << "== Table I: G2G Delegation detection performance ==\n"
            << "   (G2G Delegation Destination Last Contact; 10 deviants; detection\n"
            << "    time measured after the Delta1/TTL of the message)\n\n";

  const struct {
    proto::Behavior behavior;
    bool outsiders;
    const char* label;
  } rows[] = {
      {proto::Behavior::Dropper, false, "Droppers"},
      {proto::Behavior::Liar, false, "Liars"},
      {proto::Behavior::Cheater, false, "Cheaters"},
      {proto::Behavior::Dropper, true, "Droppers with outsiders"},
      {proto::Behavior::Liar, true, "Liars with outsiders"},
      {proto::Behavior::Cheater, true, "Cheaters with outsiders"},
  };

  std::vector<SweepCell> sweep;
  std::vector<std::string> names;
  std::vector<bench::BenchCell> bench_cells;
  for (const auto& row : rows) {
    for (const Scenario& scen : bench::both_scenarios(opt.seed)) {
      ExperimentConfig cfg;
      cfg.protocol = Protocol::G2GDelegationLastContact;
      cfg.scenario = scen;
      cfg.deviation = row.behavior;
      cfg.deviant_count = 10;
      cfg.with_outsiders = row.outsiders;
      cfg.seed = opt.seed;
      sweep.push_back({std::move(cfg),
                       opt.quick ? 1 : opt.runs + 1});
      names.push_back(scen.name + "/" + proto::to_string(row.behavior) +
                      (row.outsiders ? "_out" : ""));
    }
  }
  const std::vector<AggregateResult> aggs = bench::sweep(sweep, names, opt, bench_cells);

  Table table({"deviation", "infocom05 rate", "infocom05 time", "cambridge06 rate",
               "cambridge06 time", "false accusations"});
  std::size_t k = 0;
  for (const auto& row : rows) {
    std::vector<std::string> cells{row.label};
    std::size_t false_positives = 0;
    for (int scenario = 0; scenario < 2; ++scenario) {
      const AggregateResult& agg = aggs[k++];
      cells.push_back(fmt_pct(agg.detection_rate.mean()));
      cells.push_back(fmt_minutes(agg.detection_minutes.mean()));
      false_positives += agg.false_positives;
    }
    cells.push_back(std::to_string(false_positives));
    table.add_row(std::move(cells));
  }
  bench::emit(table, opt);
  {
    ExperimentConfig repr;
    repr.protocol = Protocol::G2GDelegationFrequency;
    repr.scenario = infocom05_scenario(opt.seed);
    repr.deviation = proto::Behavior::Liar;
    repr.deviant_count = 10;
    repr.seed = opt.seed;
    bench::report("table1", repr, opt, std::move(bench_cells));
  }
  return 0;
}
