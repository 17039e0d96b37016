// Finite-buffer extension bench. The paper assumes infinite buffers
// (Section V-C); this sweep shows how the vanilla protocols degrade when
// relays can only hold a bounded number of messages (drop-closest-to-expiry
// policy), and that Delegation — which creates far fewer replicas — is much
// more robust to small buffers than Epidemic.
#include <iostream>

#include "bench_util.hpp"
#include "g2g/core/parallel.hpp"

using namespace g2g;
using namespace g2g::core;

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  const std::size_t runs = opt.quick ? 1 : opt.runs;

  std::cout << "== Extension: finite relay buffers (vanilla protocols) ==\n"
            << "   (0 = unlimited, the paper's assumption)\n\n";

  const std::vector<std::size_t> caps{0, 400, 200, 100, 50, 25};
  std::vector<bench::BenchCell> bench_cells;
  for (const Scenario& scen : bench::both_scenarios(opt.seed)) {
    std::vector<SweepCell> cells;
    std::vector<std::string> names;
    for (const std::size_t cap : caps) {
      ExperimentConfig cfg;
      cfg.scenario = scen;
      cfg.max_buffer_messages = cap;
      cfg.seed = opt.seed;

      const std::string stem = scen.name + "/cap=" + std::to_string(cap) + "/";
      cfg.protocol = Protocol::Epidemic;
      cells.push_back({cfg, runs});
      names.push_back(stem + to_string(cfg.protocol));
      cfg.protocol = Protocol::DelegationLastContact;
      cells.push_back({cfg, runs});
      names.push_back(stem + to_string(cfg.protocol));
    }
    const std::vector<AggregateResult> aggs = bench::sweep(cells, names, opt, bench_cells);

    Table table({"scenario", "buffer cap", "Epidemic success", "Epidemic cost",
                 "Delegation success", "Delegation cost"});
    for (std::size_t i = 0; i < caps.size(); ++i) {
      const AggregateResult& epi = aggs[2 * i];
      const AggregateResult& del = aggs[2 * i + 1];
      table.add_row({scen.name, caps[i] == 0 ? "unlimited" : std::to_string(caps[i]),
                     fmt_pct(epi.success_rate.mean()), fmt(epi.avg_replicas.mean(), 1),
                     fmt_pct(del.success_rate.mean()), fmt(del.avg_replicas.mean(), 1)});
    }
    bench::emit(table, opt);
  }
  {
    ExperimentConfig repr;
    repr.protocol = Protocol::Epidemic;
    repr.scenario = infocom05_scenario(opt.seed);
    repr.max_buffer_messages = 50;
    repr.seed = opt.seed;
    bench::report("ablation_buffers", repr, opt, std::move(bench_cells));
  }
  return 0;
}
