#include "compare.hpp"

#include <cstdio>
#include <map>

namespace g2g::benchcompare {

namespace {

std::string fmt_ratio(double r) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", r);
  return buf;
}

struct CellView {
  double wall_s = 0.0;
  long long sim_events = -1;  ///< -1: cell carries no event count
  double events_per_s = 0.0;
  double allocs_per_op = -1.0;  ///< -1: cell carries no allocation telemetry
};

// A report's "config" as strings; empty when absent.
std::map<std::string, std::string> config_of(const tools::Value& report) {
  std::map<std::string, std::string> out;
  const tools::Value* config = report.find("config");
  if (config == nullptr || config->kind != tools::Value::Kind::Object) return out;
  for (const auto& [key, value] : config->object) out.emplace(key, value.str_or("?"));
  return out;
}

// "key base -> new" for every config key whose value differs, joined by
// ", "; a key only one side has reads "(none)" on the other. Empty when the
// two configs agree.
std::string config_changes(const tools::Value& base, const tools::Value& next) {
  const auto base_config = config_of(base);
  const auto next_config = config_of(next);
  std::map<std::string, std::pair<std::string, std::string>> changed;
  for (const auto& [key, value] : base_config) changed[key] = {value, "(none)"};
  for (const auto& [key, value] : next_config) {
    auto [it, added] = changed.try_emplace(key, "(none)", value);
    if (!added) it->second.second = value;
  }
  std::string out;
  for (const auto& [key, values] : changed) {
    if (values.first == values.second) continue;
    if (!out.empty()) out += ", ";
    out += key + " " + values.first + " -> " + values.second;
  }
  return out;
}

std::map<std::string, CellView> cells_of(const tools::Value& report) {
  std::map<std::string, CellView> out;
  const tools::Value* cells = report.find("cells");
  if (cells == nullptr || cells->kind != tools::Value::Kind::Array) return out;
  for (const tools::Value& cell : cells->array) {
    const tools::Value* name = cell.find("name");
    if (name == nullptr || name->kind != tools::Value::Kind::String) continue;
    CellView v;
    if (const tools::Value* w = cell.find("wall_s")) v.wall_s = w->num_or(0.0);
    if (const tools::Value* n = cell.find("sim_events")) v.sim_events = n->int_or(-1);
    if (const tools::Value* e = cell.find("events_per_s")) v.events_per_s = e->num_or(0.0);
    if (const tools::Value* a = cell.find("allocs_per_op")) v.allocs_per_op = a->num_or(-1.0);
    out.emplace(name->string, v);
  }
  return out;
}

void grade(Comparison& c, const Options& opt, const std::string& cell,
           const char* metric, double ratio) {
  if (ratio <= opt.warn_ratio) return;
  Diff d;
  d.severity = ratio > opt.fail_ratio ? Severity::Failure : Severity::Warning;
  d.message = cell + ": " + metric + " regressed " + fmt_ratio(ratio) +
              (d.severity == Severity::Failure ? " (fail threshold " : " (warn threshold ") +
              fmt_ratio(d.severity == Severity::Failure ? opt.fail_ratio : opt.warn_ratio) +
              ")";
  c.diffs.push_back(std::move(d));
}

}  // namespace

Comparison compare(const tools::Value& base, const tools::Value& next,
                   const Options& options) {
  Comparison c;

  const std::string base_rev = base.find("rev") ? base.find("rev")->str_or("?") : "?";
  const std::string next_rev = next.find("rev") ? next.find("rev")->str_or("?") : "?";
  if (base_rev != next_rev) {
    c.diffs.push_back({Severity::Info, "rev " + base_rev + " -> " + next_rev});
  }

  // Different options or crypto kernels ("sha256", "mont_mul"): the cells
  // below compare unlike runs, so say so once.
  const std::string config = config_changes(base, next);
  if (!config.empty()) c.diffs.push_back({Severity::Info, "config differs: " + config});

  const auto base_cells = cells_of(base);
  const auto next_cells = cells_of(next);

  for (const auto& [name, b] : base_cells) {
    const auto it = next_cells.find(name);
    if (it == next_cells.end()) {
      c.diffs.push_back({Severity::Warning, name + ": cell missing from new report"});
      continue;
    }
    const CellView& n = it->second;
    // Wall time is graded only over the same work: a google-benchmark cell
    // times however many iterations the library chose, and its per-operation
    // cost is the throughput grade below. Sub-millisecond cells are
    // noise-dominated; ratios there mean nothing.
    if (b.sim_events == n.sim_events && b.wall_s > 1e-3 && n.wall_s > 0.0) {
      grade(c, options, name, "wall time", n.wall_s / b.wall_s);
    }
    if (b.events_per_s > 0.0 && n.events_per_s > 0.0) {
      grade(c, options, name, "throughput", b.events_per_s / n.events_per_s);
    }
    // Allocation telemetry is deterministic, so it gets a hard edge: a cell
    // pinned allocation-free in the baseline must stay that way.
    if (b.allocs_per_op >= 0.0 && n.allocs_per_op >= 0.0) {
      if (b.allocs_per_op < 0.5 && n.allocs_per_op >= 0.5) {
        c.diffs.push_back({Severity::Failure,
                           name + ": allocations appeared on an allocation-free cell (" +
                               std::to_string(n.allocs_per_op) + " allocs/op)"});
      } else if (b.allocs_per_op >= 0.5) {
        grade(c, options, name, "allocs/op", n.allocs_per_op / b.allocs_per_op);
      }
    }
  }
  for (const auto& [name, n] : next_cells) {
    (void)n;
    if (base_cells.count(name) == 0) {
      c.diffs.push_back({Severity::Info, name + ": new cell (no baseline)"});
    }
  }

  // Counter deltas: informational context for a perf shift (e.g. "the run
  // did 3x the signatures", not just "it got slower").
  const tools::Value* base_obs = base.find("obs");
  const tools::Value* next_obs = next.find("obs");
  if (base_obs != nullptr && next_obs != nullptr) {
    const tools::Value* bc = base_obs->find("counters");
    const tools::Value* nc = next_obs->find("counters");
    if (bc != nullptr && nc != nullptr && bc->kind == tools::Value::Kind::Object) {
      for (const auto& [name, value] : bc->object) {
        const tools::Value* other = nc->find(name);
        if (other == nullptr) continue;
        const long long b = value.int_or(0);
        const long long n = other->int_or(0);
        if (b != n) {
          c.diffs.push_back({Severity::Info, "counter " + name + ": " +
                                                 std::to_string(b) + " -> " +
                                                 std::to_string(n)});
        }
      }
    }
  }
  return c;
}

std::string format(const Diff& d) {
  switch (d.severity) {
    case Severity::Failure: return "[FAIL] " + d.message;
    case Severity::Warning: return "[warn] " + d.message;
    case Severity::Info: break;
  }
  return "[info] " + d.message;
}

}  // namespace g2g::benchcompare
