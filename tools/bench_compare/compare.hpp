// g2g-bench-compare: diff two BENCH_*.json telemetry files with tolerances.
//
// The comparison is per cell (matched by name): a wall-time ratio or a
// throughput (events_per_s) drop beyond --fail-ratio is a failure, beyond
// --warn-ratio a warning. Wall time is graded only between cells that fired
// the same sim_events; a google-benchmark cell's iteration count is the
// library's choice, so throughput is its per-operation grade. Cells present only on one side and counter deltas
// are informational — the sweep shape legitimately changes as the repo
// grows. CI runs this against the checked-in bench_results/ baseline:
// warnings are printed but tolerated, failures (>2x by default) gate.
#pragma once

#include <string>
#include <vector>

#include "json.hpp"

namespace g2g::benchcompare {

struct Options {
  double warn_ratio = 1.25;  ///< > this: warning
  double fail_ratio = 2.0;   ///< > this: failure (CI gate)
};

enum class Severity { Info, Warning, Failure };

struct Diff {
  Severity severity = Severity::Info;
  std::string message;
};

struct Comparison {
  std::vector<Diff> diffs;
  [[nodiscard]] std::size_t count(Severity s) const {
    std::size_t n = 0;
    for (const Diff& d : diffs) {
      if (d.severity == s) ++n;
    }
    return n;
  }
};

/// Compare two parsed BENCH reports (base = the checked-in baseline).
[[nodiscard]] Comparison compare(const tools::Value& base, const tools::Value& next,
                                 const Options& options);

/// "[FAIL|warn|info] message" — one line per diff.
[[nodiscard]] std::string format(const Diff& d);

}  // namespace g2g::benchcompare
