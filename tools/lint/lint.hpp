// g2g-lint: repo-specific static analysis for the Give2Get reproduction.
//
// v2 engine: one lexical pass per file produces a token stream plus
// per-line comment/code/blanked projections (lexer.hpp); a brace/paren
// scope tracker classifies every scope (scope.hpp); rules run over
// whichever representation fits. Five rule families
// (docs/STATIC_ANALYSIS.md is the user-facing catalogue):
//
//   determinism   no-rand, no-random-device, no-wall-clock, no-getenv,
//                 no-unordered-iter
//   wire          no-owning-buffer-hot-path, mod-param-diff-coverage
//   lifetime      view-escape, arena-reset-safety
//   layering      include-layering
//   counters      no-adhoc-atomic
//
// Span, stage and counter names and the wire codec contract are not lint
// rules: types hold them (docs/STATIC_ANALYSIS.md, "Held by the compiler").
//
// A finding is suppressed by a justified pragma on the same line or the
// line directly above:
//
//   // g2g-lint: allow(no-getenv) -- process-level toggle, never per-run
//
// The justification after `--` is mandatory (allow-without-justification)
// and every named rule must exist in the catalogue (allow-unknown-rule).
// Suppressions are recorded, not discarded: the JSON report carries every
// allowed finding with its justification, so pragma debt stays auditable.
#pragma once

#include <cstddef>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace g2g::lint {

struct Finding {
  std::string file;  ///< path relative to the scanned root
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

/// A finding that a justified allow() pragma suppressed.
struct Suppression {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
  std::string justification;
};

struct Options {
  /// Repository root; `<root>/src` and `<root>/tests` are scanned.
  std::filesystem::path root;
};

struct Report {
  std::vector<Finding> findings;
  std::vector<Suppression> suppressed;
  /// Every catalogue rule -> finding count (zeros included, keys sorted).
  std::map<std::string, std::size_t> rule_counts;
  std::size_t files_scanned = 0;
  double wall_ms = 0.0;
};

/// All rule identifiers, for --list-rules, pragma validation, and the
/// self-test.
[[nodiscard]] const std::vector<std::string>& rule_ids();

/// Scan the tree: findings, suppressions, per-rule counts, wall time.
[[nodiscard]] Report run_report(const Options& options);

/// Findings only, ordered by (file, line, rule) — the v1 entry point.
[[nodiscard]] std::vector<Finding> run_lint(const Options& options);

/// "file:line: [rule] message" — the single line format CI greps.
[[nodiscard]] std::string format(const Finding& f);

/// Machine-readable report: stable key order (file, line, rule, message,
/// justification per record), suitable for CI artifacts and annotations.
[[nodiscard]] std::string to_json(const Report& report);

}  // namespace g2g::lint
