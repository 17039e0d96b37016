// g2g-bench-compare CLI: diff two BENCH_*.json files with tolerances.
//
//   g2g-bench-compare [--warn-ratio 1.25] [--fail-ratio 2.0] base.json new.json
//
// Exit codes: 0 no failures (warnings allowed), 1 at least one failure,
// 2 usage / unreadable / unparseable input. A ratio is a finite number >= 1
// and the warn ratio may not exceed the fail ratio; a bad or missing value
// is a usage error.
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "compare.hpp"
#include "g2g/util/parse_number.hpp"

namespace {

constexpr const char* kUsage =
    "usage: g2g-bench-compare [--warn-ratio R] [--fail-ratio R] base.json new.json\n";

int usage_error(const std::string& message) {
  std::cerr << "g2g-bench-compare: " << message << '\n' << kUsage;
  return 2;
}

bool read_report(const std::string& path, g2g::tools::Value& out) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "g2g-bench-compare: cannot open " << path << '\n';
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  g2g::tools::ParseResult parsed = g2g::tools::parse_json(buf.str());
  if (!parsed.ok) {
    std::cerr << "g2g-bench-compare: " << path << ": " << parsed.error << " at byte "
              << parsed.pos << '\n';
    return false;
  }
  out = std::move(parsed.value);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  g2g::benchcompare::Options options;
  std::string base_path;
  std::string next_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--warn-ratio" || arg == "--fail-ratio") {
      const std::string value = i + 1 < argc ? argv[++i] : "";
      const std::optional<double> ratio = g2g::parse_number<double>(value.c_str(), 1.0);
      if (!ratio) return usage_error(arg + " needs a finite ratio >= 1, got '" + value + "'");
      (arg == "--warn-ratio" ? options.warn_ratio : options.fail_ratio) = *ratio;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage_error("unknown option " + arg);
    } else if (base_path.empty()) {
      base_path = arg;
    } else if (next_path.empty()) {
      next_path = arg;
    } else {
      return usage_error("too many arguments");
    }
  }
  if (options.warn_ratio > options.fail_ratio) {
    return usage_error("--warn-ratio must not exceed --fail-ratio");
  }
  if (base_path.empty() || next_path.empty()) {
    std::cerr << kUsage;
    return 2;
  }

  g2g::tools::Value base;
  g2g::tools::Value next;
  if (!read_report(base_path, base) || !read_report(next_path, next)) return 2;

  const g2g::benchcompare::Comparison c =
      g2g::benchcompare::compare(base, next, options);
  for (const auto& diff : c.diffs) std::cout << g2g::benchcompare::format(diff) << '\n';
  const std::size_t failures = c.count(g2g::benchcompare::Severity::Failure);
  const std::size_t warnings = c.count(g2g::benchcompare::Severity::Warning);
  std::cout << "bench-compare: " << failures << " failure(s), " << warnings
            << " warning(s), " << c.diffs.size() - failures - warnings << " info\n";
  return failures > 0 ? 1 : 0;
}
