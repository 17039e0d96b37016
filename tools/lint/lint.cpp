// g2g-lint v2 driver: one lexical pass per file (lexer.cpp) feeds the scope
// tracker (scope.cpp), the pragma table (pragma.cpp), and every per-file
// rule (rules_text.cpp, rules_semantic.cpp, rules_include.cpp); the
// whole-repo coverage rule (rules_repo.cpp) runs once at the end.
#include "lint.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "lint_internal.hpp"

namespace g2g::lint {

namespace {

namespace fs = std::filesystem;
namespace li = internal;

std::vector<fs::path> collect_files(const fs::path& root) {
  std::vector<fs::path> files;
  for (const char* top : {"src", "tests"}) {
    const fs::path dir = root / top;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc") {
        files.push_back(entry.path());
      }
    }
  }
  // Directory iteration order is platform-dependent; the lint's own output
  // must be deterministic.
  std::sort(files.begin(), files.end());
  return files;
}

template <typename Record>
void sort_records(std::vector<Record>& records) {
  std::sort(records.begin(), records.end(), [](const Record& a, const Record& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
}

void json_escape(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void json_record(std::string& out, const std::string& file, std::size_t line,
                 const std::string& rule, const std::string& message,
                 const std::string& justification) {
  out += "    {\"file\": \"";
  json_escape(out, file);
  out += "\", \"line\": " + std::to_string(line) + ", \"rule\": \"";
  json_escape(out, rule);
  out += "\", \"message\": \"";
  json_escape(out, message);
  out += "\", \"justification\": \"";
  json_escape(out, justification);
  out += "\"}";
}

}  // namespace

const std::vector<std::string>& rule_ids() {
  static const std::vector<std::string> ids = {
      // determinism
      "no-rand", "no-random-device", "no-wall-clock", "no-getenv",
      "no-unordered-iter",
      // wire
      "mod-param-diff-coverage", "no-owning-buffer-hot-path",
      // lifetime
      "view-escape", "arena-reset-safety",
      // layering
      "include-layering",
      // counters
      "no-adhoc-atomic",
      // pragma hygiene
      "allow-without-justification", "allow-unknown-rule",
  };
  return ids;
}

Report run_report(const Options& options) {
  const auto t0 = std::chrono::steady_clock::now();
  Report report;
  const fs::path root = fs::absolute(options.root);
  for (const fs::path& path : collect_files(root)) {
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    const LexedFile lexed = lex(buf.str());
    const ScopeMap scopes = build_scopes(lexed.tokens);
    const std::string rel = fs::relative(path, root).generic_string();
    ++report.files_scanned;

    const PragmaTable pragmas = collect_pragmas(rel, lexed.lines);
    // Pragma hygiene findings are never themselves suppressible.
    report.findings.insert(report.findings.end(), pragmas.parse_findings.begin(),
                           pragmas.parse_findings.end());

    const li::FileContext ctx{rel, lexed, scopes};
    li::Sink sink(rel, pragmas, report.findings, report.suppressed);
    li::scan_tokens(ctx, sink);
    li::scan_unordered_iteration(ctx, sink);
    li::scan_adhoc_atomics(ctx, sink);
    li::scan_owning_buffer_hot_path(ctx, sink);
    li::scan_view_escape(ctx, sink);
    li::scan_arena_reset_safety(ctx, sink);
    li::scan_include_layering(ctx, sink);
  }
  li::scan_mod_param_diff_coverage(root, report.findings);

  sort_records(report.findings);
  sort_records(report.suppressed);
  for (const std::string& rule : rule_ids()) report.rule_counts[rule] = 0;
  for (const Finding& f : report.findings) ++report.rule_counts[f.rule];
  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return report;
}

std::vector<Finding> run_lint(const Options& options) {
  return run_report(options).findings;
}

std::string format(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " + f.message;
}

std::string to_json(const Report& report) {
  std::string out = "{\n  \"schema\": \"g2g-lint/v2\",\n  \"findings\": [";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    out += i == 0 ? "\n" : ",\n";
    json_record(out, f.file, f.line, f.rule, f.message, "");
  }
  out += report.findings.empty() ? "],\n" : "\n  ],\n";
  out += "  \"suppressed\": [";
  for (std::size_t i = 0; i < report.suppressed.size(); ++i) {
    const Suppression& s = report.suppressed[i];
    out += i == 0 ? "\n" : ",\n";
    json_record(out, s.file, s.line, s.rule, s.message, s.justification);
  }
  out += report.suppressed.empty() ? "],\n" : "\n  ],\n";
  out += "  \"summary\": {\"files_scanned\": " + std::to_string(report.files_scanned) +
         ", \"findings\": " + std::to_string(report.findings.size()) +
         ", \"suppressed\": " + std::to_string(report.suppressed.size()) +
         ", \"wall_ms\": ";
  char wall[32];
  std::snprintf(wall, sizeof(wall), "%.1f", report.wall_ms);
  out += wall;
  out += ", \"rules\": {";
  bool first = true;
  for (const auto& [rule, count] : report.rule_counts) {
    if (!first) out += ", ";
    first = false;
    out += "\"";
    json_escape(out, rule);
    out += "\": " + std::to_string(count);
  }
  out += "}}\n}\n";
  return out;
}

}  // namespace g2g::lint
