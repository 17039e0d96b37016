// The v1 line rules, ported behavior-identical onto the v2 engine: same
// regexes, same path gating, same messages. They consume the per-line
// projections the lexer produces; only pragma handling moved (into Sink).
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "lint_internal.hpp"

namespace g2g::lint::internal {

// ---------------------------------------------------------------------------
// Rule scopes. Paths are relative to the scanned root with '/' separators.
// ---------------------------------------------------------------------------

bool in_src(const std::string& rel) { return rel.rfind("src/", 0) == 0; }
bool in_tests(const std::string& rel) { return rel.rfind("tests/", 0) == 0; }

bool is_header(const std::string& rel) {
  return rel.size() > 4 && (rel.ends_with(".hpp") || rel.ends_with(".h"));
}

bool in_relay_core(const std::string& rel) {
  return rel.rfind("src/proto/src/relay/", 0) == 0 ||
         rel.rfind("src/proto/include/g2g/proto/relay/", 0) == 0;
}

bool is_view_type(const std::string& ident) {
  return ident.size() > 4 && ident.ends_with("View");
}

namespace {

bool in_obs(const std::string& rel) { return rel.rfind("src/obs/", 0) == 0; }

struct TokenRule {
  const char* rule;
  std::regex pattern;
  const char* message;
  bool applies_to_tests;
};

const std::vector<TokenRule>& token_rules() {
  static const std::vector<TokenRule> rules = [] {
    std::vector<TokenRule> r;
    r.push_back({"no-rand", std::regex(R"(\b(?:srand|rand)\s*\()"),
                 "libc rand()/srand() is nondeterministic across platforms; use g2g::Rng",
                 true});
    r.push_back({"no-random-device",
                 std::regex(R"(\brandom_device\b)"),
                 "std::random_device breaks seed reproducibility; use g2g::Rng",
                 true});
    r.push_back({"no-wall-clock",
                 std::regex(R"(\bsystem_clock\b|\bgettimeofday\b|\blocaltime\b|\bgmtime\b|\bstd\s*::\s*time\s*\(|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\))"),
                 "wall-clock reads make runs non-replayable; use sim TimePoint "
                 "(steady_clock is fine for profiling)",
                 false});
    r.push_back({"no-getenv", std::regex(R"(\bgetenv\b)"),
                 "environment reads hide run configuration; thread it through "
                 "ExperimentConfig",
                 false});
    return r;
  }();
  return rules;
}

}  // namespace

void scan_tokens(const FileContext& ctx, Sink& sink) {
  const bool src = in_src(ctx.rel);
  const bool tests = in_tests(ctx.rel);
  if (!src && !tests) return;
  const auto& lines = ctx.lexed.lines;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (const TokenRule& rule : token_rules()) {
      if (tests && !rule.applies_to_tests) continue;
      if (!std::regex_search(lines[i].code_blanked, rule.pattern)) continue;
      sink.report(i + 1, rule.rule, rule.message);
    }
  }
}

void scan_unordered_iteration(const FileContext& ctx, Sink& sink) {
  if (!in_src(ctx.rel)) return;
  const auto& lines = ctx.lexed.lines;
  // Pass 1: names declared (in this file) with an unordered container type.
  static const std::regex kDecl(R"(unordered_(?:map|set)\s*<[^;]*>\s+(\w+)\s*[;{=(])");
  std::set<std::string> unordered_names;
  for (const SplitLine& line : lines) {
    auto begin = std::sregex_iterator(line.code_blanked.begin(),
                                      line.code_blanked.end(), kDecl);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      unordered_names.insert((*it)[1].str());
    }
  }
  if (unordered_names.empty()) return;
  // Pass 2: range-for over, or begin() iteration of, one of those names.
  static const std::regex kRangeFor(R"(for\s*\([^)]*:\s*(\w+)\s*\))");
  static const std::regex kBegin(R"((\w+)\s*\.\s*c?begin\s*\()");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (const auto* pattern : {&kRangeFor, &kBegin}) {
      auto begin = std::sregex_iterator(lines[i].code_blanked.begin(),
                                        lines[i].code_blanked.end(), *pattern);
      for (auto it = begin; it != std::sregex_iterator(); ++it) {
        const std::string name = (*it)[1].str();
        if (unordered_names.count(name) == 0) continue;
        sink.report(i + 1, "no-unordered-iter",
                    "iteration over unordered container '" + name +
                        "' has unspecified order; use std::map or sort first");
      }
    }
  }
}

void scan_adhoc_atomics(const FileContext& ctx, Sink& sink) {
  if (!in_src(ctx.rel) || in_obs(ctx.rel)) return;
  const auto& lines = ctx.lexed.lines;
  static const std::regex kAtomic(R"(\bstd\s*::\s*atomic\b)");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!std::regex_search(lines[i].code_blanked, kAtomic)) continue;
    sink.report(i + 1, "no-adhoc-atomic",
                "std::atomic outside src/obs — protocol counters go through "
                "obs::Registry; justify infrastructure atomics with an allow "
                "pragma");
  }
}

// Owning buffers on the relay hot path: the zero-copy message path encodes
// into the session arena (g2g/util/arena.hpp) and decodes through non-owning
// views, so constructing Bytes / std::vector<uint8_t> / Writer inside
// src/proto/src/relay/, or in the two G2G policy files whose relay_attempt
// runs once per handshake attempt, reintroduces per-hop heap traffic.
// Genuinely cold paths (PoM gossip dedup, whose inputs must outlive the
// arena generation) justify themselves with an allow pragma.
bool on_relay_hot_path(const std::string& rel) {
  if (rel.rfind("src/proto/src/relay/", 0) == 0) return !is_header(rel);
  return rel == "src/proto/src/g2g_delegation.cpp" || rel == "src/proto/src/g2g_epidemic.cpp";
}

void scan_owning_buffer_hot_path(const FileContext& ctx, Sink& sink) {
  if (!on_relay_hot_path(ctx.rel)) return;
  const auto& lines = ctx.lexed.lines;
  // Owning-buffer constructions only: `Bytes name …`, a `Bytes(...)`
  // temporary, a raw byte vector, or an owning Writer. Return types
  // (`Bytes X::encode()`), references (`const Bytes&`), and the non-owning
  // BytesView/SpanWriter types do not match.
  static const std::regex kOwning(
      R"(\bBytes\s+\w+\s*[({=;]|\bBytes\s*\(|std::vector<\s*(?:std::)?uint8_t\s*>|\bWriter\s+\w+)");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!std::regex_search(lines[i].code_blanked, kOwning)) continue;
    sink.report(i + 1, "no-owning-buffer-hot-path",
                "owning buffer construction on the relay hot path; encode into "
                "the session arena and decode through views (DESIGN.md \"Buffer "
                "ownership\"), or justify a cold path with an allow pragma");
  }
}

}  // namespace g2g::lint::internal
