// Internal seams between the lint driver and the rule translation units.
// Not installed, not part of the public lint.hpp surface.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "lexer.hpp"
#include "lint.hpp"
#include "pragma.hpp"
#include "scope.hpp"

namespace g2g::lint::internal {

/// Everything a per-file rule may look at.
struct FileContext {
  const std::string& rel;  ///< path relative to the scanned root, '/' separators
  const LexedFile& lexed;
  const ScopeMap& scopes;
};

/// Finding sink with centralized pragma handling: a report() lands in
/// `findings` unless a justified allow() covers (line, rule), in which case
/// it is recorded in `suppressed` with the pragma's justification.
class Sink {
 public:
  Sink(const std::string& rel, const PragmaTable& pragmas, std::vector<Finding>& findings,
       std::vector<Suppression>& suppressed)
      : rel_(rel), pragmas_(pragmas), findings_(findings), suppressed_(suppressed) {}

  void report(std::size_t line, const char* rule, std::string message) {
    if (const Pragma* p = find_allow(pragmas_, line, rule)) {
      suppressed_.push_back({rel_, line, rule, std::move(message), p->justification});
      return;
    }
    findings_.push_back({rel_, line, rule, std::move(message)});
  }

 private:
  const std::string& rel_;
  const PragmaTable& pragmas_;
  std::vector<Finding>& findings_;
  std::vector<Suppression>& suppressed_;
};

// rules_text.cpp — the ported v1 line rules.
void scan_tokens(const FileContext& ctx, Sink& sink);
void scan_unordered_iteration(const FileContext& ctx, Sink& sink);
void scan_adhoc_atomics(const FileContext& ctx, Sink& sink);
void scan_owning_buffer_hot_path(const FileContext& ctx, Sink& sink);

// rules_semantic.cpp — token/scope rules.
void scan_view_escape(const FileContext& ctx, Sink& sink);
void scan_arena_reset_safety(const FileContext& ctx, Sink& sink);

// rules_include.cpp — include-graph layering.
void scan_include_layering(const FileContext& ctx, Sink& sink);

// rules_repo.cpp — the whole-repo coverage rule (no per-line pragma context).
void scan_mod_param_diff_coverage(const std::filesystem::path& root,
                                  std::vector<Finding>& out);

// Shared path predicates.
[[nodiscard]] bool in_src(const std::string& rel);
[[nodiscard]] bool in_tests(const std::string& rel);
[[nodiscard]] bool is_header(const std::string& rel);
[[nodiscard]] bool in_relay_core(const std::string& rel);

/// Identifier naming a non-owning view type: `BytesView` or any `*View`.
[[nodiscard]] bool is_view_type(const std::string& ident);

}  // namespace g2g::lint::internal
