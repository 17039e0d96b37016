// g2g-lint self-test: the bad fixture repo must trip every rule at the
// expected file, the clean fixture repo (justified pragmas, deterministic
// alternatives) must come back empty, and — the gate that matters — this
// repository itself must lint clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint.hpp"

namespace g2g::lint {
namespace {

std::vector<Finding> lint_of(const std::string& root) { return run_lint({root}); }

bool has(const std::vector<Finding>& findings, const std::string& rule,
         const std::string& file_substr) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.rule == rule && f.file.find(file_substr) != std::string::npos;
  });
}

std::size_t count_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

std::size_t count_rule_in(const std::vector<Finding>& findings, const std::string& rule,
                          const std::string& file_substr) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(), [&](const Finding& f) {
        return f.rule == rule && f.file.find(file_substr) != std::string::npos;
      }));
}

class BadFixture : public ::testing::Test {
 protected:
  static const std::vector<Finding>& findings() {
    static const std::vector<Finding> f = lint_of(std::string(G2G_LINT_FIXTURE_DIR) + "/bad");
    return f;
  }
};

TEST_F(BadFixture, DeterminismTokenRulesFire) {
  EXPECT_TRUE(has(findings(), "no-rand", "src/sim/src/nondet.cpp"));
  EXPECT_TRUE(has(findings(), "no-random-device", "src/sim/src/nondet.cpp"));
  EXPECT_TRUE(has(findings(), "no-wall-clock", "src/sim/src/nondet.cpp"));
  EXPECT_TRUE(has(findings(), "no-getenv", "src/sim/src/nondet.cpp"));
  // Both wall-clock reads (system_clock::now and time(nullptr)) are caught.
  EXPECT_EQ(count_rule(findings(), "no-wall-clock"), 2u);
}

TEST_F(BadFixture, UnorderedIterationFires) {
  EXPECT_TRUE(has(findings(), "no-unordered-iter", "src/core/src/unordered_iter.cpp"));
  // Once for the range-for, once for the explicit begin().
  EXPECT_EQ(count_rule(findings(), "no-unordered-iter"), 2u);
}

TEST_F(BadFixture, ModParamDiffCoverageFires) {
  EXPECT_TRUE(has(findings(), "mod-param-diff-coverage", "crypto/badmod.hpp"));
  // covered_reduce and covered_domain_op are named in the fixture corpus;
  // only rogue_reduce trips.
  EXPECT_EQ(count_rule(findings(), "mod-param-diff-coverage"), 1u);
}

TEST_F(BadFixture, CounterHygieneFires) {
  EXPECT_TRUE(has(findings(), "no-adhoc-atomic", "rogue_counter.cpp"));
}

TEST_F(BadFixture, OwningBufferHotPathFires) {
  EXPECT_TRUE(has(findings(), "no-owning-buffer-hot-path",
                  "src/proto/src/relay/owning_hot_path.cpp"));
  // Declaration, copy+temporary line, raw byte vector, Writer; the justified
  // construction stays clean.
  EXPECT_EQ(count_rule_in(findings(), "no-owning-buffer-hot-path",
                          "src/proto/src/relay/owning_hot_path.cpp"),
            4u);
}

TEST_F(BadFixture, OwningBufferPolicyHandshakeFires) {
  // The policy half of a handshake (relay_attempt) runs once per attempt
  // too: a temporary and an owning writer fire, the justified declaration
  // does not, and no other file outside relay/ is scanned.
  EXPECT_EQ(count_rule_in(findings(), "no-owning-buffer-hot-path",
                          "src/proto/src/g2g_delegation.cpp"),
            2u);
  EXPECT_EQ(count_rule(findings(), "no-owning-buffer-hot-path"), 6u);
}

TEST_F(BadFixture, ViewEscapeFires) {
  // Member, container-of-views member, and static view; the *View struct and
  // the view-returning function declarations stay clean.
  EXPECT_TRUE(has(findings(), "view-escape", "relay/view_escape.hpp"));
  EXPECT_EQ(count_rule(findings(), "view-escape"), 3u);
}

TEST_F(BadFixture, ArenaResetSafetyFires) {
  // Use-after-reset, return-after-reset, and use inside the conditional
  // reset's scope; the straight-line use after the scope closes stays clean.
  EXPECT_TRUE(has(findings(), "arena-reset-safety", "relay/reset_unsafe.cpp"));
  EXPECT_EQ(count_rule(findings(), "arena-reset-safety"), 3u);
}

TEST_F(BadFixture, IncludeLayeringFires) {
  // util->proto and src->tests/ in layered.cpp; policy-header-in-relay-core
  // and src->bench/ in bad_include.cpp.
  EXPECT_EQ(count_rule_in(findings(), "include-layering", "src/util/src/layered.cpp"), 2u);
  EXPECT_EQ(count_rule_in(findings(), "include-layering", "relay/bad_include.cpp"), 2u);
  EXPECT_EQ(count_rule(findings(), "include-layering"), 4u);
}

TEST_F(BadFixture, AllowWithoutJustificationFires) {
  EXPECT_TRUE(has(findings(), "allow-without-justification",
                  "src/core/src/unjustified_pragma.cpp"));
  EXPECT_EQ(count_rule(findings(), "allow-without-justification"), 1u);
}

TEST_F(BadFixture, AllowUnknownRuleFires) {
  EXPECT_TRUE(has(findings(), "allow-unknown-rule", "src/core/src/stale_pragma.cpp"));
  EXPECT_EQ(count_rule(findings(), "allow-unknown-rule"), 1u);
}

TEST_F(BadFixture, LexerEdgeCases) {
  // Tokens after a //-in-string and after a non-nesting block comment fire;
  // the raw string and the backslash-continued comment hide theirs.
  EXPECT_EQ(count_rule_in(findings(), "no-rand", "src/sim/src/lexer_edges.cpp"), 2u);
  EXPECT_EQ(count_rule_in(findings(), "no-random-device", "src/sim/src/lexer_edges.cpp"),
            1u);
  EXPECT_EQ(count_rule_in(findings(), "no-wall-clock", "src/sim/src/lexer_edges.cpp"), 0u);
}

TEST_F(BadFixture, EveryRuleFiresSomewhere) {
  for (const std::string& rule : rule_ids()) {
    EXPECT_GT(count_rule(findings(), rule), 0u) << rule;
  }
}

TEST(CleanFixture, JustifiedPragmasAndOrderedContainersPass) {
  const auto findings = lint_of(std::string(G2G_LINT_FIXTURE_DIR) + "/clean");
  for (const auto& f : findings) ADD_FAILURE() << format(f);
  EXPECT_TRUE(findings.empty());
}

TEST(CleanFixture, SuppressionsAreRecordedNotDiscarded) {
  const Report report = run_report({std::string(G2G_LINT_FIXTURE_DIR) + "/clean"});
  EXPECT_TRUE(report.findings.empty());
  ASSERT_FALSE(report.suppressed.empty());
  for (const auto& s : report.suppressed) {
    EXPECT_FALSE(s.justification.empty()) << s.file << ":" << s.line;
    EXPECT_FALSE(s.rule.empty());
  }
}

TEST(ReportShape, EveryCatalogueRuleHasACount) {
  const Report report = run_report({std::string(G2G_LINT_FIXTURE_DIR) + "/clean"});
  EXPECT_EQ(report.rule_counts.size(), rule_ids().size());
  for (const auto& id : rule_ids()) {
    EXPECT_TRUE(report.rule_counts.contains(id)) << id;
  }
  EXPECT_GT(report.files_scanned, 0u);
  EXPECT_GE(report.wall_ms, 0.0);
}

// The acceptance gate: the repository itself carries zero findings — every
// legitimate exception is annotated with a justified allow() pragma.
TEST(Repo, LintsClean) {
  const auto findings = lint_of(G2G_LINT_REPO_ROOT);
  for (const auto& f : findings) ADD_FAILURE() << format(f);
  EXPECT_TRUE(findings.empty());
}

TEST(Format, IsGreppable) {
  const Finding f{"src/x.cpp", 12, "no-rand", "why"};
  EXPECT_EQ(format(f), "src/x.cpp:12: [no-rand] why");
}

// The JSON report is a CI artifact: key order and shape are pinned so
// downstream tooling can parse it without a schema negotiation.
TEST(Json, StableShapeAndKeyOrder) {
  Report r;
  r.findings.push_back({"src/a.cpp", 3, "no-rand", "say \"why\""});
  r.suppressed.push_back({"src/b.hpp", 7, "view-escape", "view member", "borrowed"});
  r.rule_counts = {{"no-rand", 1}, {"view-escape", 0}};
  r.files_scanned = 2;
  r.wall_ms = 12.5;
  EXPECT_EQ(to_json(r),
            "{\n"
            "  \"schema\": \"g2g-lint/v2\",\n"
            "  \"findings\": [\n"
            "    {\"file\": \"src/a.cpp\", \"line\": 3, \"rule\": \"no-rand\", "
            "\"message\": \"say \\\"why\\\"\", \"justification\": \"\"}\n"
            "  ],\n"
            "  \"suppressed\": [\n"
            "    {\"file\": \"src/b.hpp\", \"line\": 7, \"rule\": \"view-escape\", "
            "\"message\": \"view member\", \"justification\": \"borrowed\"}\n"
            "  ],\n"
            "  \"summary\": {\"files_scanned\": 2, \"findings\": 1, \"suppressed\": 1, "
            "\"wall_ms\": 12.5, \"rules\": {\"no-rand\": 1, \"view-escape\": 0}}\n"
            "}\n");
}

TEST(Json, EmptyReportKeepsShape) {
  Report r;
  r.files_scanned = 0;
  r.wall_ms = 0.0;
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"findings\": []"), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\": []"), std::string::npos);
  EXPECT_NE(json.find("\"schema\": \"g2g-lint/v2\""), std::string::npos);
}

}  // namespace
}  // namespace g2g::lint
