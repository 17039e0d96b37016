// Self-test of the BENCH comparison engine: ratios, thresholds, missing and
// new cells, counter deltas, and the JSON reader underneath it.
#include "compare.hpp"

#include <gtest/gtest.h>

namespace g2g::benchcompare {
namespace {

tools::Value parse(const std::string& text) {
  tools::ParseResult r = tools::parse_json(text);
  EXPECT_TRUE(r.ok) << r.error;
  return r.value;
}

std::string report(double wall_s, double events_per_s, const std::string& extra = "") {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"schema\":1,\"bench\":\"t\",\"rev\":\"abc\",\"config\":{},"
                "\"cells\":[{\"name\":\"cell\",\"runs\":1,\"wall_s\":%.6f,"
                "\"sim_events\":100,\"events_per_s\":%.3f}]%s}",
                wall_s, events_per_s, extra.c_str());
  return buf;
}

TEST(BenchCompare, IdenticalReportsAreClean) {
  const tools::Value base = parse(report(1.0, 100.0));
  const Comparison c = compare(base, base, Options{});
  EXPECT_EQ(c.count(Severity::Failure), 0u);
  EXPECT_EQ(c.count(Severity::Warning), 0u);
}

TEST(BenchCompare, SmallDriftStaysUnderWarnThreshold) {
  const Comparison c =
      compare(parse(report(1.0, 100.0)), parse(report(1.2, 85.0)), Options{});
  EXPECT_EQ(c.count(Severity::Failure), 0u);
  EXPECT_EQ(c.count(Severity::Warning), 0u);
}

TEST(BenchCompare, WallRegressionBeyondWarnWarns) {
  const Comparison c =
      compare(parse(report(1.0, 100.0)), parse(report(1.5, 100.0)), Options{});
  EXPECT_EQ(c.count(Severity::Failure), 0u);
  EXPECT_EQ(c.count(Severity::Warning), 1u);
}

TEST(BenchCompare, WallRegressionBeyondFailFails) {
  const Comparison c =
      compare(parse(report(1.0, 100.0)), parse(report(2.5, 100.0)), Options{});
  EXPECT_EQ(c.count(Severity::Failure), 1u);
}

TEST(BenchCompare, ThroughputDropIsGradedFromTheBaseSide) {
  // 100 -> 30 events/s is a 3.33x throughput regression even if wall time
  // stayed put (fewer events were simulated per second of work).
  const Comparison c =
      compare(parse(report(1.0, 100.0)), parse(report(1.0, 30.0)), Options{});
  EXPECT_EQ(c.count(Severity::Failure), 1u);
}

TEST(BenchCompare, ImprovementIsNotAFinding) {
  const Comparison c =
      compare(parse(report(2.0, 50.0)), parse(report(1.0, 100.0)), Options{});
  EXPECT_EQ(c.count(Severity::Failure), 0u);
  EXPECT_EQ(c.count(Severity::Warning), 0u);
}

TEST(BenchCompare, MissingCellWarnsNewCellInforms) {
  const tools::Value base = parse(
      "{\"cells\":[{\"name\":\"old\",\"wall_s\":1.0,\"events_per_s\":10.0}]}");
  const tools::Value next = parse(
      "{\"cells\":[{\"name\":\"new\",\"wall_s\":1.0,\"events_per_s\":10.0}]}");
  const Comparison c = compare(base, next, Options{});
  EXPECT_EQ(c.count(Severity::Warning), 1u);
  EXPECT_EQ(c.count(Severity::Info), 1u);
  EXPECT_EQ(c.count(Severity::Failure), 0u);
}

TEST(BenchCompare, SubMillisecondCellsAreNotGradedOnWallTime) {
  const Comparison c = compare(
      parse("{\"cells\":[{\"name\":\"c\",\"wall_s\":0.00005,\"events_per_s\":0}]}"),
      parse("{\"cells\":[{\"name\":\"c\",\"wall_s\":0.0005,\"events_per_s\":0}]}"),
      Options{});
  EXPECT_EQ(c.count(Severity::Failure), 0u);
  EXPECT_EQ(c.count(Severity::Warning), 0u);
}

std::string alloc_report(const std::string& allocs_field) {
  return "{\"cells\":[{\"name\":\"codec\",\"wall_s\":1.0,\"events_per_s\":100.0" +
         allocs_field + "}]}";
}

TEST(BenchCompare, AllocationsAppearingOnAllocationFreeCellFail) {
  const Comparison c = compare(parse(alloc_report(",\"allocs_per_op\":0.0")),
                               parse(alloc_report(",\"allocs_per_op\":3.0")), Options{});
  ASSERT_EQ(c.count(Severity::Failure), 1u);
  EXPECT_NE(c.diffs[0].message.find("allocations appeared"), std::string::npos);
}

TEST(BenchCompare, AllocRatioIsGradedWhenBaselineAllocates) {
  const Comparison grew =
      compare(parse(alloc_report(",\"allocs_per_op\":10.0")),
              parse(alloc_report(",\"allocs_per_op\":25.0")), Options{});
  EXPECT_EQ(grew.count(Severity::Failure), 1u);
  const Comparison steady =
      compare(parse(alloc_report(",\"allocs_per_op\":10.0")),
              parse(alloc_report(",\"allocs_per_op\":11.0")), Options{});
  EXPECT_EQ(steady.count(Severity::Failure), 0u);
  EXPECT_EQ(steady.count(Severity::Warning), 0u);
}

TEST(BenchCompare, AbsentAllocTelemetryIsNotGraded) {
  const Comparison c = compare(parse(alloc_report(",\"allocs_per_op\":0.0")),
                               parse(alloc_report("")), Options{});
  EXPECT_EQ(c.count(Severity::Failure), 0u);
  EXPECT_EQ(c.count(Severity::Warning), 0u);
}

TEST(BenchCompare, CounterDeltasAreInformational) {
  const tools::Value base = parse(report(1.0, 100.0,
      ",\"obs\":{\"counters\":{\"hs.completed\":10}}"));
  const tools::Value next = parse(report(1.0, 100.0,
      ",\"obs\":{\"counters\":{\"hs.completed\":30}}"));
  const Comparison c = compare(base, next, Options{});
  ASSERT_EQ(c.count(Severity::Info), 1u);
  EXPECT_NE(c.diffs[0].message.find("hs.completed"), std::string::npos);
}

TEST(BenchCompare, ConfigDifferencesAreOneInfoLine) {
  // A baseline from a host with other crypto kernels: every difference,
  // including a key only one side has, goes into a single Info line.
  const tools::Value base = parse(
      "{\"config\":{\"sha256\":\"shani\",\"mont_mul\":\"adx\",\"quick\":\"true\"},"
      "\"cells\":[]}");
  const tools::Value next = parse(
      "{\"config\":{\"quick\":\"true\",\"mont_mul\":\"portable\",\"sha256\":\"scalar\","
      "\"threads\":\"1\"},\"cells\":[]}");
  const Comparison c = compare(base, next, Options{});
  ASSERT_EQ(c.diffs.size(), 1u);
  EXPECT_EQ(c.diffs[0].severity, Severity::Info);
  EXPECT_EQ(c.diffs[0].message,
            "config differs: mont_mul adx -> portable, sha256 shani -> scalar, "
            "threads (none) -> 1");
  EXPECT_TRUE(compare(base, base, Options{}).diffs.empty());
}

TEST(BenchCompare, CustomThresholdsApply) {
  Options strict;
  strict.warn_ratio = 1.05;
  strict.fail_ratio = 1.1;
  const Comparison c =
      compare(parse(report(1.0, 100.0)), parse(report(1.2, 100.0)), strict);
  EXPECT_EQ(c.count(Severity::Failure), 1u);
}

TEST(JsonReader, ParsesNestedDocument) {
  const tools::Value v = parse(
      "{\"a\":[1,2.5,-3],\"b\":{\"c\":\"x\\ny\"},\"t\":true,\"n\":null}");
  ASSERT_NE(v.find("a"), nullptr);
  ASSERT_EQ(v.find("a")->array.size(), 3u);
  EXPECT_EQ(v.find("a")->array[0].int_or(0), 1);
  EXPECT_DOUBLE_EQ(v.find("a")->array[1].num_or(0), 2.5);
  EXPECT_EQ(v.find("a")->array[2].int_or(0), -3);
  EXPECT_EQ(v.find("b")->find("c")->str_or(""), "x\ny");
  EXPECT_TRUE(v.find("t")->boolean);
  EXPECT_EQ(v.find("n")->kind, tools::Value::Kind::Null);
}

TEST(JsonReader, RejectsGarbage) {
  EXPECT_FALSE(tools::parse_json("{\"a\":}").ok);
  EXPECT_FALSE(tools::parse_json("{\"a\":1} trailing").ok);
  EXPECT_FALSE(tools::parse_json("{\"a\":\"unterminated").ok);
}

}  // namespace
}  // namespace g2g::benchcompare
