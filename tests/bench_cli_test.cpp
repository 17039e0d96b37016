// Regression tests for the command-line drivers. Bench harness: the
// --trace-out/--json-out sinks are validated eagerly at option-parse time, an
// unwritable path must fail the process (exit != 0) instead of silently
// dropping telemetry at the end of a long sweep, and a writable one must end
// up holding the report; a malformed, out-of-range or missing numeric value
// exits 1. g2gsim: a malformed or out-of-range numeric flag must print the
// usage text and exit 2. Neither may run with a misparsed value or die by a
// signal.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "json.hpp"

namespace {

// Exit code of a shell command, or -1 when the child did not exit normally.
int run(const std::string& command) {
  const int status = std::system((command + " >/dev/null 2>&1").c_str());
  if (status == -1) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

const std::string kFig3 = G2G_BENCH_FIG3;
const std::string kFig4 = G2G_BENCH_FIG4;
const std::string kTable1 = G2G_BENCH_TABLE1;
const std::string kG2gsim = G2G_G2GSIM;

TEST(BenchCli, HelpExitsZero) { EXPECT_EQ(run(kFig4 + " --help"), 0); }

TEST(BenchCli, UnwritableTraceSinkFailsAtParseTime) {
  EXPECT_EQ(run(kFig4 + " --quick --trace-out /nonexistent-dir/x.jsonl"), 1);
}

TEST(BenchCli, UnwritableJsonSinkFailsAtParseTime) {
  EXPECT_EQ(run(kFig4 + " --quick --json-out /nonexistent-dir/x.json"), 1);
}

TEST(BenchCli, UnknownOptionFails) {
  EXPECT_NE(run(kFig4 + " --no-such-flag"), 0);
}

TEST(BenchCli, RejectsMalformedAndMissingNumericValues) {
  // None may abort, run with a misread value, or be reported as an unknown
  // option.
  const char* const bad[] = {
      "--runs abc", "--runs 5x",    "--runs 0",   "--runs -1",  "--runs",
      "--seed -3",  "--seed abc",   "--seed 1.5", "--seed",     "--threads x",
      "--threads -1", "--threads 2x", "--threads",
  };
  for (const char* args : bad) {
    EXPECT_EQ(run(kFig3 + " --quick " + args), 1) << args;
  }
}

TEST(BenchCli, QuickSingleRunExitsZero) { EXPECT_EQ(run(kFig3 + " --quick --runs 1"), 0); }

TEST(BenchCli, JsonOutHoldsTheReport) {
  // parse_options truncates the --json-out file up front, so a bench that
  // never writes its report leaves it empty. The file lands in the test's
  // working directory (the build tree).
  const std::string path = "bench_cli_table1.json";
  ASSERT_EQ(run(kTable1 + " --quick --threads 2 --json-out " + path), 0);
  std::stringstream text;
  text << std::ifstream(path).rdbuf();
  std::remove(path.c_str());
  const g2g::tools::ParseResult report = g2g::tools::parse_json(text.str());
  ASSERT_TRUE(report.ok) << report.error;
  const g2g::tools::Value* bench = report.value.find("bench");
  ASSERT_NE(bench, nullptr);
  EXPECT_EQ(bench->str_or(""), "table1");
  const g2g::tools::Value* cells = report.value.find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_FALSE(cells->array.empty());
  const g2g::tools::Value* wall = cells->array[0].find("wall_s");
  ASSERT_NE(wall, nullptr);
  EXPECT_GT(wall->num_or(0.0), 0.0);
}

TEST(G2gsimCli, RejectsMalformedAndOutOfRangeNumbers) {
  const char* const bad[] = {
      "--interarrival 0",  "--interarrival -5",  "--interarrival 4x",
      "--interarrival nan", "--interarrival inf", "--interarrival",
      "--ttl-min 0",       "--ttl-min -3",       "--ttl-min 20m",
      "--seed abc",        "--seed -1",          "--seed 1.5",
      "--runs abc",        "--runs 0",           "--runs -2",
      "--deviants 1000",   "--deviants 42",      "--scenario cambridge06 --deviants 37",
  };
  for (const char* args : bad) {
    EXPECT_EQ(run(kG2gsim + " " + args), 2) << args;
  }
}

TEST(G2gsimCli, ShortValidRunExitsZero) {
  // 41 deviants is every Infocom05 node: the bound is inclusive.
  EXPECT_EQ(run(kG2gsim + " --deviation dropper --deviants 41 --interarrival 40 --ttl-min 20"
                          " --seed 3 --runs 1"),
            0);
}

}  // namespace
