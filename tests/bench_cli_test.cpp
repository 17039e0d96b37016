// Regression tests for the command-line drivers. Bench harness: the
// --trace-out/--json-out sinks are validated eagerly at option-parse time, an
// unwritable path must fail the process (exit != 0) instead of silently
// dropping telemetry at the end of a long sweep, and a writable one must end
// up holding the report; a malformed, out-of-range or missing numeric value
// exits 1. g2gsim: a malformed or out-of-range numeric flag must print the
// usage text and exit 2. g2g-bench-compare: a bad ratio flag exits 2, and
// the checked-in fig4 baseline grades clean against itself but fails against
// a copy with one cell 2.5x slower. micro_crypto: a run with stdout
// redirected to a file writes its table without colour escapes. None may run
// with a misparsed value or die by a signal.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "json.hpp"

namespace {

// Exit code of a shell command, or -1 when the child did not exit normally.
// Its stdout goes to `stdout_path`, its stderr nowhere.
int run(const std::string& command, const std::string& stdout_path = "/dev/null") {
  const int status = std::system((command + " >" + stdout_path + " 2>/dev/null").c_str());
  if (status == -1) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

const std::string kFig3 = G2G_BENCH_FIG3;
const std::string kFig4 = G2G_BENCH_FIG4;
const std::string kTable1 = G2G_BENCH_TABLE1;
const std::string kG2gsim = G2G_G2GSIM;
const std::string kBenchCompare = G2G_BENCH_COMPARE;
const std::string kMicroCrypto = G2G_BENCH_MICRO_CRYPTO;
const std::string kFig4Baseline = std::string(G2G_BENCH_RESULTS) + "/BENCH_fig4.json";

// `text` with the number after the first `key` multiplied by `factor`.
std::string scale_first(std::string text, const std::string& key, double factor) {
  const std::size_t begin = text.find(key) + key.size();
  const std::size_t end = text.find_first_of(",}", begin);
  const double value = std::stod(text.substr(begin, end - begin));
  return text.replace(begin, end - begin, std::to_string(value * factor));
}

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

TEST(BenchCli, RedirectedMicroBenchWritesPlainTextAndItsReport) {
  // A file is not a terminal, so the console table carries no ANSI colour
  // escapes, and --json-out still holds the report. Files land in the test's
  // working directory (the build tree).
  const std::string table = "bench_cli_micro_crypto.txt";
  const std::string json = "bench_cli_micro_crypto.json";
  ASSERT_EQ(run(kMicroCrypto + " '--benchmark_filter=^BM_HmacSha256$' --benchmark_min_time=0.01"
                " --json-out " + json,
                table),
            0);
  std::stringstream text;
  text << std::ifstream(table).rdbuf();
  std::stringstream report_text;
  report_text << std::ifstream(json).rdbuf();
  std::remove(table.c_str());
  std::remove(json.c_str());
  EXPECT_NE(text.str().find("BM_HmacSha256"), std::string::npos) << text.str();
  EXPECT_EQ(text.str().find('\x1b'), std::string::npos) << text.str();

  const g2g::tools::ParseResult report = g2g::tools::parse_json(report_text.str());
  ASSERT_TRUE(report.ok) << report.error;
  const g2g::tools::Value* bench = report.value.find("bench");
  ASSERT_NE(bench, nullptr);
  EXPECT_EQ(bench->str_or(""), "micro_crypto");
  const g2g::tools::Value* cells = report.value.find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->array.size(), 1u);
  const g2g::tools::Value* name = cells->array[0].find("name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->str_or(""), "BM_HmacSha256");
  // No bench here sets allocs/op, so the cell has no such field.
  EXPECT_EQ(cells->array[0].find("allocs_per_op"), nullptr);
}

TEST(BenchCompareCli, RejectsBadRatioValues) {
  // Each used to abort (134), be misread, or be accepted.
  const std::string files = " " + kFig4Baseline + " " + kFig4Baseline;
  const char* const bad[] = {
      "--warn-ratio abc",  "--fail-ratio 2.4x", "--warn-ratio nan", "--fail-ratio inf",
      "--warn-ratio -1",   "--warn-ratio 0",    "--fail-ratio 0.5", "--warn-ratio 3 --fail-ratio 2",
  };
  for (const char* args : bad) {
    EXPECT_EQ(run(kBenchCompare + " " + args + files), 2) << args;
  }
  // A forgotten value: the flag takes the next argument, or nothing at all.
  EXPECT_EQ(run(kBenchCompare + " --warn-ratio" + files), 2);
  EXPECT_EQ(run(kBenchCompare + files + " --fail-ratio"), 2);
}

TEST(BenchCompareCli, BaselineAgainstItselfPasses) {
  EXPECT_EQ(run(kBenchCompare + " " + kFig4Baseline + " " + kFig4Baseline), 0);
  EXPECT_EQ(run(kBenchCompare + " --warn-ratio 2 --fail-ratio 2 " + kFig4Baseline + " " +
                kFig4Baseline),
            0);
}

TEST(BenchCompareCli, SlowedCellFailsWithTheDefaults) {
  // One cell 2.5x slower: its wall time and its throughput both fail.
  std::stringstream text;
  text << std::ifstream(kFig4Baseline).rdbuf();
  const std::string slowed =
      scale_first(scale_first(text.str(), "\"wall_s\":", 2.5), "\"events_per_s\":", 1 / 2.5);
  ASSERT_NE(slowed, text.str());
  const std::string path = "bench_cli_fig4_slowed.json";
  std::ofstream(path) << slowed;
  EXPECT_EQ(run(kBenchCompare + " " + kFig4Baseline + " " + path), 1);
  std::remove(path.c_str());
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
