// Machine-readable bench telemetry: bench_results/BENCH_<name>.json.
//
// Every bench can emit one JSON report per invocation (--json-out FILE)
// recording the git revision, the effective options, per-cell wall time and
// simulator-event throughput, and — when a representative traced run was
// available — its full counter/histogram registry. tools/bench_compare diffs
// two of these files with tolerances; the checked-in bench_results/BENCH_*.json
// are the baseline of the perf trajectory.
//
// Schema (docs/OBSERVABILITY.md "Bench telemetry schema" is the reference):
//   {"schema":1,"bench":"fig4","rev":"<git short rev>",
//    "config":{"quick":"true",...},
//    "cells":[{"name":"infocom05/droppers=5/plain","runs":2,
//              "wall_s":1.23,"sim_events":45678,"events_per_s":37138.2}],
//    "obs":{"counters":{...},"histograms":{...}}}   (optional)
#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "g2g/core/json.hpp"
#include "g2g/crypto/fastpath.hpp"
#include "g2g/obs/registry.hpp"

namespace g2g::bench {

/// One sweep cell's telemetry row.
struct BenchCell {
  std::string name;
  std::size_t runs = 1;
  double wall_s = 0.0;
  std::uint64_t sim_events = 0;
  /// Heap allocations per operation (g2g_alloc_probe); negative = not
  /// measured, and the field is omitted from the JSON.
  double allocs_per_op = -1.0;
  [[nodiscard]] double events_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(sim_events) / wall_s : 0.0;
  }
};

/// Short git revision of the working tree, "unknown" outside a checkout.
/// Telemetry provenance only — never read by the simulation.
inline std::string git_rev() {
  std::string rev = "unknown";
  if (std::FILE* p = ::popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof(buf), p) != nullptr) {
      std::string line(buf);
      while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) line.pop_back();
      if (!line.empty()) rev = line;
    }
    ::pclose(p);
  }
  return rev;
}

/// The crypto kernels this process runs, as "config" pairs: a baseline taken
/// on a host with SHA-NI or BMI2+ADX, compared on one without them, would
/// otherwise read as a regression.
inline std::vector<std::pair<std::string, std::string>> crypto_kernels() {
  return {{"sha256", crypto::sha_ni_available() ? "shani" : "scalar"},
          {"mont_mul", crypto::adx_available() ? "adx" : "portable"}};
}

/// json_escape handles the content; the quotes are ours to add.
inline std::string json_quote(const std::string& s) {
  return '"' + core::json_escape(s) + '"';
}

struct BenchReport {
  std::string bench;
  std::vector<std::pair<std::string, std::string>> config;
  std::vector<BenchCell> cells;
  /// Counter/histogram snapshot of a representative run; optional.
  const obs::Registry* registry = nullptr;

  [[nodiscard]] std::string to_json() const {
    std::string out = "{\"schema\":1,\"bench\":" + json_quote(bench) +
                      ",\"rev\":" + json_quote(git_rev()) + ",\"config\":{";
    for (std::size_t i = 0; i < config.size(); ++i) {
      if (i > 0) out += ',';
      out += json_quote(config[i].first) + ':' + json_quote(config[i].second);
    }
    out += "},\"cells\":[";
    char num[64];
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const BenchCell& c = cells[i];
      if (i > 0) out += ',';
      out += "{\"name\":" + json_quote(c.name) +
             ",\"runs\":" + std::to_string(c.runs);
      std::snprintf(num, sizeof(num), "%.6f", c.wall_s);
      out += std::string(",\"wall_s\":") + num;
      out += ",\"sim_events\":" + std::to_string(c.sim_events);
      std::snprintf(num, sizeof(num), "%.3f", c.events_per_s());
      out += std::string(",\"events_per_s\":") + num;
      if (c.allocs_per_op >= 0.0) {
        std::snprintf(num, sizeof(num), "%.3f", c.allocs_per_op);
        out += std::string(",\"allocs_per_op\":") + num;
      }
      out += "}";
    }
    out += ']';
    if (registry != nullptr) out += ",\"obs\":" + core::to_json(*registry);
    out += "}\n";
    return out;
  }

  /// Write the report; returns false (with a message on stderr) on failure.
  [[nodiscard]] bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
      return false;
    }
    const std::string body = to_json();
    const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    std::fclose(f);
    if (ok) std::fprintf(stderr, "wrote bench telemetry to %s\n", path.c_str());
    return ok;
  }
};

}  // namespace g2g::bench
