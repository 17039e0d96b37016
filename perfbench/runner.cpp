// g2g-perfbench: runs one benchmark workload as a list of core::run_experiment
// calls, one after another on one thread, and prints one JSON line per
// experiment. perfbench/run.py builds this binary, checks every line against
// the recorded reference digests and reduces the lines to the benchmark's
// metrics; see perfbench/README.md for the catalogue.
//
//   g2g-perfbench --workload NAME --seed N --seconds S --trace 0|1
//       Run experiments with seeds N, N+1, ... (cycling after kSeedsPerRun)
//       until S seconds have passed. Each experiment is preceded by the
//       host-speed gauge and timed untraced on the plain suite; with
//       --trace 1 it is run a second time with the SpanClock sink and the
//       TimedSuite decorator attached.
//   g2g-perfbench --record FIRST COUNT
//       Print the result digest of every workload for seeds
//       FIRST .. FIRST+COUNT-1 (untraced, plain suite).
#include <malloc.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "g2g/core/experiment.hpp"
#include "g2g/core/json.hpp"
#include "g2g/crypto/sha256.hpp"
#include "probes.hpp"

namespace {

using g2g::core::ExperimentConfig;
using g2g::core::ExperimentResult;
using g2g::core::Protocol;
using g2g::proto::Behavior;
using perfbench::Layer;

/// The paper's traffic (1 msg / 4 s for two hours of a three-hour window) is
/// the ExperimentConfig default; a workload picks protocol, trace shape,
/// deviation and suite. README.md gives the reason for each.
struct Workload {
  std::string_view name;
  Protocol protocol;
  bool cambridge;  ///< Cambridge06 preset (11-day trace) instead of Infocom05
  Behavior deviation;
  std::size_t deviants;
  bool schnorr;  ///< (R,s) Schnorr suite instead of the fast symmetric suite
};

constexpr std::array<Workload, 4> kWorkloads{{
    {"g2g-epidemic-droppers", Protocol::G2GEpidemic, false, Behavior::Dropper, 10, false},
    {"g2g-delegation-cheaters", Protocol::G2GDelegationFrequency, true, Behavior::Cheater, 10,
     false},
    {"g2g-epidemic-schnorr", Protocol::G2GEpidemic, false, Behavior::Faithful, 0, true},
    {"epidemic-vanilla", Protocol::Epidemic, false, Behavior::Dropper, 10, false},
}};

/// A run cycles through this many consecutive seeds, so the reference digests
/// recorded for seeds [0, R) cover every driver seed below R - kSeedsPerRun.
constexpr std::uint64_t kSeedsPerRun = 64;

const g2g::crypto::SuitePtr& schnorr_suite() {
  static const g2g::crypto::SuitePtr suite = g2g::crypto::make_schnorr_rs_suite();
  return suite;
}

ExperimentConfig config_for(const Workload& w, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.protocol = w.protocol;
  cfg.scenario = w.cambridge ? g2g::core::cambridge06_scenario(seed)
                             : g2g::core::infocom05_scenario(seed);
  cfg.deviation = w.deviation;
  cfg.deviant_count = w.deviants;
  cfg.seed = seed;
  if (w.schnorr) cfg.suite = schnorr_suite();
  return cfg;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// First 64 bits of SHA-256 over core::to_json(result), as hex.
std::string digest_of(const ExperimentResult& r) {
  const std::string json = g2g::core::to_json(r);
  const g2g::crypto::Digest d = g2g::crypto::sha256(
      g2g::BytesView(reinterpret_cast<const std::uint8_t*>(json.data()), json.size()));
  std::string hex;
  for (std::size_t i = 0; i < 8; ++i) {
    char byte[3];
    std::snprintf(byte, sizeof byte, "%02x", d[i]);
    hex += byte;
  }
  return hex;
}

/// Host-speed gauge: a fixed CPU workload (xorshift fill, sort, hash-map
/// updates, a 128-bit multiply chain) that uses nothing from src/, so no
/// change to the program moves it. A shared host's speed drifts by tens of
/// percent within minutes; run.py scales the run's timings by the median
/// gauge time (README.md, "Host-speed normalisation").
volatile std::uint64_t calibration_sink = 0;  // keeps the gauge's work observable

double calibration_s() {
  const std::int64_t t0 = perfbench::now_ns();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t acc = 0;
  std::vector<std::uint64_t> v(1 << 12);
  for (int round = 0; round < 24; ++round) {
    for (std::uint64_t& e : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      e = x;
    }
    std::sort(v.begin(), v.end());
    std::unordered_map<std::uint64_t, std::uint64_t> m;
    for (std::size_t i = 0; i < v.size(); i += 2) m[v[i] & 0x3ff] += v[i];
    unsigned __int128 p = 1;
    for (const std::uint64_t e : v) p = (p * (e | 1)) ^ (p >> 64);
    acc += m.size() + static_cast<std::uint64_t>(p);
  }
  calibration_sink = acc;
  return seconds(perfbench::now_ns() - t0);
}

struct Timed {
  ExperimentResult result;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Returns freed heap to the kernel and restarts the kernel's peak-RSS mark
/// (VmHWM), so the next peak_rss_kb() covers only what follows. Where
/// /proc/self/clear_refs cannot be written the mark is the process-wide peak.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  static bool warned = false;
  if (!clear && !warned) {
    std::fprintf(stderr, "g2g-perfbench: cannot reset the peak-RSS mark; "
                         "peak_rss_kb is the process-wide peak\n");
    warned = true;
  }
}

std::uint64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      std::uint64_t kb = 0;
      status >> kb;
      return kb;
    }
  }
  return 0;
}

Timed timed_run(const ExperimentConfig& cfg) {
  Timed t;
  const double cpu0 = thread_cpu_s();
  const std::int64_t wall0 = perfbench::now_ns();
  t.result = g2g::core::run_experiment(cfg);
  t.wall_s = seconds(perfbench::now_ns() - wall0);
  t.cpu_s = thread_cpu_s() - cpu0;
  return t;
}

/// One flat-or-nested JSON object, written in field order.
class JsonLine {
 public:
  JsonLine() : text_("{") {}
  JsonLine& num(std::string_view key, double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return raw(key, buf);
  }
  JsonLine& count(std::string_view key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonLine& str(std::string_view key, std::string_view v) {
    std::string quoted = "\"";
    quoted += g2g::core::json_escape(std::string(v));
    quoted += '"';
    return raw(key, quoted);
  }
  JsonLine& object(std::string_view key, const JsonLine& inner) {
    return raw(key, inner.text());
  }
  [[nodiscard]] std::string text() const { return text_ + "}"; }
  void print() const { std::printf("%s\n", text().c_str()); }

 private:
  JsonLine& raw(std::string_view key, std::string_view value) {
    if (text_.size() > 1) text_ += ',';
    text_ += '"';
    text_ += key;
    text_ += "\":";
    text_ += value;
    return *this;
  }
  std::string text_;
};

std::uint64_t counter(const ExperimentResult& r, const char* name) {
  return r.counters.value(name);
}

/// The per-layer split of one traced experiment. Counters come from the run
/// itself; host times from the probes. README.md defines every field.
JsonLine layer_fields(const Timed& traced, const ExperimentConfig& cfg,
                      const perfbench::SpanClock& clock,
                      const perfbench::SuiteStats& suite) {
  const ExperimentResult& r = traced.result;
  const g2g::obs::StageProfile& st = r.stages;
  const double sim = st.seconds("simulation");
  const double gen = st.seconds("trace_gen");
  const double kclique = st.seconds("communities");
  const double warm_up = st.seconds("warm_up");

  std::uint64_t heavy_hmacs = 0;
  std::uint64_t verifications = 0;
  for (std::uint32_t n = 0; n < cfg.scenario.trace_config.nodes; ++n) {
    const g2g::metrics::NodeCosts& c = r.collector.costs(g2g::NodeId(n));
    heavy_hmacs += c.heavy_hmacs;
    verifications += c.verifications;
  }
  std::uint64_t wire_bytes = 0;
  for (const auto& [name, value] : r.counters.counters()) {
    if (name.starts_with("wire.") && name.ends_with(".bytes")) wire_bytes += value.value();
  }

  const auto busy = [&](Layer l) { return seconds(perfbench::union_ns(clock.spans(l))); };
  const auto self = [&](Layer l) {
    return busy(l) - seconds(suite.in_layer_ns[static_cast<std::size_t>(l)]);
  };
  std::vector<perfbench::Interval> all;
  std::int64_t suite_in_spans = 0;
  for (const Layer l : {Layer::Handshake, Layer::Audit, Layer::Pom}) {
    all.insert(all.end(), clock.spans(l).begin(), clock.spans(l).end());
    suite_in_spans += suite.in_layer_ns[static_cast<std::size_t>(l)];
  }

  JsonLine j;
  j.num("trace.gen_s", gen)
      .count("trace.contacts", counter(r, "session.contacts"))
      .num("community.kclique_s", kclique)
      .num("proto.warm_up_s", warm_up)
      .num("proto.build_s", traced.wall_s - sim - gen - kclique - warm_up)
      .count("handshake.attempts", counter(r, "hs.started"))
      .count("handshake.completed", counter(r, "hs.completed"))
      .num("handshake.busy_s", busy(Layer::Handshake))
      .num("handshake.self_s", self(Layer::Handshake))
      .count("audit.rounds", counter(r, "detect.tests_by_sender"))
      .count("audit.storage_proofs", counter(r, "detect.storage_challenges"))
      .count("audit.heavy_hmacs", heavy_hmacs)
      .num("audit.busy_s", busy(Layer::Audit))
      .num("audit.self_s", self(Layer::Audit))
      .count("pom.gossip_batches", clock.spans(Layer::Pom).size())
      .count("pom.gossiped", counter(r, "pom.gossiped"))
      .count("pom.dups", counter(r, "g2g.pom.gossip_dup"))
      .count("pom.unique", counter(r, "g2g.pom.batch_verified"))
      .num("pom.busy_s", busy(Layer::Pom))
      .num("pom.self_s", self(Layer::Pom))
      .num("pom.batch_verify_s", st.seconds("pom_batch_verify"))
      .count("suite.sign_calls", suite.sign_calls)
      .count("suite.verify_calls", suite.verify_calls)
      .count("suite.batch_calls", suite.batch_calls)
      .count("suite.batch_items", suite.batch_items)
      .num("suite.busy_s", seconds(suite.busy_ns))
      .num("suite.in_spans_s", seconds(suite_in_spans))
      .count("cost.verifications", verifications)
      .count("wire.frames_encoded", counter(r, "g2g.frame.encoded"))
      .count("wire.frames_decoded", counter(r, "g2g.frame.decoded"))
      .count("wire.bytes", wire_bytes)
      .count("sim.events", counter(r, "g2g.sim.events_fired"))
      .num("sim.stage_s", sim)
      .num("sim.unattributed_s", sim - seconds(perfbench::union_ns(std::move(all))));
  return j;
}

/// One experiment of a measuring run: untraced on the plain suite, then, with
/// `traced`, again through the probes.
JsonLine experiment(const Workload& w, std::uint64_t seed, bool traced) {
  JsonLine line;
  line.count("seed", seed).num("calib_s", calibration_s());
  try {
    const ExperimentConfig cfg = config_for(w, seed);
    reset_peak_rss();
    const Timed plain = timed_run(cfg);
    const ExperimentResult& r = plain.result;
    line.num("wall_s", plain.wall_s)
        .num("cpu_s", plain.cpu_s)
        .count("peak_rss_kb", peak_rss_kb())
        .num("setup_s", plain.wall_s - r.stages.seconds("simulation"))
        .count("relayed", counter(r, "msg.relayed"))
        .count("false_positives", r.false_positives)
        .str("digest", digest_of(r));
    if (!traced) return line;

    perfbench::SpanClock clock;
    const auto suite = std::make_shared<perfbench::TimedSuite>(
        w.schnorr ? schnorr_suite() : g2g::crypto::make_fast_suite(), clock);
    ExperimentConfig probed = cfg;
    probed.suite = suite;
    probed.trace_sink = &clock;
    const Timed t = timed_run(probed);
    JsonLine layers = layer_fields(t, cfg, clock, suite->stats());
    layers.num("wall_s", t.wall_s).str("digest", digest_of(t.result));
    line.object("traced", layers);
  } catch (const std::exception& e) {
    line.str("error", e.what());
  }
  return line;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::optional<std::uint64_t> parse_u64(const char* s) {
  if (s == nullptr || *s < '0' || *s > '9') return std::nullopt;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*end != '\0') return std::nullopt;
  return v;
}

int usage() {
  std::fprintf(stderr,
               "usage: g2g-perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "       g2g-perfbench --record FIRST COUNT\n"
               "workloads:");
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()), w.name.data());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int record(std::uint64_t first, std::uint64_t count) {
  for (const Workload& w : kWorkloads) {
    for (std::uint64_t seed = first; seed < first + count; ++seed) {
      JsonLine line;
      line.str("workload", w.name).count("seed", seed);
      try {
        const ExperimentResult r = g2g::core::run_experiment(config_for(w, seed));
        line.str("digest", digest_of(r)).count("false_positives", r.false_positives);
      } catch (const std::exception& e) {
        line.str("error", e.what());
      }
      line.print();
      std::fflush(stdout);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  std::optional<std::uint64_t> seed, run_seconds, trace, rec_first, rec_count;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--workload") {
      const char* v = next();
      workload = v != nullptr ? find_workload(v) : nullptr;
      if (workload == nullptr) return usage();
    } else if (arg == "--seed") {
      seed = parse_u64(next());
    } else if (arg == "--seconds") {
      run_seconds = parse_u64(next());
    } else if (arg == "--trace") {
      trace = parse_u64(next());
    } else if (arg == "--record") {
      rec_first = parse_u64(next());
      rec_count = parse_u64(next());
      if (!rec_first || !rec_count) return usage();
    } else {
      return usage();
    }
  }
  if (rec_first) return record(*rec_first, *rec_count);
  if (workload == nullptr || !seed || !run_seconds || !trace || *trace > 1) return usage();

  const std::int64_t deadline =
      perfbench::now_ns() + static_cast<std::int64_t>(*run_seconds) * 1'000'000'000;
  std::uint64_t i = 0;
  do {
    experiment(*workload, *seed + i % kSeedsPerRun, *trace == 1).print();
    ++i;
  } while (perfbench::now_ns() < deadline);
  return 0;
}
