#include "g2g/core/json.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace g2g::core {

namespace {

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string stats_obj(const RunningStats& s) {
  std::ostringstream o;
  o << "{\"count\":" << s.count() << ",\"mean\":" << num(s.mean())
    << ",\"min\":" << num(s.min()) << ",\"max\":" << num(s.max())
    << ",\"stddev\":" << num(s.stddev()) << "}";
  return o.str();
}

const char* method_name(metrics::DetectionMethod m) {
  switch (m) {
    case metrics::DetectionMethod::TestBySender: return "test_by_sender";
    case metrics::DetectionMethod::TestByDestination: return "test_by_destination";
    case metrics::DetectionMethod::ChainCheck: return "chain_check";
  }
  return "unknown";
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
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
  return out;
}

std::string to_json(const ExperimentResult& r) {
  std::ostringstream o;
  o << "{";
  o << "\"generated\":" << r.generated << ",\"delivered\":" << r.delivered
    << ",\"success_rate\":" << num(r.success_rate)
    << ",\"avg_replicas\":" << num(r.avg_replicas)
    << ",\"avg_delay_s\":" << num(r.delay_seconds.mean())
    << ",\"median_delay_s\":" << num(r.delay_seconds.median())
    << ",\"community_count\":" << r.community_count
    << ",\"deviant_count\":" << r.deviant_count
    << ",\"detected_count\":" << r.detected_count
    << ",\"detection_rate\":" << num(r.detection_rate)
    << ",\"false_positives\":" << r.false_positives;

  o << ",\"deviants\":[";
  for (std::size_t i = 0; i < r.deviants.size(); ++i) {
    if (i > 0) o << ",";
    o << r.deviants[i].value();
  }
  o << "]";

  o << ",\"detections\":[";
  bool first = true;
  for (const auto& d : r.collector.detections()) {
    if (!first) o << ",";
    first = false;
    o << "{\"culprit\":" << d.culprit.value() << ",\"detector\":" << d.detector.value()
      << ",\"at_s\":" << num(d.at.to_seconds())
      << ",\"after_delta1_s\":" << num(d.after_delta1.to_seconds()) << ",\"method\":\""
      << method_name(d.method) << "\"}";
  }
  o << "]";

  o << ",\"messages\":[";
  first = true;
  for (const auto& rec : r.collector.messages()) {
    if (!first) o << ",";
    first = false;
    o << "{\"id\":" << rec.id.value() << ",\"src\":" << rec.src.value()
      << ",\"dst\":" << rec.dst.value() << ",\"created_s\":" << num(rec.created.to_seconds())
      << ",\"replicas\":" << rec.replicas << ",\"delivered_s\":";
    if (rec.delivered.has_value()) {
      o << num(rec.delivered->to_seconds());
    } else {
      o << "null";
    }
    o << "}";
  }
  o << "]";

  // The counter snapshot is deterministic; the wall-clock stage profile is
  // not, so it is serialized separately (to_json(obs::StageProfile)). The
  // g2g.* mechanism counters are excluded too: they reflect how the run was
  // computed, not what it computed, and this serialization is the
  // bit-identity oracle across such rewirings.
  o << ",\"obs\":" << registry_json(r.counters, /*include_mechanism=*/false);

  o << "}";
  return o.str();
}

std::string registry_json(const obs::Registry& registry, bool include_mechanism) {
  std::ostringstream o;
  o << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : registry.counters()) {
    // Mechanism counters (frame codec traffic, batch sizes, shared chains)
    // describe how the run was computed, not what it computed; excluding them
    // keeps this serialization a bit-identity oracle across such rewirings.
    if (!include_mechanism && name.rfind("g2g.", 0) == 0) continue;
    if (!first) o << ",";
    first = false;
    o << "\"" << json_escape(name) << "\":" << counter.value();
  }
  o << "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : registry.histograms()) {
    if (!first) o << ",";
    first = false;
    o << "\"" << json_escape(name) << "\":{\"count\":" << hist.count()
      << ",\"sum\":" << num(hist.sum()) << ",\"buckets\":[";
    const auto& edges = hist.edges();
    const auto& buckets = hist.buckets();
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      if (i > 0) o << ",";
      o << "{\"le\":";
      if (i < edges.size()) {
        o << num(edges[i]);
      } else {
        o << "null";  // overflow bucket
      }
      o << ",\"n\":" << buckets[i] << "}";
    }
    o << "]}";
  }
  o << "}}";
  return o.str();
}

std::string to_json(const obs::Registry& registry) {
  return registry_json(registry, /*include_mechanism=*/true);
}

std::string to_json(const obs::StageProfile& stages) {
  std::ostringstream o;
  o << "[";
  bool first = true;
  for (const auto& stage : stages.stages()) {
    if (!first) o << ",";
    first = false;
    o << "{\"name\":\"" << json_escape(stage.name)
      << "\",\"seconds\":" << num(stage.seconds) << "}";
  }
  o << "]";
  return o.str();
}

std::string to_json(const AggregateResult& a) {
  std::ostringstream o;
  o << "{\"success_rate\":" << stats_obj(a.success_rate)
    << ",\"avg_delay_s\":" << stats_obj(a.avg_delay_s)
    << ",\"avg_replicas\":" << stats_obj(a.avg_replicas)
    << ",\"detection_rate\":" << stats_obj(a.detection_rate)
    << ",\"detection_minutes\":" << stats_obj(a.detection_minutes)
    << ",\"false_positives\":" << a.false_positives << "}";
  return o.str();
}

}  // namespace g2g::core
