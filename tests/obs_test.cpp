// Unit tests for the observability layer (tracer, registry, stage profile)
// plus the central guarantee: tracing never perturbs the simulation.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "g2g/core/experiment.hpp"
#include "g2g/core/json.hpp"
#include "g2g/obs/context.hpp"
#include "g2g/obs/registry.hpp"
#include "g2g/obs/stage.hpp"
#include "g2g/obs/tracer.hpp"

namespace g2g {
namespace {

obs::Event ev(double at_s, obs::EventKind kind, std::uint32_t a, std::uint32_t b,
              std::uint64_t ref = 0, std::int64_t value = 0) {
  return {TimePoint::from_seconds(at_s), kind, NodeId(a), NodeId(b), ref, value};
}

TEST(Tracer, DisabledByDefaultAndDropsEvents) {
  obs::Tracer t;
  EXPECT_FALSE(t.enabled());
  t.emit(ev(1.0, obs::EventKind::ContactUp, 0, 1));
  EXPECT_EQ(t.emitted(), 0u);
  EXPECT_TRUE(t.ring().empty());
}

TEST(Tracer, EqualSimTimeKeepsEmissionOrder) {
  obs::Tracer t;
  t.enable_ring(16);
  // All five handshake steps at the same instant: ring order must be the
  // order of emission, not a re-sort.
  t.emit(ev(5.0, obs::EventKind::HsRelayRqst, 0, 1));
  t.emit(ev(5.0, obs::EventKind::HsRelayOk, 1, 0));
  t.emit(ev(5.0, obs::EventKind::HsRelayData, 0, 1));
  t.emit(ev(5.0, obs::EventKind::HsPorSigned, 1, 0));
  t.emit(ev(5.0, obs::EventKind::HsKeyReveal, 0, 1));
  const auto ring = t.ring();
  ASSERT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring[0].kind, obs::EventKind::HsRelayRqst);
  EXPECT_EQ(ring[1].kind, obs::EventKind::HsRelayOk);
  EXPECT_EQ(ring[2].kind, obs::EventKind::HsRelayData);
  EXPECT_EQ(ring[3].kind, obs::EventKind::HsPorSigned);
  EXPECT_EQ(ring[4].kind, obs::EventKind::HsKeyReveal);
}

TEST(Tracer, RingKeepsMostRecentOldestFirst) {
  obs::Tracer t;
  t.enable_ring(3);
  for (int i = 0; i < 7; ++i) {
    t.emit(ev(static_cast<double>(i), obs::EventKind::ContactUp, 0, 1,
              static_cast<std::uint64_t>(i)));
  }
  EXPECT_EQ(t.emitted(), 7u);
  const auto ring = t.ring();
  ASSERT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring[0].ref, 4u);
  EXPECT_EQ(ring[1].ref, 5u);
  EXPECT_EQ(ring[2].ref, 6u);
}

TEST(Tracer, CountingSinkSeesEveryEvent) {
  obs::Tracer t;
  obs::CountingSink sink;
  t.add_sink(&sink);
  EXPECT_TRUE(t.enabled());
  t.emit(ev(1.0, obs::EventKind::Detection, 2, 3));
  t.emit(ev(2.0, obs::EventKind::Detection, 2, 4));
  t.emit(ev(3.0, obs::EventKind::Eviction, 2, 4));
  EXPECT_EQ(sink.count(obs::EventKind::Detection), 2u);
  EXPECT_EQ(sink.count(obs::EventKind::Eviction), 1u);
  EXPECT_EQ(sink.total(), 3u);
}

TEST(Registry, CounterAccumulates) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("msg.relayed");
  c.add();
  c.add(41);
  EXPECT_EQ(reg.value("msg.relayed"), 42u);
  EXPECT_EQ(reg.value("never.created"), 0u);
  // Same name returns the same counter.
  reg.counter("msg.relayed").add();
  EXPECT_EQ(c.value(), 43u);
}

TEST(Registry, HistogramBucketEdgesAreInclusiveUpperBounds) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("msg.delay_s", {1.0, 10.0});
  h.observe(0.5);    // <= 1        -> bucket 0
  h.observe(1.0);    // == edge     -> bucket 0 (inclusive)
  h.observe(1.0001); // just above  -> bucket 1
  h.observe(10.0);   // == edge     -> bucket 1
  h.observe(11.0);   // overflow
  const auto& buckets = h.buckets();
  ASSERT_EQ(buckets.size(), 3u);  // 2 edges + overflow
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 2u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.0001 + 10.0 + 11.0);
}

TEST(Registry, HistogramRejectsNonAscendingEdges) {
  obs::Registry reg;
  EXPECT_THROW((void)reg.histogram("msg.equal_edges", {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("msg.descending_edges", {2.0, 1.0}), std::invalid_argument);
}

TEST(Registry, CopySnapshotsValues) {
  obs::Registry reg;
  reg.counter("msg.generated").add(7);
  obs::Registry snapshot = reg;
  reg.counter("msg.generated").add(1);
  EXPECT_EQ(snapshot.value("msg.generated"), 7u);
  EXPECT_EQ(reg.value("msg.generated"), 8u);
}

TEST(JsonlSink, WritesOneParseableLinePerEvent) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  {
    obs::JsonlSink sink(f);
    obs::Tracer t;
    t.add_sink(&sink);
    t.emit(ev(1.5, obs::EventKind::HsRelayRqst, 3, 7, 42, 9));
    t.emit({TimePoint::from_seconds(2.0), obs::EventKind::BufferAdd, NodeId(4),
            NodeId::invalid(), 0, 128});
    EXPECT_EQ(sink.lines_written(), 2u);
  }
  std::fflush(f);
  std::rewind(f);
  char buf[256];
  ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
  EXPECT_STREQ(buf,
               "{\"t_us\":1500000,\"ev\":\"hs_relay_rqst\",\"a\":3,\"b\":7,"
               "\"ref\":42,\"v\":9}\n");
  ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
  // Invalid counterparty serializes as -1.
  EXPECT_NE(std::string(buf).find("\"ev\":\"buffer_add\",\"a\":4,\"b\":-1"),
            std::string::npos);
  std::fclose(f);
}

// -- spans --------------------------------------------------------------------

/// Collects every SpanRecord the tracer emits, in order.
struct SpanRecordingSink final : obs::EventSink {
  void on_event(const obs::Event&) override {}
  void on_span(const obs::SpanRecord& s) override { spans.push_back(s); }
  std::vector<obs::SpanRecord> spans;
};

TEST(Spans, DisabledTracerReturnsZeroAndIgnoresCloses) {
  obs::Tracer t;
  EXPECT_EQ(t.open_span(TimePoint::from_seconds(1.0), obs::SpanKind::Msg, 0, NodeId(0), NodeId(1)),
            0u);
  t.close_span(TimePoint::from_seconds(2.0), 0);  // must be a no-op
  t.open_message_span(TimePoint::from_seconds(1.0), 7, NodeId(0), NodeId(1));
  EXPECT_EQ(t.message_span(7), 0u);
  EXPECT_EQ(t.spans_opened(), 0u);
}

TEST(Spans, IdsAreSequentialAndRecordsKeepEmissionOrder) {
  obs::Tracer t;
  SpanRecordingSink sink;
  t.add_sink(&sink);
  const TimePoint at = TimePoint::from_seconds(5.0);
  const std::uint64_t a = t.open_span(at, obs::SpanKind::Msg, 0, NodeId(0), NodeId(3), 42);
  const std::uint64_t b = t.open_span(at, obs::SpanKind::RelaySession, a, NodeId(0), NodeId(1), 42);
  t.close_span(at, b, 1);
  t.close_span(at, a, 0);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(t.spans_opened(), 2u);
  ASSERT_EQ(sink.spans.size(), 4u);
  EXPECT_FALSE(sink.spans[0].close);
  EXPECT_STREQ(sink.spans[0].name, "msg");
  EXPECT_EQ(sink.spans[0].ref, 42u);
  EXPECT_EQ(sink.spans[1].parent, a);
  EXPECT_TRUE(sink.spans[2].close);
  EXPECT_EQ(sink.spans[2].id, b);
  EXPECT_EQ(sink.spans[2].value, 1);
  EXPECT_EQ(sink.spans[3].id, a);
  // Wall profiling off: the close record carries the -1 sentinel.
  EXPECT_EQ(sink.spans[2].wall_ns, -1);
}

TEST(Spans, MessageSpansCloseInRefOrderWithDeliveryOutcome) {
  obs::Tracer t;
  SpanRecordingSink sink;
  t.add_sink(&sink);
  const TimePoint at = TimePoint::from_seconds(0.0);
  // Open out of ref order; the bulk close must still be deterministic (ref
  // order), independent of open order.
  t.open_message_span(at, 9, NodeId(0), NodeId(3));
  t.open_message_span(at, 4, NodeId(1), NodeId(2));
  const std::uint64_t span9 = t.message_span(9);
  const std::uint64_t span4 = t.message_span(4);
  EXPECT_NE(span9, 0u);
  EXPECT_NE(span4, 0u);
  t.mark_message_delivered(9);
  t.close_message_spans(TimePoint::from_seconds(100.0));
  ASSERT_EQ(sink.spans.size(), 4u);  // two opens + two closes
  EXPECT_EQ(sink.spans[2].id, span4);
  EXPECT_EQ(sink.spans[2].value, 0);  // never delivered
  EXPECT_EQ(sink.spans[3].id, span9);
  EXPECT_EQ(sink.spans[3].value, 1);  // delivered
  // The table is cleared: later children of these refs become roots.
  EXPECT_EQ(t.message_span(9), 0u);
}

TEST(Spans, WallProfilingStampsCloseRecords) {
  obs::Tracer t;
  SpanRecordingSink sink;
  t.add_sink(&sink);
  t.enable_wall_profiling();
  const std::uint64_t id =
      t.open_span(TimePoint::from_seconds(1.0), obs::SpanKind::Msg, 0, NodeId(0), NodeId(1));
  t.close_span(TimePoint::from_seconds(2.0), id);
  ASSERT_EQ(sink.spans.size(), 2u);
  EXPECT_GE(sink.spans[1].wall_ns, 0);
}

TEST(JsonlSink, SpanLinesAreGolden) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  {
    obs::JsonlSink sink(f);
    obs::Tracer t;
    t.add_sink(&sink);
    const std::uint64_t id =
        t.open_span(TimePoint::from_seconds(1.5), obs::SpanKind::Msg, 0, NodeId(3), NodeId(7), 42);
    t.close_span(TimePoint::from_seconds(2.0), id, 1);
    EXPECT_EQ(sink.lines_written(), 2u);
  }
  std::fflush(f);
  std::rewind(f);
  char buf[256];
  ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
  EXPECT_STREQ(buf,
               "{\"t_us\":1500000,\"span\":\"open\",\"name\":\"msg\",\"id\":1,"
               "\"parent\":0,\"a\":3,\"b\":7,\"ref\":42}\n");
  ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
  EXPECT_STREQ(buf, "{\"t_us\":2000000,\"span\":\"close\",\"id\":1,\"v\":1}\n");
  std::fclose(f);
}

TEST(StageProfile, RecordsAndSums) {
  obs::StageProfile profile;
  {
    obs::StageTimer t(profile, obs::StageKind::WarmUp);
  }
  profile.add(obs::StageKind::Simulation, 1.5);
  profile.add(obs::StageKind::WarmUp, 0.5);
  EXPECT_EQ(profile.stages().size(), 3u);
  EXPECT_STREQ(profile.stages()[0].name, "warm_up");
  EXPECT_GE(profile.seconds("warm_up"), 0.5);  // timer adds >= 0 on top
  EXPECT_DOUBLE_EQ(profile.seconds("simulation"), 1.5);
  EXPECT_GE(profile.total(), 2.0);
}

// -- the determinism guard ----------------------------------------------------

core::ExperimentConfig guard_config() {
  core::ExperimentConfig cfg;
  cfg.protocol = core::Protocol::G2GEpidemic;
  cfg.scenario = core::infocom05_scenario();
  cfg.scenario.trace_config.nodes = 16;
  cfg.scenario.trace_config.duration = Duration::days(2);
  cfg.scenario.window_start = TimePoint::from_seconds(8.0 * 3600.0);
  cfg.sim_window = Duration::hours(2);
  cfg.traffic_window = Duration::hours(1);
  cfg.mean_interarrival = Duration::seconds(30.0);
  cfg.deviation = proto::Behavior::Dropper;
  cfg.deviant_count = 4;
  cfg.seed = 11;
  return cfg;
}

TEST(ObsDeterminism, TracedRunIsBitIdenticalToUntraced) {
  core::ExperimentConfig plain = guard_config();
  const core::ExperimentResult untraced = core::run_experiment(plain);

  core::ExperimentConfig traced_cfg = guard_config();
  obs::CountingSink sink;
  traced_cfg.trace_sink = &sink;
  traced_cfg.trace_ring = 1024;
  const core::ExperimentResult traced = core::run_experiment(traced_cfg);

  EXPECT_GT(sink.total(), 0u);
  EXPECT_EQ(traced.events.size(), 1024u);
  // Full serialized comparison: headline metrics, every message record, every
  // detection, every counter. Tracing must change nothing.
  EXPECT_EQ(core::to_json(traced), core::to_json(untraced));
}

TEST(ObsDeterminism, SpanTreeIsWellFormedOverAFullRun) {
  core::ExperimentConfig cfg = guard_config();
  SpanRecordingSink sink;
  cfg.trace_sink = &sink;
  (void)core::run_experiment(cfg);
  ASSERT_FALSE(sink.spans.empty());

  std::map<std::uint64_t, bool> live;  // id -> still open
  std::map<std::string, std::uint64_t> opened_by_name;
  std::uint64_t expected_id = 1;
  for (const obs::SpanRecord& s : sink.spans) {
    if (!s.close) {
      // Ids are dense and sequential in emission order.
      EXPECT_EQ(s.id, expected_id++);
      EXPECT_EQ(live.count(s.id), 0u) << "span " << s.id << " opened twice";
      if (s.parent != 0) {
        const auto p = live.find(s.parent);
        ASSERT_NE(p, live.end()) << "span " << s.id << " under unknown parent";
        EXPECT_TRUE(p->second) << "span " << s.id << " under closed parent";
      }
      live[s.id] = true;
      ASSERT_NE(s.name, nullptr);
      ++opened_by_name[s.name];
    } else {
      const auto it = live.find(s.id);
      ASSERT_NE(it, live.end()) << "close of unknown span " << s.id;
      EXPECT_TRUE(it->second) << "span " << s.id << " closed twice";
      it->second = false;
    }
  }
  for (const auto& [id, open] : live) {
    EXPECT_FALSE(open) << "span " << id << " never closed";
  }
  // The G2G run exercises the whole taxonomy: message lifecycles, relay
  // sessions, and (with 4 droppers aboard) audit rounds.
  EXPECT_GT(opened_by_name["msg"], 0u);
  EXPECT_GT(opened_by_name["relay_session"], 0u);
  EXPECT_GT(opened_by_name["audit_round"], 0u);
}

TEST(ObsDeterminism, TracedJsonlIsByteIdenticalAcrossRuns) {
  const auto jsonl_of = [](const core::ExperimentConfig& base) {
    std::FILE* f = std::tmpfile();
    EXPECT_NE(f, nullptr);
    {
      obs::JsonlSink sink(f);
      core::ExperimentConfig cfg = base;
      cfg.trace_sink = &sink;
      (void)core::run_experiment(cfg);
    }
    std::fflush(f);
    std::rewind(f);
    std::string text;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
    std::fclose(f);
    return text;
  };
  const std::string first = jsonl_of(guard_config());
  const std::string second = jsonl_of(guard_config());
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // Span records are on the stream (and therefore covered by the identity).
  EXPECT_NE(first.find("\"span\":\"open\""), std::string::npos);
  EXPECT_NE(first.find("\"span\":\"close\""), std::string::npos);
}

TEST(ObsExperiment, CountersMatchHeadlineMetrics) {
  const core::ExperimentResult r = core::run_experiment(guard_config());
  EXPECT_EQ(r.counters.value("msg.generated"), r.generated);
  EXPECT_EQ(r.counters.value("msg.delivered"), r.delivered);
  EXPECT_EQ(r.counters.value("msg.relayed"), r.collector.total_relays());
  EXPECT_EQ(r.counters.value("detect.detections"), r.collector.detections().size());
  // G2G handshakes happened, and every completed one is one relay.
  EXPECT_GT(r.counters.value("hs.started"), 0u);
  EXPECT_EQ(r.counters.value("hs.completed"), r.collector.total_relays());
  // Sessions split cleanly into opened + refused.
  EXPECT_EQ(r.counters.value("session.opened") + r.counters.value("session.refused"),
            r.counters.value("session.contacts"));
}

TEST(ObsExperiment, StageProfileCoversThePipeline) {
  const core::ExperimentResult r = core::run_experiment(guard_config());
  for (const char* stage : {"trace_gen", "communities", "warm_up", "simulation",
                            "extraction"}) {
    bool found = false;
    for (const auto& s : r.stages.stages()) found |= std::string_view(s.name) == stage;
    EXPECT_TRUE(found) << "missing stage " << stage;
  }
  EXPECT_GT(r.stages.total(), 0.0);
}

TEST(ObsExperiment, RingSnapshotContainsHandshakeSteps) {
  core::ExperimentConfig cfg = guard_config();
  cfg.trace_ring = 200000;
  const core::ExperimentResult r = core::run_experiment(cfg);
  obs::CountingSink counts;
  for (const auto& e : r.events) counts.on_event(e);
  EXPECT_GT(counts.count(obs::EventKind::HsRelayRqst), 0u);
  EXPECT_GT(counts.count(obs::EventKind::HsRelayOk), 0u);
  EXPECT_GT(counts.count(obs::EventKind::HsRelayData), 0u);
  EXPECT_GT(counts.count(obs::EventKind::HsPorSigned), 0u);
  EXPECT_GT(counts.count(obs::EventKind::HsKeyReveal), 0u);
  EXPECT_GT(counts.count(obs::EventKind::Detection), 0u);
  // Ring events never run backwards in time.
  for (std::size_t i = 1; i < r.events.size(); ++i) {
    EXPECT_LE(r.events[i - 1].at, r.events[i].at);
  }
}

}  // namespace
}  // namespace g2g
