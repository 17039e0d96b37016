// The structured event tracer: a ring-buffered, optionally-sinked stream of
// typed simulation events.
//
// Disabled (the default) the whole tracer is one branch per emit() — protocol
// code can instrument unconditionally. Enabling either a ring buffer (for
// in-process inspection and tests) or a sink (e.g. JsonlSink for files)
// turns recording on. Tracing is strictly read-only with respect to the
// simulation: it never touches the RNG or protocol state, so a traced run
// produces bit-identical results to an untraced one (tests/obs_test.cpp
// proves this).
//
// Thread model: one Tracer belongs to one single-threaded simulation run
// (core::run_parallel gives every run its own ObsContext).
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "g2g/obs/event.hpp"
#include "g2g/obs/span.hpp"

namespace g2g::obs {

/// Receiver of the event stream; attach with Tracer::add_sink.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_event(const Event& e) = 0;
  /// Span open/close records. Default ignore: event-only sinks keep working
  /// unchanged when the protocol layers emit spans.
  virtual void on_span(const SpanRecord& s) { (void)s; }
};

class Tracer {
 public:
  /// Attach a non-owning sink; enables tracing. The sink must outlive the run.
  void add_sink(EventSink* sink);
  /// Keep the most recent `capacity` events in memory; enables tracing.
  void enable_ring(std::size_t capacity = 4096);

  [[nodiscard]] bool enabled() const { return enabled_; }
  void emit(const Event& e) {
    if (enabled_) record(e);
  }

  /// Ring contents, oldest first (emission order; events at equal sim-time
  /// keep the order they were emitted in).
  [[nodiscard]] std::vector<Event> ring() const;
  /// Total events recorded since construction (including ones the ring dropped).
  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }

  // Spans ---------------------------------------------------------------------
  // See span.hpp for the model. All span state lives behind `enabled_`: a
  // disabled tracer allocates nothing and returns id 0, and close_span(0) is
  // a no-op, so call sites stay branch-free.

  /// Open a child span; returns its id (0 when tracing is disabled).
  std::uint64_t open_span(TimePoint at, SpanKind kind, std::uint64_t parent, NodeId a,
                          NodeId b, std::uint64_t ref = 0);
  /// Close a span opened by open_span; `value` is the outcome.
  void close_span(TimePoint at, std::uint64_t id, std::int64_t value = 0);

  /// Message lifecycle spans, keyed by the message ref: opened at generation,
  /// marked at first delivery, closed in bulk (ref order) at end of run so
  /// child spans always nest inside a live parent.
  void open_message_span(TimePoint at, std::uint64_t ref, NodeId src, NodeId dst);
  /// Span id for a message ref; 0 if unknown (children then become roots).
  [[nodiscard]] std::uint64_t message_span(std::uint64_t ref) const;
  void mark_message_delivered(std::uint64_t ref);
  /// Close every still-open message span: value 1 = delivered, 0 = not.
  void close_message_spans(TimePoint at);

  /// Attach steady_clock deltas (SpanRecord::wall_ns) to close records. Off
  /// by default — wall deltas are the one non-deterministic span field, so
  /// enabling this forfeits byte-identical JSONL (profiling runs only).
  void enable_wall_profiling() { wall_profiling_ = true; }

  /// Total spans opened since construction.
  [[nodiscard]] std::uint64_t spans_opened() const { return next_span_id_ - 1; }

 private:
  void record(const Event& e);
  void record_span(const SpanRecord& s);

  struct MsgSpan {
    std::uint64_t id = 0;
    bool delivered = false;
  };

  bool enabled_ = false;
  bool wall_profiling_ = false;
  std::uint64_t emitted_ = 0;
  std::size_t ring_capacity_ = 0;
  std::size_t ring_next_ = 0;   // next write slot once the ring is full
  std::vector<Event> ring_;
  std::vector<EventSink*> sinks_;
  std::uint64_t next_span_id_ = 1;
  std::map<std::uint64_t, MsgSpan> msg_spans_;  // ref -> open message span
  /// Open wall-clock stamps, kept only while wall profiling is on.
  std::map<std::uint64_t, std::chrono::steady_clock::time_point> open_wall_;
};

/// Streams every event as one JSON object per line:
///   {"t_us":1234,"ev":"hs_relay_rqst","a":3,"b":7,"ref":42,"v":0}
/// `b` is -1 when the event has no counterparty. Output is deterministic
/// (integer microsecond timestamps, fixed key order).
class JsonlSink final : public EventSink {
 public:
  /// Write to an already-open stream; the caller keeps ownership.
  explicit JsonlSink(std::FILE* out) : out_(out), owned_(false) {}
  ~JsonlSink() override;

  JsonlSink(const JsonlSink&) = delete;
  JsonlSink& operator=(const JsonlSink&) = delete;

  /// Open `path` for writing; returns nullptr (with errno set) on failure.
  [[nodiscard]] static std::unique_ptr<JsonlSink> open(const std::string& path);

  void on_event(const Event& e) override;
  /// Span lines share the stream, distinguished by the "span" key:
  ///   {"t_us":N,"span":"open","name":"msg","id":1,"parent":0,"a":3,"b":7,"ref":42}
  ///   {"t_us":N,"span":"close","id":1,"v":1}          (+ "wall_ns" if profiling)
  void on_span(const SpanRecord& s) override;
  [[nodiscard]] std::uint64_t lines_written() const { return lines_; }

 private:
  JsonlSink(std::FILE* out, bool owned) : out_(out), owned_(owned) {}

  std::FILE* out_;
  bool owned_;
  std::uint64_t lines_ = 0;
};

/// Counts events per kind without storing them; handy for tests and for the
/// cheapest possible "is anything happening" probe.
class CountingSink final : public EventSink {
 public:
  void on_event(const Event& e) override;
  [[nodiscard]] std::uint64_t count(EventKind kind) const;
  [[nodiscard]] std::uint64_t total() const { return total_; }

 private:
  std::uint64_t per_kind_[kEventKindCount] = {};
  std::uint64_t total_ = 0;
};

}  // namespace g2g::obs
