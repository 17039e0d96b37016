// Causal spans: the lifecycle layer on top of the flat event stream.
//
// A span is an interval in sim-time with an identity and a parent. The
// protocol layers open four kinds of spans:
//
//   msg            one per generated message, keyed by the message ref; the
//                  root of that message's causal tree. Closed in bulk at the
//                  end of the run (value 1 = delivered, 0 = not), so child
//                  spans always nest inside a live parent.
//   relay_session  one 5-step G2G handshake attempt (steps 1-5 or the
//                  decline), child of the message span; value 1 = the relay
//                  completed, 0 = declined/aborted.
//   audit_round    one test-by-sender challenge, child of the message span;
//                  value mirrors the TestBySender event (0 fail, 1 PoRs ok,
//                  2 storage proof ok, 3 inconclusive).
//   pom_gossip     one session's accusation exchange (a root span); value =
//                  number of PoMs the gossip carried.
//
// Spans travel through the same Tracer/EventSink pipeline as events
// (JsonlSink writes one "open" and one "close" line per span) and obey the
// same cardinal rule: tracing is read-only, a traced run is bit-identical to
// an untraced one. Span ids are allocated deterministically (1, 2, 3, ... in
// emission order), so two traced runs of the same config produce
// byte-identical JSONL. Timestamps are sim-time; optional steady_clock
// deltas (Tracer::enable_wall_profiling) attach wall_ns to close records for
// profiling runs only — they are the one non-deterministic field, off by
// default.
//
// The span names are SpanKind's table below: open_span() takes the enum, so
// a name outside the table does not compile. docs/OBSERVABILITY.md ("Spans &
// causal tracing") documents them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>

#include "g2g/util/ids.hpp"
#include "g2g/util/time.hpp"

namespace g2g::obs {

/// The span kinds of the model above.
enum class SpanKind : std::uint8_t { Msg, RelaySession, AuditRound, PomGossip };

/// The JSONL name of a span kind ("msg", "relay_session", ...).
[[nodiscard]] constexpr const char* to_string(SpanKind kind) {
  constexpr const char* kNames[] = {"msg", "relay_session", "audit_round", "pom_gossip"};
  static_assert(std::size(kNames) == static_cast<std::size_t>(SpanKind::PomGossip) + 1);
  return kNames[static_cast<std::size_t>(kind)];
}

struct SpanRecord {
  TimePoint at;                ///< sim-time stamp of the open or close
  std::uint64_t id = 0;        ///< deterministic, 1-based, emission order
  std::uint64_t parent = 0;    ///< parent span id; 0 = root
  const char* name = nullptr;  ///< to_string(SpanKind) on open; nullptr on close
  bool close = false;
  NodeId a;                    ///< primary actor (giver / source / gossiper)
  NodeId b;                    ///< counterparty (may be invalid())
  std::uint64_t ref = 0;       ///< message reference, 0 when not per-message
  std::int64_t value = 0;      ///< close outcome (kind-specific, see above)
  std::int64_t wall_ns = -1;   ///< steady_clock delta; -1 unless profiling
};

}  // namespace g2g::obs
