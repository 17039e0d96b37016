#include "g2g/obs/context.hpp"

#include <iterator>

namespace g2g::obs {

namespace {

/// The per-kind wire counter names, indexed by WireKind.
struct WireCounterNames {
  CounterName bytes;
  CounterName msgs;
};

constexpr WireCounterNames kWireCounterNames[] = {
    {"wire.certificate.bytes", "wire.certificate.msgs"},
    {"wire.summary_vector.bytes", "wire.summary_vector.msgs"},
    {"wire.payload.bytes", "wire.payload.msgs"},
    {"wire.relay_rqst.bytes", "wire.relay_rqst.msgs"},
    {"wire.relay_ok.bytes", "wire.relay_ok.msgs"},
    {"wire.relay_data.bytes", "wire.relay_data.msgs"},
    {"wire.key_reveal.bytes", "wire.key_reveal.msgs"},
    {"wire.por_rqst.bytes", "wire.por_rqst.msgs"},
    {"wire.stored_resp.bytes", "wire.stored_resp.msgs"},
    {"wire.fq_rqst.bytes", "wire.fq_rqst.msgs"},
    {"wire.quality_decl.bytes", "wire.quality_decl.msgs"},
    {"wire.por.bytes", "wire.por.msgs"},
    {"wire.pom.bytes", "wire.pom.msgs"},
    {"wire.other.bytes", "wire.other.msgs"},
};
static_assert(std::size(kWireCounterNames) == kWireKindCount);

}  // namespace

ProtocolCounters::ProtocolCounters(Registry& r)
    : contacts(&r.counter("session.contacts")),
      sessions_opened(&r.counter("session.opened")),
      sessions_refused(&r.counter("session.refused")),
      handshakes_started(&r.counter("hs.started")),
      handshakes_declined(&r.counter("hs.declined")),
      handshakes_completed(&r.counter("hs.completed")),
      handshakes_aborted(&r.counter("hs.aborted")),
      pors_issued(&r.counter("hs.por_issued")),
      pors_verified(&r.counter("hs.por_verified")),
      tests_by_sender(&r.counter("detect.tests_by_sender")),
      tests_passed(&r.counter("detect.tests_passed")),
      tests_failed(&r.counter("detect.tests_failed")),
      storage_challenges(&r.counter("detect.storage_challenges")),
      chain_cheats(&r.counter("detect.chain_cheats")),
      quality_lies(&r.counter("detect.quality_lies")),
      poms_issued(&r.counter("pom.issued")),
      poms_gossiped(&r.counter("pom.gossiped")),
      poms_learned(&r.counter("pom.learned")),
      evictions(&r.counter("pom.evictions")),
      frames_encoded(&r.counter("g2g.frame.encoded")),
      frames_decoded(&r.counter("g2g.frame.decoded")),
      relay_replays(&r.counter("g2g.relay.replay_dropped")),
      relay_misclaims(&r.counter("g2g.relay.misclaimed")),
      fq_sign_reused(&r.counter("g2g.fq.sign_reused")),
      fq_verify_reused(&r.counter("g2g.fq.verify_reused")),
      generated(&r.counter("msg.generated")),
      relays(&r.counter("msg.relayed")),
      deliveries(&r.counter("msg.delivered")),
      detections(&r.counter("detect.detections")),
      buffer_adds(&r.counter("buffer.adds")),
      buffer_drops(&r.counter("buffer.drops")),
      hop_delay_s(&r.histogram(
          "msg.hop_delay_s",
          {1.0, 10.0, 60.0, 300.0, 900.0, 1800.0, 3600.0, 7200.0})),
      delivery_delay_s(&r.histogram(
          "msg.delivery_delay_s",
          {1.0, 10.0, 60.0, 300.0, 900.0, 1800.0, 3600.0, 7200.0, 10800.0})),
      contact_duration_s(&r.histogram(
          "session.contact_duration_s",
          {1.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0})) {
  for (std::size_t i = 0; i < kWireKindCount; ++i) {
    wire_bytes[i] = &r.counter(kWireCounterNames[i].bytes);
    wire_msgs[i] = &r.counter(kWireCounterNames[i].msgs);
  }
}

}  // namespace g2g::obs
