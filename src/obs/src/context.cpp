#include "g2g/obs/context.hpp"

#include <string>

namespace g2g::obs {

const char* to_string(WireKind kind) {
  switch (kind) {
    case WireKind::Certificate: return "certificate";
    case WireKind::SummaryVector: return "summary_vector";
    case WireKind::Payload: return "payload";
    case WireKind::RelayRqst: return "relay_rqst";
    case WireKind::RelayOk: return "relay_ok";
    case WireKind::RelayData: return "relay_data";
    case WireKind::KeyReveal: return "key_reveal";
    case WireKind::PorRqst: return "por_rqst";
    case WireKind::StoredResp: return "stored_resp";
    case WireKind::FqRqst: return "fq_rqst";
    case WireKind::QualityDecl: return "quality_decl";
    case WireKind::Por: return "por";
    case WireKind::Pom: return "pom";
    case WireKind::Other: return "other";
  }
  return "unknown";
}

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
      pom_gossip_dup(&r.counter("g2g.pom.gossip_dup")),
      pom_batch_verified(&r.counter("g2g.pom.batch_verified")),
      frames_encoded(&r.counter("g2g.frame.encoded")),
      frames_decoded(&r.counter("g2g.frame.decoded")),
      relay_replays(&r.counter("g2g.relay.replay_dropped")),
      relay_misclaims(&r.counter("g2g.relay.misclaimed")),
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
    const std::string base =
        std::string("wire.") + to_string(static_cast<WireKind>(i));
    wire_bytes[i] = &r.counter(base + ".bytes");
    wire_msgs[i] = &r.counter(base + ".msgs");
  }
}

}  // namespace g2g::obs
