#include "g2g/proto/g2g_epidemic.hpp"

#include <span>
#include <utility>

#include "g2g/proto/relay/frames.hpp"

namespace g2g::proto {

std::optional<relay::HandshakeOutcome> G2GEpidemicNode::relay_attempt(
    Session& s, relay::RelayNode& taker, const MessageHash& h, relay::Hold& hold) {
  const std::size_t sig = identity().suite().signature_size();
  const std::uint64_t ref = trace_ref(h);

  // Step 1: RELAY_RQST.
  counters().handshakes_started->add();
  trace_event(obs::EventKind::HsRelayRqst, taker.id(), ref);
  const BytesView rqst = arena_encode(s.arena(), relay::RelayRqstFrame{h});
  counters().frames_encoded->add();
  s.signed_control(*this, rqst.size() + sig, obs::WireKind::RelayRqst);
  // Steps 2/3/4: the taker answers, the message travels, the PoR returns.
  const auto por_wire = taker.handshake().answer_relay_rqst(s, *this, rqst);
  if (!por_wire.has_value()) {
    counters().handshakes_declined->add();
    return std::nullopt;  // taker declined (already handled)
  }
  const ProofOfRelayView por = ProofOfRelayView::decode(*por_wire);
  counters().frames_decoded->add();

  // Step 3 accounting: E_k(m). The held entry's wire bytes, framed in the arena.
  const BytesView data =
      relay::arena_relay_data(s.arena(), h, env_.messages().wire(hold.msg), {});
  counters().frames_encoded->add();
  trace_event(obs::EventKind::HsRelayData, taker.id(), ref,
              static_cast<std::int64_t>(hold.msg_bytes));
  s.signed_control(*this, data.size() + sig, obs::WireKind::RelayData);

  // Verify the PoR before revealing the key (signed payload built in the
  // arena; the signature is checked against the view in place).
  count_verification();
  bool por_ok = por.h == h && por.giver == id() && por.taker == taker.id();
  if (por_ok) {
    const std::span<std::uint8_t> payload = s.arena().alloc(por.signed_payload_size());
    SpanWriter pw(payload);
    por.signed_payload_into(pw);
    pw.expect_full();
    por_ok = env_.roster().verify(taker.id(), BytesView(payload.data(), payload.size()),
                                  por.taker_signature);
  }
  trace_event(obs::EventKind::PorVerified, taker.id(), ref, por_ok ? 1 : 0);
  if (!por_ok) {
    counters().handshakes_aborted->add();
    return std::nullopt;  // never happens with conforming takers
  }
  counters().pors_verified->add();
  return relay::HandshakeOutcome{por.to_owned(), data, false, 0.0};
}

}  // namespace g2g::proto
