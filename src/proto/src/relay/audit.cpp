#include "g2g/proto/relay/audit.hpp"

#include <algorithm>
#include <span>

#include "g2g/crypto/hmac.hpp"
#include "g2g/proto/relay/frames.hpp"
#include "g2g/proto/relay/relay_node.hpp"

namespace g2g::proto::relay {

void AuditEngine::run(Session& s, RelayNode& peer) {
  const TimePoint now = s.now();
  const std::size_t sig = host_.identity().suite().signature_size();
  obs::Tracer& tracer = host_.env_.obs().tracer;

  for (PendingTest& t : tests_) {
    if (s.exhausted()) break;
    if (t.done || t.relay != peer.id()) continue;
    if (now < t.relayed_at + host_.config().delta1) continue;  // not testable yet
    if (now > t.relayed_at + host_.config().delta2) continue;  // window closed
    t.done = true;
    // One arena generation per challenge: frames and signed payloads encoded
    // below live until this reset at the start of the next challenge.
    s.arena().reset();

    NodeId real_dst = NodeId::invalid();
    if (!host_.begin_test(t, real_dst)) continue;  // source hold gone

    const std::uint64_t ref = host_.trace_ref(t.h);
    host_.counters().tests_by_sender->add();
    // One audit_round span per test-by-sender challenge, child of the message
    // span; the close value mirrors the TestBySender event (0 fail, 1 PoRs
    // ok, 2 storage proof ok, 3 inconclusive).
    const std::uint64_t span = tracer.open_span(
        now, obs::SpanKind::AuditRound, tracer.message_span(ref), host_.id(), peer.id(), ref);
    // The challenge crosses the session as a POR_RQST frame carrying a fresh
    // 32-byte seed; the responder answers from the decoded bytes.
    PorRqstFrame challenge;
    challenge.h = t.h;
    // Four little-endian rng words fill the seed in place (byte-identical to
    // the former Writer-built buffer).
    for (std::size_t i = 0; i < 4; ++i) {
      const std::uint64_t word = host_.env_.rng().next();
      for (std::size_t j = 0; j < 8; ++j) {
        challenge.seed[i * 8 + j] = static_cast<std::uint8_t>(word >> (8 * j));
      }
    }
    const BytesView challenge_bytes = arena_encode(s.arena(), challenge);
    host_.counters().frames_encoded->add();
    s.signed_control(host_, challenge_bytes.size() + sig, obs::WireKind::PorRqst);
    const PorRqstFrame rq = PorRqstFrame::decode(challenge_bytes);
    peer.counters().frames_decoded->add();
    const TestResponse resp = peer.audit().respond(s, rq);

    if (!host_.screen_pors(t, resp.pors, real_dst, now)) {
      // The policy screen failed the test outright (Delegation: the chain
      // check detected a cheat and issued the PoM already).
      host_.counters().tests_failed->add();
      host_.trace_event(obs::EventKind::TestBySender, peer.id(), ref, 0);
      tracer.close_span(now, span, 0);
      continue;
    }

    // Either two valid PoRs...
    if (resp.pors.size() >= host_.config().relay_fanout) {
      // Each PoR must name this message and this relay as its giver, and
      // carry the taker's signature. Signed payloads are built in the arena
      // (no reset until the next challenge).
      bool all_ok = true;
      for (const auto& por : resp.pors) {
        host_.count_verification();
        bool ok = por.h == t.h && por.giver == peer.id();
        if (ok) {
          const std::span<std::uint8_t> payload = s.arena().alloc(por.signed_payload_size());
          SpanWriter pw(payload);
          por.signed_payload_into(pw);
          pw.expect_full();
          ok = host_.env_.roster().verify(por.taker, payload, por.taker_signature.view());
        }
        host_.trace_event(obs::EventKind::PorVerified, por.taker, ref, ok ? 1 : 0);
        if (ok) host_.counters().pors_verified->add();
        else all_ok = false;
      }
      if (all_ok) {
        host_.counters().tests_passed->add();
        host_.trace_event(obs::EventKind::TestBySender, peer.id(), ref, 1);
        tracer.close_span(now, span, 1);
        continue;  // test passed: the relay showed its PoRs
      }
    }

    // ...or a storage proof the source can recompute (it still has m).
    if (resp.storage.has_value()) {
      const Hold* own = host_.handshake().find_hold(t.h);
      if (own == nullptr || !own->has_msg) {
        host_.trace_event(obs::EventKind::TestBySender, peer.id(), ref, 3);
        tracer.close_span(now, span, 3);
        continue;  // source can no longer verify; give the benefit of the doubt
      }
      // The cost model charges the source's recompute; heavy_hmac_equal runs
      // the chains only when the relay's inputs differ from the source's.
      host_.count_heavy_hmac();
      const StorageProof& proof = *resp.storage;
      if (crypto::heavy_hmac_equal(host_.env_.messages().wire(own->msg), challenge.seed,
                                   host_.config().heavy_hmac_iterations, proof.message,
                                   proof.seed, proof.iterations)) {
        host_.counters().tests_passed->add();
        host_.trace_event(obs::EventKind::TestBySender, peer.id(), ref, 2);
        tracer.close_span(now, span, 2);
        continue;  // passed: the relay still stores the message
      }
    }

    // Failure: broadcastable proof of misbehaviour — the PoR the relay signed.
    host_.counters().tests_failed->add();
    host_.trace_event(obs::EventKind::TestBySender, peer.id(), ref, 0);
    ProofOfMisbehavior pom;
    pom.kind = ProofOfMisbehavior::Kind::RelayFailure;
    pom.culprit = peer.id();
    pom.evidence_accepted = t.por;
    host_.issue_pom(std::move(pom), metrics::DetectionMethod::TestBySender,
                    now - (t.relayed_at + host_.config().delta1));
    tracer.close_span(now, span, 0);
  }
}

TestResponse AuditEngine::respond(Session& s, const PorRqstFrame& rq) {
  TestResponse resp;
  const Hold* held = host_.handshake().find_hold(rq.h);
  if (held == nullptr) {
    // Nothing to show: a dropper past Delta2, or a dropper that kept no state.
    return resp;
  }
  const Hold& hold = *held;

  if (mode_ == PresentMode::PorsThenStorage) {
    // Delegation: every PoR travels (the sender chain-checks them); a storage
    // proof covers the shortfall.
    resp.pors = hold.pors;
    for (const auto& por : resp.pors) s.transfer(host_, por.wire_size(), obs::WireKind::Por);
    if (hold.pors.size() < host_.config().relay_fanout && hold.has_msg) {
      storage_proof(s, hold, rq, resp);
    }
    return resp;
  }

  // Epidemic: a full PoR set settles the test by itself.
  if (hold.pors.size() >= host_.config().relay_fanout) {
    resp.pors = hold.pors;
    for (const auto& por : resp.pors) s.transfer(host_, por.wire_size(), obs::WireKind::Por);
    return resp;
  }
  if (hold.has_msg) {
    resp.pors = hold.pors;  // show what we have (0 or 1)
    storage_proof(s, hold, rq, resp);
    return resp;
  }
  return resp;  // dropper: no PoRs, no message
}

void AuditEngine::storage_proof(Session& s, const Hold& hold, const PorRqstFrame& rq,
                                TestResponse& resp) {
  host_.count_heavy_hmac();
  host_.counters().storage_challenges->add();
  host_.trace_event(obs::EventKind::StorageChallenge, s.peer_of(host_).id(),
                    host_.trace_ref(rq.h), host_.config().heavy_hmac_iterations);
  // The relay answers with its heavy-HMAC inputs: its hold's wire bytes in
  // the message table. The STORED_RESP frame is accounted at its canonical
  // size.
  resp.storage = StorageProof{host_.env_.messages().wire(hold.msg), rq.seed,
                              host_.config().heavy_hmac_iterations};
  host_.counters().frames_encoded->add();
  const std::size_t sig = host_.identity().suite().signature_size();
  s.signed_control(host_, StoredRespFrame::kWireBytes + sig, obs::WireKind::StoredResp);
}

std::size_t AuditEngine::pending_count() const {
  return static_cast<std::size_t>(
      std::count_if(tests_.begin(), tests_.end(), [](const PendingTest& t) { return !t.done; }));
}

}  // namespace g2g::proto::relay
