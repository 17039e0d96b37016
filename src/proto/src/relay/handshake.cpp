#include "g2g/proto/relay/handshake.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "g2g/proto/relay/frames.hpp"
#include "g2g/proto/relay/relay_node.hpp"

namespace g2g::proto::relay {

void HandshakeEngine::generate(MessageRef m, double fm) {
  const MessageTable& table = host_.env_.messages();
  const MessageHash& h = table.hash(m);
  Hold hold;
  hold.msg = m;
  hold.has_msg = true;
  hold.msg_bytes = table.wire(m).size();
  hold.fm = fm;
  hold.received = host_.env_.now();
  hold.expires = host_.env_.now() + host_.config().delta1;
  hold.giver = host_.id();
  hold.is_source = true;
  host_.buffer_changed(static_cast<std::int64_t>(hold.msg_bytes));
  insert_hold(h, std::move(hold));
  handled_.insert(h);
}

Hold* HandshakeEngine::find_hold(const MessageHash& h) {
  const std::uint32_t id = hold_ids_.find(h);
  return id == HashIndex::kNone ? nullptr : &slot(id).hold;
}

const Hold* HandshakeEngine::find_hold(const MessageHash& h) const {
  const std::uint32_t id = hold_ids_.find(h);
  return id == HashIndex::kNone ? nullptr : &slot(id).hold;
}

void HandshakeEngine::insert_hold(const MessageHash& h, Hold hold) {
  const auto [id, inserted] = hold_ids_.insert(h);
  if (!inserted) return;
  if (id / kChunk == chunks_.size()) chunks_.push_back(std::make_unique<Slot[]>(kChunk));
  Slot& sl = slot(id);
  sl.hold = std::move(hold);
  by_receipt_.push_back(id);
  // Offerable from the start, or never: a hold without a payload or at its
  // destination is never offered, and a hoarder never relays other people's
  // messages (it will answer the storage test instead, and pay the heavy HMAC
  // for it).
  const Hold& held = sl.hold;
  const bool hoards = host_.behavior().kind == Behavior::Hoarder && !held.is_source &&
                      host_.deviates_with(held.giver);
  if (!held.has_msg || held.is_destination || hoards) return;
  offers_.insert(offer_position(h), id);
  sl.offered = true;
}

std::vector<std::uint32_t>::iterator HandshakeEngine::offer_position(const MessageHash& h) {
  return std::lower_bound(
      offers_.begin(), offers_.end(), h,
      [this](std::uint32_t id, const MessageHash& key) { return hold_ids_.key(id) < key; });
}

void HandshakeEngine::erase_hold(std::uint32_t id) {
  Slot& sl = slot(id);
  if (sl.hold.has_msg) drop_payload(sl.hold);
  // Message and PoR state is discarded at Delta2; the 32-byte message hash
  // stays in `handled_` so the node never pays for re-reception.
  const MessageHash& h = hold_ids_.key(id);
  if (sl.offered) offers_.erase(offer_position(h));
  sl = Slot{};
  hold_ids_.erase(id);
}

bool HandshakeEngine::testing(std::uint32_t id, TimePoint now) const {
  if (!slot(id).hold.is_source) return false;
  const MessageHash& h = hold_ids_.key(id);
  const std::vector<PendingTest>& tests = host_.audit().tests();
  return std::any_of(tests.begin(), tests.end(), [&](const PendingTest& t) {
    return t.h == h && !t.done && now <= t.relayed_at + host_.config().delta2;
  });
}

void HandshakeEngine::purge(TimePoint now) {
  // A source keeps its bookkeeping while tests of its relays are pending:
  // recheck the holds kept back so far...
  std::size_t kept = 0;
  for (const std::uint32_t id : retained_) {
    if (testing(id, now)) {
      retained_[kept++] = id;
    } else {
      erase_hold(id);
    }
  }
  retained_.resize(kept);
  // ...then take every hold past Delta2 after receipt off the front of the
  // receipt queue: every trace of the message may be discarded.
  while (!by_receipt_.empty() &&
         now > slot(by_receipt_.front()).hold.received + host_.config().delta2) {
    const std::uint32_t id = by_receipt_.front();
    by_receipt_.pop_front();
    if (testing(id, now)) {
      retained_.push_back(id);
    } else {
      erase_hold(id);
    }
  }
  std::erase_if(host_.audit().tests(), [&](const PendingTest& t) {
    return t.done || now > t.relayed_at + host_.config().delta2;
  });
}

void HandshakeEngine::drop_payload(Hold& hold) {
  host_.buffer_changed(-static_cast<std::int64_t>(hold.msg_bytes));
  hold.has_msg = false;
}

void HandshakeEngine::giver_pass(Session& s, RelayNode& taker) {
  const TimePoint now = s.now();
  const std::size_t sig = host_.identity().suite().signature_size();
  obs::Tracer& tracer = host_.env_.obs().tracer;

  // Offer the listed holds in ascending H(m). A hold that stopped being
  // offerable (payload gone, fanout met, past Delta1 / TTL) never becomes
  // offerable again, so it leaves the list here. A handshake only touches
  // the taker's tables and this one hold, so the list and the slots stay put
  // for the whole pass.
  std::size_t kept = 0;
  std::size_t next = 0;
  for (; next < offers_.size(); ++next) {
    const std::uint32_t id = offers_[next];
    Slot& sl = slot(id);
    Hold& hold = sl.hold;
    const std::size_t fanout =
        hold.is_source ? host_.config().source_fanout : host_.config().relay_fanout;
    if (!hold.has_msg || hold.pors.size() >= fanout || now > hold.expires) {
      sl.offered = false;
      continue;
    }
    if (s.exhausted()) break;  // the contact cannot carry another handshake
    offers_[kept++] = id;
    // One arena generation per handshake attempt: every frame and payload
    // encoded below lives until this reset at the start of the next attempt.
    s.arena().reset();
    const MessageHash h = hold_ids_.key(id);

    // One relay_session span per handshake attempt, child of the message
    // span; closed 0 on decline/abort, 1 when the relay completes.
    const std::uint64_t ref = host_.trace_ref(h);
    const std::uint64_t span = tracer.open_span(
        now, "relay_session", tracer.message_span(ref), host_.id(), taker.id(), ref);

    // Steps 1-4: policy-specific (epidemic offer vs. delegation negotiation).
    auto out = host_.relay_attempt(s, taker, h, hold);
    if (!out.has_value()) {
      tracer.close_span(now, span, 0);
      continue;  // declined or aborted; accounting done
    }

    hold.pors.push_back(out->por);
    // Step 5: KEY.
    host_.counters().handshakes_completed->add();
    host_.trace_event(obs::EventKind::HsKeyReveal, taker.id(), ref);
    KeyRevealFrame key;
    key.h = h;
    const BytesView key_bytes = arena_encode(s.arena(), key);
    host_.counters().frames_encoded->add();
    s.signed_control(host_, key_bytes.size() + sig, obs::WireKind::KeyReveal);
    host_.env_.notify_relayed(hold.msg, host_.id(), taker.id());
    if (out->update_fm) hold.fm = out->new_fm;
    taker.handshake().complete_relay(s, host_, out->data_frame, key_bytes, hold.fm,
                                     hold.expires);

    if (hold.is_source) {
      host_.audit().arm(PendingTest{h, taker.id(), now, out->por, false});
    }
    if (!hold.is_source && hold.pors.size() >= host_.config().relay_fanout) {
      // Forwarding duty fulfilled: the payload may go, the PoRs stay.
      drop_payload(hold);
    }
    tracer.close_span(now, span, 1);
  }
  offers_.erase(offers_.begin() + static_cast<std::ptrdiff_t>(kept),
                offers_.begin() + static_cast<std::ptrdiff_t>(next));
}

std::optional<BytesView> HandshakeEngine::answer_relay_rqst(Session& s, RelayNode& giver,
                                                            BytesView rqst_frame) {
  const RelayRqstFrame rq = RelayRqstFrame::decode(rqst_frame);
  host_.counters().frames_decoded->add();
  const std::size_t sig = host_.identity().suite().signature_size();
  const std::uint64_t ref = host_.trace_ref(rq.h);
  if (handled_.contains(rq.h)) {
    // "node B informs S that it should not be chosen as a relay" — and it
    // answers honestly, because it cannot know whether it is the destination.
    host_.trace_event(obs::EventKind::HsRelayOk, giver.id(), ref, 0);
    const BytesView decline = arena_encode(s.arena(), RelayOkFrame{rq.h, false});
    host_.counters().frames_encoded->add();
    s.signed_control(host_, decline.size() + sig, obs::WireKind::RelayOk);
    return std::nullopt;
  }
  // Step 2: RELAY_OK.
  host_.trace_event(obs::EventKind::HsRelayOk, giver.id(), ref, 1);
  const BytesView ok = arena_encode(s.arena(), RelayOkFrame{rq.h, true});
  host_.counters().frames_encoded->add();
  s.signed_control(host_, ok.size() + sig, obs::WireKind::RelayOk);

  // Step 4: sign the PoR. (The encrypted message of step 3 has arrived; the
  // giver accounts its bytes.)
  ProofOfRelay por;
  por.h = rq.h;
  por.giver = giver.id();
  por.taker = host_.id();
  por.at = s.now();
  return countersign(s, giver, std::move(por));
}

BytesView HandshakeEngine::countersign(Session& s, RelayNode& giver, ProofOfRelay por) {
  host_.count_signature();
  // The signed payload is built in the arena; the signature it produces is
  // owned by the PoR (it outlives the attempt inside Holds and PoMs).
  Arena& arena = s.arena();
  const std::span<std::uint8_t> payload = arena.alloc(por.signed_payload_size());
  SpanWriter pw(payload);
  por.signed_payload_into(pw);
  pw.expect_full();
  por.taker_signature = host_.identity().sign(BytesView(payload.data(), payload.size()));
  host_.counters().pors_issued->add();
  const std::uint64_t ref = host_.trace_ref(por.h);
  host_.trace_event(obs::EventKind::HsPorSigned, giver.id(), ref);
  host_.trace_event(obs::EventKind::PorIssued, giver.id(), ref);
  s.transfer(host_, por.wire_size(), obs::WireKind::Por);
  return arena_encode(arena, por);
}

void HandshakeEngine::complete_relay(Session& s, RelayNode& giver, BytesView data_frame,
                                     BytesView key_frame, double new_fm, TimePoint expires) {
  // In-place decode: the message is read from the frame bytes through a view;
  // only the attachments the Hold must own are materialized.
  const RelayDataFrameView data = RelayDataFrameView::decode(data_frame);
  const KeyRevealFrame key = KeyRevealFrame::decode(key_frame);
  host_.counters().frames_decoded->add(2);
  (void)key;  // the box seal emulates E_k; see KeyRevealFrame
  // H(m) of the bytes as they arrived: the claimed entry when the bytes equal
  // it, else the entry of their own hash.
  MessageTable& table = s.env().messages();
  const MessageRef m = table.admit(data.msg.wire, data.h);
  const MessageHash& h = table.hash(m);
  if (h != data.h) host_.counters().relay_misclaims->add();
  // A replayed frame: the RELAY_RQST / FQ_RQST step declines a handled H(m),
  // so only a peer that skipped it gets here. Drop it before any side effect.
  if (!handled_.insert(h).second) {
    host_.counters().relay_replays->add();
    return;
  }

  Hold hold;
  hold.msg = m;
  hold.msg_bytes = data.msg.wire_size();
  hold.fm = new_fm;
  hold.received = s.now();
  // Global TTL: the expiry travels with the message; per-holder otherwise.
  hold.expires = host_.config().global_ttl ? expires : s.now() + host_.config().delta1;
  hold.giver = giver.id();
  hold.attachments = data.decode_attachments();

  const SealedMessage& body = table.body(m);
  if (body.dst == host_.id()) {
    const auto opened = open_message(host_.identity(), body, s.env().roster());
    host_.count_verification();
    if (opened.has_value() && opened->authentic) s.env().notify_delivered(m, host_.id());
    host_.on_delivered(s, hold.attachments);  // test by the destination
    // The destination keeps the message (it must still answer a possible
    // storage test — it cannot reveal that it is the destination by design).
    hold.is_destination = true;
    hold.has_msg = true;
    host_.buffer_changed(static_cast<std::int64_t>(hold.msg_bytes));
    insert_hold(h, std::move(hold));
    return;
  }

  if (host_.behavior().kind == Behavior::Dropper && host_.deviates_with(giver.id())) {
    // Drop right after the relay phase: no payload is stored; only the
    // handled-set entry remains so the node declines re-reception.
    hold.has_msg = false;
    insert_hold(h, std::move(hold));
    return;
  }

  hold.has_msg = true;
  host_.buffer_changed(static_cast<std::int64_t>(hold.msg_bytes));
  insert_hold(h, std::move(hold));
}

}  // namespace g2g::proto::relay
