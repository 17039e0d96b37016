#include "g2g/proto/g2g_delegation.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "g2g/proto/relay/frames.hpp"

namespace g2g::proto {

namespace {

constexpr double kQualityEps = 1e-9;

bool quality_mismatch(double a, double b) { return std::abs(a - b) > kQualityEps; }

}  // namespace

G2GDelegationNode::G2GDelegationNode(Env& env, crypto::NodeIdentity identity,
                                     NodeConfig config, BehaviorConfig behavior)
    : relay::RelayNode(env, std::move(identity), config, behavior,
                       relay::AuditEngine::PresentMode::PorsThenStorage),
      table_(config.quality_frame) {}

void G2GDelegationNode::note_encounter(NodeId peer, TimePoint t) { table_.record(peer, t); }

double G2GDelegationNode::source_fm(MessageRef m) {
  return table_.current(config().quality_kind, env_.messages().body(m).dst);
}

void G2GDelegationNode::on_delivered(Session& s,
                                     const std::vector<QualityDeclaration>& attachments) {
  check_attachments(s, attachments);
}

bool G2GDelegationNode::begin_test(relay::PendingTest& t, NodeId& real_dst) {
  // The source's own hold names the destination; purge keeps it while a
  // test of the message is pending.
  const relay::Hold* hold = handshake().find_hold(t.h);
  if (hold == nullptr) return false;
  real_dst = env_.messages().body(hold->msg).dst;
  return true;
}

bool G2GDelegationNode::screen_pors(const relay::PendingTest& t,
                                    const std::vector<ProofOfRelay>& pors, NodeId real_dst,
                                    TimePoint now) {
  // Chain check runs over every PoR the relay presents; a detected cheat has
  // already issued its PoM when this returns false.
  return pors.empty() || chain_check(t, pors, real_dst, now);
}

NodeId G2GDelegationNode::random_decoy(NodeId not_this) const {
  const auto n = static_cast<std::uint32_t>(env_.node_count());
  for (;;) {
    const NodeId candidate(static_cast<std::uint32_t>(env_.rng().below(n)));
    if (candidate != not_this && candidate != id()) return candidate;
  }
}

std::optional<relay::HandshakeOutcome> G2GDelegationNode::relay_attempt(
    Session& s, relay::RelayNode& taker, const MessageHash& h, relay::Hold& hold) {
  auto& taker_del = static_cast<G2GDelegationNode&>(taker);
  const TimePoint now = s.now();
  const std::size_t sig = identity().suite().signature_size();

  const MessageTable& messages = env_.messages();
  const NodeId real_dst = messages.body(hold.msg).dst;
  const bool to_dst = taker.id() == real_dst;
  // "When the destination of m is B, D' is chosen as a random node different
  // from B" — B must not learn it is the destination.
  const NodeId dprime = to_dst ? random_decoy(taker.id()) : real_dst;
  const std::uint64_t ref = trace_ref(h);

  // Step 8: FQ_RQST.
  counters().handshakes_started->add();
  trace_event(obs::EventKind::FqRqst, taker.id(), ref);
  const BytesView rq_bytes = arena_encode(s.arena(), relay::FqRqstFrame{h, dprime});
  counters().frames_encoded->add();
  s.signed_control(*this, rq_bytes.size() + sig, obs::WireKind::FqRqst);
  // Step 9: the taker answers from the decoded frame.
  const relay::FqRqstFrame rq = relay::FqRqstFrame::decode(rq_bytes);
  taker_del.counters().frames_decoded->add();
  const auto decl = taker_del.respond_fq(s, *this, rq.h, rq.dst);
  if (!decl.has_value()) {
    counters().handshakes_declined->add();
    return std::nullopt;  // taker already handled the message
  }

  // Verify the declaration signature (it may be stored as evidence).
  count_verification();
  const auto* taker_cert = env_.roster().find(taker.id());
  bool decl_ok = taker_cert != nullptr && decl->declarer == taker.id() && decl->dst == dprime;
  if (decl_ok) {
    const std::span<std::uint8_t> decl_payload = s.arena().alloc(decl->signed_payload_size());
    SpanWriter dw(decl_payload);
    decl->signed_payload_into(dw);
    dw.expect_full();
    decl_ok = identity().suite().verify(taker_cert->public_key,
                                        BytesView(decl_payload.data(), decl_payload.size()),
                                        decl->signature);
  }
  if (!decl_ok) {
    counters().handshakes_aborted->add();
    return std::nullopt;
  }

  // A cheater advertises (and labels the message with) a zeroed quality so
  // any candidate qualifies and it gets rid of the message quickly.
  const bool cheating = behavior().kind == Behavior::Cheater && deviates_with(taker.id());
  const double effective_fm = cheating ? min_quality(config().quality_kind) : hold.fm;

  if (!to_dst && decl->value <= effective_fm + kQualityEps) {
    // Failed candidate. The source archives the last two declarations for
    // the test by the destination.
    counters().handshakes_declined->add();
    if (hold.is_source) {
      hold.failed_candidates.push_back(*decl);
      if (hold.failed_candidates.size() > 2) {
        hold.failed_candidates.erase(hold.failed_candidates.begin());
      }
    }
    return std::nullopt;
  }

  // Step 10: RELAY with f_m and the embedded declarations. A source ships its
  // archived failed-candidate declarations; a relay forwards the attachments
  // it received — borrowed straight from the hold, no copies.
  const std::span<const QualityDeclaration> attachments =
      hold.is_source ? std::span<const QualityDeclaration>(hold.failed_candidates)
                     : std::span<const QualityDeclaration>(hold.attachments);
  std::size_t attach_bytes = 0;
  for (const auto& a : attachments) attach_bytes += a.wire_size();
  const BytesView data =
      relay::arena_relay_data(s.arena(), h, messages.wire(hold.msg), attachments);
  counters().frames_encoded->add();
  trace_event(obs::EventKind::HsRelayData, taker.id(), ref,
              static_cast<std::int64_t>(hold.msg_bytes + attach_bytes));
  s.signed_control(*this, data.size() + sig, obs::WireKind::RelayData);
  const double sent_fm = cheating ? min_quality(config().quality_kind) : hold.fm;

  // Step 11: the giver builds the delegation PoR (it knows D', f_m, f_BD');
  // the taker countersigns and its canonical bytes travel back.
  ProofOfRelay proto_por;
  proto_por.h = h;
  proto_por.giver = id();
  proto_por.taker = taker.id();
  proto_por.at = now;
  proto_por.delegation = true;
  proto_por.declared_dst = dprime;
  proto_por.msg_quality = sent_fm;
  proto_por.taker_quality = decl->value;
  proto_por.quality_frame = decl->frame;
  const ProofOfRelayView por =
      ProofOfRelayView::decode(taker.handshake().countersign(s, *this, std::move(proto_por)));
  counters().frames_decoded->add();

  count_verification();
  const std::span<std::uint8_t> payload = s.arena().alloc(por.signed_payload_size());
  SpanWriter pw(payload);
  por.signed_payload_into(pw);
  pw.expect_full();
  const bool por_ok = identity().suite().verify(taker_cert->public_key,
                                                BytesView(payload.data(), payload.size()),
                                                por.taker_signature);
  trace_event(obs::EventKind::PorVerified, taker.id(), ref, por_ok ? 1 : 0);
  if (!por_ok) {
    counters().handshakes_aborted->add();
    return std::nullopt;
  }
  counters().pors_verified->add();
  // "Label both messages with the forwarding quality of node B" — only on a
  // true delegation step; a delivery to the destination leaves f_m as-is.
  return relay::HandshakeOutcome{por.to_owned(), data, !to_dst, decl->value};
}

std::optional<QualityDeclaration> G2GDelegationNode::respond_fq(Session& s,
                                                                G2GDelegationNode& giver,
                                                                const MessageHash& h,
                                                                NodeId dst) {
  if (handshake().has_handled(h)) {
    const std::size_t sig = identity().suite().signature_size();
    trace_event(obs::EventKind::HsRelayOk, giver.id(), trace_ref(h), 0);
    const BytesView decline = arena_encode(s.arena(), relay::RelayOkFrame{h, false});
    counters().frames_encoded->add();
    s.signed_control(*this, decline.size() + sig, obs::WireKind::RelayOk);
    return std::nullopt;
  }
  QualityDeclaration decl;
  decl.declarer = id();
  decl.dst = dst;
  decl.at = s.now();
  const auto declared = table_.declared(config().quality_kind, dst, s.now());
  decl.frame = declared.frame;
  decl.value = declared.value;
  if (behavior().kind == Behavior::Liar && deviates_with(giver.id())) {
    // "Report a forwarding quality equal to 0 any time asked" — i.e. the
    // worst declarable quality of the configured kind.
    decl.value = min_quality(config().quality_kind);
  }
  count_signature();
  {
    const std::span<std::uint8_t> payload = s.arena().alloc(decl.signed_payload_size());
    SpanWriter pw(payload);
    decl.signed_payload_into(pw);
    pw.expect_full();
    decl.signature = identity().sign(BytesView(payload.data(), payload.size()));
  }
  trace_event(obs::EventKind::FqResp, giver.id(), trace_ref(h),
              static_cast<std::int64_t>(decl.value * 1e6));
  s.transfer(*this, decl.wire_size(), obs::WireKind::QualityDecl);
  return decl;
}

void G2GDelegationNode::check_attachments(Session& s,
                                          const std::vector<QualityDeclaration>& attachments) {
  const TimePoint now = s.now();
  for (const auto& decl : attachments) {
    if (decl.dst != id()) continue;  // declarations are about quality toward me
    count_verification();
    const auto* cert = env_.roster().find(decl.declarer);
    bool sig_ok = cert != nullptr;
    if (sig_ok) {
      // Signed payload built in the session arena (still the current
      // handshake attempt's generation — this runs from complete_relay).
      const std::span<std::uint8_t> payload = s.arena().alloc(decl.signed_payload_size());
      SpanWriter pw(payload);
      decl.signed_payload_into(pw);
      pw.expect_full();
      sig_ok = identity().suite().verify(cert->public_key,
                                         BytesView(payload.data(), payload.size()),
                                         decl.signature);
    }
    if (!sig_ok) {
      trace_event(obs::EventKind::TestByDestination, decl.declarer, 0, 2);
      continue;
    }
    // f_BD must equal f_DB for the declared timeframe — both nodes log the
    // same symmetric encounters.
    const auto own = table_.value_at_frame(config().quality_kind, decl.declarer, decl.frame, now);
    if (!own.has_value()) {
      // Frame no longer retained: unverifiable.
      trace_event(obs::EventKind::TestByDestination, decl.declarer, 0, 2);
      continue;
    }
    if (quality_mismatch(*own, decl.value)) {
      counters().quality_lies->add();
      trace_event(obs::EventKind::TestByDestination, decl.declarer, 0, 0);
      ProofOfMisbehavior pom;
      pom.kind = ProofOfMisbehavior::Kind::QualityLie;
      pom.culprit = decl.declarer;
      pom.evidence_declaration = decl;
      issue_pom(std::move(pom), metrics::DetectionMethod::TestByDestination, now - decl.at);
    } else {
      trace_event(obs::EventKind::TestByDestination, decl.declarer, 0, 1);
    }
  }
}

bool G2GDelegationNode::chain_check(const relay::PendingTest& t,
                                    const std::vector<ProofOfRelay>& pors, NodeId real_dst,
                                    TimePoint now) {
  const std::uint64_t ref = trace_ref(t.h);
  const auto record_cheat = [&] {
    counters().chain_cheats->add();
    trace_event(obs::EventKind::ChainCheck, t.relay, ref, 0);
  };
  // Presented PoRs in relay order.
  std::vector<ProofOfRelay> ordered = pors;
  std::sort(ordered.begin(), ordered.end(),
            [](const ProofOfRelay& a, const ProofOfRelay& b) { return a.at < b.at; });

  // The establishing PoR: the one whose taker_quality is the current f_m.
  // Initially that is the PoR the tested relay signed for us (f_AD).
  ProofOfRelay establisher = t.por;
  double expected_fm = t.por.taker_quality;

  for (const auto& por : ordered) {
    count_verification();
    const auto* cert = env_.roster().find(por.taker);
    if (cert == nullptr || por.h != t.h || por.giver != t.relay ||
        !identity().suite().verify(cert->public_key, por.signed_payload(),
                                   por.taker_signature)) {
      return true;  // malformed PoR: handled by the caller's validity pass
    }

    const bool claims_decoy = por.declared_dst != real_dst;
    if (claims_decoy && por.taker != real_dst) {
      // The relay pretended its taker was the destination (decoy on a
      // non-destination): a way to dump the message regardless of quality.
      record_cheat();
      ProofOfMisbehavior pom;
      pom.kind = ProofOfMisbehavior::Kind::ChainCheat;
      pom.culprit = t.relay;
      pom.evidence_accepted = establisher;
      pom.evidence_forwarded = por;
      issue_pom(std::move(pom), metrics::DetectionMethod::ChainCheck,
                now - (t.relayed_at + config().delta1));
      return false;
    }
    const bool is_delivery = por.taker == real_dst;

    // f_m attached on forward must match the quality the chain established.
    if (quality_mismatch(por.msg_quality, expected_fm)) {
      record_cheat();
      ProofOfMisbehavior pom;
      pom.kind = ProofOfMisbehavior::Kind::ChainCheat;
      pom.culprit = t.relay;
      pom.evidence_accepted = establisher;
      pom.evidence_forwarded = por;
      issue_pom(std::move(pom), metrics::DetectionMethod::ChainCheck,
                now - (t.relayed_at + config().delta1));
      return false;
    }
    if (!is_delivery) {
      // Delegation discipline: the taker must actually be better.
      if (por.taker_quality <= por.msg_quality + kQualityEps) {
        record_cheat();
        ProofOfMisbehavior pom;
        pom.kind = ProofOfMisbehavior::Kind::ChainCheat;
        pom.culprit = t.relay;
        pom.evidence_accepted = establisher;
        pom.evidence_forwarded = por;
        issue_pom(std::move(pom), metrics::DetectionMethod::ChainCheck,
                  now - (t.relayed_at + config().delta1));
        return false;
      }
      expected_fm = por.taker_quality;
      establisher = por;
    }
  }
  trace_event(obs::EventKind::ChainCheck, t.relay, ref, 1);
  return true;
}

}  // namespace g2g::proto
