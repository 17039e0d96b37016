#include "g2g/proto/delegation.hpp"

namespace g2g::proto {

DelegationNode::DelegationNode(Env& env, crypto::NodeIdentity identity, NodeConfig config,
                               BehaviorConfig behavior)
    : VanillaNode(env, std::move(identity), config, behavior),
      table_(config.quality_frame) {}

void DelegationNode::note_encounter(NodeId peer, TimePoint t) { table_.record(peer, t); }

double DelegationNode::declare_quality(NodeId dst, NodeId asker) const {
  if (behavior().kind == Behavior::Liar && deviates_with(asker)) {
    return min_quality(config().quality_kind);
  }
  return table_.current(config().quality_kind, dst);
}

void DelegationNode::generate(MessageRef m) {
  // "When a message is generated, it is associated with the forwarding
  // quality of the sender" (Section VI).
  originate(m, table_.current(config().quality_kind, env_.messages().body(m).dst));
}

void DelegationNode::run_contact(Session& s, DelegationNode& x, DelegationNode& y) {
  x.purge(s.now());
  y.purge(s.now());
  x.offer_all(s, y);
  y.offer_all(s, x);
}

void DelegationNode::offer_all(Session& s, DelegationNode& taker) {
  // A hoarder free-rides: it only spends transmit energy on its own traffic.
  const bool hoarding =
      behavior().kind == Behavior::Hoarder && deviates_with(taker.id());
  s.transfer(*this, buffer_.size() * sizeof(MessageHash),
             obs::WireKind::SummaryVector);  // summary vector
  const MessageTable& messages = s.env().messages();
  // receive() changes only the taker, so this buffer stays put for the pass.
  for (Entry& e : buffer_) {
    if (hoarding && !e.mine) continue;
    if (s.exhausted()) break;  // contact too short to carry more
    if (taker.seen(e.msg)) continue;

    const NodeId dst = messages.body(e.msg).dst;
    if (dst == taker.id()) {
      // Direct delivery, regardless of quality.
      s.transfer(*this, e.bytes, obs::WireKind::Payload);
      taker.receive(s, *this, e.msg, e.fm, e.expires);
      continue;
    }

    // Quality query (tiny unsigned exchange in the vanilla protocol).
    s.transfer(*this, 40, obs::WireKind::FqRqst);
    s.transfer(taker, 16, obs::WireKind::QualityDecl);
    const double q = taker.declare_quality(dst, id());
    if (q > e.fm) {
      s.transfer(*this, e.bytes, obs::WireKind::Payload);
      // "...creates a replica of the message, labels both messages with the
      // forwarding quality of node B, and forwards one of the two replicas."
      e.fm = q;
      taker.receive(s, *this, e.msg, q, e.expires);
    }
  }
}

}  // namespace g2g::proto
