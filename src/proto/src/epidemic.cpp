#include "g2g/proto/epidemic.hpp"

namespace g2g::proto {

void EpidemicNode::run_contact(Session& s, EpidemicNode& x, EpidemicNode& y) {
  x.purge(s.now());
  y.purge(s.now());
  x.offer_all(s, y);
  y.offer_all(s, x);
}

void EpidemicNode::offer_all(Session& s, EpidemicNode& taker) {
  // A hoarder free-rides: it only spends transmit energy on its own traffic.
  const bool hoarding =
      behavior().kind == Behavior::Hoarder && deviates_with(taker.id());
  // Summary-vector exchange: one hash per carried message.
  s.transfer(*this, buffer_.size() * sizeof(MessageHash), obs::WireKind::SummaryVector);
  // receive() changes only the taker, so this buffer stays put for the pass.
  for (const Entry& e : buffer_) {
    if (hoarding && !e.mine) continue;
    if (s.exhausted()) break;  // contact too short to carry more
    if (taker.seen(e.msg)) continue;
    s.transfer(*this, e.bytes, obs::WireKind::Payload);
    taker.receive(s, *this, e.msg, e.fm, e.expires);
  }
}

}  // namespace g2g::proto
