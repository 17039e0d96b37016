#include "g2g/proto/relay/relay_node.hpp"

namespace g2g::proto::relay {

bool RelayNode::stores_message(const MessageHash& h) const {
  const Hold* hold = handshake_.find_hold(h);
  return hold != nullptr && hold->has_msg;
}

std::size_t RelayNode::por_count(const MessageHash& h) const {
  const Hold* hold = handshake_.find_hold(h);
  return hold == nullptr ? 0 : hold->pors.size();
}

void RelayNode::run_contact_impl(Session& s, RelayNode& x, RelayNode& y) {
  x.handshake_.purge(s.now());
  y.handshake_.purge(s.now());
  // Test phases first: the source challenges its relays before new relays
  // are negotiated.
  x.audit_.run(s, y);
  y.audit_.run(s, x);
  x.handshake_.giver_pass(s, y);
  y.handshake_.giver_pass(s, x);
}

}  // namespace g2g::proto::relay
