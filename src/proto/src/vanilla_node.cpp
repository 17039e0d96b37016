#include "g2g/proto/vanilla_node.hpp"

#include <algorithm>

namespace g2g::proto {

bool VanillaNode::carries(const MessageHash& h) const {
  return std::ranges::any_of(buffer_,
                             [&](const Entry& e) { return env_.messages().hash(e.msg) == h; });
}

bool VanillaNode::has_seen(const MessageHash& h) const {
  const MessageRef m = env_.messages().find(h);
  return m != kNoMessage && seen(m);
}

void VanillaNode::originate(MessageRef m, double fm) {
  mark_seen(m);
  store(Entry{m, fm, env_.now() + config().delta1, env_.messages().wire(m).size(), true});
}

void VanillaNode::receive(Session& s, const ProtocolNode& giver, MessageRef m, double fm,
                          TimePoint expires) {
  mark_seen(m);
  s.env().notify_relayed(m, giver.id(), id());

  const SealedMessage& msg = s.env().messages().body(m);
  if (msg.dst == id()) {
    const auto opened = open_message(identity(), msg, s.env().roster());
    count_verification();  // inner sender-signature check
    if (opened.has_value() && opened->authentic) s.env().notify_delivered(m, id());
    return;  // destinations consume; the seen set suppresses re-reception
  }

  // A message dropper "uses the system to send and receive messages and
  // just drops every message it happens to relay" (Section V).
  if (behavior().kind == Behavior::Dropper && deviates_with(giver.id())) return;

  store(Entry{m, fm, expires, s.env().messages().wire(m).size(), false});
  enforce_buffer_cap();
}

void VanillaNode::store(const Entry& e) {
  const MessageTable& messages = env_.messages();
  const auto pos = std::ranges::lower_bound(
      buffer_, messages.hash(e.msg), {}, [&](const Entry& x) { return messages.hash(x.msg); });
  buffer_changed(static_cast<std::int64_t>(e.bytes));
  buffer_.insert(pos, e);
}

void VanillaNode::enforce_buffer_cap() {
  const std::size_t cap = config().max_buffer_messages;
  if (cap == 0) return;
  while (buffer_.size() > cap) {
    // Evict the entry closest to expiry: it has the least forwarding value.
    // Ties go to the first in H(m) order.
    const auto victim = std::ranges::min_element(buffer_, {}, &Entry::expires);
    buffer_changed(-static_cast<std::int64_t>(victim->bytes));
    buffer_.erase(victim);
  }
}

void VanillaNode::purge(TimePoint now) {
  std::size_t kept = 0;
  for (const Entry& e : buffer_) {
    if (e.expires <= now) {
      buffer_changed(-static_cast<std::int64_t>(e.bytes));
    } else {
      buffer_[kept++] = e;
    }
  }
  buffer_.resize(kept);
}

void VanillaNode::mark_seen(MessageRef m) {
  if (m >= seen_.size()) seen_.resize(env_.messages().size());
  seen_[m] = true;
}

}  // namespace g2g::proto
