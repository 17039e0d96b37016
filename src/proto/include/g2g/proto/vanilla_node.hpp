// VanillaNode: the store the two vanilla protocols share.
//
// Vanilla Epidemic and Delegation keep the same things about a message: a
// buffered copy until the TTL runs out (or the finite-buffer cap evicts it)
// and, for good, the fact that the node has seen it. Both hold message-table
// refs (Env::messages()), never copies: the buffer is a vector in ascending
// H(m), the order offers go out in, and the seen set is a bitset by ref.
// The concrete nodes supply only the offer policy.
#pragma once

#include <vector>

#include "g2g/proto/node.hpp"

namespace g2g::proto {

class VanillaNode : public ProtocolNode {
 public:
  using ProtocolNode::ProtocolNode;

  // Introspection (tests).
  [[nodiscard]] bool carries(const MessageHash& h) const;
  [[nodiscard]] bool has_seen(const MessageHash& h) const;
  [[nodiscard]] std::size_t buffer_size() const { return buffer_.size(); }

 protected:
  struct Entry {
    MessageRef msg = kNoMessage;
    double fm = 0.0;  ///< quality label (Delegation only)
    TimePoint expires;  ///< creation + delta1 (the vanilla TTL), carried along
    std::size_t bytes = 0;
    bool mine = false;  ///< this node originated the message
  };

  /// Buffer a message this node generated, with quality label `fm`.
  void originate(MessageRef m, double fm);
  /// The giver hands over its table ref: an in-process call, no bytes cross.
  /// The destination consumes the message; a dropper discards it; anyone
  /// else buffers it.
  void receive(Session& s, const ProtocolNode& giver, MessageRef m, double fm,
               TimePoint expires);
  /// TTL housekeeping, in H(m) order.
  void purge(TimePoint now);
  [[nodiscard]] bool seen(MessageRef m) const { return m < seen_.size() && seen_[m]; }

  /// Buffered messages in ascending H(m) order, the order they are offered in.
  std::vector<Entry> buffer_;

 private:
  /// Buffer `e` at its place in H(m) order and charge its bytes.
  void store(const Entry& e);
  /// Finite-buffer extension: evict entries closest to expiry when over cap.
  void enforce_buffer_cap();
  void mark_seen(MessageRef m);

  /// Every message this node has seen, by table ref.
  std::vector<bool> seen_;
};

}  // namespace g2g::proto
