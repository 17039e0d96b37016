// Vanilla Epidemic Forwarding (Vahdat & Becker, 2000).
//
// Every contact is a forwarding opportunity: if the giver carries a message
// the taker has not seen, the message is replicated to the taker. Used by the
// paper as the delay/success-rate optimal (but costly) benchmark, and as the
// victim of the message-dropper experiments (Fig. 3).
#pragma once

#include "g2g/proto/vanilla_node.hpp"

namespace g2g::proto {

class EpidemicNode final : public VanillaNode {
 public:
  using VanillaNode::VanillaNode;

  /// Inject a locally-generated message (the node is its source).
  void generate(MessageRef m) { originate(m, 0.0); }

  /// Run both directions of the forwarding exchange for one contact.
  static void run_contact(Session& s, EpidemicNode& x, EpidemicNode& y);

 private:
  void offer_all(Session& s, EpidemicNode& taker);
};

}  // namespace g2g::proto
