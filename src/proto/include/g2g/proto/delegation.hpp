// Vanilla Delegation Forwarding (Erramilli, Crovella, Chaintreau, Diot —
// MobiHoc 2008), in the two flavours the paper evaluates:
//   * Destination Frequency — forward to nodes that met the destination more
//     often than any node the message has seen so far;
//   * Destination Last Contact — forward to nodes that met the destination
//     more recently.
// Each message carries a forwarding-quality level f_m; a replica is created
// (and both copies relabelled) whenever a met node beats f_m. Victim of the
// dropper/liar experiments (Fig. 5).
#pragma once

#include "g2g/proto/quality.hpp"
#include "g2g/proto/vanilla_node.hpp"

namespace g2g::proto {

class DelegationNode final : public VanillaNode {
 public:
  DelegationNode(Env& env, crypto::NodeIdentity identity, NodeConfig config,
                 BehaviorConfig behavior);

  void generate(MessageRef m);
  static void run_contact(Session& s, DelegationNode& x, DelegationNode& y);

  void note_encounter(NodeId peer, TimePoint t) override;

  /// Forwarding quality toward `dst` as this node *declares* it when asked by
  /// `asker` (liars answer 0; vanilla Delegation uses the current value).
  [[nodiscard]] double declare_quality(NodeId dst, NodeId asker) const;

  // Introspection (tests).
  [[nodiscard]] const EncounterTable& table() const { return table_; }

 private:
  void offer_all(Session& s, DelegationNode& taker);

  EncounterTable table_;
};

}  // namespace g2g::proto
