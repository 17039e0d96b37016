// RelayNode: the protocol-agnostic G2G relay core.
//
// A RelayNode is a ProtocolNode that owns the two per-node engines of the
// relay core — HandshakeEngine (5-step relay phase, frame-driven) and
// AuditEngine (pending tests, POR_RQST challenges, storage proofs) — plus,
// through its ProtocolNode base, the PomLedger (blacklist + PoM log). The
// concrete G2G protocols derive from it and supply only policy:
//
//   * relay_attempt(): the policy-specific middle of one handshake —
//     epidemic offer/accept vs. delegation quality negotiation with decoy
//     destinations — returning the verified PoR and the encoded data frame.
//   * the small hooks (source_fm, on_delivered, begin_test, screen_pors)
//     that cover the delegation-only bookkeeping (encounter-table label,
//     chain check, test by the destination).
//
// The engines are friends: they act with the node's own access rights
// (cost counters, trace events, PoM issuance) without widening the
// ProtocolNode interface.
#pragma once

#include "g2g/proto/node.hpp"
#include "g2g/proto/relay/audit.hpp"
#include "g2g/proto/relay/handshake.hpp"
#include "g2g/proto/relay/state.hpp"

namespace g2g::proto::relay {

class RelayNode : public ProtocolNode {
 public:
  RelayNode(Env& env, crypto::NodeIdentity identity, NodeConfig config,
            BehaviorConfig behavior, AuditEngine::PresentMode mode)
      : ProtocolNode(env, std::move(identity), config, behavior),
        handshake_(*this),
        audit_(*this, mode) {}

  /// Source-side admission of the table entry `m`: seed the hold table.
  void generate(MessageRef m) { handshake_.generate(m, source_fm(m)); }

  // Introspection (tests).
  [[nodiscard]] bool stores_message(const MessageHash& h) const;
  [[nodiscard]] std::size_t por_count(const MessageHash& h) const;
  [[nodiscard]] bool has_handled(const MessageHash& h) const {
    return handshake_.has_handled(h);
  }
  [[nodiscard]] std::size_t pending_test_count() const { return audit_.pending_count(); }

  /// Engine access. Public because handshakes and audits are symmetric: a
  /// node's engine drives the *peer's* engine across the session.
  [[nodiscard]] HandshakeEngine& handshake() { return handshake_; }
  [[nodiscard]] const HandshakeEngine& handshake() const { return handshake_; }
  [[nodiscard]] AuditEngine& audit() { return audit_; }
  [[nodiscard]] const AuditEngine& audit() const { return audit_; }

 protected:
  /// The shared per-contact schedule: housekeeping, then the test phases
  /// (the source challenges its relays before new relays are negotiated),
  /// then the giver passes.
  static void run_contact_impl(Session& s, RelayNode& x, RelayNode& y);

  // -- policy hooks ----------------------------------------------------------
  /// One policy-specific handshake attempt against `taker` for `hold`.
  /// Everything up to (and including) PoR verification happens here; nullopt
  /// means the attempt ended (declined/aborted) with all accounting done.
  virtual std::optional<HandshakeOutcome> relay_attempt(Session& s, RelayNode& taker,
                                                        const MessageHash& h, Hold& hold) = 0;
  /// Initial quality label f_m of a self-generated message.
  [[nodiscard]] virtual double source_fm(MessageRef /*m*/) { return 0.0; }
  /// At the destination, right after delivery: Delegation runs the test by
  /// the destination over the embedded declarations.
  virtual void on_delivered(Session& /*s*/, const std::vector<QualityDeclaration>&
                            /*attachments*/) {}
  /// First screen of a due pending test; false skips the challenge entirely
  /// (Delegation: the source's hold, which names the destination, is gone).
  virtual bool begin_test(PendingTest& /*t*/, NodeId& /*real_dst*/) { return true; }
  /// Screen the presented PoRs before the validity pass; false fails the
  /// test (Delegation: chain check detected a cheat, PoM already issued).
  virtual bool screen_pors(const PendingTest& /*t*/, const std::vector<ProofOfRelay>& /*pors*/,
                           NodeId /*real_dst*/, TimePoint /*now*/) {
    return true;
  }

 private:
  friend class HandshakeEngine;
  friend class AuditEngine;

  HandshakeEngine handshake_;
  AuditEngine audit_;
};

}  // namespace g2g::proto::relay
